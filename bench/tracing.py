"""Per-layer spans recorded from outside tropcalc.

The tracer wraps the public functions and methods of each layer module and
rebinds every reference to them inside the package, including names copied
into other modules by ``from ... import`` and functions stored in
module-level tables.  Each wrapped call records a span (name, start, end,
parent, op); a layer's self time is the duration of its spans minus the
part covered by their wrapped children.  Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("lp", "linalg", "polyhedra", "superforms", "deltaforms",
          "products", "morphisms", "integration", "serialization")

# Functions and methods called so often, and doing so little, that a span
# per call would cost more than the work it measures: value conversions,
# accessors and trivial constructors.  Their time counts as self time of
# the wrapped caller.
_SKIPPED = {"linalg.rat", "linalg.vec", "lp.LPResult.__init__"}
_SKIPPED_METHODS = {"key", "contains", "is_zero", "degree", "const", "var",
                    "affine", "zero", "constant", "from_poly", "monomial",
                    "same_as", "rank", "lattice", "ptype", "top_cells"}

# Per-layer counts: metric name -> qualified names of the calls it counts.
COUNTERS = {
    "lp.solves": ("lp.solve_lp",),
    "polyhedra.builds": ("polyhedra.Polyhedron.__init__",
                         "polyhedra.Polyhedron.try_new"),
    "linalg.snf_calls": ("linalg.smith_normal_form",),
    "superforms.pullback_calls": ("superforms.pullback_form",
                                  "superforms.restrict_to"),
    "deltaforms.balance_checks": ("deltaforms.check_balanced",),
    "deltaforms.corner_loci": ("deltaforms.corner_locus",),
    "deltaforms.boundaries": ("deltaforms.boundary1", "deltaforms.boundary2"),
    "products.wedges": ("products.diagonal_wedge",),
    "morphisms.pushes": ("morphisms.pushforward_hat",
                         "morphisms.pushforward_cells"),
    "morphisms.pullbacks": ("morphisms.pullback",),
    "integration.cell_integrals": ("integration.integrate_cell",),
}


def _poly_key(signature, args, kwargs, result):
    """Canonical key of a polyhedron build; an empty one is keyed by its
    input."""
    bound = signature.bind(*args, **kwargs)
    if "self" in bound.arguments:          # __init__ fills in self
        return bound.arguments["self"].key()
    if result is not None:
        return result.key()
    bound.apply_defaults()

    def rows(constraints):
        return tuple((tuple(a), b) for a, b in constraints)
    return ("empty", bound.arguments["ambient_rank"],
            rows(bound.arguments["ineqs"]), rows(bound.arguments["eqs"]))


class Tracer:
    """Wraps the layers of the imported tropcalc package."""

    def __init__(self):
        self.names: list = []          # qualified name of each wrapped callable
        self.layer_of: list = []       # layer index of each name
        # Columnar span store: name index, start, end, parent span, op id.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.self_time = [0.0] * len(LAYERS)
        self.calls = Counter()
        self.poly_keys: set = set()
        self.op_id = -1                # -1 while setting up
        self.setup_self_time = [0.0] * len(LAYERS)
        self._stack: list = []         # [span index, child time] per open call
        self._bindings: list = []      # (owner, attribute, original, wrapped)
        self.installed = False
        self._prepare()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, qualname: str, layer: int, fn):
        idx = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        stack = self._stack
        clock = time.perf_counter
        self_time = self.self_time
        calls = self.calls
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        keyed = qualname in ("polyhedra.Polyhedron.__init__",
                             "polyhedra.Polyhedron.try_new")
        signature = inspect.signature(fn) if keyed else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The span's slot is taken on entry, so that spans are stored in
            # call order and a child can name its parent's index.
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[span] = end
                stack.pop()
                dur = end - start
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[qualname] += 1
            if keyed:
                tracer.poly_keys.add(_poly_key(signature, args, kwargs,
                                               result))
            return result

        return wrapper

    def _prepare(self):
        originals = {}                 # id(original) -> wrapped
        for layer, name in enumerate(LAYERS):
            mod = importlib.import_module(f"tropcalc.{name}")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if f"{name}.{attr}" in _SKIPPED:
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{name}.{attr}", layer, value)
                    originals[id(value)] = wrapped
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._prepare_class(name, layer, value)
        # Rebind every module-level reference to a wrapped function.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tropcalc"
                                   or mod_name.startswith("tropcalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                new = _rebound(value, originals)
                if new is not None:
                    self._bindings.append((mod, attr, value, new))

    def _prepare_class(self, layer_name, layer, cls):
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIPPED_METHODS:
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            qual = f"{layer_name}.{cls.__name__}.{attr}"
            if qual in _SKIPPED:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(qual, layer, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(qual, layer, raw)
            else:
                continue
            self._bindings.append((cls, attr, raw, new))

    def install(self):
        if not self.installed:
            for owner, attr, _, new in self._bindings:
                setattr(owner, attr, new)
            self.installed = True

    def uninstall(self):
        if self.installed:
            for owner, attr, old, _ in self._bindings:
                setattr(owner, attr, old)
            self.installed = False

    # -- results ---------------------------------------------------------------

    def count(self, metric: str) -> int:
        return sum(self.calls[q] for q in COUNTERS[metric])

    def end_setup(self):
        """Keep the set-up's self times apart and count ops afresh."""
        self.setup_self_time = list(self.self_time)
        for layer in range(len(LAYERS)):
            self.self_time[layer] = 0.0
        self.calls.clear()
        self.poly_keys.clear()

    def metrics(self, ops: int) -> dict:
        """Work and self time per traced op for each layer.

        Serialization runs only while the inputs are parsed, so its self
        time is the set-up's.  Per-op figures do not depend on how many ops
        fit in a run, so they compare across commits of different speed.
        """
        n = max(ops, 1)
        out = {m: (self.count(m) / n, "count/op") for m in COUNTERS}
        builds = self.count("polyhedra.builds")
        out["polyhedra.distinct_ratio"] = (
            len(self.poly_keys) / builds if builds else 0.0, "ratio")
        for layer, name in enumerate(LAYERS):
            if name == "serialization":
                out[f"{name}.self_s"] = (self.setup_self_time[layer], "s")
            else:
                out[f"{name}.self_s"] = (self.self_time[layer] / n, "s/op")
        return out

    def write(self, path: str):
        """Write every span, once, as JSON lines.

        The first line names the wrapped callables and their layers; each
        following line is one span [name index, start, end, parent span,
        op], with op -1 for set-up and parent -1 for a top-level call.
        """
        header = {"names": self.names,
                  "layers": [LAYERS[i] for i in self.layer_of],
                  "columns": ["name", "start", "end", "parent", "op"]}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                fh.write(json.dumps(row) + "\n")


def _rebound(value, originals):
    """The value with wrapped functions substituted, or None if unchanged.

    Looks one level into dicts and tuples so that dispatch tables
    such as serialization's kind registry call the wrapped functions too.
    """
    if id(value) in originals and inspect.isfunction(value):
        return originals[id(value)]
    if isinstance(value, tuple):
        items = [_rebound(v, originals) for v in value]
        if any(i is not None for i in items):
            return tuple(v if i is None else i for v, i in zip(value, items))
        return None
    if isinstance(value, dict):
        changed = {k: _rebound(v, originals) for k, v in value.items()}
        if any(v is not None for v in changed.values()):
            return {k: value[k] if changed[k] is None else changed[k]
                    for k in value}
    return None

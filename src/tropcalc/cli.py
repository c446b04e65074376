"""Command-line front end: batch computation, validation, and verification.

Exit codes: 0 on success, 1 on an identity or validation failure, 2 on a
usage or parse error.  All output is canonical JSON or plain report lines,
deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import serialization as ser
from .deltaforms import (DeltaForm, PSFunction, boundary1, boundary2,
                         check_balanced, corner_locus, dP1, dP2, equal,
                         tropical_pl_check)
from .errors import TropcalcError
from .integration import green_check, integrate_cell, stokes_check
from .linalg import rat_str
from .morphisms import (AffineMap, graph_cycle, projection_formula_check,
                        pullback, pushforward_cells, pushforward_hat)
from .polyhedra import Polyhedron
from .superforms import Superform, j_op

PASS, FAIL, USAGE = 0, 1, 2


# ---------------------------------------------------------------------------
# expression language: name | fn(arg, ...) with the operations listed below


class UsageError(TropcalcError):
    """Bad command-line input; reported with exit code 2."""


class ExprError(UsageError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch in "_-.":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_-."):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExprError(f"unexpected character {ch!r}")
    return tokens


def _parse_expr(tokens, pos):
    if pos >= len(tokens) or tokens[pos] in "(),":
        raise ExprError("expected a name")
    name = tokens[pos]
    pos += 1
    if pos < len(tokens) and tokens[pos] == "(":
        pos += 1
        args = []
        if pos < len(tokens) and tokens[pos] != ")":
            while True:
                arg, pos = _parse_expr(tokens, pos)
                args.append(arg)
                if pos < len(tokens) and tokens[pos] == ",":
                    pos += 1
                    continue
                break
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ExprError("expected ')'")
        return ("call", name, args), pos + 1
    return ("name", name), pos


def parse_expression(text: str):
    tree, pos = _parse_expr(_tokenize(text), 0)
    if pos != len(_tokenize(text)):
        raise ExprError("trailing input after the expression")
    return tree


_OPERATIONS = {
    "wedge": 2, "corner": 2, "push": 2, "pushhat": 2, "pull": 2,
    "cross": 2, "dP1": 1, "dP2": 1, "bnd1": 1, "bnd2": 1, "graph": 1,
}


def _want(value, cls, what):
    if not isinstance(value, cls):
        raise ExprError(f"{what} expects a {cls.__name__}, "
                        f"got {type(value).__name__}")
    return value


def eval_expression(tree, objects):
    from .products import cross as cross_op, diagonal_wedge
    kind = tree[0]
    if kind == "name":
        name = tree[1]
        if name not in objects:
            raise ExprError(f"unknown object {name!r}")
        return objects[name]
    _, fn, args = tree
    if fn not in _OPERATIONS:
        raise ExprError(f"unknown operation {fn!r}")
    if len(args) != _OPERATIONS[fn]:
        raise ExprError(f"{fn} takes {_OPERATIONS[fn]} argument(s)")
    vals = [eval_expression(a, objects) for a in args]
    if fn == "wedge":
        return diagonal_wedge(_want(vals[0], DeltaForm, fn),
                              _want(vals[1], DeltaForm, fn))
    if fn == "corner":
        return corner_locus(_want(vals[0], PSFunction, fn),
                            _want(vals[1], DeltaForm, fn))
    if fn == "push":
        return pushforward_cells(_want(vals[0], AffineMap, fn),
                                 _want(vals[1], DeltaForm, fn))
    if fn == "pushhat":
        return pushforward_hat(_want(vals[0], AffineMap, fn),
                               _want(vals[1], DeltaForm, fn))
    if fn == "pull":
        return pullback(_want(vals[0], AffineMap, fn),
                        _want(vals[1], DeltaForm, fn))
    if fn == "cross":
        return cross_op(_want(vals[0], DeltaForm, fn),
                        _want(vals[1], DeltaForm, fn))
    if fn == "graph":
        return graph_cycle(_want(vals[0], AffineMap, fn))
    op = {"dP1": dP1, "dP2": dP2, "bnd1": boundary1, "bnd2": boundary2}[fn]
    return op(_want(vals[0], DeltaForm, fn))


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_balance(args) -> int:
    objects = ser.load_document(args.file)
    if args.name not in objects:
        print(f"error: no object named {args.name!r}", file=sys.stderr)
        return USAGE
    form = objects[args.name]
    if not isinstance(form, DeltaForm):
        print("error: balancing applies to polyhedral forms",
              file=sys.stderr)
        return USAGE
    ok, failures = check_balanced(form)
    if ok:
        print(f"{args.name}: balanced")
        return PASS
    print(f"{args.name}: not balanced at {len(failures)} face(s)")
    for tau, comps in failures:
        where = ",".join(rat_str(x) for x in tau.relint_point)
        bad = " ".join(str(j) for j, _ in comps)
        print(f"  face through ({where}): nonzero complement "
              f"component(s) {bad}")
    return FAIL


def cmd_compute(args) -> int:
    objects = ser.load_document(args.file)
    tree = parse_expression(args.expression)
    result = eval_expression(tree, objects)
    text = ser.dumps(ser.document_to_json({"result": result}))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return PASS


def _safe(fn, *args) -> bool:
    """A verification instance that raises counts as a failure."""
    try:
        return bool(fn(*args))
    except TropcalcError:
        return False


def _dump_counterexample(label, sides):
    print(f"FAIL {label}")
    doc = ser.dumps(ser.document_to_json(sides))
    sys.stdout.write(doc)


class SizeSpec:
    """Bounds for randomized suites, e.g. 'count=20,r=2,deg=3'."""

    def __init__(self, text=None):
        self.count, self.rank, self.deg = 10, 2, 3
        for part in (text or "").split(","):
            if not part:
                continue
            key, _, value = part.partition("=")
            if key not in ("count", "r", "deg"):
                raise UsageError(f"unknown size key {key!r}")
            try:
                number = int(value)
            except ValueError:
                raise UsageError(f"size {key} needs an integer, "
                                 f"got {value!r}") from None
            if number < (0 if key == "deg" else 1):
                raise UsageError(f"size {key}={number} is out of range")
            if key == "count":
                self.count = number
            elif key == "r":
                self.rank = min(number, 4)
            else:
                self.deg = min(number, 4)


def _random_polytope(rng, rank):
    from .polyhedra import Polyhedron as P
    while True:
        ineqs = []
        for i in range(rank):
            e = tuple(int(i == j) for j in range(rank))
            ineqs.append((e, rng.randint(1, 3)))
            ineqs.append((tuple(-x for x in e), rng.randint(0, 3)))
        cut = (tuple(rng.randint(-2, 2) for _ in range(rank)),
               rng.randint(0, 4))
        cand = P.try_new(rank, ineqs + [cut])
        if cand is not None and cand.dim == rank:
            return cand


def _random_superform(rng, rank, p, q, deg):
    from .superforms import Poly
    from itertools import combinations
    i_choices = list(combinations(range(rank), p))
    j_choices = list(combinations(range(rank), q))
    terms = {}
    for _ in range(2):
        e = [0] * rank
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(rank)] += 1
        poly = Poly(rank, {tuple(e): Fraction(rng.randint(-3, 3))})
        key = (rng.choice(i_choices), rng.choice(j_choices))
        terms[key] = terms.get(key, Poly(rank)) + poly
    return Superform(rank, p, q, terms)


def _random_pl(rng, rank):
    rows = set()
    while len(rows) < 3:
        rows.add(tuple(rng.randint(-2, 2) for _ in range(rank))
                 + (rng.randint(-2, 2),))
    return PSFunction.from_minmax(rank, rng.choice(["max", "min"]),
                                  sorted(rows))


def _random_cycle(rng, rank, codim):
    """Nonzero cycle of codimension codim by iterated corner loci of the full
    space; a chain that reaches zero starts over from the full space."""
    while True:
        a = DeltaForm.full_space(rank)
        for _ in range(codim):
            a = corner_locus(_random_pl(rng, rank), a, assume_balanced=True)
            if a.is_zero():
                break
        if not a.is_zero():
            return a


def _suite_stokes(rng, size):
    for idx in range(size.count):
        rank = 1 + idx % size.rank
        sigma = _random_polytope(rng, rank)
        c = DeltaForm.from_weights(rank, 0, [(sigma, rng.randint(1, 3))])
        eta = _random_superform(rng, rank, rank - 1, rank, size.deg)
        yield f"stokes[{idx}]", _safe(stokes_check, c, eta), {
            "cells": c, "integrand": eta}


def _suite_green(rng, size):
    for idx in range(size.count):
        rank = 1 + idx % min(size.rank, 2)
        sigma = _random_polytope(rng, rank)
        c = DeltaForm.from_weights(rank, 0, [(sigma, 1)])
        p = rng.randint(0, rank - 1)
        q = rank - 1 - p
        alpha = _random_superform(rng, rank, p, p, size.deg)
        alpha = alpha + j_op(alpha).scale(-1 if p % 2 else 1)
        beta = _random_superform(rng, rank, q, q, size.deg)
        beta = beta + j_op(beta).scale(-1 if q % 2 else 1)
        yield f"green[{idx}]", _safe(green_check, c, alpha, beta), {
            "cells": c, "alpha": alpha, "beta": beta}


def _suite_pl(rng, size):
    for idx in range(size.count):
        rank = 1 + idx % size.rank
        phi = _random_pl(rng, rank)
        a = _random_cycle(rng, rank, rng.randint(0, rank - 1))
        yield f"pl[{idx}]", _safe(tropical_pl_check, phi, a), {"form": a}


def _suite_projection(rng, size):
    for idx in range(size.count):
        f = AffineMap.projection(2, 1)
        a = _random_cycle(rng, 2, rng.randint(0, 1))
        b = _random_cycle(rng, 1, rng.randint(0, 1))
        yield f"projection[{idx}]", _safe(projection_formula_check, f, a, b), {
            "alpha": a, "beta": b}


def _suite_assoc(rng, size):
    from .products import diagonal_wedge
    for idx in range(size.count):
        rank = 1 + idx % size.rank
        a = _random_cycle(rng, rank, rng.randint(0, 1))
        b = _random_cycle(rng, rank, rng.randint(0, 1))
        ok = _safe(lambda: equal(diagonal_wedge(a, b),
                                 diagonal_wedge(b, a)))
        yield f"assoc[{idx}]", ok, {"a": a, "b": b}


_SUITES = {"stokes": _suite_stokes, "green": _suite_green,
           "pl": _suite_pl, "projection": _suite_projection,
           "assoc": _suite_assoc}


def _file_suite(suite, objects):
    """Run a suite over the named objects of a document."""
    forms = sorted((n, o) for n, o in objects.items()
                   if isinstance(o, DeltaForm))
    functions = sorted((n, o) for n, o in objects.items()
                       if isinstance(o, PSFunction))
    maps = sorted((n, o) for n, o in objects.items()
                  if isinstance(o, AffineMap))
    if suite == "pl":
        for fname, phi in functions:
            for aname, a in forms:
                if phi.rank != a.rank:
                    continue
                yield (f"pl[{fname},{aname}]",
                       _safe(tropical_pl_check, phi, a), {"form": a})
    elif suite == "assoc":
        from .products import diagonal_wedge
        for i, (n1, a) in enumerate(forms):
            for n2, b in forms[i:]:
                if a.rank != b.rank:
                    continue
                ok = _safe(lambda: equal(diagonal_wedge(a, b),
                                         diagonal_wedge(b, a)))
                yield f"assoc[{n1},{n2}]", ok, {"a": a, "b": b}
    elif suite == "projection":
        for mname, f in maps:
            for n1, a in forms:
                for n2, b in forms:
                    if (a.rank != f.source_rank
                            or b.rank != f.target_rank):
                        continue
                    ok = _safe(projection_formula_check, f, a, b)
                    yield (f"projection[{mname},{n1},{n2}]", ok,
                           {"alpha": a, "beta": b})
    else:
        raise UsageError(
            f"suite {suite!r} has no file mode; use --random")


def cmd_verify(args) -> int:
    size = SizeSpec(args.size)
    if args.random:
        rng = random.Random(args.seed)
        instances = _SUITES[args.suite](rng, size)
    else:
        objects = ser.load_document(args.file)
        instances = _file_suite(args.suite, objects)
    failures = 0
    total = 0
    for label, ok, sides in instances:
        total += 1
        if ok:
            print(f"pass {label}")
        else:
            failures += 1
            _dump_counterexample(label, sides)
    if total == 0:
        raise UsageError(f"suite {args.suite!r} found no instances to check")
    print(f"{args.suite}: {total - failures}/{total} passed")
    return PASS if failures == 0 else FAIL


def cmd_integrate(args) -> int:
    objects = ser.load_document(args.file)
    for name in (args.form, args.cells):
        if name not in objects:
            print(f"error: no object named {name!r}", file=sys.stderr)
            return USAGE
    form = objects[args.form]
    region = objects[args.cells]
    if not isinstance(form, Superform):
        print("error: the integrand must be a superform", file=sys.stderr)
        return USAGE
    total = Fraction(0)
    if isinstance(region, Polyhedron):
        total = integrate_cell(region, form)
    elif isinstance(region, DeltaForm):
        for cell, _ in region.cells:
            total += region.weight_of(cell) * integrate_cell(cell, form)
    else:
        print("error: the cell set must be a polyhedron or a weighted form",
              file=sys.stderr)
        return USAGE
    print(rat_str(total))
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcalc",
        description="Exact calculus of polyhedral superforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-balance", help="test the balancing condition")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(fn=cmd_check_balance)

    p = sub.add_parser("compute", help="evaluate an expression over a file")
    p.add_argument("file")
    p.add_argument("expression")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", action="store_true",
                   help="generate randomized instances instead of a file")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default=None,
                   help="bounds, e.g. 'count=20,r=2,deg=3'")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("integrate", help="integrate a form over cells")
    p.add_argument("file")
    p.add_argument("form")
    p.add_argument("cells")
    p.set_defaults(fn=cmd_integrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.random and args.file is None:
        parser.error("verify needs a file or --random")
    try:
        return args.fn(args)
    except (ser.ParseError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except TropcalcError as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())

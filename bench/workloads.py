"""The benchmark's workloads: seeded inputs, the timed computation, checks.

Each workload writes its inputs as a document in tropcalc's JSON interchange
format, made only of plain data (integer rows of tropical polynomials,
integer matrices, polynomial coefficients, polytope inequalities), plus the
reference values its checks need.  ``build`` parses the document with
tropcalc's serialization layer into program objects; ``run`` is one op's
timed computation; ``check`` validates an op's output against a computation
made apart from the program, or against a property the method must have,
and returns a list of failure messages (empty when the output is right).

Two random streams make the inputs.  ``shapes`` does not depend on the seed:
it fixes the combinatorial shape of instance i (which lattice vectors,
exponent patterns, sectors and form types occur).  ``rng`` is seeded and
picks every number (constants, coefficients, positions).  Every run thus
meets the same mix of shapes in the same order, with different numbers, so
that a run of a few ops still measures a steady mix.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations

from oracle import (box_moment, compose_tropical, cycle_degree, det2,
                    integer_inverse_2x2, rat_str, substitute, top_form_sign,
                    weights)

FORMAT_VERSION = "1"


def _half(rng, lo, hi):
    """A random multiple of 1/2 in [lo, hi]."""
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def _psfunction(rank, kind, rows):
    return {"object": "psfunction", "rank": rank, "kind": kind,
            "terms": [[int(x) for x in row[:-1]] + [rat_str(row[-1])]
                      for row in rows]}


def _superform(rank, p, q, terms):
    """terms: {(I, J): {exponent: Fraction}}"""
    return {"object": "superform", "rank": rank, "p": p, "q": q,
            "terms": [{"I": list(i), "J": list(j),
                       "poly": [{"exp": list(e), "coef": rat_str(c)}
                                for e, c in sorted(poly.items())]}
                      for (i, j), poly in sorted(terms.items())]}


def _polyhedron(rank, ineqs, eqs=()):
    return {"object": "polyhedron", "rank": rank,
            "ineqs": [list(a) + [rat_str(b)] for a, b in ineqs],
            "eqs": [list(a) + [rat_str(b)] for a, b in eqs]}


def _affinemap(matrix, translate):
    return {"object": "affinemap", "source_rank": len(matrix[0]),
            "target_rank": len(matrix),
            "matrix": [list(row) for row in matrix],
            "translate": [rat_str(t) for t in translate]}


def _poly(rng, shapes, rank, degrees):
    """One monomial of each listed total degree: the exponent split comes
    from ``shapes``, the nonzero rational coefficient from ``rng``."""
    out = {}
    for d in degrees:
        e = [0] * rank
        for _ in range(d):
            e[shapes.randrange(rank)] += 1
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _box_ineqs(lo, hi):
    rank = len(lo)
    out = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        out.append((e, hi[i]))
        out.append((tuple(-x for x in e), -lo[i]))
    return out


def parse(tc, doc):
    """Program objects from a generated document, via tropcalc's parser."""
    ser = tc.serialization
    return ser.document_from_json(ser.loads(json.dumps(doc)))


# ---------------------------------------------------------------------------
# intersect: stable intersections of tropical plane curves

# Position of 0, dx and dy in increasing order: the six open sectors in
# which the vertex of the second line can sit relative to the first, off
# the rays, so that the two lines always meet transversally.
_SECTORS = list(permutations(range(3)))


class Intersect:
    """Stable intersection of two tropical lines in the plane.

    Each curve is the corner locus of max{x + a, y + b, c}, the degree-1
    tropical polynomial with all monomials present.  Instance i puts the
    vertex of the second line in sector i mod 6 of the first; the seed picks
    the vertices and the constant terms.  The op
    computes both curves, their stable intersection
    (``products.diagonal_wedge``) and its degree.
    """

    name = "intersect"
    pool = 16

    def generate(self, rng, shapes):
        objects, meta = {}, []
        for i in range(self.pool):
            pos0, posx, posy = _SECTORS[i % len(_SECTORS)]
            g1, g2 = _half(rng, 1, 3), _half(rng, 1, 3)
            level = [Fraction(0), g1, g1 + g2]
            # Both vertices stay in the positive orthant, so the origin
            # always lies where the constant term attains the max.
            va = (_half(rng, 7, 9), _half(rng, 7, 9))
            vb = (va[0] + level[posx] - level[pos0],
                  va[1] + level[posy] - level[pos0])
            for side, (vx, vy) in (("a", va), ("b", vb)):
                c = _half(rng, -3, 3)
                rows = [(1, 0, c - vx), (0, 1, c - vy), (0, 0, c)]
                objects[f"phi{i}{side}"] = _psfunction(2, "max", rows)
            meta.append({"degrees": (1, 1)})
        return {"version": FORMAT_VERSION, "objects": objects}, meta

    def build(self, tc, doc, meta):
        objs = parse(tc, doc)
        return [{"phi_a": objs[f"phi{i}a"], "phi_b": objs[f"phi{i}b"],
                 "degrees": m["degrees"]} for i, m in enumerate(meta)]

    def run(self, tc, inst):
        dl = tc.deltaforms
        full = dl.DeltaForm.full_space(2)
        a = dl.corner_locus(inst["phi_a"], full)
        b = dl.corner_locus(inst["phi_b"], full)
        w = tc.products.diagonal_wedge(a, b)
        return {"wedge": w, "degree": tc.integration.degree(w)}

    def check(self, tc, inst, out):
        d1, d2 = inst["degrees"]
        w = out["wedge"]
        if w.ptype != (0, 0, 2):
            return [f"intersection has type {w.ptype}"]
        fails = []
        deg = cycle_degree(w)
        if deg != d1 * d2:
            fails.append(f"Bezout: degree {deg} != {d1 * d2}")
        if out["degree"] != deg:
            fails.append(f"reported degree {out['degree']} != {deg}")
        if any(x <= 0 or x.denominator != 1 for x in weights(w)):
            fails.append("intersection weights are not positive integers")
        return fails


# ---------------------------------------------------------------------------
# pushpull: pull-backs, push-forwards and the projection formula

_PRIMITIVE = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2),
              (2, -1)]


class PushPull:
    """Pull-backs of tropical hypersurfaces along integral affine maps.

    One op: f1: R^2 -> R^1, x -> g p.x + t with p primitive and lattice
    index g = 1 or 2, pulls back D1 = div(phi1), two points of R^1;
    f2: R^2 -> R^2 with |det| = 1 or 2 pulls back the line D2 = div(phi2),
    and f2_* pushes the result forward again; then the two sides of the
    projection formula f1_*(alpha . f1^* D1) = f1_*(alpha) . D1 are formed
    for a classical line alpha transversal to the fibres of f1.
    """

    name = "pushpull"
    pool = 16

    def generate(self, rng, shapes):
        objects, meta = {}, []
        for i in range(self.pool):
            g = 2 if i % 2 else 1
            p = shapes.choice(_PRIMITIVE)
            row = (g * p[0], g * p[1])
            t1 = (_half(rng, -2, 2),)
            # max{c0, y + c1, 2y + c2} with kinks at y1 < y2
            c0, y1 = _half(rng, -2, 2), _half(rng, -2, 1)
            y2 = y1 + _half(rng, 1, 2)
            phi1 = [(0, c0), (1, c0 - y1), (2, c0 - y1 - y2)]
            a = shapes.choice([-2, -1, 1, 2])
            d = 2 if i % 2 == 0 else 1
            m2 = ((1, a * d), (0, d)) if shapes.random() < 0.5 \
                else ((1, 0), (a, d))
            t2 = (_half(rng, -2, 2), _half(rng, -2, 2))
            u = shapes.choice(_PRIMITIVE)
            phi2 = [(u[0], u[1], _half(rng, -3, 3)), (0, 0, _half(rng, -3, 3))]
            w = shapes.choice([v for v in _PRIMITIVE if det2((v, p)) != 0])
            psi = [(w[0], w[1], _half(rng, -3, 3)), (0, 0, _half(rng, -3, 3))]
            objects[f"f1_{i}"] = _affinemap((row,), t1)
            objects[f"f2_{i}"] = _affinemap(m2, t2)
            objects[f"phi1_{i}"] = _psfunction(1, "max", phi1)
            objects[f"phi2_{i}"] = _psfunction(2, "max", phi2)
            objects[f"psi_{i}"] = _psfunction(2, "max", psi)
            meta.append({
                "phi1_f1": compose_tropical(phi1, (row,), t1),
                "phi2_f2": compose_tropical(phi2, m2, t2),
                "det2": abs(det2(m2))})
        return {"version": FORMAT_VERSION, "objects": objects}, meta

    def build(self, tc, doc, meta):
        objs = parse(tc, doc)
        return [dict(m, **{k: objs[f"{k}_{i}"]
                           for k in ("f1", "f2", "phi1", "phi2", "psi")})
                for i, m in enumerate(meta)]

    def run(self, tc, inst):
        dl, mo, pr = tc.deltaforms, tc.morphisms, tc.products
        full2 = dl.DeltaForm.full_space(2)
        f1, f2 = inst["f1"], inst["f2"]
        d1 = dl.corner_locus(inst["phi1"], dl.DeltaForm.full_space(1))
        pb1 = mo.pullback(f1, d1)
        d2 = dl.corner_locus(inst["phi2"], full2)
        pb2 = mo.pullback(f2, d2)
        back2 = mo.pushforward_cells(f2, pb2)
        alpha = dl.corner_locus(inst["psi"], full2)
        zero_cycle = pr.diagonal_wedge(alpha, pb1)
        lhs = mo.pushforward_hat(f1, zero_cycle)
        rhs = pr.diagonal_wedge(mo.pushforward_hat(f1, alpha), d1)
        return {"d1": d1, "pb1": pb1, "d2": d2, "pb2": pb2, "back2": back2,
                "zero_cycle": zero_cycle, "lhs": lhs, "rhs": rhs}

    def check(self, tc, inst, out):
        dl = tc.deltaforms
        full2 = dl.DeltaForm.full_space(2)
        fails = []
        for pb, rows, label in ((out["pb1"], inst["phi1_f1"], "f1"),
                                (out["pb2"], inst["phi2_f2"], "f2")):
            direct = dl.corner_locus(
                dl.PSFunction.from_minmax(2, "max", rows), full2)
            if pb.is_zero() or not dl.equal(pb, direct):
                fails.append(f"{label}^* div(phi) != div(phi o {label})")
        if not dl.equal(out["back2"], out["d2"].scale(inst["det2"])):
            fails.append("f2_* f2^* D != |det f2| D")
        if out["zero_cycle"].is_zero():
            fails.append("alpha . f1^* D1 vanishes for a transversal alpha")
        elif not dl.equal(out["lhs"], out["rhs"]):
            fails.append("projection formula fails")
        elif cycle_degree(out["lhs"]) != cycle_degree(out["zero_cycle"]):
            fails.append("push-forward changed the degree of a 0-cycle")
        return fails


# ---------------------------------------------------------------------------
# chern: tropical Poincare-Lelong for piecewise smooth functions

# (type (p, q, l), ambient rank) of the four forms in one op.  A corner
# locus of a (p, q, l)-form lives on cells of dimension r - l - 1, so
# (1, 1, 1) needs r = 3 to be nonzero.
_CHERN_FORMS = (((0, 1, 0), 2), ((0, 0, 1), 2), ((1, 0, 0), 3),
                ((1, 1, 1), 3))
_PLANE_NORMALS = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 1), (1, 1, 1)]


def _affinely_independent(rows):
    """Three linear parts that are the vertices of a triangle, so that each
    attains the max (or min) on a full-dimensional region."""
    (a, b, c) = rows
    u = [x - y for x, y in zip(b, a)]
    v = [x - y for x, y in zip(c, a)]
    return any(u[i] * v[j] != u[j] * v[i]
               for i in range(len(u)) for j in range(len(u)))


class Chern:
    """Both sides of the tropical Poincare-Lelong formula.

    phi is a min/max of three integral affine forms plus a polynomial of
    degree 4; the form a is a global polynomial superform, wedged onto a
    tropical hypersurface when l = 1 (a tropical line in R^2, a classical
    plane in R^3).  One op builds phi and a for each of the four form types
    and computes the corner locus div(phi) . a and the boundary-derivative
    side boundary1(d''phi ^ a) + d''phi ^ boundary1(a): the same calls
    ``deltaforms.tropical_pl_check`` makes, with its final comparison moved
    into the check.
    """

    name = "chern"
    pool = 24

    def generate(self, rng, shapes):
        objects, meta = {}, []
        for i in range(self.pool):
            for j, ((p, q, l), r) in enumerate(_CHERN_FORMS):
                tag = f"{i}_{j}"
                while True:
                    lin = [tuple(shapes.randint(-1, 1) for _ in range(r))
                           for _ in range(3)]
                    if _affinely_independent(lin):
                        break
                # The first affine form attains the max (min) at the
                # origin whatever the seed.
                kind = shapes.choice(["max", "min"])
                c0 = Fraction(rng.randint(-2, 2))
                sign = 1 if kind == "max" else -1
                consts = [c0] + [c0 - sign * rng.randint(1, 3)
                                 for _ in range(2)]
                rows = [x + (c,) for x, c in zip(lin, consts)]
                objects[f"pl_{tag}"] = _psfunction(r, kind, rows)
                objects[f"poly_{tag}"] = _superform(
                    r, 0, 0, {((), ()): _poly(rng, shapes, r, (4, 2, 1))})
                i_choices = list(combinations(range(r), p))
                j_choices = list(combinations(range(r), q))
                terms = {}
                for _ in range(2):
                    key = (shapes.choice(i_choices), shapes.choice(j_choices))
                    for e, c in _poly(rng, shapes, r, (2, 1)).items():
                        poly = terms.setdefault(key, {})
                        poly[e] = poly.get(e, 0) + c
                terms = {k: {e: c for e, c in v.items() if c}
                         for k, v in terms.items()}
                objects[f"beta_{tag}"] = _superform(
                    r, p, q, {k: v for k, v in terms.items() if v})
                # Hypersurfaces keep the origin on the side where the
                # constant term attains the max.
                c = _half(rng, -3, 3)
                if l and r == 2:
                    # a tropical line: all three monomials of degree <= 1
                    hyper = [(1, 0, c - _half(rng, 1, 3)),
                             (0, 1, c - _half(rng, 1, 3)), (0, 0, c)]
                    objects[f"cycle_{tag}"] = _psfunction(r, "max", hyper)
                elif l:
                    # a classical plane, the corner locus of a binomial
                    normal = shapes.choice(_PLANE_NORMALS)
                    hyper = [normal + (c - _half(rng, 1, 3),), (0, 0, 0, c)]
                    objects[f"cycle_{tag}"] = _psfunction(r, "max", hyper)
                meta.append({"tag": tag, "type": (p, q, l), "rank": r})
        return {"version": FORMAT_VERSION, "objects": objects}, meta

    def build(self, tc, doc, meta):
        objs = parse(tc, doc)
        n = len(_CHERN_FORMS)
        insts = []
        for i in range(self.pool):
            forms = []
            for m in meta[i * n:(i + 1) * n]:
                tag = m["tag"]
                forms.append({"pl": objs[f"pl_{tag}"],
                              "poly": objs[f"poly_{tag}"].terms[((), ())],
                              "beta": objs[f"beta_{tag}"],
                              "cycle": objs.get(f"cycle_{tag}"),
                              "type": m["type"], "rank": m["rank"]})
            insts.append({"forms": forms})
        return insts

    def run(self, tc, inst):
        dl = tc.deltaforms
        sides = []
        for item in inst["forms"]:
            r, (p, q, _) = item["rank"], item["type"]
            phi = item["pl"] + dl.PSFunction.from_poly(item["poly"])
            full = dl.DeltaForm.full_space(r)
            a = dl.DeltaForm(r, (p, q, 0), [(full.cells[0][0], item["beta"])])
            if item["cycle"] is not None:
                a = dl.ps_wedge(a, dl.corner_locus(item["cycle"], full))
            balanced, _ = dl.check_balanced(a)
            lhs = dl.corner_locus(phi, a, assume_balanced=True)
            dphi = dl.dP2(phi.as_deltaform())
            rhs = dl.add(dl.boundary1(dl.ps_wedge(dphi, a)),
                         dl.ps_wedge(dphi, dl.boundary1(a)))
            sides.append({"balanced": balanced, "lhs": lhs, "rhs": rhs})
        return {"sides": sides}

    def check(self, tc, inst, out):
        fails = []
        for item, s in zip(inst["forms"], out["sides"]):
            p, q, l = item["type"]
            if not s["balanced"]:
                fails.append(f"form of type {item['type']} is not balanced")
            elif not s["lhs"].is_zero() and s["lhs"].ptype != (p, q, l + 1):
                fails.append(f"divisor of type {s['lhs'].ptype}")
            elif not tc.deltaforms.equal(s["lhs"], s["rhs"]):
                fails.append(f"Poincare-Lelong fails on type {item['type']}")
        return fails


# ---------------------------------------------------------------------------
# integrate: exact integrals over a small fixed set of polytopes


def _corner(rng, rank):
    """The lowest corner of a polytope: every polytope lies in the open
    positive orthant, so that, whatever the seed, the LPs and the
    polynomial expansions start from a point in the same position."""
    return tuple(rng.choice([1, 2]) for _ in range(rank))


class Integrate:
    """Exact integrals of (k,k)-superforms over five fixed polytopes.

    The polytopes of a run are an axis-parallel rectangle B2, a box B3 in
    R^3, the top face F of B3 (a rectangle in R^3), a pentagon P (a 3 x 3
    square with one corner cut off) and its image U P + t under a
    unimodular map, all in the positive orthant.  One op integrates fresh integrands, with polynomial
    coefficients of degree up to 6, over each of them, and the boundary
    integral of a (1,2)-form over P for Stokes' theorem.
    """

    name = "integrate"
    pool = 24

    def generate(self, rng, shapes):
        lo2 = _corner(rng, 2)
        hi2 = tuple(a + shapes.randint(1, 2) for a in lo2)
        lo3 = _corner(rng, 3)
        hi3 = tuple(a + shapes.randint(1, 2) for a in lo3)
        (a, b), s = _corner(rng, 2), 3
        pent = _box_ineqs((a, b), (a + s, b + s)) + [((1, 1), a + b + 2 * s - 1)]
        k = shapes.choice([-2, -1, 1, 2])
        u = ((1, k), (0, 1)) if shapes.random() < 0.5 else ((1, 0), (k, 1))
        corners = [(a, b), (a + s, b), (a + s, b + s - 1), (a + s - 1, b + s),
                   (a, b + s)]
        image = [[sum(u[i][j] * x[j] for j in range(2)) for i in range(2)]
                 for x in corners]
        low = _corner(rng, 2)
        t = tuple(low[i] - min(y[i] for y in image) for i in range(2))
        v = integer_inverse_2x2(u)
        # y = U x + t  <=>  x = V y - V t, so a.x <= c becomes
        # (a V).y <= c + (a V).t
        pent_u = []
        for normal, c in pent:
            av = tuple(sum(normal[i] * v[i][j] for i in range(2))
                       for j in range(2))
            pent_u.append((av, c + sum(av[j] * t[j] for j in range(2))))
        shift = tuple(-sum(v[i][j] * t[j] for j in range(2)) for i in range(2))
        top = hi3[2]
        face = [((x, y, 0), c) for (x, y), c in _box_ineqs(lo3[:2], hi3[:2])]
        objects = {
            "B2": _polyhedron(2, _box_ineqs(lo2, hi2)),
            "B3": _polyhedron(3, _box_ineqs(lo3, hi3)),
            "F": _polyhedron(3, face, [((0, 0, 1), top)]),
            "P": _polyhedron(2, pent),
            "UP": _polyhedron(2, pent_u),
        }
        full2, full3 = ((0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2))
        meta = []
        for i in range(self.pool):
            c2 = _poly(rng, shapes, 2, (6, 3, 1, 0))
            c3 = _poly(rng, shapes, 3, (6, 3, 1, 0))
            # Only the d'x0 d'x1 d''x0 d''x1 term survives on F.
            cf = {key: _poly(rng, shapes, 3, (4, 2, 0))
                  for key in (((0, 1), (0, 1)), ((0, 2), (1, 2)),
                              ((1, 2), (0, 1)))}
            eta = {((0,), (0, 1)): _poly(rng, shapes, 2, (5, 3, 1)),
                   ((1,), (0, 1)): _poly(rng, shapes, 2, (5, 3, 1))}
            cu = _poly(rng, shapes, 2, (6, 3, 1, 0))
            objects[f"a2_{i}"] = _superform(2, 2, 2, {full2: c2})
            objects[f"a3_{i}"] = _superform(3, 3, 3, {full3: c3})
            objects[f"af_{i}"] = _superform(3, 2, 2, cf)
            objects[f"eta_{i}"] = _superform(2, 1, 2, eta)
            objects[f"au_{i}"] = _superform(2, 2, 2, {full2: cu})
            objects[f"auu_{i}"] = _superform(
                2, 2, 2, {full2: substitute(cu, v, shift)})
            on_top = {}
            for e, c in cf[((0, 1), (0, 1))].items():
                on_top[e[:2]] = on_top.get(e[:2], Fraction(0)) \
                    + c * Fraction(top) ** e[2]
            meta.append({
                "box2": top_form_sign(2) * box_moment(c2, lo2, hi2),
                "box3": top_form_sign(3) * box_moment(c3, lo3, hi3),
                "face": top_form_sign(2) * box_moment(on_top, lo3[:2],
                                                      hi3[:2]),
            })
        return {"version": FORMAT_VERSION, "objects": objects}, meta

    def build(self, tc, doc, meta):
        objs = parse(tc, doc)
        cells = {k: objs[k] for k in ("B2", "B3", "F", "P", "UP")}
        return [dict(m, cells=cells,
                     **{k: objs[f"{k}_{i}"]
                        for k in ("a2", "a3", "af", "eta", "au", "auu")})
                for i, m in enumerate(meta)]

    def run(self, tc, inst):
        ig, sf = tc.integration, tc.superforms
        c = inst["cells"]
        return {
            "box2": ig.integrate_cell(c["B2"], inst["a2"]),
            "box3": ig.integrate_cell(c["B3"], inst["a3"]),
            "face": ig.integrate_cell(c["F"], inst["af"]),
            "stokes_cell": ig.integrate_cell(c["P"], sf.d1(inst["eta"])),
            "stokes_boundary": ig.integrate_boundary(c["P"], inst["eta"]),
            "unimodular": ig.integrate_cell(c["P"], inst["au"]),
            "unimodular_image": ig.integrate_cell(c["UP"], inst["auu"]),
        }

    def check(self, tc, inst, out):
        fails = []
        for key in ("box2", "box3", "face"):
            if out[key] != inst[key]:
                fails.append(f"{key}: {out[key]} != moment {inst[key]}")
        if out["stokes_cell"] != out["stokes_boundary"]:
            fails.append("Stokes fails on the pentagon")
        if out["unimodular"] != out["unimodular_image"]:
            fails.append("integral changed under a unimodular map")
        return fails


WORKLOADS = {w.name: w for w in (Intersect(), PushPull(), Chern(), Integrate())}

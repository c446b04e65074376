"""Acceptance gate: one timed pass/fail line per criterion.

Every check is an exact identity over the rationals; any tolerance is zero.
Each criterion asserts both correctness and its runtime budget.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from tropcalc import serialization as ser
from tropcalc.cli import main as cli_main
from tropcalc.deltaforms import (DeltaForm, PSFunction, add, boundary1,
                                 boundary2, check_balanced, corner_locus,
                                 dP1, dP2, equal, ps_wedge,
                                 tropical_pl_check, _codim1_faces)
from tropcalc.integration import (degree, green_check, integrate_cell,
                                  stokes_check)
from tropcalc.linalg import int_kernel
from tropcalc.morphisms import (AffineMap, graph_cycle, graph_polyhedron,
                                projection_formula_check, pullback,
                                pushforward_cells, pushforward_hat)
from tropcalc.polyhedra import Polyhedron
from tropcalc.products import cross, diagonal_wedge, transversal_wedge
from tropcalc.superforms import (Poly, Superform, contract2, j_op, wedge)

from util import (box, random_balanced, random_cycle, random_pl, random_poly,
                  random_ps, random_superform, standard_line)


def report(capsys, number, label, t0, budget):
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s "
              f"(budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


# ---------------------------------------------------------------------------
# 1. balancing vs. the d'-current polyhedrality surrogate


def _monomials(rank, max_deg):
    out = []

    def rec(prefix, remaining, budget_):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget_ + 1):
            rec(prefix + [d], remaining - 1, budget_ - d)

    rec([], rank, max_deg)
    return out


def d1_current_is_polyhedral(a):
    """Pair the facet boundary current of d' against a generating family.

    For each codimension-one face tau, each integral linear form vanishing
    on tau, and each monomial test form of complementary bidegree, the
    clipped facet pairing must vanish; the span argument makes this an
    exact detector for the defect form.
    """
    r = a.rank
    k = r - a.l
    if a.p > k - 1 or a.q > k - 1:
        return True  # facet defects restrict to zero for degree reasons
    faces = _codim1_faces(a)
    radius = 3
    dmax = 0
    for cell, coeff in a.cells:
        for v in cell.vertices():
            for x in v:
                radius = max(radius, abs(x) + 3)
        for poly in coeff.terms.values():
            dmax = max(dmax, poly.degree())
    for tau, _ in faces.values():
        for x in tau.relint_point:
            radius = max(radius, abs(x) + 3)
    clip = box(r, -radius, radius)
    i_choices = list(combinations(range(r), k - 1 - a.p))
    j_choices = list(combinations(range(r), k - 1 - a.q))
    exps = _monomials(r, dmax)
    for key, (tau, incident) in faces.items():
        region = tau.intersect(clip)
        if region is None or region.dim != tau.dim:
            continue
        for ell in int_kernel([list(b) for b in tau.lattice.basis], r):
            dsl = Superform(r, 0, 1,
                            {((), (i,)): Poly.const(r, ell[i])
                             for i in range(r) if ell[i]})
            base = [(wedge(coeff, dsl), omega)
                    for _, coeff, omega in incident]
            for i0 in i_choices:
                for j0 in j_choices:
                    for e in exps:
                        gamma0 = Superform(r, len(i0), len(j0),
                                           {(i0, j0):
                                            Poly(r, {e: Fraction(1)})})
                        acc = None
                        for bform, omega in base:
                            w = wedge(bform, gamma0)
                            if w.is_zero():
                                continue
                            c = contract2(w, omega)
                            acc = c if acc is None else acc + c
                        if acc is None:
                            continue
                        if integrate_cell(region, acc) != 0:
                            return False
    return True


def _criterion1_form(rng, idx):
    r = 1 + idx % 3
    style = idx % 4
    if style == 0:
        codim = rng.randint(0, r - 1)
        p = rng.randint(0, max(0, r - codim - 1))
        q = rng.randint(0, max(0, r - codim - 1))
        return random_balanced(rng, r, p, q, codim, max_deg=1)
    cycle = random_cycle(rng, r, rng.randint(1, r)) if r > 0 else None
    cells = list(cycle.cells)
    if style == 1:
        # corrupt one weight
        cells[0] = (cells[0][0], cells[0][1].scale(2))
        return DeltaForm(cycle.rank, cycle.ptype, cells)
    if style == 2:
        # drop a cell entirely
        return DeltaForm(cycle.rank, cycle.ptype, cells[:-1] or cells)
    # corrupted support carrying a superform factor
    broken = DeltaForm(cycle.rank, cycle.ptype,
                       [(cells[0][0], cells[0][1].scale(3))] + cells[1:])
    p = rng.randint(0, 1) if r - cycle.l >= 1 else 0
    factor = DeltaForm(r, (p, 0, 0),
                       [(Polyhedron.full_space(r),
                         random_superform(rng, r, p, 0, max_deg=1))])
    return ps_wedge(factor, broken)


def test_acceptance_1_balancing_oracle(capsys):
    t0 = time.monotonic()
    rng = random.Random(101)
    seen = {True: 0, False: 0}
    for idx in range(200):
        a = _criterion1_form(rng, idx)
        verdict = check_balanced(a)[0]
        assert verdict == d1_current_is_polyhedral(a), f"instance {idx}"
        seen[verdict] += 1
    assert seen[True] >= 30 and seen[False] >= 30
    report(capsys, 1, "balancing equals current-pairing surrogate", t0, 120)


# ---------------------------------------------------------------------------
# 2. tropical Poincare-Lelong


def test_acceptance_2_tropical_pl(capsys):
    t0 = time.monotonic()
    rng = random.Random(102)
    for idx in range(100):
        r = 1 + idx % 3
        phi = random_ps(rng, r, max_deg=3)
        a = random_cycle(rng, r, rng.randint(0, r - 1))
        assert tropical_pl_check(phi, a), f"instance {idx}"
    report(capsys, 2, "tropical Poincare-Lelong", t0, 120)


# ---------------------------------------------------------------------------
# 3. stable intersection


def tropical_curve(rng, d):
    rows = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            rows.append((i, j, Fraction(rng.randint(-6, 6),
                                        rng.choice([1, 2]))))
    phi = PSFunction.from_minmax(2, "max", rows)
    return corner_locus(phi, DeltaForm.full_space(2), assume_balanced=True)


def random_affine_subspace(rng, rank, dim):
    while True:
        dirs = [tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(dim)]
        normals = int_kernel(dirs, rank)
        if len(normals) == rank - dim:
            break
    point = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                  for _ in range(rank))
    eqs = [(n, sum(Fraction(x) * p for x, p in zip(n, point)))
           for n in normals]
    cell = Polyhedron.try_new(rank, [], eqs)
    return DeltaForm.from_weights(rank, rank - dim,
                                  [(cell, rng.randint(1, 3))])


def test_acceptance_3_stable_intersection(capsys):
    t0 = time.monotonic()
    rng = random.Random(103)
    # (a) the standard line meets itself in the weight-1 origin
    w = diagonal_wedge(standard_line(), standard_line())
    assert equal(w, DeltaForm.from_weights(
        2, 2, [(Polyhedron.point((0, 0)), 1)]))
    # (b) tropical Bezout
    for d, e in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        cd = tropical_curve(rng, d)
        ce = tropical_curve(rng, e)
        assert degree(diagonal_wedge(cd, ce)) == d * e, (d, e)
    # (c) graded commutativity (50 pairs) and associativity
    for idx in range(50):
        r = 1 + idx % 2
        p1, q1 = rng.randint(0, 1), rng.randint(0, 1)
        a = random_balanced(rng, r, p1, q1, rng.randint(0, r - 1), max_deg=1)
        b = random_balanced(rng, r, 0, 0, rng.randint(0, r - 1), max_deg=1)
        sign = 1  # second factor has even form degree (0,0,l)
        assert equal(diagonal_wedge(a, b), diagonal_wedge(b, a).scale(sign))
    for _ in range(4):
        a = random_cycle(rng, 2, 1)
        b = random_cycle(rng, 2, 1)
        c = DeltaForm.full_space(2, rng.randint(1, 2))
        assert equal(diagonal_wedge(diagonal_wedge(a, b), c),
                     diagonal_wedge(a, diagonal_wedge(b, c)))
    # sign check on odd-degree factors
    da = ps_wedge(DeltaForm(2, (1, 0, 0),
                            [(Polyhedron.full_space(2),
                              Superform.monomial(2, (0,), ()))]),
                  DeltaForm.full_space(2))
    db = ps_wedge(DeltaForm(2, (0, 1, 0),
                            [(Polyhedron.full_space(2),
                              Superform.monomial(2, (), (1,)))]),
                  DeltaForm.full_space(2))
    assert equal(diagonal_wedge(da, db), diagonal_wedge(db, da).scale(-1))
    # (d) transversal formula agrees with the diagonal construction
    checked = 0
    while checked < 50:
        r = rng.randint(2, 3)
        d1_ = rng.randint(1, r - 1)
        d2_ = rng.randint(max(1, r - d1_), r - 1)
        a = random_affine_subspace(rng, r, d1_)
        b = random_affine_subspace(rng, r, d2_)
        try:
            tw = transversal_wedge(a, b)
        except Exception:
            continue
        assert equal(tw, diagonal_wedge(a, b))
        checked += 1
    report(capsys, 3, "stable intersection suite", t0, 300)


# ---------------------------------------------------------------------------
# 4. corner-locus fixtures and laws


def test_acceptance_4_corner_locus(capsys):
    t0 = time.monotonic()
    rng = random.Random(104)
    full1 = DeltaForm.full_space(1)
    max_x_0 = PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)])
    point = DeltaForm.from_weights(1, 1, [(Polyhedron.point((0,)), 1)])
    assert equal(corner_locus(max_x_0, full1), point)
    affine = PSFunction.from_minmax(1, "max", [(2, 3)])
    assert corner_locus(affine, full1).is_zero()
    min_x_0 = PSFunction.from_minmax(1, "min", [(1, 0), (0, 0)])
    neg_max = PSFunction.from_minmax(1, "max", [(-1, 0), (0, 0)])
    # min{x, 0} = -max{-x, 0}, so the corner loci are negatives
    assert equal(corner_locus(min_x_0, full1),
                 corner_locus(neg_max, full1).scale(-1))
    assert equal(corner_locus(min_x_0, full1), point.scale(-1))
    trop_line = PSFunction.from_minmax(2, "max",
                                       [(1, 0, 0), (0, 1, 0), (0, 0, 0)])
    assert equal(corner_locus(trop_line, DeltaForm.full_space(2)),
                 standard_line())
    for idx in range(50):
        r = 2 if idx % 2 == 0 else 1
        phi = random_pl(rng, r)
        psi = random_pl(rng, r)
        a = DeltaForm.full_space(r, rng.randint(1, 2))
        if idx % 2 == 0:
            lhs = corner_locus(phi, corner_locus(psi, a))
            rhs = corner_locus(psi, corner_locus(phi, a))
            assert equal(lhs, rhs), f"instance {idx}"
        else:
            both = corner_locus(phi + psi, a)
            assert equal(both,
                         add(corner_locus(phi, a), corner_locus(psi, a)))
    report(capsys, 4, "corner-locus fixtures and laws", t0, 60)


# ---------------------------------------------------------------------------
# 5. morphisms


def _random_map(rng, rs, rt):
    return AffineMap(rs, rt,
                     [[rng.randint(-2, 2) for _ in range(rs)]
                      for _ in range(rt)],
                     [Fraction(rng.randint(-2, 2)) for _ in range(rt)])


def _unimodular_map(rng):
    a = rng.randint(-2, 2)
    return AffineMap(2, 2, ((1, a), (0, 1)) if rng.random() < 0.5
                     else ((1, 0), (a, 1)),
                     [Fraction(rng.randint(-2, 2)) for _ in range(2)])


def _compose_pl(phi, f):
    """phi after the affine map, as a min/max function on the source."""
    rows = []
    for row in phi.terms:
        lin = row[:-1]
        new_lin = tuple(sum(lin[i] * f.matrix[i][j]
                            for i in range(f.target_rank))
                        for j in range(f.source_rank))
        const = sum(lin[i] * f.translate[i]
                    for i in range(f.target_rank)) + row[-1]
        rows.append(tuple(int(x) for x in new_lin) + (const,))
    return PSFunction.from_minmax(f.source_rank, phi.kind, rows)


def test_acceptance_5_morphisms(capsys):
    t0 = time.monotonic()
    rng = random.Random(105)
    # graph cycle equals the direct description for 20 random maps
    for _ in range(20):
        rs, rt = rng.randint(1, 2), rng.randint(1, 2)
        f = _random_map(rng, rs, rt)
        # test_morphisms.py checks graph_cycle against the iterated corner
        # locus of max{f_i(x'), x_i}
        gr = graph_cycle(f)
        assert equal(gr, DeltaForm.from_weights(
            rs + rt, rt, [(graph_polyhedron(f), 1)]))
    # pull-back functoriality on 20 composable pairs
    for idx in range(20):
        if idx % 3 == 0:
            f = AffineMap(1, 1, ((1,),),
                          [Fraction(rng.randint(-2, 2), rng.choice([1, 2]))])
            g = AffineMap(1, 1, ((1,),), [Fraction(rng.randint(-2, 2))])
            a = random_cycle(rng, 1, rng.randint(0, 1))
        elif idx % 3 == 1:
            g = AffineMap(1, 2, ((rng.choice([1, 2]),), (rng.randint(-1, 1),)),
                          [0, Fraction(rng.randint(-2, 2))])
            f = AffineMap(2, 1, ((1, rng.randint(-1, 1)),),
                          [Fraction(rng.randint(-2, 2))])
            a = random_cycle(rng, 1, rng.randint(0, 1))
        else:
            f = _unimodular_map(rng)
            g = _unimodular_map(rng)
            a = random_affine_subspace(rng, 2, rng.choice([1, 2]))
        assert equal(pullback(f.compose(g), a),
                     pullback(g, pullback(f, a)))
    # projection formula on 50 instances
    for idx in range(50):
        if idx % 10 != 0:
            f = AffineMap.projection(2, 1)
            a = random_cycle(rng, 2, rng.randint(0, 1))
            b = random_cycle(rng, 1, rng.randint(0, 1))
        else:
            f = _unimodular_map(rng)
            a = random_cycle(rng, 2, rng.randint(0, 1))
            b = DeltaForm.full_space(2, rng.randint(1, 3))
        assert projection_formula_check(f, a, b), f"instance {idx}"
    # divisor compatibility on 20 cell-injective instances
    for _ in range(20):
        f = _unimodular_map(rng)
        phi = random_pl(rng, 2)
        a = random_cycle(rng, 2, rng.randint(0, 1))
        lhs = pushforward_cells(f, corner_locus(_compose_pl(phi, f), a))
        rhs = corner_locus(phi, pushforward_cells(f, a))
        assert equal(lhs, rhs)
    # degree preservation on bounded 0-cycles
    for _ in range(10):
        pts = [(Polyhedron.point(tuple(Fraction(rng.randint(-3, 3))
                                       for _ in range(2))),
                rng.randint(1, 4)) for _ in range(3)]
        zero_cycle = DeltaForm.from_weights(2, 2, pts)
        f = _random_map(rng, 2, 2)
        assert degree(pushforward_hat(f, zero_cycle)) == degree(zero_cycle)
    report(capsys, 5, "morphisms suite", t0, 300)


# ---------------------------------------------------------------------------
# 6. Stokes and Green


def _random_polytope(rng, rank):
    while True:
        base = box(rank, -2, 2)
        cuts = [(tuple(rng.randint(-2, 2) for _ in range(rank)),
                 rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
        cand = Polyhedron.try_new(rank, list(base.ineqs) + cuts)
        if cand is not None and cand.dim == rank:
            return cand


def _symmetrize(a):
    return a + j_op(a).scale(-1 if a.p % 2 else 1)


def test_acceptance_6_stokes_green(capsys):
    t0 = time.monotonic()
    rng = random.Random(106)
    # worked fixtures
    interval = Polyhedron(1, [((1,), 1), ((-1,), 0)])
    c1 = DeltaForm.from_weights(1, 0, [(interval, 1)])
    assert stokes_check(c1, Superform.monomial(1, (), (0,), Poly.var(1, 0)))
    f = Superform.from_poly(Poly(1, {(2,): Fraction(1)}))
    g = Superform.from_poly(Poly(1, {(3,): Fraction(2), (1,): Fraction(-1)}))
    assert green_check(c1, f, g)
    ranks = [1] * 50 + [2] * 36 + [3] * 14
    for idx, r in enumerate(ranks):
        sigma = _random_polytope(rng, r)
        c = DeltaForm.from_weights(r, 0, [(sigma, rng.randint(1, 3))])
        variant = rng.random() < 0.5
        if variant:
            eta = random_superform(rng, r, r - 1, r, max_deg=4)
        else:
            eta = random_superform(rng, r, r, r - 1, max_deg=4)
        assert stokes_check(c, eta), f"stokes instance {idx}"
    for idx, r in enumerate(ranks):
        sigma = _random_polytope(rng, r)
        c = DeltaForm.from_weights(r, 0, [(sigma, 1)])
        p = rng.randint(0, r - 1)
        q = r - 1 - p
        alpha = _symmetrize(random_superform(rng, r, p, p, max_deg=4))
        beta = _symmetrize(random_superform(rng, r, q, q, max_deg=4))
        assert green_check(c, alpha, beta), f"green instance {idx}"
    report(capsys, 6, "Stokes and Green formulas", t0, 120)


# ---------------------------------------------------------------------------
# 7. derivative algebra


def test_acceptance_7_derivative_algebra(capsys):
    t0 = time.monotonic()
    rng = random.Random(107)
    for idx in range(100):
        r = 1 + idx % 2
        codim = rng.randint(0, r - 1)
        k = r - codim
        p = rng.randint(0, k)
        q = rng.randint(0, k)
        a = random_balanced(rng, r, p, q, codim, max_deg=1)
        assert dP1(dP1(a)).is_zero()
        assert dP2(dP2(a)).is_zero()
        assert add(dP1(dP2(a)), dP2(dP1(a))).is_zero()
        b1, b2 = boundary1(a), boundary2(a)
        assert boundary1(b1).is_zero()
        assert boundary2(b2).is_zero()
        assert add(boundary2(b1), boundary1(b2)).is_zero()
        assert add(boundary1(dP1(a)), dP1(b1)).is_zero()
        assert add(boundary2(dP2(a)), dP2(b2)).is_zero()
        four = add(add(boundary1(dP2(a)), dP1(b2)),
                   add(boundary2(dP1(a)), dP2(b1)))
        assert four.is_zero(), f"instance {idx}"
    report(capsys, 7, "derivative algebra identities", t0, 120)


# ---------------------------------------------------------------------------
# 8. CLI round-trip and determinism


def test_acceptance_8_cli(capsys, tmp_path):
    t0 = time.monotonic()
    rng = random.Random(108)
    fixtures = {
        "line": standard_line(),
        "curve": random_cycle(rng, 2, 1),
        "form": random_balanced(rng, 2, 1, 1, 1),
        "phi": random_pl(rng, 2),
        "psq": random_ps(rng, 1),
        "map": AffineMap(2, 2, ((1, 1), (0, 1)), (Fraction(1, 2), 0)),
        "cell": Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 2)]),
        "vol": Superform.monomial(2, (0, 1), (0, 1), Poly.var(2, 0)),
    }
    import json
    doc = ser.dumps(ser.document_to_json(fixtures))
    back = ser.document_from_json(json.loads(doc))
    for name, obj in fixtures.items():
        if isinstance(obj, DeltaForm):
            assert equal(obj, back[name]), name
        elif isinstance(obj, Polyhedron):
            assert obj.key() == back[name].key()
        elif isinstance(obj, AffineMap):
            assert (obj.matrix, obj.translate) == \
                (back[name].matrix, back[name].translate)
        elif isinstance(obj, PSFunction):
            assert sorted(back[name].pieces) == sorted(obj.pieces)
        else:
            assert obj == back[name], name
    assert ser.dumps(ser.document_to_json(back)) == doc
    # determinism of seeded verification runs
    argv = ["verify", "--random", "--suite", "pl", "--seed", "11",
            "--size", "count=3,r=2"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first
    report(capsys, 8, "CLI round-trip and determinism", t0, 30)

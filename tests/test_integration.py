import random
from fractions import Fraction
from math import factorial

import pytest

from tropcalc.deltaforms import (DeltaForm, boundary1, boundary2, dP1, dP2,
                                 ps_wedge)
from tropcalc.errors import DegreeMismatch, Unbounded
from tropcalc.integration import (_poly_over_simplex, degree, green_check,
                                  integrate_boundary, integrate_cell,
                                  pair_current, stokes_check)
from tropcalc.linalg import det, solve_linear, vec
from tropcalc.polyhedra import Polyhedron
from tropcalc.superforms import (Poly, Superform, d1, d2, j_op, restrict_to,
                                 wedge)

from test_superforms import (compose_affine_reference, random_rational,
                             random_rational_poly)
from util import box, random_balanced, random_poly, random_superform, standard_line


def interval(a=0, b=1):
    return Polyhedron(1, [((1,), b), ((-1,), -a)])


def vol_form(rank):
    out = Superform.constant(rank, 1)
    for i in range(rank):
        out = wedge(out, Superform.monomial(rank, (i,), (i,)))
    return out


def test_integrate_interval():
    alpha = Superform.monomial(1, (0,), (0,), Poly.var(1, 0))
    assert integrate_cell(interval(), alpha) == Fraction(1, 2)


def test_integrate_square_reordered():
    # d'x1 ^ d''x1 ^ d'x2 ^ d''x2 over the unit square is 1.
    sq = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    a = wedge(Superform.monomial(2, (0,), (0,)), Superform.monomial(2, (1,), (1,)))
    assert integrate_cell(sq, a) == 1
    assert integrate_cell(sq, vol_form(2)) == 1


def test_integrate_point_and_errors():
    pt = Polyhedron.point((2,))
    f = Superform.from_poly(Poly(1, {(2,): Fraction(1)}))
    assert integrate_cell(pt, f) == 4
    with pytest.raises(Unbounded):
        integrate_cell(Polyhedron(1, [((-1,), 0)]), f)
    with pytest.raises(DegreeMismatch):
        integrate_cell(interval(), Superform.monomial(1, (0,), ()))


def test_integration_additive_under_subdivision():
    rng = random.Random(3)
    for _ in range(10):
        a = Superform.monomial(1, (0,), (0,), random_poly(rng, 1, 4))
        whole = integrate_cell(interval(0, 2), a)
        split = (integrate_cell(interval(0, 1), a)
                 + integrate_cell(interval(1, 2), a))
        assert whole == split


def test_integration_lattice_invariance():
    # Transport the segment through a unimodular shear: integral is unchanged.
    rng = random.Random(5)
    tri = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)])
    a = Superform(2, 2, 2, {((0, 1), (0, 1)): random_poly(rng, 2, 2)})
    # y = U x + t with U unimodular
    u = ((1, 1), (0, 1))
    t = (3, -2)
    image_cells = []
    from tropcalc.linalg import invert, mat_vec
    uinv = invert(u)
    # transformed triangle: constraints a.(U^-1 (y - t)) <= b
    ineqs = []
    for normal, b in tri.ineqs:
        row = tuple(sum(Fraction(normal[i]) * uinv[i][j] for i in range(2))
                    for j in range(2))
        shift = sum(row[j] * Fraction(t[j]) for j in range(2))
        num = tuple(int(x * 1) for x in row)
        ineqs.append((tuple(int(x) for x in row), b + shift))
    tri2 = Polyhedron(2, ineqs)
    # pull the form back along y -> x = U^-1 (y - t)
    from tropcalc.superforms import pullback_form
    rows = [tuple(uinv[i][j] for j in range(2)) for i in range(2)]
    tr = mat_vec(uinv, tuple(-Fraction(x) for x in t))
    b = pullback_form(rows, tr, a)
    assert integrate_cell(tri, a) == integrate_cell(tri2, b)


def test_boundary_interval():
    f = Poly(1, {(2,): Fraction(1), (0,): Fraction(3)})  # x^2 + 3
    eta = Superform.monomial(1, (), (0,), f)
    # f(1) - f(0)
    assert integrate_boundary(interval(), eta) == 1
    const = Superform.monomial(1, (), (0,))
    assert integrate_boundary(interval(), const) == 0
    # (1,0)-variant: matches the d'' Stokes identity, d''(f d'x) = -f' d'x^d''x
    eta2 = Superform.monomial(1, (0,), (), f)
    assert integrate_boundary(interval(), eta2) == -1


def test_stokes_fixture():
    c = DeltaForm.from_weights(1, 0, [(interval(), 1)])
    eta = Superform.monomial(1, (), (0,), Poly.var(1, 0))
    assert stokes_check(c, eta)


def random_polytope(rng, rank):
    while True:
        base = box(rank, -2, 2)
        cuts = [(tuple(rng.randint(-2, 2) for _ in range(rank)),
                 rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
        cand = Polyhedron.try_new(rank, list(base.ineqs) + cuts)
        if cand is not None and cand.dim == rank:
            return cand


def test_stokes_random():
    rng = random.Random(7)
    for _ in range(12):
        rank = rng.randint(1, 3)
        sigma = random_polytope(rng, rank)
        c = DeltaForm.from_weights(rank, 0, [(sigma, rng.randint(1, 3))])
        eta1 = random_superform(rng, rank, rank - 1, rank, max_deg=3)
        assert stokes_check(c, eta1)
        eta2 = random_superform(rng, rank, rank, rank - 1, max_deg=3)
        assert stokes_check(c, eta2)


def symmetrize(a):
    sign = -1 if a.p % 2 else 1
    return a + j_op(a).scale(sign)


def test_green_fixture_and_random():
    c = DeltaForm.from_weights(1, 0, [(interval(), 1)])
    f = Superform.from_poly(Poly(1, {(2,): Fraction(1)}))
    g = Superform.from_poly(Poly(1, {(3,): Fraction(2), (1,): Fraction(-1)}))
    assert green_check(c, f, g)
    rng = random.Random(9)
    for _ in range(8):
        tri = random_polytope(rng, 2)
        c2 = DeltaForm.from_weights(2, 0, [(tri, 1)])
        alpha = random_superform(rng, 2, 0, 0, max_deg=3)
        beta = symmetrize(random_superform(rng, 2, 1, 1, max_deg=3))
        assert green_check(c2, alpha, beta)
        g0 = symmetrize(random_superform(rng, 2, 1, 1, max_deg=2))
        assert green_check(c2, Superform.from_poly(Poly.const(2, 1)), g0)


def test_degree():
    pt = DeltaForm.from_weights(2, 2, [(Polyhedron.point((1, 1)), 3),
                                       (Polyhedron.point((0, 0)), -1)])
    assert degree(pt) == 2
    assert degree(DeltaForm.zero(2, (0, 0, 2))) == 0


def bump(rank, radius):
    w = Poly.const(rank, 1)
    for i in range(rank):
        w = w * Poly.affine(rank, tuple(int(i == j) for j in range(rank)),
                            radius)
        w = w * Poly.affine(rank, tuple(-int(i == j) for j in range(rank)),
                            radius)
    return w


def current_identity_holds(a, rng, radius=4, trials=2):
    """<dP1 a + bnd1 a, g> = (-1)^{p+q+1} <a, d1 g> and the d2 mirror."""
    rank = a.rank
    clip = box(rank, -radius, radius)
    k = rank - a.l
    sgn = -1 if (a.p + a.q + 1) % 2 else 1
    b1 = boundary1(a)
    b2 = boundary2(a)
    da1 = dP1(a)
    da2 = dP2(a)
    w = bump(rank, radius)
    def in_range(p, q):
        return 0 <= p <= rank and 0 <= q <= rank

    for _ in range(trials):
        if in_range(k - a.p - 1, k - a.q):
            g1 = random_superform(rng, rank, k - a.p - 1, k - a.q, max_deg=1)
            gw = g1.scale_poly(w)
            lhs = pair_current(da1, gw, clip) + pair_current(b1, gw, clip)
            rhs = sgn * pair_current(a, d1(gw), clip)
            if lhs != rhs:
                return False
        if in_range(k - a.p, k - a.q - 1):
            g2 = random_superform(rng, rank, k - a.p, k - a.q - 1, max_deg=1)
            gw2 = g2.scale_poly(w)
            lhs2 = pair_current(da2, gw2, clip) + pair_current(b2, gw2, clip)
            rhs2 = sgn * pair_current(a, d2(gw2), clip)
            if lhs2 != rhs2:
                return False
    return True


def test_current_identity_oracle():
    rng = random.Random(11)
    # the half-line fixture that pins the boundary sign
    a = DeltaForm(1, (0, 1, 0),
                  [(Polyhedron(1, [((-1,), 0)]),
                    Superform.monomial(1, (), (0,)))])
    assert current_identity_holds(a, rng)
    for _ in range(4):
        rank = rng.randint(1, 2)
        l = rng.randint(0, rank - 1)
        k = rank - l
        p = rng.randint(0, k - 1)
        q = rng.randint(0, k - 1)
        form = random_balanced(rng, rank, p, q, l, max_deg=1)
        assert current_identity_holds(form, rng)


def test_current_identity_detects_imbalance():
    # two rays with weight 1: d' as a current is not polyhedral, which shows
    # up as a nonzero defect against some test form
    rng = random.Random(13)
    rays = DeltaForm.from_weights(2, 1, [
        (Polyhedron(2, [((-1, 0), 0)], [((0, 1), 0)]), 1),
        (Polyhedron(2, [((0, -1), 0)], [((1, 0), 0)]), 1),
    ])
    clip = box(2, -4, 4)
    w = bump(2, 4)
    found = False
    for _ in range(6):
        g = random_superform(rng, 2, 0, 1, max_deg=1).scale_poly(w)
        # for a balanced (0,0,1)-form both sides agree (bnd1 = 0)
        lhs = pair_current(dP1(rays), g, clip)
        rhs = -pair_current(rays, d1(g), clip)
        if lhs != rhs:
            found = True
            break
    assert found


# The integration path before the integer moment sum, kept as the reference:
# the triangulation and vertex parametrization of integrate_cell, and
# _poly_over_simplex expanding the composed polynomial in Fraction monomials
# (with compose_affine_reference in place of Poly.compose_affine).

def triangulate_reference(sigma):
    if sigma.dim == 0:
        return [(sigma.relint_point,)]
    v0 = min(sigma.vertices())
    out = []
    for facet in sigma.facets():
        if facet.contains(v0):
            continue
        for simplex in triangulate_reference(facet):
            out.append(simplex + (v0,))
    return out


def poly_over_simplex_reference(poly, verts):
    k = poly.rank
    if k == 0:
        return poly.evaluate(())
    v0 = vec(verts[0])
    edges = [tuple(x - y for x, y in zip(vec(v), v0)) for v in verts[1:]]
    jac = abs(det([[edges[j][i] for j in range(k)] for i in range(k)]))
    if jac == 0:
        return Fraction(0)
    rows = [tuple(edges[j][i] for j in range(k)) for i in range(k)]
    comp = compose_affine_reference(poly, rows, v0)
    total = Fraction(0)
    for e, c in comp.terms.items():
        num = 1
        for a in e:
            num *= factorial(a)
        total += c * Fraction(num, factorial(k + sum(e)))
    return jac * total


def integrate_cell_reference(sigma, alpha):
    k = sigma.dim
    restricted = restrict_to(sigma, alpha)
    if restricted.is_zero():
        return Fraction(0)
    full = tuple(range(k))
    coeff = restricted.terms[(full, full)]
    if k == 0:
        return coeff.evaluate(())
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    origin, basis = sigma.parametrization()
    cols = [[Fraction(basis[j][i]) for j in range(k)]
            for i in range(len(origin))]

    def param(point):
        rhs = tuple(Fraction(x) - Fraction(o) for x, o in zip(point, origin))
        return solve_linear(cols, rhs)

    total = Fraction(0)
    for simplex in triangulate_reference(sigma):
        total += poly_over_simplex_reference(coeff, [param(v) for v in simplex])
    return sign * total


def random_simplex(rng, k):
    """k + 1 rational vertices; a third of them degenerate (jac = 0)."""
    verts = [tuple(random_rational(rng) for _ in range(k))
             for _ in range(k + 1)]
    if k and rng.random() < 1 / 3:
        # the last vertex on the affine hull of the others
        a, b = verts[0], verts[rng.randrange(k)]
        t = random_rational(rng)
        verts[-1] = tuple(x + t * (y - x) for x, y in zip(a, b))
    return verts


def test_poly_over_simplex_matches_reference():
    rng = random.Random(43)
    degenerate = 0
    for case in range(1100):
        k = rng.randint(0, 4)
        poly = random_rational_poly(rng, k, rng.randint(0, 8))
        verts = random_simplex(rng, k)
        expected = poly_over_simplex_reference(poly, verts)
        assert _poly_over_simplex(poly, verts) == expected, case
        degenerate += k > 0 and expected == 0 and not poly.is_zero()
    assert degenerate > 100


def test_integrate_cell_matches_reference_on_rational_polytopes():
    rng = random.Random(47)
    cells = [
        # a pentagon and a triangle with rational vertices
        Polyhedron(2, [((2, 1), 3), ((-1, 3), 2), ((0, -1), 0),
                       ((-1, 0), 0), ((1, -2), 1)]),
        Polyhedron(2, [((3, 2), 4), ((-1, 0), 0), ((0, -1), 0)]),
        # a tetrahedron cut by a rational plane, and a square in R^3
        Polyhedron(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
                       ((2, 3, 4), 5), ((1, 1, 0), 1)]),
        Polyhedron(3, [((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1),
                       ((0, -1, 0), 0)], [((1, 1, 2), 1)]),
        # a rational segment in R^2 and a point
        Polyhedron(2, [((1, 0), 2), ((-1, 0), 0)], [((1, 3), 1)]),
        Polyhedron.point((Fraction(1, 2), Fraction(-1, 3))),
    ]
    for sigma in cells:
        k = sigma.dim
        assert any(x.denominator != 1 for v in sigma.vertices() for x in v)
        for _ in range(6):
            alpha = random_superform(rng, sigma.ambient_rank, k, k, max_deg=6)
            assert (integrate_cell(sigma, alpha)
                    == integrate_cell_reference(sigma, alpha))

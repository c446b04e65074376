import random
from fractions import Fraction
from itertools import product

import pytest

import tropcalc.lp
from tropcalc.deltaforms import (DeltaForm, PSFunction, check_balanced,
                                 corner_locus, dP1, dP2, equal, ps_wedge)
from tropcalc.errors import AmbientMismatch, NotBalanced, NotTransversal
from tropcalc.integration import degree
from tropcalc.polyhedra import Polyhedron
from tropcalc.products import (FIRST_MOMENT, _displaced_pairs,
                               _expected_cuts, cross, diagonal_wedge,
                               displacement_vector, transversal_wedge)
from tropcalc.superforms import Poly, Superform

from util import random_balanced, random_cycle, random_superform, standard_line


def diagonal_reference(a: DeltaForm, b: DeltaForm) -> DeltaForm:
    """Stable intersection via the diagonal corner-locus construction.

    Form the cross product on the doubled space, cut down to the diagonal
    by one corner locus per coordinate (each diagonal equation is the kink
    locus of max{x_i, y_i}), and project back along the first factor.
    This is the reference the fan displacement rule is checked against.
    """
    if a.rank != b.rank:
        raise AmbientMismatch("forms on different ambient spaces")
    r = a.rank
    for form in (a, b):
        ok, fails = check_balanced(form)
        if not ok:
            raise NotBalanced(f"{len(fails)} unbalanced faces")
    ptype = (a.p + b.p, a.q + b.q, a.l + b.l)
    if a.is_zero() or b.is_zero():
        return DeltaForm.zero(r, ptype)
    c = cross(a, b)
    for i in range(r):
        xi = tuple(int(j == i) for j in range(2 * r)) + (0,)
        yi = tuple(int(j == r + i) for j in range(2 * r)) + (0,)
        phi = PSFunction.from_minmax(2 * r, "max", [xi, yi])
        c = corner_locus(phi, c, assume_balanced=True)
        if c.is_zero():
            return DeltaForm.zero(r, ptype)
    from tropcalc.morphisms import AffineMap, pushforward_cells
    proj = AffineMap.projection(2 * r, r)
    return pushforward_cells(proj, c)


def displaced_wedge(a: DeltaForm, b: DeltaForm, v):
    """The fan displacement rule along one given vector v; None when v is
    not generic for some pair of cells."""
    candidates = _expected_cuts(a, b, a.rank - a.l - b.l)
    pairs = _displaced_pairs(candidates, v, a.rank)
    if pairs is None:
        return None
    return DeltaForm(a.rank, (a.p + b.p, a.q + b.q, a.l + b.l), pairs)


class LPCounter:
    """Counts the exact LP solves made after it is created."""

    def __init__(self, monkeypatch):
        self.solves = 0
        inner = tropcalc.lp.solve_lp

        def counted(*args, **kwargs):
            self.solves += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(tropcalc.lp, "solve_lp", counted)


def line_through_origin(direction, weight=1):
    dx, dy = direction
    return DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [], [((dy, -dx), 0)]), weight)])


def x_axis(weight=1):
    return line_through_origin((1, 0), weight)


def y_axis(weight=1):
    return line_through_origin((0, 1), weight)


def origin(weight=1):
    return DeltaForm.from_weights(2, 2, [(Polyhedron.point((0, 0)), weight)])


def test_cross_of_lines_is_plane():
    a = cross(DeltaForm.full_space(1), DeltaForm.full_space(1))
    assert equal(a, DeltaForm.full_space(2))


def test_cross_types_and_weights():
    a = cross(DeltaForm.full_space(1, 2), origin(3))
    assert a.ptype == (0, 0, 2)
    line = Polyhedron(3, [], [((0, 1, 0), 0), ((0, 0, 1), 0)])
    assert equal(a, DeltaForm.from_weights(3, 2, [(line, 6)]))


def test_cross_leibniz():
    rng = random.Random(21)
    for _ in range(6):
        p1, q1 = rng.randint(0, 1), rng.randint(0, 1)
        a = DeltaForm(1, (p1, q1, 0),
                      [(Polyhedron.full_space(1),
                        random_superform(rng, 1, p1, q1))])
        p2 = rng.randint(0, 1)
        b = DeltaForm(2, (p2, 0, 0),
                      [(Polyhedron.full_space(2),
                        random_superform(rng, 2, p2, 0))])
        sign = -1 if (p1 + q1) % 2 else 1
        lhs = dP1(cross(a, b))
        rhs = cross(dP1(a), b) + cross(a, dP1(b)).scale(sign)
        assert equal(lhs, rhs)
        lhs2 = dP2(cross(a, b))
        rhs2 = cross(dP2(a), b) + cross(a, dP2(b)).scale(sign)
        assert equal(lhs2, rhs2)


def test_wedge_with_full_space_is_identity():
    rng = random.Random(23)
    for rank in (1, 2):
        for _ in range(3):
            codim = rng.randint(0, rank)
            b = random_balanced(rng, rank, 0, 0, codim)
            assert equal(diagonal_wedge(DeltaForm.full_space(rank), b), b)
            assert equal(diagonal_wedge(b, DeltaForm.full_space(rank)), b)


def test_wedge_on_the_zero_space():
    point = DeltaForm.full_space(0, 3)
    w = diagonal_wedge(point, DeltaForm.full_space(0, 2))
    assert equal(w, DeltaForm.full_space(0, 6))
    assert equal(w, diagonal_reference(point, DeltaForm.full_space(0, 2)))


def test_lines_meet_in_origin():
    for w in (transversal_wedge(x_axis(), y_axis()),
              diagonal_wedge(x_axis(), y_axis())):
        assert equal(w, origin(1))


def test_lattice_index_multiplicity():
    # span of (1,0) and (1,2) has index 2 in Z^2
    w = transversal_wedge(x_axis(), line_through_origin((1, 2)))
    assert equal(w, origin(2))
    assert equal(diagonal_wedge(x_axis(), line_through_origin((1, 2))),
                 origin(2))


def test_parallel_disjoint_lines():
    shifted = DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [], [((0, 1), 1)]), 1)])
    assert diagonal_wedge(x_axis(), shifted).is_zero()
    assert transversal_wedge(x_axis(), shifted).is_zero()


def test_non_transversal_raises():
    with pytest.raises(NotTransversal):
        transversal_wedge(x_axis(), x_axis())
    with pytest.raises(NotTransversal):
        transversal_wedge(standard_line(), standard_line())


def test_tropical_lines_self_intersection():
    w = diagonal_wedge(standard_line(), standard_line())
    assert equal(w, origin(1))
    assert degree(w) == 1
    w2 = diagonal_wedge(standard_line(2), standard_line(3))
    assert degree(w2) == 6


def split_line(direction):
    """The line through the origin along direction, as two rays."""
    dx, dy = direction
    on_line = [((dy, -dx), 0)]
    return DeltaForm.from_weights(2, 1, [
        (Polyhedron(2, [((-dx, -dy), 0)], on_line), 1),
        (Polyhedron(2, [((dx, dy), 0)], on_line), 1)])


def test_translated_wedge_matches_diagonal():
    # the rule along each given vector, and along the vector the library
    # chooses, agrees with the diagonal construction
    cases = [(standard_line(), standard_line(), (1, 2)),
             (x_axis(), line_through_origin((1, 2)), (0, 1)),
             (x_axis(3), y_axis(2), (1, 1))]
    for a, b, v in cases:
        expected = diagonal_reference(a, b)
        assert equal(displaced_wedge(a, b, v), expected)
        assert equal(diagonal_wedge(a, b), expected)


def test_translated_wedge_non_generic_vector():
    # two copies of a line along the first vector tried: the pair of
    # opposite rays meets after the move but does not span Z^2, so the
    # vector is not generic and the next one on the moment curve is used
    v = displacement_vector(2, FIRST_MOMENT)
    line = split_line(v)
    assert displaced_wedge(line, line, v) is None
    assert diagonal_wedge(line, line).is_zero()
    assert diagonal_reference(line, line).is_zero()


def test_vector_on_a_cone_boundary_is_retried():
    # the ray along e1 and the ray along -v are transversal, and v lies on
    # the boundary of the cone they span: both such pairs meet the moved
    # rays only at the apex, and counting them would give weight 4
    v = displacement_vector(2, FIRST_MOMENT)
    a, b = split_line((1, 0)), split_line(v)
    assert displaced_wedge(a, b, v) is None
    expected = diagonal_reference(a, b)
    assert degree(expected) == 2
    assert equal(diagonal_wedge(a, b), expected)


def test_wedge_commutative_and_associative():
    rng = random.Random(29)
    for _ in range(4):
        a = random_cycle(rng, 2, 1)
        b = random_cycle(rng, 2, 1)
        assert equal(diagonal_wedge(a, b), diagonal_wedge(b, a))
    a = standard_line()
    b = x_axis()
    c = DeltaForm.full_space(2)
    assert equal(diagonal_wedge(diagonal_wedge(a, b), c),
                 diagonal_wedge(a, diagonal_wedge(b, c)))


def test_wedge_with_coefficients():
    # smooth factor slides through the intersection
    poly = Poly(2, {(0, 0): Fraction(5), (1, 0): Fraction(2),
                    (0, 2): Fraction(-1)})
    f = Superform.from_poly(poly)
    a = ps_wedge(DeltaForm(2, (0, 0, 0),
                           [(Polyhedron.full_space(2), f)]), x_axis())
    w = diagonal_wedge(a, y_axis())
    expected = origin(1).cells[0][0]
    val = poly.evaluate((Fraction(0), Fraction(0)))
    assert equal(w, DeltaForm(2, (0, 0, 2),
                              [(expected,
                                Superform.constant(2, val))]))


def tropical_hypersurface(rng, rank, d):
    """The corner locus of a max over every monomial of degree <= d, with
    random constants: a tropical hypersurface of degree d in R^rank."""
    rows = [e + (rng.randint(-3 * d, 3 * d),)
            for e in product(range(d + 1), repeat=rank) if sum(e) <= d]
    return corner_locus(PSFunction.from_minmax(rank, "max", rows),
                        DeltaForm.full_space(rank))


def affine_subspace(rng, rank, codim):
    """A weighted affine subspace cut out by random integer rows."""
    while True:
        eqs = [(tuple(rng.randint(-2, 2) for _ in range(rank)),
                Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
               for _ in range(codim)]
        cell = Polyhedron.try_new(rank, [], eqs)
        if cell is not None and cell.dim == rank - codim:
            return DeltaForm.from_weights(rank, codim,
                                          [(cell, rng.choice([1, 2, 3]))])


def smooth_on(rng, cycle, p, q):
    """A random polynomial (p, q)-superform on the cells of a cycle."""
    rank = cycle.rank
    factor = DeltaForm(rank, (p, q, 0),
                       [(Polyhedron.full_space(rank),
                         random_superform(rng, rank, p, q))])
    return ps_wedge(factor, cycle)


def differential_corpus():
    """Seeded pairs of balanced forms, each with its kind."""
    rng = random.Random(31)
    pairs = []
    for d, e in [(1, 1), (1, 1), (1, 1), (2, 1), (2, 1), (2, 2), (2, 2),
                 (2, 2), (3, 1), (3, 2), (3, 3)]:
        pairs.append((f"curves {d}x{e} in R^2",
                      tropical_hypersurface(rng, 2, d),
                      tropical_hypersurface(rng, 2, e)))
    for _ in range(3):
        pairs.append(("random curves in R^2", random_cycle(rng, 2, 1),
                      random_cycle(rng, 2, 1)))
    for _ in range(2):
        pairs.append(("curve x surface in R^3", random_cycle(rng, 3, 2),
                      random_cycle(rng, 3, 1)))
        pairs.append(("surface x surface in R^3", random_cycle(rng, 3, 1),
                      random_cycle(rng, 3, 1)))
    for rank, la, lb in [(2, 1, 1), (2, 1, 1), (2, 0, 1), (3, 1, 2),
                         (3, 1, 1), (3, 2, 1), (3, 1, 2)]:
        pairs.append(("affine subspaces", affine_subspace(rng, rank, la),
                      affine_subspace(rng, rank, lb)))
    # parallel and nested subspaces never meet after a generic move
    plane = affine_subspace(rng, 3, 1)
    pairs.append(("nested subspaces", plane,
                  DeltaForm.from_weights(3, 2, [(plane.cells[0][0].intersect(
                      Polyhedron(3, [], [((1, 1, 1), 0)])), 1)])))
    pairs.append(("parallel subspaces", plane, plane.translate((1, 0, 0))))
    for _ in range(2):
        pairs.append(("(1,0,0) x (0,1,1) in R^2",
                      smooth_on(rng, DeltaForm.full_space(2), 1, 0),
                      smooth_on(rng, random_cycle(rng, 2, 1), 0, 1)))
        pairs.append(("(0,0,1) x (0,0,1) in R^2 with polynomials",
                      smooth_on(rng, random_cycle(rng, 2, 1), 0, 0),
                      smooth_on(rng, random_cycle(rng, 2, 1), 0, 0)))
    pairs.append(("(1,0,1) x (0,1,1) in R^3",
                  random_balanced(rng, 3, 1, 0, 1),
                  random_balanced(rng, 3, 0, 1, 1)))
    return pairs


def test_displacement_matches_diagonal_reference():
    nonzero = 0
    for kind, a, b in differential_corpus():
        w = diagonal_wedge(a, b)
        assert equal(w, diagonal_reference(a, b)), kind
        nonzero += not w.is_zero()
    assert nonzero >= 25


def test_tropical_bezout():
    rng = random.Random(37)
    for d in (1, 2, 3):
        for e in range(1, d + 1):
            a = tropical_hypersurface(rng, 2, d)
            b = tropical_hypersurface(rng, 2, e)
            assert degree(diagonal_wedge(a, b)) == d * e


def test_three_planes_in_r3(monkeypatch):
    rng = random.Random(41)
    planes = [tropical_hypersurface(rng, 3, 1) for _ in range(3)]
    counter = LPCounter(monkeypatch)
    w = diagonal_wedge(diagonal_wedge(planes[0], planes[1]), planes[2])
    new_solves, counter.solves = counter.solves, 0
    ref = diagonal_reference(diagonal_reference(planes[0], planes[1]),
                             planes[2])
    assert 10 * new_solves <= counter.solves
    assert degree(w) == 1
    assert equal(w, ref)

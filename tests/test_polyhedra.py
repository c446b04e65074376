import random
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence

import pytest

from tropcalc.errors import (AmbientMismatch, InternalError, NotAComplex,
                             NotAFacet)
from tropcalc.linalg import (Lattice, dot, extend_to_unimodular, int_kernel,
                             lattice_coordinates, lattice_index, rat)
from tropcalc.lp import lp_feasible, lp_maximize, solve_lp
from tropcalc.polyhedra import (
    AffineForm, Complex, Ineq, IntNormal, Polyhedron, _build, _primitive,
    _reduce_mod_eqs, _rref_eqs, arrangement_complex, common_refinement,
    decomposition_of_pl, eliminate_coordinates, normal_vector,
)


def sub_vec(a, b):
    return tuple(x - y for x, y in zip(a, b))


def unit_square():
    return Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])


def half_line():
    return Polyhedron(1, [((-1,), 0)])


def reference_normal_vector(sigma, tau):
    """The lattice normal of tau in sigma, re-derived from scratch.

    Proves that tau is a facet (dimension, inclusion by LP, and a hull cut
    of sigma that rebuilds tau), completes tau's lattice basis inside
    sigma's, orients the result by the inequalities of sigma tight on tau,
    and checks that a small step along it from tau lands in sigma.
    """
    r = sigma.ambient_rank
    if tau.dim != sigma.dim - 1 or not sigma.includes(tau):
        raise NotAFacet("tau is not a facet of sigma")
    hull_cut = Polyhedron.try_new(r, sigma.ineqs, sigma.eqs + tau.eqs)
    if hull_cut is None or hull_cut != tau:
        raise NotAFacet("tau is not a facet of sigma")
    b_sigma = sigma.lattice.basis
    coords = []
    for v in tau.lattice.basis:
        c = lattice_coordinates(b_sigma, v, r)
        assert c is not None and all(x.denominator == 1 for x in c)
        coords.append(tuple(int(x) for x in c))
    full = extend_to_unimodular(coords, len(b_sigma))
    comp = tuple(row[-1] for row in full)
    omega = tuple(sum(comp[i] * b_sigma[i][j] for i in range(len(b_sigma)))
                  for j in range(r))
    t = tau.relint_point
    sign = 0
    for a, b in sigma.ineqs:
        if dot(a, t) == b and dot(a, omega) != 0:
            cur = -1 if dot(a, omega) > 0 else 1
            assert sign in (0, cur), "inconsistent facet orientation"
            sign = cur
    if sign == 0:
        # Orient toward sigma's relative interior through an equation of
        # tau's hull that sigma does not satisfy.
        diff = sub_vec(sigma.relint_point, t)
        for a, b in tau.eqs:
            if dot(a, sigma.relint_point) != b \
                    and dot(a, omega) != 0 and dot(a, diff) != 0:
                sign = 1 if (dot(a, omega) > 0) == (dot(a, diff) > 0) else -1
                break
        assert sign != 0, "could not orient the normal vector"
    if sign < 0:
        omega = tuple(-x for x in omega)
    assert points_inward(sigma, tau, omega)
    return omega


def points_inward(sigma, tau, omega):
    """Whether tau's relative-interior point plus eps * omega lies in sigma
    for the largest step eps <= 1/2 that every inequality allows."""
    t = tau.relint_point
    eps = Fraction(1, 2)
    for a, b in sigma.ineqs:
        drift = dot(a, omega)
        if drift > 0:
            slack = b - dot(a, t)
            if slack <= 0:
                return False
            eps = min(eps, slack / drift / 2)
    return sigma.contains(tuple(x + eps * w for x, w in zip(t, omega)))


def random_cell(rng, rank, shape):
    """A seeded polytope, cone or lower-dimensional cell in R^rank."""
    def row():
        while True:
            a = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(a):
                return a
    if shape == "cone":
        ineqs = [(row(), 0) for _ in range(rank + 1)]
    else:
        ineqs = []
        for i in range(rank):
            e = tuple(int(i == j) for j in range(rank))
            ineqs.append((e, rng.randint(1, 3)))
            ineqs.append((tuple(-x for x in e), rng.randint(0, 3)))
        ineqs.append((row(), rng.randint(0, 4)))
    eqs = [(row(), 0)] if shape == "flat" else []
    return Polyhedron.try_new(rank, ineqs, eqs)


def test_canonicalization_equality():
    a = Polyhedron(1, [((1,), 1), ((2,), 3), ((-1,), 0)])
    b = Polyhedron(1, [((-3,), 0), ((1,), 1)])
    assert a == b
    assert a.dim == 1
    # Implicit equality extraction.
    c = Polyhedron(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1)])
    assert c.dim == 1
    assert len(c.eqs) == 1 and c.eqs[0] == ((1, 0), Fraction(0))


def test_relint_point_strict():
    sq = unit_square()
    p = sq.relint_point
    assert all(0 < x < 1 for x in p)
    pt = Polyhedron.point((Fraction(1, 2), Fraction(-3)))
    assert pt.dim == 0 and pt.relint_point == (Fraction(1, 2), Fraction(-3))


def test_faces_of_square():
    fs = unit_square().faces()
    assert len(fs) == 9
    assert sorted(f.dim for f in fs) == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_facets_built_once(monkeypatch):
    sq = unit_square()
    first = sq.facets()
    builds = []
    real_try_new = Polyhedron.try_new

    def counting_try_new(*args, **kwargs):
        builds.append(args)
        return real_try_new(*args, **kwargs)

    monkeypatch.setattr(Polyhedron, "try_new", staticmethod(counting_try_new))
    second = sq.facets()
    assert builds == []
    assert [f.key() for f in second] == [f.key() for f in first]
    # Callers get their own list; changing it leaves the cache intact.
    second.clear()
    assert len(sq.facets()) == 4


def test_faces_of_half_line_and_full_space():
    fs = half_line().faces()
    assert sorted(f.dim for f in fs) == [0, 1]
    full = Polyhedron.full_space(3)
    assert full.faces() == (full,)


def test_vertices_and_bounded():
    sq = unit_square()
    assert sq.is_bounded()
    vs = sorted(sq.vertices())
    assert vs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert not half_line().is_bounded()


def test_normal_vector_examples():
    cone = Polyhedron(2, [((2, -1), 0), ((-2, 1), 0), ((-1, 0), 0)])
    # cone of (1,2): x >= 0, y = 2x
    origin = Polyhedron.point((0, 0))
    assert normal_vector(cone, origin) == (1, 2)

    seg = Polyhedron(1, [((1,), 1), ((-1,), 0)])
    one = Polyhedron.point((1,))
    assert normal_vector(seg, one) == (-1,)

    wedge = Polyhedron(2, [((0, -1), 0), ((-1, 1), 0)])  # 0 <= y <= x
    ray = Polyhedron(2, [((-1, 0), 0)], [((1, -1), 0)])  # ray of (1,1)
    omega = normal_vector(wedge, ray)
    # omega is not in N_tau, nor even in its real span:
    assert not ray.lattice.contains(omega)
    assert omega[0] != omega[1]
    sub = Lattice(2, [(1, 1), omega])
    assert lattice_index(sub, Lattice(2, [(1, 0), (0, 1)])) == 1
    # points into the wedge
    t = ray.relint_point
    eps = Fraction(1, 1000)
    assert wedge.contains(tuple(x + eps * w for x, w in zip(t, omega)))


def test_normal_vector_independent_of_representative():
    with pytest.raises(NotAFacet):
        normal_vector(unit_square(), Polyhedron.point((0, 0)))


def test_normal_vector_rejects_non_facets():
    sq = unit_square()
    with pytest.raises(NotAFacet):
        normal_vector(sq, Polyhedron.point((1, 1)))  # a vertex
    with pytest.raises(NotAFacet):
        normal_vector(sq, sq)
    other = Polyhedron(2, [((1, 0), 2), ((-1, 0), 0), ((0, 1), 1),
                           ((0, -1), 0)])
    right_edge = next(f for f in other.facets() if f.contains((2, 0)))
    with pytest.raises(NotAFacet):
        normal_vector(sq, right_edge)


def test_facet_normals_match_reference():
    rng = random.Random(2017)
    checked = 0
    for rank in range(1, 5):
        for shape in ("polytope", "cone", "flat"):
            for _ in range(2 if rank == 4 else 3):
                cell = random_cell(rng, rank, shape)
                if cell is None:
                    continue
                for sigma in cell.faces():
                    pairs = sigma.facet_normals()
                    assert [tau.key() for tau, _ in pairs] == \
                        [tau.key() for tau in sigma.facets()]
                    for tau, omega in pairs:
                        assert omega == reference_normal_vector(sigma, tau)
                        assert normal_vector(sigma, tau) == omega
                        assert points_inward(sigma, tau, omega)
                        checked += 1
    assert checked > 300


def test_common_refinement():
    line = Complex(1, [Polyhedron.full_space(1)])
    split = Complex(1, [Polyhedron(1, [((1,), 0)]), Polyhedron(1, [((-1,), 0)])])
    ref = common_refinement(line, split)
    assert {c.key() for c in ref.cells} == {c.key() for c in split.cells}
    again = common_refinement(split, split)
    assert {c.key() for c in again.cells} == {c.key() for c in split.cells}


def test_common_refinement_two_lines():
    lx = Polyhedron(2, [], [((0, 1), 0)])
    ly = Polyhedron(2, [], [((1, 0), 0)])
    union = arrangement_complex(2, [lx, ly])
    rays = [c for c in union.cells if c.dim == 1]
    assert len(rays) == 4
    assert len([c for c in union.cells if c.dim == 0]) == 1
    union.validate()


def test_decomposition_of_pl():
    cells, labels = decomposition_of_pl(
        [AffineForm((1,), 0), AffineForm((0,), 0)], "max")
    cx = Complex(1, cells)
    maxcells = cx.maximal_cells()
    assert len(maxcells) == 2
    assert any(c.contains((-1,)) for c in maxcells)
    assert any(c.contains((1,)) for c in maxcells)
    assert len(cx.cells_of_dim(0)) == 1

    cells2, labels2 = decomposition_of_pl(
        [AffineForm((1, 0), 0), AffineForm((0, 1), 0), AffineForm((0, 0), 0)],
        "max")
    cx2 = Complex(2, cells2)
    assert len(cx2.maximal_cells()) == 3
    assert [c.key() for c in cx2.maximal_cells()] == [c.key() for c in cells2]
    assert sorted(labels2.values()) == [0, 1, 2]
    rays = cx2.cells_of_dim(1)
    assert len(rays) == 3
    dirs = set()
    for ray in rays:
        v = ray.lattice.basis[0]
        p = ray.relint_point
        dirs.add(v if dot(v, p) > 0 else tuple(-x for x in v))
    assert dirs == {(1, 1), (-1, 0), (0, -1)}

    single, _ = decomposition_of_pl([AffineForm((1, 1), 2)], "min")
    assert single == [Polyhedron.full_space(2)]


def test_complex_validate_random_arrangement():
    rng = random.Random(4)
    for _ in range(5):
        cells = []
        for _ in range(3):
            ineqs = [(tuple(rng.randint(-1, 1) for _ in range(2)), rng.randint(0, 2))
                     for _ in range(3)]
            c = Polyhedron.try_new(2, ineqs)
            if c is not None:
                cells.append(c)
        if cells:
            arrangement_complex(2, cells).validate()


def test_complex_validate_rejects_overlaps():
    # Two squares overlapping in [1,2]x[0,2]: closed under faces, but they
    # meet outside a common face.
    a = Polyhedron(2, [((1, 0), 2), ((-1, 0), 0), ((0, 1), 2), ((0, -1), 0)])
    b = a.translate((1, 0))
    with pytest.raises(NotAComplex):
        Complex(2, [a, b]).validate()


def test_eliminate_coordinates():
    # Project the square [0,1]^2 embedded at height x3 = x1 + x2 onto (x1, x3).
    sq = unit_square()
    ineqs = [(a + (0,), b) for a, b in sq.ineqs]
    eqs = [((1, 1, -1), 0)]
    pi, pe, kept = eliminate_coordinates(ineqs, eqs, 3, [1])
    assert kept == [0, 2]
    proj = Polyhedron(2, pi, pe)
    assert proj.contains((Fraction(1, 2), 1))
    assert proj.contains((0, 0)) and proj.contains((1, 2))
    assert not proj.contains((0, Fraction(3, 2)))
    assert not proj.contains((1, Fraction(1, 2)))


def test_includes_and_translate():
    sq = unit_square()
    small = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1),
                           ((0, -1), Fraction(-1, 2))])
    assert sq.includes(small) and not small.includes(sq)
    moved = sq.translate((1, 1))
    assert moved.contains((2, 2)) and not moved.contains((0, 0))


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        unit_square().intersect(half_line())


# -- reference: canonicalisation by four kinds of LP -------------------------
# The _build that the single max-slack LP replaced: a feasibility LP, one
# implicit-equality LP per inequality, one redundancy LP per inequality and
# a max-slack LP for the relative-interior point.  The new _build must give
# the same canonical polyhedron and the same relative-interior point.

def _build_reference(rank_: int, ineqs: Iterable, eqs: Iterable):
    raw_ineqs: List[Ineq] = []
    for a, b in ineqs:
        prim = _primitive(a, b)
        if prim is None:
            if rat(b) < 0:
                return None
            continue
        raw_ineqs.append(prim)
    raw_eqs: List[Ineq] = []
    for a, b in eqs:
        prim = _primitive(a, b)
        if prim is None:
            if rat(b) != 0:
                return None
            continue
        raw_eqs.append(prim)

    if lp_feasible(raw_ineqs, raw_eqs, rank_).status != "optimal":
        return None

    # Implicit equalities: inequalities that hold with equality everywhere.
    pending = list(raw_ineqs)
    strict: List[Ineq] = []
    for a, b in pending:
        res = lp_maximize(raw_ineqs, raw_eqs, tuple(-x for x in a), rank_)
        if res.status == "optimal" and -res.value == b:
            raw_eqs.append((a, b))
        else:
            strict.append((a, b))

    rref = _rref_eqs(raw_eqs, rank_)
    if rref is None:
        return None
    eq_rows, pivots = rref

    # Reduce inequalities modulo the hull, deduplicate, drop trivial ones.
    by_normal: Dict[IntNormal, Fraction] = {}
    for a, b in strict:
        ra, rb = _reduce_mod_eqs(a, b, eq_rows, pivots)
        prim = _primitive(ra, rb)
        if prim is None:
            continue  # valid on the hull; feasibility already checked
        na, nb = prim
        if na not in by_normal or nb < by_normal[na]:
            by_normal[na] = nb
    ineq_list = sorted(by_normal.items())

    # Irredundancy by exact LP, one inequality at a time.
    kept = list(ineq_list)
    i = 0
    while i < len(kept):
        a, b = kept[i]
        others = kept[:i] + kept[i + 1:]
        res = lp_maximize(others, eq_rows, a, rank_)
        if res.status == "optimal" and res.value <= b:
            kept.pop(i)
        else:
            i += 1

    basis = int_kernel([a for a, _ in eq_rows], rank_)
    lattice = Lattice(rank_, basis)
    dim = len(basis)

    relint = _relint_point_reference(kept, eq_rows, rank_)
    return (rank_, tuple(kept), tuple(eq_rows), tuple(pivots), dim,
            lattice, relint)


def _relint_point_reference(ineqs: Sequence[Ineq], eqs: Sequence[Ineq], rank_: int):
    """A rational point satisfying every inequality strictly."""
    if not ineqs:
        res = lp_feasible([], eqs, rank_)
        return res.point
    # Maximize slack t subject to a.x + t <= b, t <= 1 in rank+1 variables.
    ext_ineqs = [(tuple(a) + (1,), b) for a, b in ineqs]
    ext_ineqs.append((tuple(0 for _ in range(rank_)) + (1,), Fraction(1)))
    ext_eqs = [(tuple(a) + (0,), b) for a, b in eqs]
    obj = tuple(0 for _ in range(rank_)) + (1,)
    res = solve_lp(ext_ineqs, ext_eqs, obj, rank_ + 1)
    if res.status != "optimal" or res.value <= 0:
        raise InternalError("a nonempty polyhedron without implicit "
                            "equalities has no strictly interior point")
    return res.point[:rank_]



def random_system(rng, rank):
    """A seeded H-system in R^rank that often has implicit equalities."""
    def scalar():
        if rng.random() < 0.2:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Fraction(rng.randint(-3, 3))

    def row():
        return tuple(scalar() if rng.random() < 0.3 else rng.randint(-2, 2)
                     for _ in range(rank))

    ineqs = []
    if rng.random() < 0.6:  # a box keeps most systems bounded
        for i in range(rank):
            e = tuple(int(i == j) for j in range(rank))
            ineqs.append((e, rng.randint(-1, 3)))
            ineqs.append((tuple(-x for x in e), rng.randint(-1, 3)))
    ineqs += [(row(), scalar()) for _ in range(rng.randint(0, rank + 2))]
    for _ in range(rng.randint(0, 2)):
        if not ineqs:
            break
        kind = rng.random()
        a, b = rng.choice(ineqs)
        if kind < 0.4:
            # The opposite row, sometimes shifted: an implicit equality,
            # or an empty system.
            ineqs.append((tuple(-x for x in a), -b + rng.choice([0, 0, -1, 1])))
        elif kind < 0.8:
            # Minus the sum of some rows forces all of them tight.
            picked = rng.sample(ineqs, rng.randint(1, min(3, len(ineqs))))
            ineqs.append((tuple(-sum(c[j] for c, _ in picked)
                                for j in range(rank)),
                          -sum(d for _, d in picked)
                          + rng.choice([0, 0, 0, -1])))
        else:
            # A positive multiple of a row with a smaller offset.
            f = rng.randint(2, 3)
            ineqs.append((tuple(f * x for x in a), f * b - rng.randint(0, 1)))
    eqs = [(row(), scalar()) for _ in range(rng.choice([0, 0, 0, 1, 2]))]
    rng.shuffle(ineqs)
    return ineqs, eqs


def same_build(rank, ineqs, eqs):
    got = _build(rank, ineqs, eqs)
    want = _build_reference(rank, ineqs, eqs)
    if want is None:
        assert got is None, (rank, ineqs, eqs)
        return None
    assert got is not None, (rank, ineqs, eqs)
    for i in (0, 1, 2, 3, 4, 6):  # rank, ineqs, eqs, pivots, dim, relint
        assert got[i] == want[i], (i, rank, ineqs, eqs)
    assert got[5].basis == want[5].basis, (rank, ineqs, eqs)
    return got


def test_build_matches_reference():
    rng = random.Random(1414)
    systems = empty = implicit = facets = 0
    for _ in range(1500):
        rank = rng.randint(1, 4)
        ineqs, eqs = random_system(rng, rank)
        built = same_build(rank, ineqs, eqs)
        systems += 1
        # The same system in another row order.
        shuffled = list(ineqs)
        rng.shuffle(shuffled)
        same_build(rank, shuffled, eqs[::-1])
        systems += 1
        if built is None:
            empty += 1
            continue
        if len(built[2]) > len(_rref_eqs(eqs, rank)[0]):
            implicit += 1
        # Facets, and facets of a facet, as facets() builds them.
        kept, eq_rows = built[1], built[2]
        for a, b in rng.sample(kept, min(2, len(kept))):
            facet = same_build(rank, kept, eq_rows + ((a, b),))
            systems += 1
            facets += 1
            if facet is not None and facet[1]:
                a2, b2 = rng.choice(facet[1])
                same_build(rank, facet[1], facet[2] + ((a2, b2),))
                systems += 1
    assert systems >= 2000
    assert empty >= 300 and implicit >= 150 and facets >= 500, \
        (empty, implicit, facets)

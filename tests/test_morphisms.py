import random
from fractions import Fraction

import pytest

import tropcalc.morphisms
from tropcalc.deltaforms import DeltaForm, PSFunction, corner_locus, equal
from tropcalc.errors import CellNotInjective, NotBalanced
from tropcalc.integration import degree, integrate_cell
from tropcalc.morphisms import (AffineMap, _images_form_complex, graph_cycle,
                                graph_polyhedron, image_polyhedron,
                                projection_formula_check, pullback,
                                pushforward_cells, pushforward_hat)
from tropcalc.products import cross, diagonal_wedge
from tropcalc.polyhedra import Polyhedron
from tropcalc.superforms import Poly, Superform

from util import random_balanced, random_cycle, random_pl, standard_line


def test_affine_map_basics():
    f = AffineMap(2, 2, ((1, 1), (0, 1)), (3, -2))
    assert f.apply((1, 1)) == (Fraction(5), Fraction(-1))
    g = AffineMap.projection(2, 1)
    assert g.apply((4, 7)) == (Fraction(4),)
    h = g.compose(f)
    assert h.apply((1, 1)) == (Fraction(5),)


def test_image_polyhedron():
    square = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0),
                            ((0, 1), 1), ((0, -1), 0)])
    proj = AffineMap.projection(2, 1)
    img = image_polyhedron(proj, square)
    assert img.key() == Polyhedron(1, [((1,), 1), ((-1,), 0)]).key()
    double = AffineMap(1, 1, ((2,),), (1,))
    seg = Polyhedron(1, [((1,), 1), ((-1,), 0)])
    assert image_polyhedron(double, seg).key() == \
        Polyhedron(1, [((1,), 3), ((-1,), -1)]).key()


def test_pushforward_scaling_map():
    # x -> 2x multiplies the weight by the index [Z : 2Z]
    f = AffineMap(1, 1, ((2,),))
    a = DeltaForm.full_space(1)
    assert equal(pushforward_cells(f, a), DeltaForm.full_space(1, 2))
    assert equal(pushforward_hat(f, a), DeltaForm.full_space(1, 2))


def test_pushforward_projection_lines():
    proj = AffineMap.projection(2, 1)
    vertical = DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [], [((1, 0), 0)]), 1)])
    horizontal = DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [], [((0, 1), 0)]), 3)])
    with pytest.raises(CellNotInjective) as err:
        pushforward_cells(proj, vertical)
    assert err.value.cells
    assert pushforward_hat(proj, vertical).is_zero()
    assert equal(pushforward_hat(proj, horizontal),
                 DeltaForm.full_space(1, 3))


def test_pushforward_preserves_integral():
    # transported coefficient times the lattice index keeps integrals fixed
    f = AffineMap(1, 1, ((2,),), (1,))
    seg = Polyhedron(1, [((1,), 1), ((-1,), 0)])
    coeff = Superform.monomial(1, (0,), (0,), Poly.var(1, 0))
    a = DeltaForm(1, (1, 1, 0), [(seg, coeff)])
    pushed = pushforward_cells(f, a)
    (cell, moved), = pushed.cells
    assert integrate_cell(cell, moved) == integrate_cell(seg, coeff)


def test_pushforward_degree_preserved():
    rng = random.Random(33)
    f = AffineMap(2, 2, ((1, 2), (1, 3)), (1, 0))
    for _ in range(3):
        a = random_cycle(rng, 2, 2)
        assert degree(pushforward_hat(f, a)) == degree(a)


def test_graph_cycle():
    f = AffineMap(1, 1, ((1,),))
    diag = DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [], [((1, -1), 0)]), 1)])
    assert equal(graph_cycle(f), diag)
    g = AffineMap(1, 2, ((2,), (-1,)), (0, 3))
    gr = graph_cycle(g)
    assert gr.ptype == (0, 0, 2)
    assert gr.rank == 3
    cells = [c for c, _ in gr.cells]
    assert all(c.contains((t, 2 * t, 3 - t)) for c in cells
               for t in (Fraction(0), Fraction(5)))


def reference_graph_cycle(f):
    """The graph of f as the iterated corner locus of max{f_i(x'), x_i}."""
    rs, rt = f.source_rank, f.target_rank
    n = rs + rt
    form = DeltaForm.full_space(n)
    for i in range(rt):
        row_f = tuple(f.matrix[i]) + (0,) * rt + (f.translate[i],)
        row_x = (0,) * rs + tuple(int(i == j) for j in range(rt)) + (0,)
        phi = PSFunction.from_minmax(n, "max", [row_f, row_x])
        form = corner_locus(phi, form, assume_balanced=True)
    return form


def test_graph_cycle_is_iterated_corner_locus():
    rng = random.Random(1117)
    for _ in range(20):
        rs, rt = rng.randint(1, 2), rng.randint(1, 2)
        matrix = [[rng.randint(-2, 2) for _ in range(rs)] for _ in range(rt)]
        translate = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(rt)]
        f = AffineMap(rs, rt, matrix, translate)
        graph = graph_cycle(f)
        assert graph.ptype == (0, 0, rt)
        assert [c for c, _ in graph.cells] == [graph_polyhedron(f)]
        assert equal(reference_graph_cycle(f), graph)


def test_pullback_identity_and_projection():
    f = AffineMap.identity(2)
    line = standard_line()
    assert equal(pullback(f, line), line)
    proj = AffineMap.projection(2, 1)
    pt = DeltaForm.from_weights(1, 1, [(Polyhedron.point((0,)), 1)])
    pulled = pullback(proj, pt)
    assert equal(pulled, DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [], [((1, 0), 0)]), 1)]))


def test_pullback_diagonal_of_tropical_line():
    # t -> (t, t) meets the tropical line stably in one point
    f = AffineMap(1, 2, ((1,), (1,)))
    pulled = pullback(f, standard_line())
    assert equal(pulled, DeltaForm.from_weights(
        1, 1, [(Polyhedron.point((0,)), 1)]))


def test_pullback_requires_balanced():
    f = AffineMap.identity(2)
    rays = DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [((-1, 0), 0)], [((0, 1), 0)]), 1)])
    with pytest.raises(NotBalanced):
        pullback(f, rays)


def test_functoriality():
    f = AffineMap(1, 1, ((2,),), (1,))
    g = AffineMap(1, 1, ((3,),), (-2,))
    a = DeltaForm.full_space(1)
    assert equal(pushforward_hat(f.compose(g), a),
                 pushforward_hat(f, pushforward_hat(g, a)))
    b = corner_locus(PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)]),
                     DeltaForm.full_space(1))
    assert equal(pullback(f.compose(g), b), pullback(g, pullback(f, b)))


def test_divisor_compatibility():
    # pulling back the corner locus of max{x1, x2, 0} along t -> (t, t)
    # matches the corner locus of the composed function max{t, 0}
    f = AffineMap(1, 2, ((1,), (1,)))
    pulled = pullback(f, standard_line())
    direct = corner_locus(PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)]),
                          DeltaForm.full_space(1))
    assert equal(pulled, direct)


def test_projection_formula():
    f = AffineMap.projection(2, 1)
    a = standard_line()
    b = corner_locus(PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)]),
                     DeltaForm.full_space(1))
    assert projection_formula_check(f, a, b)
    assert projection_formula_check(f, DeltaForm.full_space(2), b)


def test_push_skips_regularize_only_when_images_form_a_complex(monkeypatch):
    rng = random.Random(1201)
    cases = []  # (expected verdict, push, map, form)
    for _ in range(4):
        while True:
            matrix = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if matrix[0][0] * matrix[1][1] != matrix[0][1] * matrix[1][0]:
                break
        f = AffineMap(2, 2, matrix, [rng.randint(-2, 2), Fraction(1, 2)])
        cases.append((True, pushforward_cells, f, random_cycle(rng, 2, 1)))
        cases.append((True, pushforward_cells, f,
                      random_balanced(rng, 2, 1, 0, 1)))
    for _ in range(4):
        # the projection of a graph intersection, as in pullback
        f = AffineMap(2, 2, [[rng.randint(-2, 2) for _ in range(2)]
                             for _ in range(2)])
        lifted = cross(DeltaForm.full_space(2), random_cycle(rng, 2, 1))
        cut = diagonal_wedge(graph_cycle(f), lifted)
        cases.append((True, pushforward_cells, AffineMap.projection(4, 2),
                      cut))
    for _ in range(3):
        points = diagonal_wedge(random_cycle(rng, 2, 1),
                                random_cycle(rng, 2, 1))
        f = AffineMap(2, 1, [[rng.randint(-2, 2), rng.randint(-2, 2)]])
        cases.append((True, pushforward_hat, f, points))
    to_line = AffineMap(2, 1, [[1, 1]])
    cases.append((False, pushforward_hat, to_line, standard_line()))
    conic = corner_locus(random_pl(rng, 2, nterms=5, kind="max"),
                         DeltaForm.full_space(2))
    cases.append((False, pushforward_hat, to_line, conic))

    fast = []
    for verdict, push, f, a in cases:
        assert _images_form_complex(f, a) is verdict
        fast.append(push(f, a))
    monkeypatch.setattr(tropcalc.morphisms, "_images_form_complex",
                        lambda f, a: False)
    for (_, push, f, a), got in zip(cases, fast):
        assert equal(got, push(f, a))


def test_pullback_matches_regularized_projection(monkeypatch):
    rng = random.Random(1203)
    cases = []
    for _ in range(4):
        f = AffineMap(2, 2, [[rng.randint(-2, 2) for _ in range(2)]
                             for _ in range(2)], [rng.randint(-2, 2), 0])
        a = random_cycle(rng, 2, 1)
        cases.append((f, a, pullback(f, a)))
    monkeypatch.setattr(tropcalc.morphisms, "_images_form_complex",
                        lambda f, a: False)
    for f, a, got in cases:
        assert equal(got, pullback(f, a))
    assert sum(not got.is_zero() for _, _, got in cases) >= 3


def test_push_out_of_r0_keeps_the_target_rank():
    f = AffineMap(0, 2, [[], []], (1, 2))
    point = pushforward_cells(f, DeltaForm.full_space(0))
    assert point.rank == 2
    assert equal(point, DeltaForm.from_weights(2, 2, [(Polyhedron.point((1, 2)), 1)]))
    coeff = DeltaForm(0, (0, 0, 0), [(Polyhedron.full_space(0),
                                      Superform.constant(0, 3))])
    moved = pushforward_hat(f, coeff)
    assert [(cell, c) for cell, c in moved.cells] == [
        (Polyhedron.point((1, 2)), Superform.constant(2, 3))]

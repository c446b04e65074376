import random
from fractions import Fraction

import pytest

from tropcalc.errors import SlotOutOfRange
from tropcalc.linalg import mat_mul, mat_vec
from tropcalc.polyhedra import Polyhedron
from tropcalc.superforms import (
    Poly, Superform, contract, contract1, contract2, d1, d2, is_symmetric,
    j_op, pullback_form, restrict_to, wedge,
)


def add_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def random_poly(rng, rank, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * rank
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(rank)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(rng.randint(-3, 3))
    return Poly(rank, {e: c for e, c in terms.items() if c})


def random_form(rng, rank, p, q):
    terms = {}
    from itertools import combinations
    i_choices = list(combinations(range(rank), p))
    j_choices = list(combinations(range(rank), q))
    for _ in range(rng.randint(1, 3)):
        key = (rng.choice(i_choices), rng.choice(j_choices))
        poly = random_poly(rng, rank)
        terms[key] = terms.get(key, Poly(rank)) + poly
    return Superform(rank, p, q, terms)


def dxdy(rank, i_idx, j_idx, c=1):
    return Superform.monomial(rank, i_idx, j_idx, Poly.const(rank, c))


def test_poly_arithmetic():
    p = Poly.affine(2, (1, 0))  # x0
    q = Poly.affine(2, (0, 1), 1)  # x1 + 1
    prod = p * q
    assert prod.evaluate((2, 3)) == 8
    assert prod.partial(0) == q
    assert prod.partial(1) == p
    assert (p - p).is_zero()
    assert prod.directional((1, 2)) == q + p.scale(2)


def test_poly_compose_affine():
    p = Poly(1, {(2,): Fraction(1)})  # x^2
    # x = 2t + 1
    comp = p.compose_affine([(2,)], (1,))
    assert comp == Poly(1, {(2,): Fraction(4), (1,): Fraction(4),
                            (0,): Fraction(1)})


def compose_affine_reference(poly, linear_rows, translate):
    """Poly.compose_affine as it was before the integer kernel: one Poly
    product per factor."""
    k = len(linear_rows[0]) if linear_rows else 0
    subs = [Poly.affine(k, linear_rows[i], translate[i])
            for i in range(poly.rank)]
    out = Poly(k)
    for e, c in poly.terms.items():
        m = Poly.const(k, c)
        for i, power in enumerate(e):
            for _ in range(power):
                m = m * subs[i]
        out = out + m
    return out


def random_rational(rng):
    """0 about a quarter of the time, else a small rational."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6)))


def random_substitution(rng, rank, k):
    """Rows and translate of x = A y + t, with zero rows and zero
    translates mixed in."""
    rows = []
    for _ in range(rank):
        if rng.random() < 0.15:
            rows.append(tuple(Fraction(0) for _ in range(k)))
        else:
            rows.append(tuple(random_rational(rng) for _ in range(k)))
    translate = tuple(random_rational(rng) for _ in range(rank))
    if rng.random() < 0.15:
        translate = tuple(Fraction(0) for _ in range(rank))
    return rows, translate


def random_rational_poly(rng, rank, max_deg):
    """Up to four monomials of degree <= max_deg; empty about 5% of the
    time."""
    if rng.random() < 0.05:
        return Poly(rank)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * rank
        for _ in range(rng.randint(0, max_deg) if rank else 0):
            e[rng.randrange(rank)] += 1
        terms[tuple(e)] = random_rational(rng) or Fraction(1)
    return Poly(rank, terms)


def test_compose_affine_matches_reference():
    rng = random.Random(41)
    for case in range(1200):
        rank = rng.randint(0, 4)
        k = rng.randint(0, 4) if rank else 0
        max_deg = rng.randint(0, 8)
        poly = random_rational_poly(rng, rank, max_deg)
        rows, translate = random_substitution(rng, rank, k)
        assert (poly.compose_affine(rows, translate)
                == compose_affine_reference(poly, rows, translate)), case


def test_pullback_form_out_of_r0():
    # R^2 -> R^0 has no rows: the source rank must be given.
    a = Superform.constant(0, 5)
    pb = pullback_form([], (), a, source_rank=2)
    assert pb.rank == 2
    assert pb.terms == {((), ()): Poly.const(2, 5)}
    assert pullback_form([], (), a).rank == 0


def test_wedge_reordering_sign():
    # d'x1 ^ d''x1 ^ d'x2 ^ d''x2 = - d'x1 ^ d'x2 ^ d''x1 ^ d''x2
    a = dxdy(2, (0,), (0,))
    b = dxdy(2, (1,), (1,))
    prod = wedge(a, b)
    assert prod.terms == {((0, 1), (0, 1)): Poly.const(2, -1)}


def test_wedge_graded_commutative():
    rng = random.Random(2)
    for _ in range(25):
        rank = rng.randint(1, 3)
        p, q = rng.randint(0, rank), rng.randint(0, rank)
        p2, q2 = rng.randint(0, rank), rng.randint(0, rank)
        a = random_form(rng, rank, p, q)
        b = random_form(rng, rank, p2, q2)
        sign = -1 if ((p + q) * (p2 + q2)) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associative():
    rng = random.Random(3)
    for _ in range(15):
        rank = 3
        a = random_form(rng, rank, rng.randint(0, 1), rng.randint(0, 1))
        b = random_form(rng, rank, rng.randint(0, 1), rng.randint(0, 1))
        c = random_form(rng, rank, rng.randint(0, 1), rng.randint(0, 1))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_d1_basic():
    # d'(x0^2) = 2 x0 d'x0
    f = Superform.from_poly(Poly(2, {(2, 0): Fraction(1)}))
    df = d1(f)
    assert df.terms == {((0,), ()): Poly(2, {(1, 0): Fraction(2)})}
    # d''(f d'x) = -f' d'x ^ d''x in one variable:
    g = Superform.monomial(1, (0,), (), Poly.var(1, 0))
    d2g = d2(g)
    assert d2g.terms == {((0,), (0,)): Poly.const(1, -1)}


def test_differentials_square_to_zero_and_anticommute():
    rng = random.Random(5)
    for _ in range(20):
        rank = rng.randint(1, 3)
        a = random_form(rng, rank, rng.randint(0, rank - 1) if rank > 1 else 0,
                        rng.randint(0, rank - 1) if rank > 1 else 0)
        assert d1(d1(a)).is_zero()
        assert d2(d2(a)).is_zero()
        assert d1(d2(a)) == d2(d1(a)).scale(-1)


def test_leibniz():
    rng = random.Random(7)
    for _ in range(20):
        rank = 3
        p, q = rng.randint(0, 1), rng.randint(0, 1)
        a = random_form(rng, rank, p, q)
        b = random_form(rng, rank, rng.randint(0, 1), rng.randint(0, 1))
        sign = -1 if (p + q) % 2 else 1
        assert d1(wedge(a, b)) == wedge(d1(a), b) + wedge(a, d1(b)).scale(sign)
        assert d2(wedge(a, b)) == wedge(d2(a), b) + wedge(a, d2(b)).scale(sign)


def test_j_operator():
    rng = random.Random(9)
    for _ in range(20):
        rank = 3
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(rng, rank, p, q)
        assert j_op(j_op(a)) == a
        assert j_op(d1(a)) == d2(j_op(a))
        b = random_form(rng, rank, rng.randint(0, 1), rng.randint(0, 1))
        # J is a ring morphism for the wedge product.
        assert j_op(wedge(a, b)) == wedge(j_op(a), j_op(b))
    assert is_symmetric(dxdy(1, (0,), (0,)))
    assert not is_symmetric(dxdy(2, (0,), (1,)))


def test_contract_examples():
    # <d'x1 ^ d'x2 ; e2 at d' slot 1> = -d'x1
    a = dxdy(2, (0, 1), ())
    c = contract(a, d1_slots=[(1, (0, 1))])
    assert c.terms == {((0,), ()): Poly.const(2, -1)}
    # slot 2 instead: +d'x1 is wrong; inserting e1 at slot 2 gives -d'x2,
    # inserting e2 at slot 2 gives +d'x1.
    c2 = contract(a, d1_slots=[(2, (0, 1))])
    assert c2.terms == {((0,), ()): Poly.const(2, 1)}
    # d'' side mirrors the d' side with no crossing sign.
    b = dxdy(2, (0,), (0, 1))
    cb = contract2(b, (0, 1))
    assert cb.terms == {((0,), (0,)): Poly.const(2, -1)}
    with pytest.raises(SlotOutOfRange):
        contract(a, d2_slots=[(1, (1, 0))])


def test_contract_multilinear_alternating():
    rng = random.Random(13)
    for _ in range(15):
        rank = 3
        a = random_form(rng, rank, 2, rng.randint(0, 1))
        u = tuple(rng.randint(-2, 2) for _ in range(rank))
        v = tuple(rng.randint(-2, 2) for _ in range(rank))
        both = contract(a, d1_slots=[(1, u), (2, v)])
        swapped = contract(a, d1_slots=[(1, v), (2, u)])
        assert both == swapped.scale(-1)
        same = contract(a, d1_slots=[(1, u), (2, u)])
        assert same.is_zero()


def test_contract_leibniz_d1_side():
    # <a^b; (v)_1, ()> = <a;(v)_1>^b + (-1)^{p+q} a^<b;(v)_1>
    rng = random.Random(17)
    for _ in range(20):
        rank = 3
        p, q = rng.randint(1, 2), rng.randint(0, 1)
        a = random_form(rng, rank, p, q)
        b = random_form(rng, rank, rng.randint(1, 2), rng.randint(0, 1))
        v = tuple(rng.randint(-2, 2) for _ in range(rank))
        sign = -1 if (p + q) % 2 else 1
        lhs = contract1(wedge(a, b), v)
        rhs = wedge(contract1(a, v), b) + wedge(a, contract1(b, v)).scale(sign)
        assert lhs == rhs


def test_contract_leibniz_d2_side():
    # <a^b; (), (v)_1> = (-1)^{p'} <a;(v)_1''>^b + (-1)^q a^<b;(v)_1''>
    rng = random.Random(19)
    for _ in range(20):
        rank = 3
        p, q = rng.randint(0, 1), rng.randint(1, 2)
        p2, q2 = rng.randint(1, 2), rng.randint(1, 2)
        a = random_form(rng, rank, p, q)
        b = random_form(rng, rank, p2, q2)
        v = tuple(rng.randint(-2, 2) for _ in range(rank))
        s1 = -1 if p2 % 2 else 1
        s2 = -1 if q % 2 else 1
        lhs = contract2(wedge(a, b), v)
        rhs = (wedge(contract2(a, v), b).scale(s1)
               + wedge(a, contract2(b, v)).scale(s2))
        assert lhs == rhs


def test_pullback_linear():
    # Pull back d'x0 ^ d''x1 along the swap map (y0,y1) -> (y1,y0).
    a = dxdy(2, (0,), (1,))
    m = [(0, 1), (1, 0)]
    pb = pullback_form(m, (0, 0), a)
    assert pb.terms == {((1,), (0,)): Poly.const(2, 1)}
    # x0 d''x0 along x = 2t + 1.
    b = Superform.monomial(1, (), (0,), Poly.var(1, 0))
    pb2 = pullback_form([(2,)], (1,), b)
    assert pb2.terms == {((), (0,)): Poly(1, {(1,): Fraction(4),
                                              (0,): Fraction(2)})}


def test_pullback_functorial_and_compatible():
    rng = random.Random(23)
    for _ in range(12):
        r2 = rng.randint(1, 3)   # target of F
        r1 = rng.randint(1, 3)   # middle
        r0 = rng.randint(1, 3)   # source
        f_lin = [tuple(rng.randint(-2, 2) for _ in range(r1)) for _ in range(r2)]
        f_tr = tuple(rng.randint(-2, 2) for _ in range(r2))
        g_lin = [tuple(rng.randint(-2, 2) for _ in range(r0)) for _ in range(r1)]
        g_tr = tuple(rng.randint(-2, 2) for _ in range(r1))
        p = rng.randint(0, min(2, r2))
        q = rng.randint(0, min(2, r2))
        a = random_form(rng, r2, p, q)
        b = random_form(rng, r2, rng.randint(0, 1) if r2 >= 1 else 0, 0)
        # composite F(G(y)) has linear part F_lin G_lin.
        comp_lin = mat_mul(f_lin, g_lin)
        comp_tr = add_vec(mat_vec(f_lin, g_tr), f_tr)
        lhs = pullback_form(comp_lin, comp_tr, a)
        rhs = pullback_form(g_lin, g_tr, pullback_form(f_lin, f_tr, a))
        assert lhs == rhs
        assert (pullback_form(f_lin, f_tr, wedge(a, b))
                == wedge(pullback_form(f_lin, f_tr, a),
                         pullback_form(f_lin, f_tr, b)))
        assert pullback_form(f_lin, f_tr, d1(a)) == d1(pullback_form(f_lin, f_tr, a))
        assert pullback_form(f_lin, f_tr, d2(a)) == d2(pullback_form(f_lin, f_tr, a))
        assert pullback_form(f_lin, f_tr, j_op(a)) == j_op(pullback_form(f_lin, f_tr, a))


def test_restrict_to_diagonal():
    diag = Polyhedron(2, [], [((1, -1), 0)])
    a = dxdy(2, (0,), (0,))
    r = restrict_to(diag, a)
    assert r.terms == {((0,), (0,)): Poly.const(1, 1)}
    # x0 d'x0 ^ d''x1 restricts with the coordinate expressed in the
    # lattice parameter.
    b = Superform.monomial(2, (0,), (1,), Poly.var(2, 0))
    rb = restrict_to(diag, b)
    origin, basis = diag.parametrization()
    v = basis[0]
    # coefficient is (origin0 + v0 t) * v0 * v1 on the parameter line
    expected = Poly.affine(1, (v[0],), origin[0]).scale(v[0] * v[1])
    assert rb.terms == {((0,), (0,)): expected}


def test_restrict_to_point():
    pt = Polyhedron.point((1, 2))
    f = Superform.from_poly(Poly(2, {(1, 1): Fraction(1)}))
    r = restrict_to(pt, f)
    assert r.terms == {((), ()): Poly.const(0, 2)}
    a = dxdy(2, (0,), ())
    assert restrict_to(pt, a).is_zero()

import random
from fractions import Fraction

import pytest

from tropcalc.deltaforms import (DeltaForm, PSFunction, _boundary1_sign,
                                 _boundary2_sign, _codim1_faces,
                                 _refine_by_cover, add, boundary1, boundary2,
                                 check_balanced, corner_locus, dP1, dP2,
                                 equal, j_delta, ps_wedge, tropical_pl_check)
from tropcalc.errors import NotBalanced, TypeMismatch
from tropcalc.linalg import (extend_to_unimodular, identity_mat, invert,
                             mat_vec, vec)
from tropcalc import serialization as ser
from tropcalc.polyhedra import Complex, Polyhedron
from tropcalc.superforms import (Poly, Superform, contract1, contract2,
                                 restrict_to)

from util import (random_balanced, random_pl, random_poly, random_ps,
                  random_superform, standard_line)


# -- reference: one loop over the codim-1 faces per operation ---------------
#
# check_balanced, the boundaries and corner_locus as they were before they
# shared one face table; the boundaries also accept a tangent basis per face.


def frame_reference(tau, rank, tangent_basis=None):
    default = list(tau.lattice.basis)
    full = extend_to_unimodular(tuple(default), rank)
    cols = list(zip(*full)) if full else []
    complement = [tuple(c) for c in cols[len(default):]]
    tangent = ([vec(v) for v in tangent_basis]
               if tangent_basis is not None else default)
    if len(tangent) != len(default):
        raise ValueError("tangent basis has wrong size")
    columns = [list(v) for v in tangent] + [list(v) for v in complement]
    mat = [[Fraction(columns[j][i]) for j in range(rank)]
           for i in range(rank)]
    return tangent, invert(mat)


def check_balanced_reference(a, tangent_bases=None):
    failures = []
    rank = a.rank
    for key, (tau, incident) in _codim1_faces(a).items():
        tb = tangent_bases.get(key) if tangent_bases else None
        tangent, inv = frame_reference(tau, rank, tb)
        k = len(tangent)
        bad = []
        for j in range(k, rank):
            total = Superform.zero(rank, a.p, a.q)
            for sigma, coeff, omega in incident:
                comp = mat_vec(inv, omega)[j]
                if comp != 0:
                    total = total + coeff.scale(comp)
            defect = restrict_to(tau, total)
            if not defect.is_zero():
                bad.append((j, defect))
        if bad:
            failures.append((tau, bad))
    return (not failures, failures)


def boundary_reference(a, side, tangent_bases=None):
    if side == 1:
        deg, contract, sign = a.q, contract2, _boundary1_sign(a.p, a.q)
        out_pq = (a.p, a.q - 1)
    else:
        deg, contract, sign = a.p, contract1, _boundary2_sign(a.p, a.q)
        out_pq = (a.p - 1, a.q)
    new_type = out_pq + (a.l + 1,)
    if a.is_zero():
        clamped = tuple(max(0, x) for x in new_type[:2]) + (new_type[2],)
        return DeltaForm.zero(a.rank, clamped)
    ok, failures = check_balanced_reference(a)
    if not ok:
        raise NotBalanced(f"{len(failures)} unbalanced faces")
    if deg == 0:
        clamped = tuple(max(0, x) for x in new_type[:2]) + (new_type[2],)
        return DeltaForm.zero(a.rank, clamped)
    rank = a.rank
    out = []
    for key, (tau, incident) in _codim1_faces(a).items():
        tb = tangent_bases.get(key) if tangent_bases else None
        tangent, inv = frame_reference(tau, rank, tb)
        k = len(tangent)
        total = Superform.zero(rank, *out_pq)
        betas = [Superform.zero(rank, a.p, a.q) for _ in range(k)]
        for sigma, coeff, omega in incident:
            total = total + contract(coeff, omega)
            coords = mat_vec(inv, omega)
            for j in range(k):
                if coords[j] != 0:
                    betas[j] = betas[j] + coeff.scale(coords[j])
        for j in range(k):
            total = total - contract(betas[j], tangent[j])
        out.append((tau, total.scale(sign)))
    return DeltaForm(rank, new_type, out)


def corner_locus_reference(phi, a, assume_balanced=False):
    new_type = (a.p, a.q, a.l + 1)
    if a.is_zero():
        return DeltaForm.zero(a.rank, new_type)
    if not assume_balanced:
        ok, failures = check_balanced_reference(a)
        if not ok:
            raise NotBalanced(f"{len(failures)} unbalanced faces")
    cover = list(phi.top_cells())
    pairs, tags = _refine_by_cover(a, cover, phi.pieces)
    refined = DeltaForm(a.rank, a.ptype, pairs, normalize=False)
    rank = a.rank
    out = []
    for key, (tau, incident) in _codim1_faces(refined).items():
        tangent, inv = frame_reference(tau, rank)
        k = len(tangent)
        total = Superform.zero(rank, a.p, a.q)
        betas = [Superform.zero(rank, a.p, a.q) for _ in range(k)]
        phi_tau = None
        for sigma, coeff, omega in incident:
            piece = tags[sigma.key()]
            if phi_tau is None:
                phi_tau = piece
            total = total + coeff.scale_poly(piece.directional(omega))
            coords = mat_vec(inv, omega)
            for j in range(k):
                if coords[j] != 0:
                    betas[j] = betas[j] + coeff.scale(coords[j])
        for j in range(k):
            total = total - betas[j].scale_poly(
                phi_tau.directional(tangent[j]))
        out.append((tau, total))
    return DeltaForm(rank, new_type, out)


def half_line():
    return Polyhedron(1, [((-1,), 0)])


def origin(rank=1):
    return Polyhedron.point(tuple(0 for _ in range(rank)))


def test_equal_under_refinement():
    whole = DeltaForm.full_space(1)
    split = DeltaForm.from_weights(1, 0, [
        (Polyhedron(1, [((1,), 0)]), 1),
        (Polyhedron(1, [((-1,), 0)]), 1),
    ])
    assert equal(whole, split)
    assert not equal(whole, split.scale(2))
    # weight-0 cell added changes nothing
    padded = DeltaForm.from_weights(1, 0, [
        (Polyhedron.full_space(1), 1),
        (Polyhedron(1, [((1,), 0)]), 0),
    ])
    assert equal(whole, padded)


def test_equal_type_mismatch():
    a = DeltaForm.full_space(1)
    b = DeltaForm.from_weights(1, 1, [(origin(), 1)])
    with pytest.raises(TypeMismatch):
        equal(a, b)


def test_check_balanced_fixtures():
    ok, fails = check_balanced(standard_line())
    assert ok and not fails
    two_rays = DeltaForm.from_weights(2, 1, [
        (Polyhedron(2, [((-1, 0), 0)], [((0, 1), 0)]), 1),
        (Polyhedron(2, [((0, -1), 0)], [((1, 0), 0)]), 1),
    ])
    ok, fails = check_balanced(two_rays)
    assert not ok
    assert any(f.dim == 0 for f, _ in fails)


def test_check_balanced_ps_superform_is_balanced():
    rng = random.Random(1)
    for rank in (1, 2):
        f = random_superform(rng, rank, 1, 0)
        a = DeltaForm(rank, (1, 0, 0), [(Polyhedron.full_space(rank), f)])
        assert check_balanced(a)[0]


def test_dP_basic():
    x_form = DeltaForm(1, (0, 0, 0),
                       [(Polyhedron.full_space(1),
                         Superform.from_poly(Poly.var(1, 0)))])
    d = dP1(x_form)
    assert equal(d, DeltaForm(1, (1, 0, 0),
                              [(Polyhedron.full_space(1),
                                Superform.monomial(1, (0,), ()))]))
    assert dP1(DeltaForm.full_space(2, 5)).is_zero()
    rng = random.Random(2)
    for _ in range(6):
        a = random_balanced(rng, 2, 0, 1, 1)
        assert dP1(dP1(a)).is_zero()
        assert equal(dP1(dP2(a)), dP2(dP1(a)).scale(-1))


def test_boundary_half_line_fixtures():
    # d''x on the half-line [0, inf): the d'-boundary is +[{0}] in the sign
    # convention fixed by the current identity (see module docstring).
    a = DeltaForm(1, (0, 1, 0),
                  [(half_line(), Superform.monomial(1, (), (0,)))])
    b = boundary1(a)
    expected = DeltaForm(1, (0, 0, 1),
                         [(origin(), Superform.constant(1, 1))])
    assert equal(b, expected)
    # x d''x has no kink contribution at 0.
    c = DeltaForm(1, (0, 1, 0),
                  [(half_line(),
                    Superform.monomial(1, (), (0,), Poly.var(1, 0)))])
    assert boundary1(c).is_zero()
    # mirrored: d'x on the half-line has d''-boundary -[{0}].
    d = DeltaForm(1, (1, 0, 0),
                  [(half_line(), Superform.monomial(1, (0,), ()))])
    assert equal(boundary2(d),
                 DeltaForm(1, (0, 0, 1),
                           [(origin(), Superform.constant(1, -1))]))


def test_boundary_of_weights_is_zero():
    assert boundary1(standard_line()).is_zero()
    assert boundary2(standard_line()).is_zero()
    rng = random.Random(3)
    for _ in range(4):
        cyc = random_balanced(rng, 2, 0, 0, 1)
        assert boundary1(cyc).is_zero()
        assert boundary2(cyc).is_zero()


def test_boundary_requires_balanced():
    two_rays = DeltaForm.from_weights(2, 1, [
        (Polyhedron(2, [((-1, 0), 0)], [((0, 1), 0)]), 1),
        (Polyhedron(2, [((0, -1), 0)], [((1, 0), 0)]), 1),
    ])
    with pytest.raises(NotBalanced):
        boundary1(two_rays)


def regions(rng, rank):
    """The constant 1 on the regions of a random PL function."""
    return DeltaForm(rank, (0, 0, 0),
                     [(c, Superform.constant(rank, 1))
                      for c in random_pl(rng, rank, nterms=5 - rank)
                      .top_cells()])


def nonzero_balanced(rng, rank, p, q, codim):
    """A nonzero balanced form; at codimension 0 it is cut along the
    regions of a PL function, so that it has codim-1 faces."""
    while True:
        a = random_balanced(rng, rank, p, q, codim, max_deg=1)
        if codim == 0:
            a = ps_wedge(regions(rng, rank), a)
        if not a.is_zero():
            return a


def unbalance(rng, a):
    """Drop one cell, or rescale its coefficient."""
    cells = list(a.cells)
    i = rng.randrange(len(cells))
    if len(cells) > 1 and rng.random() < 0.5:
        del cells[i]
    else:
        cells[i] = (cells[i][0], cells[i][1].scale(rng.choice([-1, 2, 3])))
    return DeltaForm(a.rank, a.ptype, cells)


def shape(a):
    return a.ptype, [(c.key(), f) for c, f in a.cells]


def outcome(fn, *args, **kwargs):
    """The result's type and cells, or the NotBalanced message."""
    try:
        return shape(fn(*args, **kwargs))
    except NotBalanced as exc:
        return ("NotBalanced", str(exc))


def failure_list(failures):
    return [(tau.key(), bad) for tau, bad in failures]


def test_face_table_matches_reference():
    # every feasible (p, q, l) in ranks 1-3, two of every three forms
    # damaged by unbalance; the results must be identical cell by cell
    rng = random.Random(29)
    types = [(rank, p, q, l) for rank in (1, 2, 3) for l in range(rank + 1)
             for p in range(rank - l + 1) for q in range(rank - l + 1)]
    unbalanced, raised = [], set()
    for i in range(200):
        rank, p, q, l = types[i % len(types)]
        a = nonzero_balanced(rng, rank, p, q, l)
        if i % 3:
            a = unbalance(rng, a)
        ok, failures = check_balanced(a)
        ref_ok, ref_failures = check_balanced_reference(a)
        assert ok == ref_ok
        assert failure_list(failures) == failure_list(ref_failures)
        if not ok:
            unbalanced.append(a.ptype)
        for side, fn, deg in ((1, boundary1, q), (2, boundary2, p)):
            got = outcome(fn, a)
            assert got == outcome(boundary_reference, a, side)
            if got[0] == "NotBalanced":
                raised.add(deg > 0)
        phi = random_pl(rng, rank, nterms=5 - rank)
        if i % 2:
            phi = phi + PSFunction.from_poly(random_poly(rng, rank))
        assert outcome(corner_locus, phi, a) == \
            outcome(corner_locus_reference, phi, a)
        if not ok:
            assert outcome(corner_locus, phi, a, assume_balanced=True) == \
                outcome(corner_locus_reference, phi, a, assume_balanced=True)
    assert len(unbalanced) >= 40
    assert any(p >= 1 and q >= 1 for p, q, _ in unbalanced)
    assert raised == {False, True}


def test_boundary_basis_independence():
    # the boundary read in the lattice basis of each face equals the
    # reference read in a scaled-and-sheared tangent basis at every face;
    # the forms d''phi ^ a of a piecewise polynomial phi have boundaries
    rng = random.Random(5)
    sheared = nonzero = 0
    for rank, p, l in ((2, 0, 0), (2, 1, 0), (3, 0, 0), (3, 1, 0),
                       (3, 0, 1), (3, 1, 1)):
        dphi = dP2(random_ps(rng, rank, max_deg=2).as_deltaform())
        a = ps_wedge(dphi, random_balanced(rng, rank, p, 0, l, max_deg=1))
        bases = {}
        for key, (tau, _) in _codim1_faces(a).items():
            basis = [list(v) for v in tau.lattice.basis]
            if basis:
                basis[0] = [3 * x for x in basis[0]]
                if len(basis) > 1:
                    basis[1] = [x + y for x, y in zip(basis[0], basis[1])]
                    sheared += 1
            bases[key] = basis
        ref = boundary1(a)
        assert equal(ref, boundary_reference(a, 1, tangent_bases=bases))
        nonzero += not ref.is_zero()
    assert sheared and nonzero


def test_corner_locus_fixtures():
    phi = PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)])
    div = corner_locus(phi, DeltaForm.full_space(1))
    assert equal(div, DeltaForm.from_weights(1, 1, [(origin(), 1)]))

    affine = PSFunction.from_minmax(1, "max", [(2, 1)])
    assert corner_locus(affine, DeltaForm.full_space(1)).is_zero()

    psi = PSFunction.from_minmax(1, "min", [(1, 0), (0, 0)])
    assert equal(corner_locus(psi, DeltaForm.full_space(1)), div.scale(-1))

    tline = PSFunction.from_minmax(2, "max", [(1, 0, 0), (0, 1, 0), (0, 0, 0)])
    div2 = corner_locus(tline, DeltaForm.full_space(2))
    assert equal(div2, standard_line())
    assert check_balanced(div2)[0]


def test_corner_locus_bilinear_and_local():
    rng = random.Random(7)
    phi = random_pl(rng, 2)
    psi = random_pl(rng, 2)
    a = DeltaForm.full_space(2)
    both = corner_locus(phi + psi, a)
    assert equal(both, add(corner_locus(phi, a), corner_locus(psi, a)))
    assert equal(corner_locus(phi.scale(3), a), corner_locus(phi, a).scale(3))


def test_corner_locus_commutative():
    rng = random.Random(11)
    for _ in range(4):
        phi = random_pl(rng, 2)
        psi = random_pl(rng, 2)
        a = DeltaForm.full_space(2)
        lhs = corner_locus(psi, corner_locus(phi, a))
        rhs = corner_locus(phi, corner_locus(psi, a))
        assert equal(lhs, rhs)


def test_ps_wedge_unit_and_bilinear():
    line = standard_line(2)
    one = PSFunction.from_poly(Poly.const(2, 1))
    assert equal(ps_wedge(one, line), line)
    factor = DeltaForm(2, (1, 0, 0),
                       [(Polyhedron.full_space(2),
                         Superform.monomial(2, (0,), (), Poly.var(2, 0)))])
    wedged = ps_wedge(factor, line)
    assert wedged.ptype == (1, 0, 1)
    assert equal(ps_wedge(factor, standard_line(1)).scale(2), wedged)


def test_ps_wedge_refinement_invariant():
    # Wedging with a PS factor given on a finer complex gives the same form.
    line = standard_line()
    coarse = PSFunction.from_poly(Poly.var(2, 0)).as_deltaform()
    fine_cells = [Polyhedron(2, [((1, 1), 0)]), Polyhedron(2, [((-1, -1), 0)])]
    fine = DeltaForm(2, (0, 0, 0),
                     [(c, Superform.from_poly(Poly.var(2, 0)))
                      for c in fine_cells])
    assert equal(ps_wedge(coarse, line), ps_wedge(fine, line))


def test_j_delta_involution():
    rng = random.Random(13)
    for _ in range(5):
        a = random_balanced(rng, 2, 1, 0, 1)
        assert equal(j_delta(j_delta(a)), a)


def test_tropical_pl_fixtures():
    phi = PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)])
    assert tropical_pl_check(phi, DeltaForm.full_space(1))
    affine = PSFunction.from_minmax(2, "max", [(1, 1, 1)])
    assert tropical_pl_check(affine, standard_line())


def test_tropical_pl_random():
    rng = random.Random(17)
    for _ in range(4):
        rank = rng.randint(1, 2)
        phi = random_ps(rng, rank)
        alpha = random_balanced(rng, rank, 0, 0, rng.randint(0, 1))
        assert tropical_pl_check(phi, alpha)


def test_boundary_identities_random():
    rng = random.Random(19)
    for _ in range(4):
        rank = 2
        a = random_balanced(rng, rank, rng.randint(0, 1), 1, rng.randint(0, 1))
        assert boundary1(boundary1(a)).is_zero() or equal(
            boundary1(boundary1(a)),
            DeltaForm.zero(rank, boundary1(boundary1(a)).ptype))
        b1 = boundary1(a)
        b2 = boundary2(a)
        mixed = add(boundary2(b1), boundary1(b2))
        assert mixed.is_zero()
        assert add(boundary1(dP1(a)), dP1(boundary1(a))).is_zero()
        assert add(boundary2(dP2(a)), dP2(boundary2(a))).is_zero()
        four = add(add(boundary1(dP2(a)), dP1(boundary2(a))),
                   add(boundary2(dP1(a)), dP2(boundary1(a))))
        assert four.is_zero()


def test_psfunction_continuity_and_value():
    phi = PSFunction.from_minmax(2, "max", [(1, 0, 0), (0, 1, 0), (0, 0, 0)])
    assert phi.validate()
    assert phi.value((2, 1)) == 2
    assert phi.value((-1, -1)) == 0
    combo = phi + PSFunction.from_poly(Poly(2, {(2, 0): Fraction(1)}))
    assert combo.validate()
    assert combo.value((2, 1)) == 6


def test_psfunction_top_cells_are_the_maximal_cells():
    # The stored top cells, in order, are the maximal cells of the complex
    # their face closure would give.
    def same_as_closure(phi):
        closed = Complex(phi.rank, phi.top_cells()).maximal_cells()
        return [c.key() for c in phi.top_cells()] == [c.key() for c in closed]

    rng = random.Random(23)
    for _ in range(6):
        rank = rng.randint(1, 3)
        phi = random_pl(rng, rank, nterms=rng.randint(1, 4))
        psi = random_pl(rng, rank)
        assert same_as_closure(phi)
        assert same_as_closure(phi + psi)
        assert same_as_closure(phi.scale(3))
        # A piece complex read from JSON, in shuffled order.
        doc = ser.psfunction_to_json(phi + psi)
        order = list(range(len(doc["complex"])))
        rng.shuffle(order)
        doc["complex"] = [doc["complex"][i] for i in order]
        doc["pieces"] = [doc["pieces"][i] for i in order]
        back = ser.psfunction_from_json(doc)
        assert same_as_closure(back)
        assert [c.key() for c in back.top_cells()] == \
            [c.key() for c in (phi + psi).top_cells()]


def test_translate():
    line = standard_line()
    moved = line.translate((1, 2))
    assert check_balanced(moved)[0]
    back = moved.translate((-1, -2))
    assert equal(line, back)

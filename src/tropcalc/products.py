"""Cross products and the stable intersection of balanced forms.

The stable intersection works in R^r by the fan displacement rule
(Fulton-Sturmfels 1997; Jensen-Yu 2016): move one form by a small multiple
of a generic vector v, and let every pair of maximal cells that still meets
contribute the wedge of their coefficients times the lattice index
[Z^r : N_1 + N_2] on their cut.  The test for a pair is local and exact:
one LP over the tangent cones at a relative-interior point of the cut.  The
vectors v run along the moment curve until one is generic for every pair.
morphisms.pullback decides its preimages by the same test and retry.
The classical transversal formula, with the same multiplicity, serves as an
independent cross-check on its domain of validity.
"""

from __future__ import annotations

from .deltaforms import DeltaForm, check_balanced, regularize
from .errors import AmbientMismatch, NotBalanced, NotTransversal
from .linalg import INFINITE, dot, rank as mat_rank, smith_normal_form
from .lp import lp_max_slack
from .polyhedra import Polyhedron
from .superforms import Poly, Superform, wedge


def shift_superform(alpha: Superform, new_rank: int, offset: int) -> Superform:
    """View a form on R^k as a form on R^n via coordinates offset..offset+k."""
    out = {}
    for (i_idx, j_idx), poly in alpha.terms.items():
        new_terms = {}
        for e, c in poly.terms.items():
            ne = [0] * new_rank
            for i, a in enumerate(e):
                ne[offset + i] = a
            new_terms[tuple(ne)] = c
        out[(tuple(offset + i for i in i_idx),
             tuple(offset + j for j in j_idx))] = Poly(new_rank, new_terms)
    return Superform(new_rank, alpha.p, alpha.q, out)


def product_polyhedron(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    r1, r2 = a.ambient_rank, b.ambient_rank
    n = r1 + r2
    zeros1 = tuple(0 for _ in range(r2))
    zeros2 = tuple(0 for _ in range(r1))
    ineqs = [(normal + zeros1, c) for normal, c in a.ineqs]
    ineqs += [(zeros2 + normal, c) for normal, c in b.ineqs]
    eqs = [(normal + zeros1, c) for normal, c in a.eqs]
    eqs += [(zeros2 + normal, c) for normal, c in b.eqs]
    return Polyhedron(n, ineqs, eqs)


def cross(a: DeltaForm, b: DeltaForm) -> DeltaForm:
    """Product form on the direct sum of the two ambient spaces."""
    n = a.rank + b.rank
    ptype = (a.p + b.p, a.q + b.q, a.l + b.l)
    out = []
    for ca, fa in a.cells:
        lifted_a = shift_superform(fa, n, 0)
        for cb, fb in b.cells:
            lifted_b = shift_superform(fb, n, a.rank)
            out.append((product_polyhedron(ca, cb), wedge(lifted_a, lifted_b)))
    return DeltaForm(n, ptype, out)


def _relints_meet(a: Polyhedron, b: Polyhedron) -> bool:
    res = lp_max_slack(a.ineqs + b.ineqs, a.eqs + b.eqs, a.ambient_rank)
    return res.status == "optimal" and res.value > 0


def _sum_lattice_index(basis1, basis2, r: int):
    """Index of the subgroup generated by both bases inside Z^r."""
    if r == 0:
        return 1
    gens = [tuple(v) for v in basis1] + [tuple(v) for v in basis2]
    if not gens or mat_rank(gens) < r:
        return INFINITE
    _, d, _ = smith_normal_form(tuple(gens))
    total = 1
    for i in range(r):
        total *= d[i][i]
    return abs(total)


def transversal_wedge(a: DeltaForm, b: DeltaForm) -> DeltaForm:
    """Pairwise transversal intersection with lattice-index multiplicities."""
    if a.rank != b.rank:
        raise AmbientMismatch("forms on different ambient spaces")
    r = a.rank
    ptype = (a.p + b.p, a.q + b.q, a.l + b.l)
    out = []
    for ca, fa in a.cells:
        for cb, fb in b.cells:
            cut = ca.intersect(cb)
            if cut is None:
                continue
            spans_sum = mat_rank(tuple(ca.lattice.basis)
                                 + tuple(cb.lattice.basis)) == r
            if not _relints_meet(ca, cb) or not spans_sum:
                raise NotTransversal(
                    "maximal cells meet without being transversal")
            m = _sum_lattice_index(ca.lattice.basis, cb.lattice.basis, r)
            out.append((cut, wedge(fa, fb).scale(m)))
    return regularize(r, ptype, out)


# The first displacement vector tried is the point at FIRST_MOMENT of the
# moment curve; each retry moves one step further along the curve.
FIRST_MOMENT = 2


def displacement_vector(r: int, m: int) -> tuple:
    """The point (1, m, m^2, ..., m^(r-1)) of the moment curve in Z^r."""
    return tuple(m ** i for i in range(r))


def _displace_until_generic(r: int, attempt):
    """attempt(v) for the first v on the moment curve in Z^r, from
    FIRST_MOMENT on, for which it is not None.

    A vector that is not generic lies on one of finitely many hyperplanes
    through the origin, and the moment curve meets each of them for at
    most r - 1 values of m, so the loop ends.
    """
    m = FIRST_MOMENT
    while True:
        out = attempt(displacement_vector(r, m))
        if out is not None:
            return out
        m += 1


def _moved_tangent_rows(tau: Polyhedron, p, v):
    """The rows of tau tight at p, moved by v: they cut out the tangent
    cone of tau at p, placed at p + v.  The point p must lie in tau."""
    ineqs = [(a, b + dot(a, v)) for a, b in tau.ineqs if dot(a, p) == b]
    eqs = [(a, b + dot(a, v)) for a, b in tau.eqs]
    return ineqs, eqs


def _cones_meet(ineqs, eqs, r: int):
    """Decide the rows of two tangent cones, one of them moved, by one
    max-slack LP.

    True when a solution satisfies every inequality strictly, False when
    the rows have no common solution, None when every solution makes an
    inequality tight: then the displacement vector lies on the boundary of
    the difference of the cones and is not generic.
    """
    res = lp_max_slack(ineqs, eqs, r)
    if res.status != "optimal" or res.value < 0:
        return False
    return True if res.value > 0 else None


def _meets_after_move(sigma: Polyhedron, tau: Polyhedron, p, v):
    """Whether sigma meets tau + eps*v near p for all small eps > 0.

    Only the tangent cones at p matter, and cones are invariant under
    scaling, so eps = 1 decides it: x in T_p sigma with x - v in T_p tau.
    """
    moved_ineqs, moved_eqs = _moved_tangent_rows(tau, p, v)
    ineqs = [(a, b) for a, b in sigma.ineqs if dot(a, p) == b]
    return _cones_meet(ineqs + moved_ineqs, list(sigma.eqs) + moved_eqs,
                       sigma.ambient_rank)


def _expected_cuts(a: DeltaForm, b: DeltaForm, k: int):
    """The pairs of maximal cells whose cut has dimension k, with the cut."""
    out = []
    for ca, fa in a.cells:
        for cb, fb in b.cells:
            cut = ca.intersect(cb)
            if cut is not None and cut.dim == k:
                out.append((ca, fa, cb, fb, cut))
    return out


def _displaced_pairs(candidates, v, r: int):
    """The weighted cuts of the pairs whose second cell, moved by a small
    multiple of v, still meets the first.

    Returns None when v is not generic for one of the pairs.
    """
    out = []
    for ca, fa, cb, fb, cut in candidates:
        meets = _meets_after_move(ca, cb, cut.relint_point, v)
        if meets is None:
            return None
        if not meets:
            continue
        m = _sum_lattice_index(ca.lattice.basis, cb.lattice.basis, r)
        if m is INFINITE:
            return None
        out.append((cut, wedge(fa, fb).scale(m)))
    return out


def diagonal_wedge(a: DeltaForm, b: DeltaForm) -> DeltaForm:
    """Stable intersection by the fan displacement rule.

    A pair of maximal cells (sigma, tau) whose intersection, the cut, has
    the expected dimension k = r - l_a - l_b contributes
    wedge(alpha_sigma, beta_tau) * [Z^r : N_sigma + N_tau] on the cut
    exactly when sigma meets tau + eps*v for a generic v and all small
    eps > 0.  A larger cut means the affine hulls are not transversal, and
    such a pair never meets after a generic move.  The cuts are cells of
    the common refinement of the two complexes, so they form a complex.
    """
    if a.rank != b.rank:
        raise AmbientMismatch("forms on different ambient spaces")
    r = a.rank
    for form in (a, b):
        ok, fails = check_balanced(form)
        if not ok:
            raise NotBalanced(f"{len(fails)} unbalanced faces")
    ptype = (a.p + b.p, a.q + b.q, a.l + b.l)
    k = r - a.l - b.l
    if a.is_zero() or b.is_zero() or k < 0:
        return DeltaForm.zero(r, ptype)
    candidates = _expected_cuts(a, b, k)
    return DeltaForm(r, ptype, _displace_until_generic(
        r, lambda v: _displaced_pairs(candidates, v, r)))

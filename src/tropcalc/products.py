"""Cross products and the stable intersection of balanced forms.

The primary intersection algorithm is exact: form the cross product on the
doubled space, cut down to the diagonal by one corner locus per coordinate
(each diagonal equation is the kink locus of max{x_i, y_i}), and project
back along the first factor.  The classical transversal formula, with the
lattice index [Z^r : N_1 + N_2] as the intersection multiplicity, serves as
an independent cross-check on its domain of validity.
"""

from __future__ import annotations

from typing import Sequence

from .deltaforms import (DeltaForm, PSFunction, check_balanced,
                         corner_locus, equal, regularize)
from .errors import (AmbientMismatch, NonGenericVector, NotBalanced,
                     NotTransversal)
from .linalg import INFINITE, rank as mat_rank, rat, smith_normal_form, vec
from .lp import lp_maximize
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
    ineqs = [(n + (1,), c) for n, c in a.ineqs]
    ineqs += [(n + (1,), c) for n, c in b.ineqs]
    ineqs.append((tuple(0 for _ in range(a.ambient_rank)) + (1,), 1))
    eqs = [(n + (0,), c) for n, c in a.eqs]
    eqs += [(n + (0,), c) for n, c in b.eqs]
    obj = tuple(0 for _ in range(a.ambient_rank)) + (1,)
    res = lp_maximize(ineqs, eqs, obj, a.ambient_rank + 1)
    return res.status == "optimal" and res.value > 0


def _sum_lattice_index(basis1, basis2, r: int):
    """Index of the subgroup generated by both bases inside Z^r."""
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


def diagonal_wedge(a: DeltaForm, b: DeltaForm) -> DeltaForm:
    """Stable intersection via the diagonal corner-locus construction."""
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
    from .morphisms import AffineMap, pushforward_cells
    proj = AffineMap.projection(2 * r, r)
    return pushforward_cells(proj, c)


def translated_wedge_check(a: DeltaForm, b: DeltaForm, v: Sequence,
                           eps_schedule: Sequence) -> bool:
    """Generic-translation cross-check against the diagonal construction.

    Intersects a with b moved by eps*v for a decreasing schedule of rational
    eps; each result is expressed on the untranslated cells (the eps -> 0
    re-expression).  Once two consecutive results agree, the stabilized form
    is compared with the exact diagonal product.
    """
    for form in (a, b):
        ok, fails = check_balanced(form)
        if not ok:
            raise NotBalanced(f"{len(fails)} unbalanced faces")
    r = a.rank
    v = vec(v)
    ptype = (a.p + b.p, a.q + b.q, a.l + b.l)
    results = []
    for eps in eps_schedule:
        eps = rat(eps)
        shift = tuple(eps * x for x in v)
        out = []
        for ca, fa in a.cells:
            for cb, fb in b.cells:
                moved = cb.translate(shift)
                if ca.intersect(moved) is None:
                    continue
                coeff = wedge(fa, fb)
                spans_sum = mat_rank(tuple(ca.lattice.basis)
                                     + tuple(cb.lattice.basis)) == r
                if not _relints_meet(ca, moved) or not spans_sum:
                    if not coeff.is_zero():
                        raise NonGenericVector(
                            "translation produced a non-transversal pair")
                    continue
                cut = ca.intersect(cb)
                if cut is None:
                    continue
                m = _sum_lattice_index(ca.lattice.basis, cb.lattice.basis, r)
                out.append((cut, coeff.scale(m)))
        results.append(regularize(r, ptype, out))
        if len(results) >= 2 and equal(results[-1], results[-2]):
            return equal(results[-1], diagonal_wedge(a, b))
    return False

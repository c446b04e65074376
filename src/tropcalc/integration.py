"""Exact integration of polynomial superforms over bounded polyhedra.

A (k,k)-superform on a k-cell is integrated by restricting to the cell's
lattice coordinates and summing exact monomial moments over the simplices
of the cell's triangulation (Polyhedron.lattice_simplices, built once per
cell in lattice coordinates).  On a simplex x = v0 + E.lam the moment of
lam^f is f! / (k + |f|)! (the Dirichlet formula; Baldoni, Berline, De Loera,
Koeppe, Vergne, "How to integrate a polynomial over a simplex", Math. Comp.
80, 2011).  The moments are summed in integers: the substitution is cleared
to integer affine forms whose powers are built once per variable
(superforms._integer_expansions), each monomial's integer expansion is
weighted by the integers f! (k + D)! / (k + |f|)!, D the degree, and the
sum is divided by (k + D)! once per simplex.  The lattice normalization
makes the value independent of the choice of basis, and the leading sign
matches the convention that d'x_1 ^ d''x_1 ^ ... integrates to positive
volume.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Sequence

from .deltaforms import DeltaForm
from .errors import DegreeMismatch, TypeMismatch, Unbounded
from .linalg import det, vec
from .polyhedra import Polyhedron
from .superforms import (Poly, Superform, _integer_expansions, _unpack,
                         contract1, contract2, d1, d2, is_symmetric,
                         restrict_to, wedge)


def _poly_over_simplex(poly: Poly, verts: Sequence[tuple]) -> Fraction:
    """Integral of a polynomial over the simplex with the given vertices.

    With x = v0 + E.lam, the simplex is lam >= 0, sum lam <= 1, and
    lam^f integrates to f! / (k + |f|)!.  Each monomial's integer expansion
    (superforms._integer_expansions) is summed against the integer weights
    f! (k + D)! / (k + |f|)!, D the degree of poly, so the only rational
    work is one product per monomial and one division by (k + D)!.
    """
    k = poly.rank
    if k == 0:
        return poly.evaluate(())
    v0 = vec(verts[0])
    edges = [tuple(x - y for x, y in zip(vec(v), v0)) for v in verts[1:]]
    jac = abs(det([[edges[j][i] for j in range(k)] for i in range(k)]))
    if jac == 0:
        return Fraction(0)
    rows = [tuple(edges[j][i] for j in range(k)) for i in range(k)]
    base, expansions = _integer_expansions(poly, rows, v0, k)
    top = factorial(k + poly.degree())
    weights: Dict[int, int] = {}
    total = Fraction(0)
    for scale, expansion in expansions:
        moment = 0
        for key, n in expansion.items():
            w = weights.get(key)
            if w is None:
                f = _unpack(key, base, k)
                w = top // factorial(k + sum(f))
                for a in f:
                    w *= factorial(a)
                weights[key] = w
            moment += n * w
        total += scale * moment
    return jac * total / top


def integrate_cell(sigma: Polyhedron, alpha: Superform) -> Fraction:
    """Integral of a (k,k)-superform over a bounded k-dimensional cell."""
    if not sigma.is_bounded():
        raise Unbounded("cannot integrate over an unbounded cell")
    k = sigma.dim
    restricted = restrict_to(sigma, alpha)
    if restricted.is_zero():
        return Fraction(0)
    if (restricted.p, restricted.q) != (k, k):
        raise DegreeMismatch(
            f"form of bidegree {(restricted.p, restricted.q)} on a "
            f"{k}-dimensional cell")
    full = tuple(range(k))
    coeff = restricted.terms[(full, full)]
    if k == 0:
        return coeff.evaluate(())
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    total = Fraction(0)
    for simplex in sigma.lattice_simplices():
        total += _poly_over_simplex(coeff, simplex)
    return sign * total


def integrate_boundary(sigma: Polyhedron, eta: Superform) -> Fraction:
    """Integral over the boundary of a bounded cell.

    A (k-1,k)-form is contracted on the d''-side against the outward-facing
    normal of each facet, with a global (-1)^k; a (k,k-1)-form is contracted
    on the d'-side without the prefactor.
    """
    if not sigma.is_bounded():
        raise Unbounded("cannot integrate over an unbounded cell")
    k = sigma.dim
    if eta.is_zero():
        return Fraction(0)
    if (eta.p, eta.q) == (k - 1, k):
        contract = contract2
        sign = -1 if k % 2 else 1
    elif (eta.p, eta.q) == (k, k - 1):
        contract = contract1
        sign = 1
    else:
        raise DegreeMismatch(
            f"boundary integrand of bidegree {(eta.p, eta.q)} on a "
            f"{k}-dimensional cell")
    total = Fraction(0)
    for tau, omega in sigma.facet_normals():
        total += integrate_cell(tau, contract(eta, omega))
    return sign * total


def _weighted_cells(c: DeltaForm):
    return [(cell, c.weight_of(cell)) for cell, _ in c.cells]


def stokes_check(c: DeltaForm, eta: Superform) -> bool:
    """d' or d'' of a form integrates to its boundary integral."""
    k = c.rank - c.l
    if (eta.p, eta.q) == (k - 1, k):
        deriv = d1
    elif (eta.p, eta.q) == (k, k - 1):
        deriv = d2
    else:
        raise DegreeMismatch(
            f"integrand of bidegree {(eta.p, eta.q)} on {k}-cells")
    lhs = Fraction(0)
    rhs = Fraction(0)
    for cell, w in _weighted_cells(c):
        lhs += w * integrate_cell(cell, deriv(eta))
        rhs += w * integrate_boundary(cell, eta)
    return lhs == rhs


def green_check(c: DeltaForm, alpha: Superform, beta: Superform) -> bool:
    """Green's identity for symmetric forms of complementary degree."""
    k = c.rank - c.l
    if alpha.p + beta.p != k - 1:
        raise DegreeMismatch("degrees must add up to the cell dimension - 1")
    if not is_symmetric(alpha) or not is_symmetric(beta):
        raise TypeMismatch("both factors must be symmetric forms")
    inner = wedge(alpha, d1(d2(beta))) - wedge(d1(d2(alpha)), beta)
    outer = wedge(alpha, d2(beta)) - wedge(d2(alpha), beta)
    lhs = Fraction(0)
    rhs = Fraction(0)
    for cell, w in _weighted_cells(c):
        lhs += w * integrate_cell(cell, inner)
        rhs += w * integrate_boundary(cell, outer)
    return lhs == rhs


def degree(a: DeltaForm) -> Fraction:
    """Total weight of a 0-dimensional cycle."""
    if a.l != a.rank:
        raise TypeMismatch("degree requires a form supported on points")
    total = Fraction(0)
    for cell, _ in a.cells:
        total += a.weight_of(cell)
    return total


def pair_current(a: DeltaForm, gamma: Superform,
                 clip: Polyhedron) -> Fraction:
    """Exact current pairing <a, gamma> with the support clipped to a box."""
    total = Fraction(0)
    for cell, coeff in a.cells:
        piece = cell.intersect(clip)
        if piece is None or piece.dim != cell.dim:
            continue
        total += integrate_cell(piece, wedge(coeff, gamma))
    return total

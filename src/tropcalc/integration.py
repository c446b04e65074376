"""Exact integration of polynomial superforms over bounded polyhedra.

A (k,k)-superform on a k-cell is integrated by restricting to the cell's
lattice coordinates, triangulating, and summing exact monomial moments over
simplices (the Dirichlet formula).  The lattice normalization makes the
value independent of the choice of basis, and the leading sign matches the
convention that d'x_1 ^ d''x_1 ^ ... integrates to positive volume.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, Sequence, Tuple

from .deltaforms import DeltaForm
from .errors import DegreeMismatch, InternalError, TypeMismatch, Unbounded
from .linalg import det, solve_linear, vec
from .polyhedra import Polyhedron
from .superforms import (Poly, Superform, contract1, contract2, d1, d2,
                         is_symmetric, restrict_to, wedge)


def _triangulate(sigma: Polyhedron) -> List[Tuple[tuple, ...]]:
    """Split a bounded polyhedron into simplices given by vertex tuples."""
    if sigma.dim == 0:
        return [(sigma.relint_point,)]
    v0 = min(sigma.vertices())
    out = []
    for facet in sigma.facets():
        if facet.contains(v0):
            continue
        for simplex in _triangulate(facet):
            out.append(simplex + (v0,))
    return out


def _poly_over_simplex(poly: Poly, verts: Sequence[tuple]) -> Fraction:
    """Integral of a polynomial over the simplex with the given vertices."""
    k = poly.rank
    if k == 0:
        return poly.evaluate(())
    v0 = vec(verts[0])
    edges = [tuple(x - y for x, y in zip(vec(v), v0)) for v in verts[1:]]
    jac = abs(det([[edges[j][i] for j in range(k)] for i in range(k)]))
    if jac == 0:
        return Fraction(0)
    rows = [tuple(edges[j][i] for j in range(k)) for i in range(k)]
    comp = poly.compose_affine(rows, v0)
    total = Fraction(0)
    for e, c in comp.terms.items():
        num = 1
        for a in e:
            num *= factorial(a)
        total += c * Fraction(num, factorial(k + sum(e)))
    return jac * total


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
    origin, basis = sigma.parametrization()
    cols = [[Fraction(basis[j][i]) for j in range(k)]
            for i in range(len(origin))]

    def param(point):
        rhs = tuple(Fraction(x) - Fraction(o) for x, o in zip(point, origin))
        sol = solve_linear(cols, rhs)
        if sol is None:
            raise InternalError("a vertex lies outside the cell's hull")
        return sol

    total = Fraction(0)
    for simplex in _triangulate(sigma):
        total += _poly_over_simplex(coeff, [param(v) for v in simplex])
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

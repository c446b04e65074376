"""Weighted polyhedral complexes with superform coefficients.

A form of type (p, q, l) on R^r is a face-closed pure complex of
codimension-l cells, each maximal cell carrying a polynomial superform of
bidegree (p, q).  A constant (0,0)-coefficient is a classical weight, so
tropical cycles are the special case (0, 0, l).

The boundary derivatives act on balanced forms and raise the codimension:
at a codimension-(l+1) face tau the weighted normal vectors (read from
each cell's Polyhedron.facet_normals) are decomposed in a lattice basis of
tau extended to Z^r, and the coefficient combines
contractions against the normals and against the tangent basis.  Each
face's frame and the coordinates of its normals are derived once per call,
in one face table that check_balanced, the boundaries and corner_locus all
read; the result does not depend on the choice of tangent basis (the
test-suite checks this against scaled and sheared bases).  The global
signs used here are the unique ones for which the exact current identities

    <dP1 a + boundary1 a, g> = (-1)^{p+q+1} <a, d1 g>
    <dP2 a + boundary2 a, g> = (-1)^{p+q+1} <a, d2 g>

hold for all test superforms g; the integration test-suite verifies both by
exact polytope integration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (AmbientMismatch, NotBalanced, TypeMismatch)
from .linalg import extend_to_unimodular, identity_mat, invert, mat_vec, rat, vec
from .polyhedra import (AffineForm, Polyhedron, arrangement_complex,
                        decomposition_of_pl)
from .superforms import (Poly, Superform, contract1, contract2, d1, d2,
                         j_op, pullback_form, restrict_to, wedge)


def _boundary1_sign(p: int, q: int) -> int:
    # Forced by the d' current identity quoted in the module docstring.
    return -1 if p % 2 else 1


def _boundary2_sign(p: int, q: int) -> int:
    # Forced by the d'' current identity quoted in the module docstring.
    return -1


class DeltaForm:
    """A (p, q, l)-form: codim-l cells with (p, q)-superform coefficients."""

    __slots__ = ("rank", "p", "q", "l", "cells")

    def __init__(self, rank: int, ptype: Sequence[int],
                 cells: Iterable[Tuple[Polyhedron, Superform]],
                 normalize: bool = True):
        p, q, l = ptype
        self.rank = rank
        self.p, self.q, self.l = p, q, l
        k = rank - l
        merged: Dict[tuple, Tuple[Polyhedron, Superform]] = {}
        for cell, coeff in cells:
            if cell.ambient_rank != rank or coeff.rank != rank:
                raise AmbientMismatch("cell or coefficient in wrong space")
            if cell.dim != k:
                raise ValueError(
                    f"cell of dim {cell.dim}, expected {k} for codim {l}")
            if coeff.terms and (coeff.p, coeff.q) != (p, q):
                raise TypeMismatch("coefficient bidegree disagrees with type")
            key = cell.key()
            if key in merged:
                merged[key] = (cell, merged[key][1] + coeff)
            else:
                merged[key] = (cell, coeff)
        kept = []
        for key in sorted(merged):
            cell, coeff = merged[key]
            if normalize:
                if coeff.is_zero() or restrict_to(cell, coeff).is_zero():
                    continue
            kept.append((cell, coeff))
        self.cells = tuple(kept)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(rank: int, ptype: Sequence[int]) -> "DeltaForm":
        return DeltaForm(rank, ptype, [])

    @staticmethod
    def from_weights(rank: int, l: int,
                     weighted_cells: Iterable[Tuple[Polyhedron, object]]
                     ) -> "DeltaForm":
        cells = [(c, Superform.constant(rank, rat(w)))
                 for c, w in weighted_cells]
        return DeltaForm(rank, (0, 0, l), cells)

    @staticmethod
    def full_space(rank: int, weight=1) -> "DeltaForm":
        return DeltaForm.from_weights(rank, 0,
                                      [(Polyhedron.full_space(rank), weight)])

    # -- basic structure ---------------------------------------------------

    @property
    def ptype(self) -> Tuple[int, int, int]:
        return (self.p, self.q, self.l)

    def is_zero(self) -> bool:
        return not self.cells

    def coefficient(self, cell: Polyhedron) -> Superform:
        key = cell.key()
        for c, f in self.cells:
            if c.key() == key:
                return f
        return Superform.zero(self.rank, self.p, self.q)

    def weight_of(self, cell: Polyhedron) -> Fraction:
        """Constant value of a (0,0)-coefficient on the cell."""
        f = restrict_to(cell, self.coefficient(cell))
        if f.is_zero():
            return Fraction(0)
        poly = f.terms[((), ())]
        if poly.degree() != 0:
            raise TypeMismatch("coefficient is not a constant weight")
        return poly.evaluate(tuple(Fraction(0) for _ in range(cell.dim)))

    def scale(self, c) -> "DeltaForm":
        c = rat(c)
        if c == 0:
            return DeltaForm.zero(self.rank, self.ptype)
        return DeltaForm(self.rank, self.ptype,
                         [(cell, f.scale(c)) for cell, f in self.cells],
                         normalize=False)

    def __neg__(self) -> "DeltaForm":
        return self.scale(-1)

    def __add__(self, other: "DeltaForm") -> "DeltaForm":
        return add(self, other)

    def __sub__(self, other: "DeltaForm") -> "DeltaForm":
        return add(self, other.scale(-1))

    def translate(self, v: Sequence) -> "DeltaForm":
        """Move the whole form by v (coefficients follow the cells)."""
        v = vec(v)
        rows = identity_mat(self.rank)
        back = tuple(-x for x in v)
        out = []
        for cell, f in self.cells:
            out.append((cell.translate(v), pullback_form(rows, back, f)))
        return DeltaForm(self.rank, self.ptype, out, normalize=False)

    def __repr__(self):
        return (f"DeltaForm{self.ptype} on R^{self.rank}, "
                f"{len(self.cells)} cells")


def regularize(rank: int, ptype: Sequence[int],
               pairs: Iterable[Tuple[Polyhedron, Superform]]) -> DeltaForm:
    """Rebuild a form from overlapping weighted cells as a valid complex."""
    pairs = [(c, f) for c, f in pairs]
    if not pairs:
        return DeltaForm.zero(rank, ptype)
    k = rank - ptype[2]
    arr = arrangement_complex(rank, [c for c, _ in pairs])
    out = []
    for cell in arr.cells_of_dim(k):
        total = None
        for parent, f in pairs:
            if parent.includes(cell):
                total = f if total is None else total + f
        if total is not None:
            out.append((cell, total))
    return DeltaForm(rank, ptype, out)


def add(a: DeltaForm, b: DeltaForm) -> DeltaForm:
    if a.rank != b.rank:
        raise AmbientMismatch("forms on different ambient spaces")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.ptype != b.ptype:
        raise TypeMismatch(f"cannot add types {a.ptype} and {b.ptype}")
    keys_a = {c.key() for c, _ in a.cells}
    keys_b = {c.key() for c, _ in b.cells}
    if keys_a == keys_b:
        return DeltaForm(a.rank, a.ptype, list(a.cells) + list(b.cells))
    return regularize(a.rank, a.ptype, list(a.cells) + list(b.cells))


def equal(a: DeltaForm, b: DeltaForm) -> bool:
    if a.rank != b.rank:
        raise AmbientMismatch("forms on different ambient spaces")
    if a.is_zero() and b.is_zero():
        return True
    if a.ptype != b.ptype:
        raise TypeMismatch(f"cannot compare types {a.ptype} and {b.ptype}")
    return add(a, b.scale(-1)).is_zero()


def j_delta(a: DeltaForm) -> DeltaForm:
    """The involution swapping the two kinds of differentials.

    Cellwise it applies the superform involution; an extra (-1)^l shows up
    so that the operator is compatible with the current-level pairing.
    """
    sign = -1 if a.l % 2 else 1
    cells = [(c, j_op(f).scale(sign)) for c, f in a.cells]
    return DeltaForm(a.rank, (a.q, a.p, a.l), cells, normalize=False)


def dP1(a: DeltaForm) -> DeltaForm:
    cells = [(c, d1(f)) for c, f in a.cells]
    return DeltaForm(a.rank, (a.p + 1, a.q, a.l), cells)


def dP2(a: DeltaForm) -> DeltaForm:
    cells = [(c, d2(f)) for c, f in a.cells]
    return DeltaForm(a.rank, (a.p, a.q + 1, a.l), cells)


# -- codim-1 face bookkeeping ---------------------------------------------

def _codim1_faces(a: DeltaForm):
    """Map each codim-(l+1) face to the incident maximal cells.

    Returns an ordered dict key -> (tau, [(sigma, coeff, omega), ...]) where
    omega is the lattice normal vector of sigma over tau.
    """
    out: Dict[tuple, Tuple[Polyhedron, List]] = {}
    for sigma, coeff in a.cells:
        for tau, omega in sigma.facet_normals():
            key = tau.key()
            if key not in out:
                out[key] = (tau, [])
            out[key][1].append((sigma, coeff, omega))
    return {k: out[k] for k in sorted(out)}


def _frame(tau: Polyhedron, rank: int):
    """The lattice basis of tau, and the inverse of its unimodular extension.

    The rows of the inverse give coordinates in the tangent basis followed
    by its complement.
    """
    tangent = list(tau.lattice.basis)
    return tangent, invert(extend_to_unimodular(tuple(tangent), rank))


def _faces(a: DeltaForm):
    """The face table: each codim-(l+1) face of a, in key order.

    Yields (tau, tangent, incident) with incident a list of (sigma, coeff,
    omega, coords), where coords are omega's coordinates in tau's frame:
    the first len(tangent) along the tangent basis, the rest along the
    complement.
    """
    for tau, incident in _codim1_faces(a).values():
        tangent, inv = _frame(tau, a.rank)
        yield tau, tangent, [(sigma, coeff, omega, mat_vec(inv, omega))
                             for sigma, coeff, omega in incident]


def _component(a: DeltaForm, incident, j: int) -> Superform:
    """Sum of coeff * coords[j] over the incident cells."""
    total = Superform.zero(a.rank, a.p, a.q)
    for _, coeff, _, coords in incident:
        if coords[j] != 0:
            total = total + coeff.scale(coords[j])
    return total


def _defects(a: DeltaForm, tau: Polyhedron, tangent, incident):
    """The nonzero complement components (j, defect form) at tau."""
    bad = []
    for j in range(len(tangent), a.rank):
        defect = restrict_to(tau, _component(a, incident, j))
        if not defect.is_zero():
            bad.append((j, defect))
    return bad


def check_balanced(a: DeltaForm):
    """Whether the weighted normals at every codim-1 face stay tangent.

    Returns (ok, failures) with failures a list of (face, offending
    complement components), each component a (index, defect form) pair.
    """
    failures = []
    for tau, tangent, incident in _faces(a):
        bad = _defects(a, tau, tangent, incident)
        if bad:
            failures.append((tau, bad))
    return (not failures, failures)


def _boundary(a: DeltaForm, side: int) -> DeltaForm:
    # boundary1 (side 1) lowers q and contracts on the d''-side; boundary2
    # (side 2) lowers p and contracts on the d'-side.
    if side == 1:
        deg, contract, sign = a.q, contract2, _boundary1_sign(a.p, a.q)
        out_pq = (a.p, a.q - 1)
    else:
        deg, contract, sign = a.p, contract1, _boundary2_sign(a.p, a.q)
        out_pq = (a.p - 1, a.q)
    new_type = (max(0, out_pq[0]), max(0, out_pq[1]), a.l + 1)
    unbalanced, out = 0, []
    for tau, tangent, incident in _faces(a):
        if _defects(a, tau, tangent, incident):
            unbalanced += 1
        elif not unbalanced and deg > 0:
            total = Superform.zero(a.rank, *out_pq)
            for _, coeff, omega, _ in incident:
                total = total + contract(coeff, omega)
            for j, t in enumerate(tangent):
                total = total - contract(_component(a, incident, j), t)
            out.append((tau, total.scale(sign)))
    if unbalanced:
        raise NotBalanced(f"{unbalanced} unbalanced faces")
    return DeltaForm(a.rank, new_type, out)


def boundary1(a: DeltaForm) -> DeltaForm:
    """The d'-boundary derivative: type (p, q, l) -> (p, q-1, l+1)."""
    return _boundary(a, 1)


def boundary2(a: DeltaForm) -> DeltaForm:
    """The d''-boundary derivative: type (p, q, l) -> (p-1, q, l+1)."""
    return _boundary(a, 2)


# -- piecewise smooth functions -------------------------------------------

class PSFunction:
    """Continuous piecewise polynomial function on R^r.

    It is held as its top cells, the full-dimensional regions sorted by key,
    and pieces, which maps each region's key to its polynomial.  The regions
    are taken as given, without face closure, and must meet in common faces.
    """

    __slots__ = ("rank", "_cells", "pieces", "kind", "terms")

    def __init__(self, rank: int, cells: Iterable[Polyhedron],
                 pieces: Dict[tuple, Poly], kind: Optional[str] = None,
                 terms=None):
        self.rank = rank
        unique: Dict[tuple, Polyhedron] = {}
        for cell in cells:
            if cell.ambient_rank != rank:
                raise AmbientMismatch("cell rank != function rank")
            if cell.dim != rank:
                raise ValueError("piece cells must be of codimension 0")
            unique.setdefault(cell.key(), cell)
        self._cells = tuple(unique[key] for key in sorted(unique))
        self.pieces = dict(pieces)
        self.kind = kind
        self.terms = terms
        for key in unique:
            if key not in self.pieces:
                raise ValueError("missing piece for a top cell")

    @staticmethod
    def from_minmax(rank: int, kind: str, terms) -> "PSFunction":
        """min/max of integral affine functions; terms are rows
        [c1, ..., cr, c0] meaning c1 x1 + ... + cr xr + c0."""
        forms = [AffineForm(tuple(int(t) for t in row[:rank]), rat(row[rank]))
                 for row in terms]
        cells, labels = decomposition_of_pl(forms, kind)
        pieces = {}
        for cell in cells:
            f = forms[labels[cell.key()]]
            pieces[cell.key()] = Poly.affine(rank, f.linear, f.constant)
        canon = tuple(tuple(rat(x) for x in row) for row in terms)
        return PSFunction(rank, cells, pieces, kind=kind, terms=canon)

    @staticmethod
    def from_poly(poly: Poly) -> "PSFunction":
        full = Polyhedron.full_space(poly.rank)
        return PSFunction(poly.rank, [full], {full.key(): poly})

    def top_cells(self) -> Tuple[Polyhedron, ...]:
        return self._cells

    def value(self, point: Sequence) -> Fraction:
        point = vec(point)
        for cell in self.top_cells():
            if cell.contains(point):
                return self.pieces[cell.key()].evaluate(point)
        raise ValueError("point not covered by the piece complex")

    def validate(self) -> bool:
        """Continuity across shared facets of adjacent pieces."""
        tops = self.top_cells()
        for i, a in enumerate(tops):
            for b in tops[i + 1:]:
                cut = a.intersect(b)
                if cut is None or cut.dim < self.rank - 1:
                    continue
                diff = self.pieces[a.key()] - self.pieces[b.key()]
                form = restrict_to(cut, Superform.from_poly(diff))
                if not form.is_zero():
                    return False
        return True

    def scale(self, c) -> "PSFunction":
        c = rat(c)
        return PSFunction(self.rank, self._cells,
                          {k: p.scale(c) for k, p in self.pieces.items()})

    def __add__(self, other: "PSFunction") -> "PSFunction":
        if self.rank != other.rank:
            raise AmbientMismatch("functions on different spaces")
        pieces = {}
        tops = []
        for a in self.top_cells():
            for b in other.top_cells():
                cut = a.intersect(b)
                if cut is not None and cut.dim == self.rank:
                    pieces[cut.key()] = (self.pieces[a.key()]
                                         + other.pieces[b.key()])
                    tops.append(cut)
        return PSFunction(self.rank, tops, pieces)

    def as_deltaform(self) -> DeltaForm:
        cells = [(c, Superform.from_poly(self.pieces[c.key()]))
                 for c in self.top_cells()]
        return DeltaForm(self.rank, (0, 0, 0), cells)

    def __repr__(self):
        return f"PSFunction on R^{self.rank}, {len(self.pieces)} pieces"


def _refine_by_cover(a: DeltaForm, cover_cells: Sequence[Polyhedron],
                     payload: Dict[tuple, object]):
    """Cut the support cells along a covering codim-0 family.

    Returns (pairs, tags) where pairs are the refined (cell, coeff) pairs and
    tags maps each refined cell to the payload of a covering cell.
    """
    k = a.rank - a.l
    pairs = []
    tags: Dict[tuple, object] = {}
    for sigma, coeff in a.cells:
        seen = set()
        for rho in cover_cells:
            cut = sigma.intersect(rho)
            if cut is None or cut.dim != k:
                continue
            key = cut.key()
            if key in seen:
                continue
            seen.add(key)
            pairs.append((cut, coeff))
            tags[key] = payload[rho.key()]
    return pairs, tags


def ps_wedge(factor, a: DeltaForm) -> DeltaForm:
    """Left wedge with a piecewise superform (or a PS function itself)."""
    if isinstance(factor, PSFunction):
        factor = factor.as_deltaform()
    if factor.rank != a.rank:
        raise AmbientMismatch("factors on different ambient spaces")
    if factor.l != 0:
        raise TypeMismatch("wedge factor must be of codimension 0")
    if a.is_zero() or factor.is_zero():
        return DeltaForm.zero(a.rank, (factor.p + a.p, factor.q + a.q, a.l))
    cover = [c for c, _ in factor.cells]
    payload = {c.key(): f for c, f in factor.cells}
    pairs, tags = _refine_by_cover(a, cover, payload)
    out = [(cell, wedge(tags[cell.key()], coeff)) for cell, coeff in pairs]
    return DeltaForm(a.rank, (factor.p + a.p, factor.q + a.q, a.l), out)


def corner_locus(phi: PSFunction, a: DeltaForm,
                 assume_balanced: bool = False) -> DeltaForm:
    """The divisor of phi on a: the kink of phi across the faces of a."""
    if phi.rank != a.rank:
        raise AmbientMismatch("function and form on different spaces")
    new_type = (a.p, a.q, a.l + 1)
    if a.is_zero():
        return DeltaForm.zero(a.rank, new_type)
    if not assume_balanced:
        ok, failures = check_balanced(a)
        if not ok:
            raise NotBalanced(f"{len(failures)} unbalanced faces")
    cover = list(phi.top_cells())
    pairs, tags = _refine_by_cover(a, cover, phi.pieces)
    refined = DeltaForm(a.rank, a.ptype, pairs, normalize=False)
    out = []
    for tau, tangent, incident in _faces(refined):
        total = Superform.zero(a.rank, a.p, a.q)
        for sigma, coeff, omega, _ in incident:
            piece = tags[sigma.key()]
            total = total + coeff.scale_poly(piece.directional(omega))
        phi_tau = tags[incident[0][0].key()]
        for j, t in enumerate(tangent):
            total = total - _component(refined, incident, j).scale_poly(
                phi_tau.directional(t))
        out.append((tau, total))
    return DeltaForm(a.rank, new_type, out)


def tropical_pl_check(phi: PSFunction, a: DeltaForm) -> bool:
    """Divisor of phi on a versus the boundary/derivative composite."""
    ok, failures = check_balanced(a)
    if not ok:
        raise NotBalanced(f"{len(failures)} unbalanced faces")
    lhs = corner_locus(phi, a, assume_balanced=True)
    dphi = dP2(phi.as_deltaform())
    rhs = add(boundary1(ps_wedge(dphi, a)), ps_wedge(dphi, boundary1(a)))
    return equal(lhs, rhs)

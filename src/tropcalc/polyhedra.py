"""Integral R-affine polyhedra over Q, face lattices, and polyhedral complexes.

A polyhedron is held in a canonical H-representation: implicit equalities
extracted, equality rows in reduced echelon form scaled to primitive integer
vectors, inequalities reduced modulo the hull equations, scaled primitive,
deduplicated and made irredundant by exact LP.  Two polyhedra are equal iff
their canonical representations coincide, which makes semantic equality a
tuple comparison and lets complexes deduplicate cells by hashing.

One max-slack LP, max t <= 1 with a.x + t <= b, decides emptiness (t* < 0),
the implicit equalities and a relative-interior point (Schrijver, Theory of
Linear and Integer Programming, 8.2; cddlib's implicit linearity step).  At
t* = 0 the rows with a positive dual multiplier are tight everywhere, join
the equalities, and the LP runs again.  One LP per row drops redundant rows.

Facets are built once per polyhedron, one per canonical inequality, and
carry their lattice normal vectors (Polyhedron.facet_normals, built on first
use): the boundary derivatives, corner loci and boundary integrals read the
normals from there instead of re-deriving them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (AmbientMismatch, DimensionMismatch, InternalError,
                     NotAComplex, NotAFacet)
from .linalg import (
    Lattice, dot, extend_to_unimodular, int_kernel, lattice_coordinates, rat,
    solve_linear, vec,
)
from .lp import lp_feasible, lp_max_slack, lp_maximize

IntNormal = Tuple[int, ...]
Ineq = Tuple[IntNormal, Fraction]


def _primitive(normal: Sequence, offset) -> Optional[Ineq]:
    """Scale (normal, offset) by a positive rational to primitive integers."""
    normal = vec(normal)
    offset = rat(offset)
    if all(x == 0 for x in normal):
        return None
    denom = 1
    for x in normal:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in normal]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return (tuple(x // g for x in ints), offset * denom / g)


def _rref_eqs(eqs: Sequence[Tuple[Sequence, object]], rank_: int):
    """Reduced echelon form of equality rows, scaled to primitive integers.

    Returns (rows, pivots); each row is (normal, offset) with the pivot entry
    positive.  Inconsistent systems return None: this is the emptiness test
    for the equalities.
    """
    aug = [[rat(x) for x in a] + [rat(b)] for a, b in eqs]
    pivots: List[int] = []
    r = 0
    for c in range(rank_):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][rank_] != 0:
            return None
    rows = []
    for i, c in enumerate(pivots):
        prim = _primitive(aug[i][:rank_], aug[i][rank_])
        normal, offset = prim
        if normal[c] < 0:
            normal = tuple(-x for x in normal)
            offset = -offset
        rows.append((normal, offset))
    return rows, pivots


def _reduce_mod_eqs(normal: Sequence, offset, eq_rows, pivots):
    """Zero out the pivot coordinates of a normal using the hull equations."""
    a = list(vec(normal))
    b = rat(offset)
    for (erow, eoff), c in zip(eq_rows, pivots):
        if a[c] != 0:
            f = a[c] / erow[c]
            a = [x - f * y for x, y in zip(a, erow)]
            b -= f * eoff
    return tuple(a), b


class Polyhedron:
    """Nonempty integral R-affine polyhedron {x : A x <= b, E x = f}."""

    def __init__(self, ambient_rank: int, ineqs: Iterable = (), eqs: Iterable = ()):
        built = _build(ambient_rank, ineqs, eqs)
        if built is None:
            raise ValueError("polyhedron is empty")
        self._set(built)

    @staticmethod
    def try_new(ambient_rank: int, ineqs: Iterable = (), eqs: Iterable = ()):
        built = _build(ambient_rank, ineqs, eqs)
        if built is None:
            return None
        poly = Polyhedron.__new__(Polyhedron)
        poly._set(built)
        return poly

    def _set(self, built):
        (self.ambient_rank, self.ineqs, self.eqs, self._pivots, self.dim,
         self._lattice, self.relint_point) = built
        self._key = (self.ambient_rank, self.eqs, self.ineqs)
        self._facets: Optional[Tuple["Polyhedron", ...]] = None
        self._facet_normals: Optional[Tuple[tuple, ...]] = None
        self._faces: Optional[Tuple["Polyhedron", ...]] = None
        self._simplices: Optional[Tuple[Tuple[tuple, ...], ...]] = None
        self._bounded: Optional[bool] = None

    @staticmethod
    def full_space(ambient_rank: int) -> "Polyhedron":
        return Polyhedron(ambient_rank)

    @staticmethod
    def point(coords: Sequence) -> "Polyhedron":
        coords = vec(coords)
        r = len(coords)
        eqs = [(tuple(int(i == j) for j in range(r)), coords[i]) for i in range(r)]
        return Polyhedron(r, [], eqs)

    # -- basic queries ----------------------------------------------------

    @property
    def lattice(self) -> Lattice:
        return self._lattice

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Polyhedron(dim {self.dim} in R^{self.ambient_rank})"

    def contains(self, point: Sequence) -> bool:
        point = vec(point)
        if len(point) != self.ambient_rank:
            raise DimensionMismatch("point length != ambient rank")
        return (all(dot(a, point) <= b for a, b in self.ineqs)
                and all(dot(a, point) == b for a, b in self.eqs))

    def includes(self, other: "Polyhedron") -> bool:
        """Whether other is a subset of self (exact, via LP)."""
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch("ambient ranks differ")
        for a, b in self.eqs:
            ra, rb = _reduce_mod_eqs(a, b, other.eqs, other._pivots)
            if any(x != 0 for x in ra) or rb != 0:
                return False
        for a, b in self.ineqs:
            ra, rb = _reduce_mod_eqs(a, b, other.eqs, other._pivots)
            if all(x == 0 for x in ra):
                if rb < 0:
                    return False
                continue
            res = lp_maximize(other.ineqs, other.eqs, ra, self.ambient_rank)
            if res.status == "unbounded" or res.value > rb:
                return False
        return True

    def intersect(self, other: "Polyhedron") -> Optional["Polyhedron"]:
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch("ambient ranks differ")
        return Polyhedron.try_new(self.ambient_rank,
                                  self.ineqs + other.ineqs,
                                  self.eqs + other.eqs)

    def is_bounded(self) -> bool:
        if self._bounded is None:
            self._bounded = True
            for i in range(self.ambient_rank):
                obj = tuple(int(i == j) for j in range(self.ambient_rank))
                for sign in (1, -1):
                    o = tuple(sign * x for x in obj)
                    if lp_maximize(self.ineqs, self.eqs, o,
                                   self.ambient_rank).status == "unbounded":
                        self._bounded = False
                        return False
        return self._bounded

    def translate(self, v: Sequence) -> "Polyhedron":
        v = vec(v)
        ineqs = [(a, b + dot(a, v)) for a, b in self.ineqs]
        eqs = [(a, b + dot(a, v)) for a, b in self.eqs]
        return Polyhedron(self.ambient_rank, ineqs, eqs)

    # -- faces -------------------------------------------------------------

    def facets(self) -> List["Polyhedron"]:
        """The facets, built once per instance; each call returns a new list.

        The i-th facet is cut out by the i-th canonical inequality: the
        inequalities are irredundant, so every one of them defines a facet.
        """
        if self._facets is None:
            out = []
            for a, b in self.ineqs:
                f = Polyhedron.try_new(self.ambient_rank, self.ineqs,
                                       self.eqs + ((a, b),))
                if f is None:
                    raise NotAFacet("a canonical inequality cuts out no facet")
                out.append(f)
            self._facets = tuple(out)
        return list(self._facets)

    def facet_normals(self) -> List[Tuple["Polyhedron", IntNormal]]:
        """Each facet tau paired with its lattice normal vector omega.

        omega lies in N_sigma, its class generates N_sigma / N_tau, and it
        points from tau into sigma: a . omega < 0 for the inequality a . x <= b
        that defines tau.  Built once per instance; each call returns a new
        list.
        """
        if self._facet_normals is None:
            b_sigma = self._lattice.basis
            out = []
            for (a, _), tau in zip(self.ineqs, self.facets()):
                coords = [lattice_coordinates(b_sigma, v, self.ambient_rank)
                          for v in tau.lattice.basis]
                full = extend_to_unimodular(coords, len(b_sigma))
                comp = [row[-1] for row in full]  # completes tau's basis
                omega = tuple(
                    sum(comp[i] * b_sigma[i][j] for i in range(len(b_sigma)))
                    for j in range(self.ambient_rank))
                if dot(a, omega) > 0:
                    omega = tuple(-x for x in omega)
                out.append((tau, omega))
            self._facet_normals = tuple(out)
        return list(self._facet_normals)

    def faces(self) -> Tuple["Polyhedron", ...]:
        """All faces of all dimensions, the polyhedron itself included."""
        if self._faces is None:
            seen: Dict[tuple, Polyhedron] = {self._key: self}
            stack = [self]
            while stack:
                cur = stack.pop()
                for f in cur.facets():
                    if f._key not in seen:
                        seen[f._key] = f
                        stack.append(f)
            self._faces = tuple(sorted(seen.values(), key=lambda p: (p.dim, p._key)))
        return self._faces

    def vertices(self) -> List[Tuple[Fraction, ...]]:
        return [f.relint_point for f in self.faces() if f.dim == 0]

    def parametrization(self):
        """(origin, basis): x = origin + sum t_i basis_i maps R^dim onto the hull."""
        return self.relint_point, self._lattice.basis

    def lattice_simplices(self) -> List[Tuple[tuple, ...]]:
        """A triangulation of a bounded polyhedron in lattice coordinates.

        Each simplex is a tuple of dim + 1 vertices, each given by its
        coordinates t in the parametrization.  Built once per instance; each
        call returns a new list.
        """
        if self._simplices is None:
            origin, basis = self.parametrization()
            cols = [[Fraction(b[i]) for b in basis]
                    for i in range(self.ambient_rank)]
            coords = {}
            for v in self.vertices():
                t = solve_linear(cols, tuple(x - o for x, o in zip(v, origin)))
                if t is None:
                    raise InternalError("a vertex lies outside the cell's hull")
                coords[v] = t
            self._simplices = tuple(tuple(coords[v] for v in simplex)
                                    for simplex in _triangulate(self))
        return list(self._simplices)


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


def _build(rank_: int, ineqs: Iterable, eqs: Iterable):
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

    # Implicit equalities, one max-slack LP per round: rows with a positive
    # optimal multiplier at t* = 0 are tight on the whole polyhedron.
    while True:
        rref = _rref_eqs(raw_eqs, rank_)
        if rref is None:
            return None
        eq_rows, pivots = rref
        # Reduce inequalities modulo the hull, deduplicate, drop trivial
        # ones; reducing drops a facet's own row, which would force t* = 0.
        by_normal: Dict[IntNormal, Fraction] = {}
        for a, b in raw_ineqs:
            ra, rb = _reduce_mod_eqs(a, b, eq_rows, pivots)
            prim = _primitive(ra, rb)
            if prim is None:
                if rb < 0:
                    return None
                continue
            na, nb = prim
            if na not in by_normal or nb < by_normal[na]:
                by_normal[na] = nb
        ineq_list = sorted(by_normal.items())
        if not ineq_list:
            break
        slack = lp_max_slack(ineq_list, eq_rows, rank_)
        if slack.status != "optimal" or slack.value < 0:
            return None
        if slack.value > 0:
            break
        tight = [row for row, y in zip(ineq_list, slack.dual) if y > 0]
        if not tight:
            raise InternalError("a slack LP at t* = 0 without a tight row")
        raw_eqs = list(eq_rows) + tight
        raw_ineqs = [row for row, y in zip(ineq_list, slack.dual) if y == 0]

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

    if len(kept) < len(ineq_list):
        # Solve again, so that relint_point ignores the dropped rows.
        slack = lp_max_slack(kept, eq_rows, rank_)
    relint = (slack.point[:rank_] if kept
              else lp_feasible([], eq_rows, rank_).point)
    return (rank_, tuple(kept), tuple(eq_rows), tuple(pivots), dim,
            lattice, relint)


def normal_vector(sigma: Polyhedron, tau: Polyhedron) -> IntNormal:
    """The lattice normal vector of the facet tau in sigma (see
    Polyhedron.facet_normals); NotAFacet unless tau is a facet of sigma."""
    if sigma.ambient_rank != tau.ambient_rank:
        raise AmbientMismatch("ambient ranks differ")
    for facet, omega in sigma.facet_normals():
        if facet.key() == tau.key():
            return omega
    raise NotAFacet("tau is not a facet of sigma")


class Complex:
    """A face-closed polyhedral complex."""

    def __init__(self, ambient_rank: int, cells: Iterable[Polyhedron]):
        self.ambient_rank = ambient_rank
        cells = list(cells)
        for c in cells:
            if c.ambient_rank != ambient_rank:
                raise AmbientMismatch("cell rank != complex rank")
        seen: Dict[tuple, Polyhedron] = {}
        for c in cells:
            for f in c.faces():
                seen.setdefault(f.key(), f)
        self.cells: Tuple[Polyhedron, ...] = tuple(
            sorted(seen.values(), key=lambda p: (p.dim, p.key())))
        self._maximal: Optional[Tuple[Polyhedron, ...]] = None

    def __repr__(self):
        return f"Complex({len(self.cells)} cells in R^{self.ambient_rank})"

    def maximal_cells(self) -> Tuple[Polyhedron, ...]:
        if self._maximal is None:
            out = []
            for c in self.cells:
                if not any(d.dim > c.dim and d.includes(c) for d in self.cells):
                    out.append(c)
            self._maximal = tuple(out)
        return self._maximal

    def cells_of_dim(self, d: int) -> List[Polyhedron]:
        return [c for c in self.cells if c.dim == d]

    def validate(self):
        """Raise NotAComplex unless the cells are face-closed and any two
        meet in a common face."""
        keys = {c.key() for c in self.cells}
        for c in self.cells:
            for f in c.faces():
                if f.key() not in keys:
                    raise NotAComplex("complex is not face-closed")
        cells = self.cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                inter = cells[i].intersect(cells[j])
                if inter is not None and inter.key() not in keys:
                    raise NotAComplex("cells meet outside a common face")


def hyperplanes_of(cells: Iterable[Polyhedron]) -> List[Ineq]:
    """All affine hyperplanes appearing in the cells' canonical constraints."""
    seen = {}
    for c in cells:
        for a, b in list(c.eqs) + list(c.ineqs):
            prim = _primitive(a, b)
            na, nb = prim
            for i, x in enumerate(na):
                if x != 0:
                    if x < 0:
                        na = tuple(-y for y in na)
                        nb = -nb
                    break
            seen.setdefault((na, nb), (na, nb))
    return sorted(seen.values())


def _refine_cell_by(cell: Polyhedron, hyperplanes) -> List[Polyhedron]:
    """Split cell along each hyperplane that cuts it into two full pieces."""
    pieces = [cell]
    for a, b in hyperplanes:
        new: List[Polyhedron] = []
        for p in pieces:
            lo = Polyhedron.try_new(p.ambient_rank, p.ineqs + ((a, b),),
                                    p.eqs)
            hi = Polyhedron.try_new(p.ambient_rank,
                                    p.ineqs + ((tuple(-x for x in a), -b),),
                                    p.eqs)
            if lo is not None and hi is not None \
                    and lo.dim == p.dim and hi.dim == p.dim:
                new.extend([lo, hi])
            else:
                new.append(p)
        pieces = new
    return pieces


def arrangement_complex(ambient_rank: int, cells: Sequence[Polyhedron]) -> Complex:
    """Refine arbitrary cells into a valid face-closed complex.

    Every cell is split along every hyperplane supporting a constraint of any
    cell, so the resulting pieces pairwise intersect in common faces.
    """
    planes = hyperplanes_of(cells)
    pieces: List[Polyhedron] = []
    for c in cells:
        relevant = [h for h in planes
                    if c.intersect(Polyhedron(ambient_rank, (), (h,))) is not None]
        pieces.extend(_refine_cell_by(c, relevant))
    return Complex(ambient_rank, pieces)


def common_refinement(c1: Complex, c2: Complex) -> Complex:
    """Pairwise intersections of cells plus their face closure."""
    if c1.ambient_rank != c2.ambient_rank:
        raise AmbientMismatch("ambient ranks differ")
    out = []
    for a in c1.cells:
        for b in c2.cells:
            inter = a.intersect(b)
            if inter is not None:
                out.append(inter)
    return Complex(c1.ambient_rank, out)


class AffineForm:
    """Integral affine form a.x + c with integer a and rational c."""

    def __init__(self, linear: Sequence, constant):
        self.linear = tuple(int(x) for x in linear)
        self.constant = rat(constant)

    def value(self, x: Sequence) -> Fraction:
        return dot(self.linear, x) + self.constant


def decomposition_of_pl(forms: Sequence[AffineForm], kind: str):
    """Regions of R^r where one affine form attains the max (resp. min).

    Returns (cells, labels): the full-dimensional regions sorted by key,
    and labels mapping each region's key to the index of the attaining form.
    """
    if not forms:
        raise ValueError("need at least one affine form")
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    r = len(forms[0].linear)
    sign = 1 if kind == "max" else -1
    regions = []
    for i, f in enumerate(forms):
        ineqs = []
        for j, g in enumerate(forms):
            if i == j:
                continue
            # f >= g (max) or f <= g (min):  sign*(g - f).x <= sign*(cf - cg)
            a = tuple(sign * (gj - fj) for fj, gj in zip(f.linear, g.linear))
            b = sign * (f.constant - g.constant)
            ineqs.append((a, b))
        cell = Polyhedron.try_new(r, ineqs)
        if cell is not None and cell.dim == r:
            regions.append((cell, i))
    seen = {}
    for cell, i in regions:
        seen.setdefault(cell.key(), (cell, i))
    cells = [seen[key][0] for key in sorted(seen)]
    labels = {key: i for key, (_, i) in seen.items()}
    return cells, labels


def eliminate_coordinates(ineqs: Sequence[Ineq], eqs: Sequence[Ineq],
                          rank_: int, drop: Sequence[int]):
    """Fourier-Motzkin elimination of the listed coordinates.

    Returns (ineqs, eqs, kept_indices) over the remaining coordinates in
    their original order.
    """
    cur_ineqs = [(list(vec(a)), rat(b)) for a, b in ineqs]
    cur_eqs = [(list(vec(a)), rat(b)) for a, b in eqs]
    alive = list(range(rank_))
    for target in sorted(drop, reverse=True):
        pos = alive.index(target)
        pivot_eq = next((e for e in cur_eqs if e[0][pos] != 0), None)
        if pivot_eq is not None:
            pa, pb = pivot_eq
            cur_eqs.remove(pivot_eq)
            def subst(row, off):
                f = row[pos] / pa[pos]
                return ([x - f * y for x, y in zip(row, pa)], off - f * pb)
            cur_eqs = [subst(a, b) for a, b in cur_eqs]
            cur_ineqs = [subst(a, b) for a, b in cur_ineqs]
        else:
            ups = [(a, b) for a, b in cur_ineqs if a[pos] > 0]
            downs = [(a, b) for a, b in cur_ineqs if a[pos] < 0]
            keeps = [(a, b) for a, b in cur_ineqs if a[pos] == 0]
            new = list(keeps)
            for ua, ub in ups:
                for da, db in downs:
                    # Combine to cancel the pivot coordinate.
                    cu = -da[pos]
                    cd = ua[pos]
                    row = [cu * x + cd * y for x, y in zip(ua, da)]
                    new.append((row, cu * ub + cd * db))
            cur_ineqs = new
        for a, _ in cur_ineqs:
            del a[pos]
        for a, _ in cur_eqs:
            del a[pos]
        alive.pop(pos)
    out_ineqs = [(tuple(a), b) for a, b in cur_ineqs]
    out_eqs = [(tuple(a), b) for a, b in cur_eqs]
    return out_ineqs, out_eqs, alive

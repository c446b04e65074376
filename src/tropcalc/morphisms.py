"""Integral affine maps acting on balanced forms.

Push-forward carries each cell to its image with the lattice index of the
image of its tangent lattice as a multiplicity, and transports the
coefficient through a rational one-sided inverse of the restricted map.
The images of a 0-cycle, or of a form on whose affine hull the map is
injective, already form a complex; other images can overlap and are
regularized.

Pull-back along f(x) = Mx + t (Allermann-Rau 2010) is defined as the graph
cycle meeting R^s x a in R^(s+t), projected to the source.  It is computed
in R^s: that cut projects onto the preimages f^-1(sigma) of the maximal
cells of a, whose rows are sigma's rows composed with f.  A preimage of the
expected dimension s - l_a counts when f(R^s) meets sigma + eps*w near it,
for a generic w on the moment curve in R^t: the fan displacement rule of
products.diagonal_wedge with the graph's side fixed, one tangent-cone LP in
s variables per preimage.  Its multiplicity is the pair's lattice index
[Z^(s+t) : N_graph + Z^s x N_sigma] = [Z^t : M Z^s + N_sigma], and the
projection is injective on the graph, so the coefficient is f^* alpha_sigma
times that index.  The graph cycle itself is the graph polyhedron with
weight 1; the tests check it against the iterated corner locus of
max{f_i(x'), x_i} and keep the graph construction of the pull-back as the
reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .deltaforms import DeltaForm, check_balanced, equal, regularize
from .errors import (AmbientMismatch, CellNotInjective, InternalError,
                     NotBalanced)
from .linalg import (Lattice, dot, identity_mat, invert, lattice_index,
                     mat_mul, mat_vec, rank as mat_rank, vec)
from .polyhedra import Polyhedron, eliminate_coordinates
from .products import (_cones_meet, _displace_until_generic,
                       _moved_tangent_rows, _sum_lattice_index,
                       diagonal_wedge)
from .superforms import Superform, pullback_form


class AffineMap:
    """x |-> M x + t with an integral linear part and rational translate."""

    __slots__ = ("source_rank", "target_rank", "matrix", "translate")

    def __init__(self, source_rank: int, target_rank: int,
                 matrix: Sequence[Sequence[int]], translate: Sequence = None):
        self.source_rank = source_rank
        self.target_rank = target_rank
        entries = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if len(entries) != target_rank or any(
                len(row) != source_rank for row in entries):
            raise ValueError("matrix shape disagrees with the ranks")
        if any(x.denominator != 1 for row in entries for x in row):
            raise ValueError("matrix entries must be integers")
        self.matrix = tuple(tuple(x.numerator for x in row) for row in entries)
        self.translate = (vec(translate) if translate is not None
                          else tuple(Fraction(0) for _ in range(target_rank)))
        if len(self.translate) != target_rank:
            raise ValueError("translate length disagrees with the target rank")

    @staticmethod
    def identity(rank: int) -> "AffineMap":
        return AffineMap(rank, rank, identity_mat(rank))

    @staticmethod
    def projection(source_rank: int, target_rank: int) -> "AffineMap":
        rows = [tuple(int(i == j) for j in range(source_rank))
                for i in range(target_rank)]
        return AffineMap(source_rank, target_rank, rows)

    def apply(self, point: Sequence) -> tuple:
        point = vec(point)
        return tuple(sum(Fraction(m) * x for m, x in zip(row, point)) + t
                     for row, t in zip(self.matrix, self.translate))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        if self.source_rank != other.target_rank:
            raise AmbientMismatch("ranks do not chain")
        m = mat_mul(self.matrix, other.matrix)
        t = tuple(a + b for a, b in zip(mat_vec(self.matrix, other.translate),
                                        self.translate))
        return AffineMap(other.source_rank, self.target_rank, m, t)

    def __repr__(self):
        return f"AffineMap R^{self.source_rank} -> R^{self.target_rank}"


def image_polyhedron(f: AffineMap, sigma: Polyhedron) -> Polyhedron:
    """The image cell, computed by eliminating the source coordinates."""
    rs, rt = f.source_rank, f.target_rank
    n = rs + rt
    pad = tuple(0 for _ in range(rt))
    ineqs = [(normal + pad, c) for normal, c in sigma.ineqs]
    eqs = [(normal + pad, c) for normal, c in sigma.eqs]
    for i in range(rt):
        normal = tuple(f.matrix[i]) + tuple(-int(i == j) for j in range(rt))
        eqs.append((normal, -f.translate[i]))
    pi, pe, kept = eliminate_coordinates(ineqs, eqs, n, list(range(rs)))
    if kept != list(range(rs, n)):
        raise InternalError("elimination kept the wrong coordinates")
    return Polyhedron(rt, pi, pe)


def _transport_coefficient(f: AffineMap, sigma: Polyhedron,
                           coeff: Superform) -> Superform:
    """Pull the coefficient back through a rational section of F over F(sigma)."""
    origin, basis = sigma.parametrization()
    k = len(basis)
    rs, rt = f.source_rank, f.target_rank
    if k == 0:
        # constant transport: evaluate nothing, compose with the point map
        zero_rows = [tuple(Fraction(0) for _ in range(rt)) for _ in range(rs)]
        return pullback_form(zero_rows, origin, coeff, source_rank=rt)
    c_cols = [mat_vec(f.matrix, b) for b in basis]  # images of the basis
    gram = [[sum(c_cols[i][m] * c_cols[j][m] for m in range(rt))
             for j in range(k)] for i in range(k)]
    pinv = mat_mul(invert(gram),
                   [[Fraction(c_cols[i][m]) for m in range(rt)]
                    for i in range(k)])
    lin = [[sum(Fraction(basis[m][i]) * pinv[m][j] for m in range(k))
            for j in range(rt)] for i in range(rs)]
    f_origin = f.apply(origin)
    shift = tuple(o - sum(lin[i][j] * f_origin[j] for j in range(rt))
                  for i, o in enumerate(vec(origin)))
    return pullback_form(lin, shift, coeff)


def _push(f: AffineMap, a: DeltaForm, drop_collapsed: bool) -> DeltaForm:
    if f.source_rank != a.rank:
        raise AmbientMismatch("map source rank disagrees with the form")
    k = a.rank - a.l
    new_l = f.target_rank - k
    new_type = (a.p, a.q, new_l)
    if new_l < 0:
        # every cell collapses in dimension
        if drop_collapsed:
            return DeltaForm.zero(f.target_rank, (a.p, a.q, 0))
        raise CellNotInjective("cells of dimension above the target rank",
                               cells=[c for c, _ in a.cells])
    bad = []
    pairs = []
    for cell, coeff in a.cells:
        basis = cell.lattice.basis
        images = [mat_vec(f.matrix, b) for b in basis]
        if basis and mat_rank(tuple(images)) < len(basis):
            if drop_collapsed:
                continue
            bad.append(cell)
            continue
        image = image_polyhedron(f, cell)
        weight = (lattice_index(Lattice(f.target_rank, images), image.lattice)
                  if basis else 1)
        moved = _transport_coefficient(f, cell, coeff)
        pairs.append((image, moved.scale(weight)))
    if bad:
        raise CellNotInjective("map collapses cells", cells=bad)
    if _images_form_complex(f, a):
        return DeltaForm(f.target_rank, new_type, pairs)
    return regularize(f.target_rank, new_type, pairs)


def _images_form_complex(f: AffineMap, a: DeltaForm) -> bool:
    """Whether the images of the cells of a already form a complex.

    They do when every cell is a point, and when f is injective on the
    affine hull of the support.  The hull's direction space is spanned by
    the cells' lattice bases and the differences of their relative-interior
    points.
    """
    if a.l == a.rank or not a.cells:
        return True
    base = a.cells[0][0].relint_point
    dirs = []
    for cell, _ in a.cells:
        dirs.extend(cell.lattice.basis)
        dirs.append(tuple(x - y for x, y in zip(cell.relint_point, base)))
    return mat_rank([mat_vec(f.matrix, d) for d in dirs]) == mat_rank(dirs)


def pushforward_cells(f: AffineMap, a: DeltaForm) -> DeltaForm:
    """Push-forward requiring injectivity on every maximal cell."""
    return _push(f, a, drop_collapsed=False)


def pushforward_hat(f: AffineMap, a: DeltaForm) -> DeltaForm:
    """Tropical push-forward: dimension-collapsing cells contribute zero."""
    ok, fails = check_balanced(a)
    if not ok:
        raise NotBalanced(f"{len(fails)} unbalanced faces")
    return _push(f, a, drop_collapsed=True)


def graph_polyhedron(f: AffineMap) -> Polyhedron:
    rs, rt = f.source_rank, f.target_rank
    eqs = []
    for i in range(rt):
        normal = tuple(f.matrix[i]) + tuple(-int(i == j) for j in range(rt))
        eqs.append((normal, -f.translate[i]))
    return Polyhedron(rs + rt, [], eqs)


def graph_cycle(f: AffineMap) -> DeltaForm:
    """The graph as a weight-1 cycle on source x target.

    It equals the iterated corner locus of max{f_i(x'), x_i}, i = 1..t.
    """
    rt = f.target_rank
    return DeltaForm.from_weights(f.source_rank + rt, rt,
                                  [(graph_polyhedron(f), 1)])


def _compose_rows(f: AffineMap, rows):
    """Rows a.y <= b (or = b) on R^t composed with f: (aM).x vs b - a.t."""
    cols = range(f.source_rank)
    return [(tuple(sum(ai * row[j] for ai, row in zip(a, f.matrix))
                   for j in cols), b - dot(a, f.translate))
            for a, b in rows]


def pullback(f: AffineMap, a: DeltaForm) -> DeltaForm:
    """f^* a, cell by cell from the preimages of the maximal cells of a.

    The preimage f^-1(sigma) of dimension s - l_a carries
    f^* alpha_sigma * [Z^t : M Z^s + N_sigma] when f(R^s) meets
    sigma + eps*w near it for all small eps > 0, w generic: one LP in s
    variables over sigma's tangent cone at the image of the preimage's
    relative-interior point.  Preimages of smaller dimension drop out.
    This is the graph cycle meeting R^s x a, projected to the source.  The
    graph construction in R^(s+t) moves a by the last t coordinates of the
    moment curve's point there, m^s times the point of the curve in R^t
    used here; cones do not see the scale, so both decide every cell alike.
    """
    if f.target_rank != a.rank:
        raise AmbientMismatch("map target rank disagrees with the form")
    ok, fails = check_balanced(a)
    if not ok:
        raise NotBalanced(f"{len(fails)} unbalanced faces")
    s, t = f.source_rank, f.target_rank
    k = s - a.l
    if a.is_zero() or k < 0:
        return DeltaForm.zero(s, a.ptype)
    candidates = []
    for sigma, alpha in a.cells:
        pre = Polyhedron.try_new(s, _compose_rows(f, sigma.ineqs),
                                 _compose_rows(f, sigma.eqs))
        if pre is not None and pre.dim == k:
            candidates.append((sigma, alpha, pre, f.apply(pre.relint_point)))
    columns = [tuple(row[j] for row in f.matrix) for j in range(s)]

    def displaced(w):
        out = []
        for sigma, alpha, pre, image in candidates:
            ineqs, eqs = _moved_tangent_rows(sigma, image, w)
            meets = _cones_meet(_compose_rows(f, ineqs),
                                _compose_rows(f, eqs), s)
            if meets is None:
                return None
            if meets:
                m = _sum_lattice_index(columns, sigma.lattice.basis, t)
                out.append((pre, pullback_form(f.matrix, f.translate, alpha,
                                               source_rank=s).scale(m)))
        return out

    return DeltaForm(s, a.ptype, _displace_until_generic(t, displaced))


def projection_formula_check(f: AffineMap, a: DeltaForm,
                             b: DeltaForm) -> bool:
    """push_hat(a ^ pull(b)) versus push_hat(a) ^ b, both computed exactly."""
    lhs = pushforward_hat(f, diagonal_wedge(a, pullback(f, b)))
    rhs = diagonal_wedge(pushforward_hat(f, a), b)
    return equal(lhs, rhs)

"""Integral affine maps acting on balanced forms.

Push-forward carries each cell to its image with the lattice index of the
image of its tangent lattice as a multiplicity, and transports the
coefficient through a rational one-sided inverse of the restricted map.
The images of a 0-cycle, or of a form on whose affine hull the map is
injective, already form a complex; other images can overlap and are
regularized.  Pull-back is realized geometrically: meet R^s x a with the
graph cycle in R^(s+t) by the fan displacement rule
(products.diagonal_wedge) and project back to the source.  The graph cycle
is built directly as the graph polyhedron with weight 1; the tests check it
against the iterated corner locus of max{f_i(x'), x_i}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .deltaforms import DeltaForm, check_balanced, equal, regularize
from .errors import (AmbientMismatch, CellNotInjective, InternalError,
                     NotBalanced)
from .linalg import (Lattice, identity_mat, invert, lattice_index, mat_mul,
                     mat_vec, rank as mat_rank, vec)
from .polyhedra import Polyhedron, eliminate_coordinates
from .superforms import Superform, pullback_form


class AffineMap:
    """x |-> M x + t with an integral linear part and rational translate."""

    __slots__ = ("source_rank", "target_rank", "matrix", "translate")

    def __init__(self, source_rank: int, target_rank: int,
                 matrix: Sequence[Sequence[int]], translate: Sequence = None):
        self.source_rank = source_rank
        self.target_rank = target_rank
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if len(self.matrix) != target_rank or any(
                len(row) != source_rank for row in self.matrix):
            raise ValueError("matrix shape disagrees with the ranks")
        self.translate = (vec(translate) if translate is not None
                          else tuple(Fraction(0) for _ in range(target_rank)))

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


def pullback(f: AffineMap, a: DeltaForm) -> DeltaForm:
    """Pull-back through the graph: intersect and project to the source."""
    if f.target_rank != a.rank:
        raise AmbientMismatch("map target rank disagrees with the form")
    ok, fails = check_balanced(a)
    if not ok:
        raise NotBalanced(f"{len(fails)} unbalanced faces")
    from .products import cross, diagonal_wedge
    graph = graph_cycle(f)
    lifted = cross(DeltaForm.full_space(f.source_rank), a)
    cut = diagonal_wedge(graph, lifted)
    proj = AffineMap.projection(f.source_rank + f.target_rank, f.source_rank)
    return pushforward_cells(proj, cut)


def projection_formula_check(f: AffineMap, a: DeltaForm,
                             b: DeltaForm) -> bool:
    """push_hat(a ^ pull(b)) versus push_hat(a) ^ b, both computed exactly."""
    from .products import diagonal_wedge
    lhs = pushforward_hat(f, diagonal_wedge(a, pullback(f, b)))
    rhs = diagonal_wedge(pushforward_hat(f, a), b)
    return equal(lhs, rhs)

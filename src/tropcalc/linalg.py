"""Exact rational and integer linear algebra.

Scalars are :class:`fractions.Fraction` (always in lowest terms with a
positive denominator, so the Rat invariants hold for free).  Vectors are
tuples, matrices are tuples of row tuples.  Integer matrices get Hermite and
Smith normal forms; those power lattice membership, lattice indices,
saturations, and basis extensions used throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .errors import DimensionMismatch, NotASublattice

Vec = Tuple[Fraction, ...]
IntVec = Tuple[int, ...]
Mat = Tuple[Tuple[Fraction, ...], ...]
IntMat = Tuple[Tuple[int, ...], ...]

#: Distinguished return value of :func:`lattice_index` on a rank drop.
INFINITE = "infinite"


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"2/3"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` or ``"p"`` when q = 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def int_vec(values: Iterable) -> IntVec:
    out = []
    for v in values:
        f = Fraction(v)
        if f.denominator != 1:
            raise TypeError(f"expected an integer entry, got {v!r}")
        out.append(f.numerator)
    return tuple(out)


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = list(zip(*b)) if b else []
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Sequence[Sequence]):
    return tuple(zip(*m)) if m else ()


def identity_mat(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def rank(m: Sequence[Sequence]) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def solve_linear(m: Sequence[Sequence], b: Sequence):
    """One exact solution x of m·x = b, or None when inconsistent.

    Underdetermined systems return the solution with free variables set to
    zero (deterministic given the row order).
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if len(b) != nrows:
        raise DimensionMismatch("rhs length does not match row count")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(m)]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return tuple(x)


def invert(m: Sequence[Sequence]) -> Mat:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise DimensionMismatch("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def det(m: Sequence[Sequence]) -> Fraction:
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def smith_normal_form(a: Sequence[Sequence[int]]):
    """Smith normal form: U·A·V = D with U, V unimodular, d1 | d2 | ...

    Returns (U, D, V) as integer matrices.  Works for any shape, including
    empty matrices.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # Move a nonzero pivot of minimal absolute value to (t, t).
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            reduced = True
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if reduced:
                break
        # Enforce divisibility of the remaining block by the pivot.
        entry = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    entry = (i, j)
                    break
            if entry:
                break
        if entry is not None:
            add_row(entry[0], t, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v)))


def int_kernel(a: Sequence[Sequence[int]], ncols: int | None = None) -> List[IntVec]:
    """Basis of the saturated lattice {x in Z^n : A·x = 0}.

    The returned vectors extend to a basis of Z^n; that follows from the
    columns of the unimodular V in the Smith decomposition.
    """
    m = len(a)
    n = ncols if ncols is not None else (len(a[0]) if m else 0)
    if m == 0:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    _, dmat, vmat = smith_normal_form(a)
    r = sum(1 for i in range(min(m, n)) if dmat[i][i] != 0)
    cols = transpose(vmat)
    return [tuple(cols[j]) for j in range(r, n)]


def saturation_basis(gens: Sequence[Sequence[int]], n: int) -> List[IntVec]:
    """Basis of the saturation (Q-span intersected with Z^n) of integer generators."""
    gens = [tuple(int(x) for x in g) for g in gens]
    if not gens or all(all(x == 0 for x in g) for g in gens):
        return []
    perp = int_kernel(gens, n)
    if not perp:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return int_kernel(perp, n)


def lattice_coordinates(basis: Sequence[Sequence[int]], v: Sequence, n: int):
    """Rational coordinates of v in the given basis, or None when outside the span."""
    if not basis:
        return () if all(Fraction(x) == 0 for x in v) else None
    cols = transpose(basis)
    coords = solve_linear(cols, v)
    if coords is None:
        return None
    if mat_vec(cols, coords) != tuple(Fraction(x) for x in v):
        return None
    return coords


class Lattice:
    """A sublattice of Z^r given by an independent integer basis."""

    def __init__(self, ambient_rank: int, basis: Sequence[Sequence[int]]):
        self.ambient_rank = ambient_rank
        basis = [int_vec(b) for b in basis]
        for b in basis:
            if len(b) != ambient_rank:
                raise DimensionMismatch("basis vector length != ambient rank")
        if basis and rank(basis) != len(basis):
            raise DimensionMismatch("lattice basis is linearly dependent")
        self.basis: Tuple[IntVec, ...] = tuple(basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        coords = lattice_coordinates(self.basis, v, self.ambient_rank)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def __repr__(self):
        return f"Lattice(rank {self.rank} in Z^{self.ambient_rank})"


def lattice_index(sub: Lattice, sup: Lattice):
    """Group index [sup : sub]; INFINITE on rank drop; NotASublattice otherwise."""
    if sub.ambient_rank != sup.ambient_rank:
        raise DimensionMismatch("lattices live in different ambient spaces")
    coord_rows = []
    for b in sub.basis:
        coords = lattice_coordinates(sup.basis, b, sup.ambient_rank)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise NotASublattice(f"{b} is not in the big lattice")
        coord_rows.append(tuple(int(c) for c in coords))
    if sub.rank < sup.rank:
        return INFINITE
    _, dmat, _ = smith_normal_form(coord_rows)
    index = 1
    for i in range(len(coord_rows)):
        index *= dmat[i][i]
    return abs(index)


def extend_to_unimodular(basis: Sequence[Sequence[int]], n: int) -> IntMat:
    """Unimodular n x n integer matrix whose first columns are the given
    basis of a saturated lattice (complement columns computed via SNF)."""
    basis = [int_vec(b) for b in basis]
    k = len(basis)
    if k == 0:
        return identity_mat(n)
    bmat = transpose(basis)  # n x k, columns are the basis
    u, dmat, _ = smith_normal_form(bmat)
    for i in range(k):
        if abs(dmat[i][i]) != 1:
            raise NotASublattice("basis does not span a saturated lattice")
    uinv_cols = transpose(invert(u))  # columns of U^{-1}
    full_cols = list(basis) + [tuple(int(x) for x in uinv_cols[j]) for j in range(k, n)]
    full = transpose(full_cols)
    if abs(det(full)) != 1:
        raise NotASublattice("basis extension failed to be unimodular")
    return tuple(tuple(int(x) for x in row) for row in full)

"""Bigraded algebra of superforms with exact polynomial coefficients.

A superform of bidegree (p, q) on R^r is a finite sum of terms
c(x) d'x_I ^ d''x_J with I, J strictly increasing index tuples.  Both kinds
of differentials are odd of degree one, so moving one past another always
costs a sign.  Coefficients are multivariate polynomials over Q, which keeps
every identity in the calculus an exact equality of dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import AmbientMismatch, SlotOutOfRange
from .linalg import rat, vec

Exponent = Tuple[int, ...]
IndexPair = Tuple[Tuple[int, ...], Tuple[int, ...]]


class Poly:
    """Multivariate polynomial over Q with exponent-tuple keys."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Optional[Dict[Exponent, Fraction]] = None):
        self.rank = rank
        clean: Dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            c = rat(c)
            if c != 0:
                if len(e) != rank or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent {e} for rank {rank}")
                clean[tuple(e)] = c
        self.terms = clean

    @staticmethod
    def const(rank: int, c) -> "Poly":
        return Poly(rank, {tuple(0 for _ in range(rank)): rat(c)})

    @staticmethod
    def var(rank: int, i: int) -> "Poly":
        e = tuple(int(j == i) for j in range(rank))
        return Poly(rank, {e: Fraction(1)})

    @staticmethod
    def affine(rank: int, linear: Sequence, constant=0) -> "Poly":
        terms: Dict[Exponent, Fraction] = {}
        for i, c in enumerate(linear):
            c = rat(c)
            if c != 0:
                terms[tuple(int(j == i) for j in range(rank))] = c
        c0 = rat(constant)
        if c0 != 0:
            terms[tuple(0 for _ in range(rank))] = c0
        return Poly(rank, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.rank == other.rank
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.rank, out)

    def __neg__(self) -> "Poly":
        return Poly(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out: Dict[Exponent, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Poly(self.rank, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly(self.rank, {e: c * x for e, x in self.terms.items()})

    def partial(self, i: int) -> "Poly":
        out: Dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return Poly(self.rank, out)

    def directional(self, v: Sequence) -> "Poly":
        v = vec(v)
        out = Poly(self.rank)
        for i, c in enumerate(v):
            if c != 0:
                out = out + self.partial(i).scale(c)
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        point = vec(point)
        total = Fraction(0)
        for e, c in self.terms.items():
            m = c
            for x, k in zip(point, e):
                for _ in range(k):
                    m *= x
            total += m
        return total

    def compose_affine(self, linear_rows: Sequence[Sequence],
                       translate: Sequence) -> "Poly":
        """Substitute x_i = sum_j A[i][j] y_j + t_i; result lives on y-space.

        The y-space has len(A[0]) coordinates (0 when A has no rows).  Each
        substitution is cleared to an integer affine form whose powers are
        built once (see _integer_expansions); the integer products are
        summed over one common denominator and the Poly is built once.
        """
        k = len(linear_rows[0]) if linear_rows else 0
        return _compose(self, linear_rows, translate, k)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def _integer_expansions(poly: Poly, linear_rows: Sequence[Sequence],
                        translate: Sequence, k: int):
    """Each monomial of poly after x_i = sum_j A[i][j] y_j + t_i, in integers.

    Row i is scaled by d_i, the lcm of the denominators of (A[i], t_i), to an
    integer affine form L_i on the k y-coordinates, and the powers of L_i are
    built once, up to the largest exponent of x_i in poly.  A monomial
    c x^e then becomes c / prod d_i^e_i times the integer polynomial
    prod L_i^e_i.  Returns (base, [(c / prod d_i^e_i, expansion), ...]):
    each expansion maps packed exponents to ints, where the exponent f of
    y is packed as sum_j f_j base^j and base exceeds the degree of poly, so
    multiplying monomials adds packed keys (see _unpack).
    """
    base = poly.degree() + 1
    top = [0] * poly.rank
    for e in poly.terms:
        top = [max(a, b) for a, b in zip(top, e)]
    unit = [base ** j for j in range(k)]
    dens, powers = [], []
    for i in range(poly.rank):
        row = [rat(x) for x in linear_rows[i]]
        t = rat(translate[i])
        d = lcm(t.denominator, *(x.denominator for x in row))
        form = {u: x.numerator * (d // x.denominator)
                for u, x in zip(unit, row) if x}
        if t:
            form[0] = t.numerator * (d // t.denominator)
        table = [{0: 1}]
        for _ in range(top[i]):
            table.append(_int_mul(table[-1], form))
        dens.append(d)
        powers.append(table)
    out = []
    for e, c in poly.terms.items():
        expansion = None
        den = 1
        for i, a in enumerate(e):
            if a:
                power = powers[i][a]
                expansion = power if expansion is None else _int_mul(expansion, power)
                den *= dens[i] ** a
        out.append((c / den, {0: 1} if expansion is None else expansion))
    return base, out


def _int_mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Product of two integer polynomials with packed exponent keys."""
    out: Dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return out


def _unpack(key: int, base: int, k: int) -> Exponent:
    """The exponent tuple of a packed key (see _integer_expansions)."""
    e = []
    for _ in range(k):
        key, f = divmod(key, base)
        e.append(f)
    return tuple(e)


def _compose(poly: Poly, linear_rows: Sequence[Sequence], translate: Sequence,
             k: int) -> Poly:
    """poly after x_i = sum_j A[i][j] y_j + t_i, on the k y-coordinates."""
    base, expansions = _integer_expansions(poly, linear_rows, translate, k)
    common = lcm(*(s.denominator for s, _ in expansions))
    total: Dict[int, int] = {}
    get = total.get
    for s, expansion in expansions:
        m = s.numerator * (common // s.denominator)
        for key, n in expansion.items():
            total[key] = get(key, 0) + m * n
    return Poly(k, {_unpack(key, base, k): Fraction(n, common)
                    for key, n in total.items() if n})


def merge_indices(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Shuffle sign and merged tuple, or None when the tuples overlap."""
    if set(a) & set(b):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            # b[j] moves past the remaining entries of a.
            if (len(a) - i) % 2:
                sign = -sign
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def insert_index(i: int, idx: Tuple[int, ...]):
    """Sign and tuple for sorting a single new index to the front block."""
    if i in idx:
        return None
    pos = sum(1 for x in idx if x < i)
    sign = -1 if pos % 2 else 1
    return sign, tuple(sorted(idx + (i,)))


class Superform:
    """Polynomial superform of bidegree (p, q) on R^r."""

    __slots__ = ("rank", "p", "q", "terms")

    def __init__(self, rank: int, p: int, q: int,
                 terms: Optional[Dict[IndexPair, Poly]] = None):
        self.rank = rank
        self.p = p
        self.q = q
        clean: Dict[IndexPair, Poly] = {}
        for (i_idx, j_idx), poly in (terms or {}).items():
            i_idx, j_idx = tuple(i_idx), tuple(j_idx)
            if len(i_idx) != p or len(j_idx) != q:
                raise ValueError("index tuple lengths disagree with bidegree")
            if list(i_idx) != sorted(set(i_idx)) or list(j_idx) != sorted(set(j_idx)):
                raise ValueError("index tuples must be strictly increasing")
            if i_idx and (i_idx[0] < 0 or i_idx[-1] >= rank):
                raise ValueError("index out of range")
            if j_idx and (j_idx[0] < 0 or j_idx[-1] >= rank):
                raise ValueError("index out of range")
            if not poly.is_zero():
                clean[(i_idx, j_idx)] = poly
        self.terms = clean

    @staticmethod
    def zero(rank: int, p: int, q: int) -> "Superform":
        return Superform(rank, p, q)

    @staticmethod
    def from_poly(poly: Poly) -> "Superform":
        return Superform(poly.rank, 0, 0, {((), ()): poly})

    @staticmethod
    def constant(rank: int, c) -> "Superform":
        return Superform.from_poly(Poly.const(rank, c))

    @staticmethod
    def monomial(rank: int, i_idx: Sequence[int], j_idx: Sequence[int],
                 poly: Optional[Poly] = None) -> "Superform":
        i_idx, j_idx = tuple(i_idx), tuple(j_idx)
        poly = poly if poly is not None else Poly.const(rank, 1)
        return Superform(rank, len(i_idx), len(j_idx), {(i_idx, j_idx): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Superform) and self.rank == other.rank
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self.terms.items(),
                                             key=lambda kv: kv[0]))))

    def __add__(self, other: "Superform") -> "Superform":
        self._check(other)
        out = dict(self.terms)
        for k, poly in other.terms.items():
            out[k] = out.get(k, Poly(self.rank)) + poly
        p = self.p if self.terms or not other.terms else other.p
        q = self.q if self.terms or not other.terms else other.q
        return Superform(self.rank, p, q, out)

    def __neg__(self) -> "Superform":
        return Superform(self.rank, self.p, self.q,
                         {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Superform") -> "Superform":
        return self + (-other)

    def scale(self, c) -> "Superform":
        return Superform(self.rank, self.p, self.q,
                         {k: v.scale(c) for k, v in self.terms.items()})

    def scale_poly(self, poly: Poly) -> "Superform":
        return Superform(self.rank, self.p, self.q,
                         {k: v * poly for k, v in self.terms.items()})

    def _check(self, other: "Superform"):
        if self.rank != other.rank:
            raise AmbientMismatch("superforms on different ambient spaces")
        if self.terms and other.terms and (self.p, self.q) != (other.p, other.q):
            raise ValueError("bidegrees differ")

    def __repr__(self):
        return (f"Superform({self.p},{self.q}) on R^{self.rank} with "
                f"{len(self.terms)} terms")


def wedge(alpha: Superform, beta: Superform) -> Superform:
    if alpha.rank != beta.rank:
        raise AmbientMismatch("superforms on different ambient spaces")
    rank = alpha.rank
    out: Dict[IndexPair, Poly] = {}
    # d'x_K crosses d''x_J: sign (-1)^{|J||K|}.
    cross = -1 if (alpha.q * beta.p) % 2 else 1
    for (i1, j1), c1 in alpha.terms.items():
        for (i2, j2), c2 in beta.terms.items():
            mi = merge_indices(i1, i2)
            if mi is None:
                continue
            mj = merge_indices(j1, j2)
            if mj is None:
                continue
            sign = cross * mi[0] * mj[0]
            key = (mi[1], mj[1])
            add = (c1 * c2).scale(sign)
            out[key] = out.get(key, Poly(rank)) + add
    return Superform(rank, alpha.p + beta.p, alpha.q + beta.q, out)


def d1(alpha: Superform) -> Superform:
    rank = alpha.rank
    out: Dict[IndexPair, Poly] = {}
    for (i_idx, j_idx), c in alpha.terms.items():
        for i in range(rank):
            dc = c.partial(i)
            if dc.is_zero():
                continue
            ins = insert_index(i, i_idx)
            if ins is None:
                continue
            sign, ni = ins
            key = (ni, j_idx)
            out[key] = out.get(key, Poly(rank)) + dc.scale(sign)
    return Superform(rank, alpha.p + 1, alpha.q, out)


def d2(alpha: Superform) -> Superform:
    rank = alpha.rank
    psign = -1 if alpha.p % 2 else 1
    out: Dict[IndexPair, Poly] = {}
    for (i_idx, j_idx), c in alpha.terms.items():
        for j in range(rank):
            dc = c.partial(j)
            if dc.is_zero():
                continue
            ins = insert_index(j, j_idx)
            if ins is None:
                continue
            sign, nj = ins
            key = (i_idx, nj)
            out[key] = out.get(key, Poly(rank)) + dc.scale(psign * sign)
    return Superform(rank, alpha.p, alpha.q + 1, out)


def j_op(alpha: Superform) -> Superform:
    sign = -1 if (alpha.p * alpha.q) % 2 else 1
    out = {(j_idx, i_idx): c.scale(sign)
           for (i_idx, j_idx), c in alpha.terms.items()}
    return Superform(alpha.rank, alpha.q, alpha.p, out)


def is_symmetric(alpha: Superform) -> bool:
    """Symmetric (p,p)-form: J(alpha) = (-1)^p alpha."""
    if alpha.p != alpha.q and alpha.terms:
        return False
    sign = -1 if alpha.p % 2 else 1
    return j_op(alpha) == alpha.scale(sign)


def _contract_once(alpha: Superform, side: int, slot: int, v: Sequence) -> Superform:
    """Insert v at the given 1-based slot on side 0 (d') or 1 (d'')."""
    deg = alpha.p if side == 0 else alpha.q
    if not 1 <= slot <= deg:
        raise SlotOutOfRange(f"slot {slot} outside bidegree {(alpha.p, alpha.q)}")
    v = vec(v)
    rank = alpha.rank
    out: Dict[IndexPair, Poly] = {}
    for (i_idx, j_idx), c in alpha.terms.items():
        idx = i_idx if side == 0 else j_idx
        for l, which in enumerate(idx):
            coef = v[which]
            if coef == 0:
                continue
            sign = -1 if (l + slot) % 2 == 0 else 1  # (-1)^{(l+1)+slot}
            rest = idx[:l] + idx[l + 1:]
            key = (rest, j_idx) if side == 0 else (i_idx, rest)
            out[key] = out.get(key, Poly(rank)) + c.scale(sign * coef)
    p = alpha.p - (1 - side)
    q = alpha.q - side
    return Superform(rank, p, q, out)


def contract(alpha: Superform,
             d1_slots: Iterable[Tuple[int, Sequence]] = (),
             d2_slots: Iterable[Tuple[int, Sequence]] = ()) -> Superform:
    """Multilinear insertion of vectors into d' and d'' slots.

    Slots are 1-based positions in the original form; insertions are applied
    from the highest position down so earlier slots keep their meaning.
    """
    out = alpha
    for slot, v in sorted(d1_slots, key=lambda sv: -sv[0]):
        out = _contract_once(out, 0, slot, v)
    for slot, v in sorted(d2_slots, key=lambda sv: -sv[0]):
        out = _contract_once(out, 1, slot, v)
    return out


def contract1(alpha: Superform, v: Sequence) -> Superform:
    """<alpha; ((v)_1, empty)>."""
    return _contract_once(alpha, 0, 1, v)


def contract2(alpha: Superform, v: Sequence) -> Superform:
    """<alpha; (empty, (v)_1)>."""
    return _contract_once(alpha, 1, 1, v)


def pullback_form(linear_rows: Sequence[Sequence], translate: Sequence,
                  alpha: Superform, *,
                  source_rank: Optional[int] = None) -> Superform:
    """Pull back along y -> x = A y + t; the form lives on x-space.

    The linear part may be rational: internal transports along affine
    sections use this; the public integral maps wrap it.  y-space has
    source_rank coordinates, by default the length of A's rows; a map out
    of R^k into R^0 has no rows, so it must give source_rank.
    """
    r = alpha.rank
    if len(linear_rows) != r or len(translate) != r:
        raise AmbientMismatch("map target rank != form ambient rank")
    if source_rank is None:
        k = len(linear_rows[0]) if linear_rows else 0
    else:
        k = source_rank
    a = [vec(row) for row in linear_rows]
    out: Dict[IndexPair, Poly] = {}
    minor_cache: Dict[tuple, Fraction] = {}

    def minor(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Fraction:
        key = (rows, cols)
        if key not in minor_cache:
            n = len(rows)
            if n == 0:
                minor_cache[key] = Fraction(1)
            else:
                from .linalg import det
                sub = [[a[rows[x]][cols[y]] for y in range(n)] for x in range(n)]
                minor_cache[key] = det(sub)
        return minor_cache[key]

    for (i_idx, j_idx), c in alpha.terms.items():
        comp = _compose(c, a, translate, k)
        if comp.is_zero():
            continue
        for ti in combinations(range(k), alpha.p):
            fi = minor(i_idx, ti)
            if fi == 0:
                continue
            for tj in combinations(range(k), alpha.q):
                fj = minor(j_idx, tj)
                if fj == 0:
                    continue
                key = (ti, tj)
                out[key] = out.get(key, Poly(k)) + comp.scale(fi * fj)
    return Superform(k, alpha.p, alpha.q, out)


def restrict_to(sigma, alpha: Superform) -> Superform:
    """Restriction to the affine hull of a cell, in its lattice coordinates."""
    if sigma.ambient_rank != alpha.rank:
        raise AmbientMismatch("cell and form live in different spaces")
    origin, basis = sigma.parametrization()
    cols = list(basis)
    rows = [[Fraction(cols[j][i]) for j in range(len(cols))]
            for i in range(sigma.ambient_rank)]
    return pullback_form(rows, origin, alpha)

"""Reference computations made apart from tropcalc, in plain Fraction.

Checks compare the program's outputs with these, or with properties the
method must have; nothing here calls into tropcalc.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

Exponent = Tuple[int, ...]
PolyTerms = Dict[Exponent, Fraction]


def rat_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def box_moment(terms: PolyTerms, lo: Sequence[int], hi: Sequence[int]) -> Fraction:
    """Integral of a polynomial over the box prod [lo_i, hi_i]."""
    total = Fraction(0)
    for exps, coef in terms.items():
        value = Fraction(coef)
        for e, a, b in zip(exps, lo, hi):
            value *= Fraction(b ** (e + 1) - a ** (e + 1), e + 1)
        total += value
    return total


def top_form_sign(k: int) -> int:
    """Sign of d'x_1..d'x_k ^ d''x_1..d''x_k against the volume form
    d'x_1 ^ d''x_1 ^ ... ^ d'x_k ^ d''x_k."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def poly_mul(a: PolyTerms, b: PolyTerms) -> PolyTerms:
    out: PolyTerms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(terms: PolyTerms, rows: Sequence[Sequence[int]],
               shift: Sequence) -> PolyTerms:
    """The polynomial p(R y + s), expanded in y."""
    k = len(rows[0])
    one = tuple(0 for _ in range(k))
    linear = []
    for row, s in zip(rows, shift):
        lin: PolyTerms = {}
        for j, c in enumerate(row):
            if c:
                lin[tuple(int(i == j) for i in range(k))] = Fraction(c)
        if s:
            lin[one] = Fraction(s)
        linear.append(lin)
    out: PolyTerms = {}
    for exps, coef in terms.items():
        mono: PolyTerms = {one: Fraction(coef)}
        for lin, e in zip(linear, exps):
            for _ in range(e):
                mono = poly_mul(mono, lin)
        for e, c in mono.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def integer_inverse_2x2(m):
    """Inverse of a unimodular 2x2 integer matrix."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return ((d * det, -b * det), (-c * det, a * det))


def det2(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def compose_tropical(rows, matrix, translate):
    """Terms of phi o f for phi = max/min of rows (c_1..c_t, c_0) and
    f(x) = M x + t: each row becomes (c M, c.t + c_0)."""
    out = []
    for row in rows:
        lin = row[:-1]
        new_lin = [sum(lin[i] * matrix[i][j] for i in range(len(matrix)))
                   for j in range(len(matrix[0]))]
        const = sum(Fraction(lin[i]) * Fraction(translate[i])
                    for i in range(len(matrix))) + Fraction(row[-1])
        out.append(new_lin + [const])
    return out


def weights(form):
    """Constant weights of the cells of a 0-cycle.

    Reads the cells and coefficient dictionaries directly, so it does not
    depend on tropcalc's own degree function.
    """
    out = []
    for cell, coeff in form.cells:
        if cell.dim != 0:
            raise ValueError("not a 0-cycle")
        terms = coeff.terms
        if set(terms) != {((), ())}:
            raise ValueError("coefficient is not a weight")
        poly = terms[((), ())].terms
        if any(any(e) for e in poly):
            raise ValueError("weight is not constant")
        out.append(sum(poly.values(), Fraction(0)))
    return out


def cycle_degree(form) -> Fraction:
    """Total weight of a 0-cycle."""
    return sum(weights(form), Fraction(0))

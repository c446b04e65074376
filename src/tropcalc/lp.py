"""Exact rational linear programming by tableau simplex with Bland's rule.

Solves max c.x subject to A.x <= b and E.x = f with free variables.  Free
variables are split into differences of nonnegative ones; equalities become
inequality pairs; a single artificial variable gives the phase-1 start.
Bland's rule guarantees termination without tolerances.  Infeasibility comes
with a Farkas certificate: y >= 0 with y.A = 0 and y.b < 0 over the combined
inequality rows; an optimum with its dual: y >= 0 with y.A = c and
y.b = c.x for the maximized c.  lp_max_slack, max t <= 1 with
a.x + t <= b, is the one LP that canonicalises polyhedra.

The simplex runs on Python ints, fraction-free (Bareiss 1968; Avis, lrs).
Each rational row is scaled by the lcm of its denominators, which only
rescales that row's slack variable, so the pivots are the ones the rational
tableau takes.  The tableau holds the rational tableau as ``t / d`` over one
denominator d > 0 shared with the objective row, and a pivot on entry p is
the exact integer update ``(x*p - f*y) // d`` followed by ``d = p``.  Inputs
and results stay Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, InternalError
from .linalg import Vec, vec

Constraint = Tuple[Sequence, object]  # (normal vector, offset): a.x <= b or a.x = b


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Optional[Vec] = None
    value: Optional[Fraction] = None
    farkas: Optional[Vec] = None  # multipliers over the expanded <= rows
    dual: Optional[Vec] = None  # optimal multipliers over the same rows


_ZERO = Fraction(0)


def _check_rank(constraints, rank_: int):
    for a, _ in constraints:
        if len(a) != rank_:
            raise DimensionMismatch(
                f"constraint normal of length {len(a)} in ambient rank {rank_}")


def _integral(values: Sequence) -> Tuple[List[int], int]:
    """Rational values times the lcm s > 0 of their denominators, and s."""
    if not all(type(x) is int or type(x) is Fraction for x in values):
        values = vec(values)
    s = lcm(*(x.denominator for x in values))
    return [x.numerator * (s // x.denominator) for x in values], s


class _Tableau:
    """Fraction-free simplex tableau for max-form LPs with rows A z <= b, z >= 0.

    The rational tableau is ``t / d`` and the rational reduced costs are
    ``obj / d``.  Every basic column reads d in its row and 0 elsewhere, and 0
    in ``obj``; d is the absolute determinant of the basis, which makes every
    division in :meth:`pivot` exact.
    """

    def __init__(self, rows: List[List[int]], rhs: List[int], nvars: int):
        self.m = len(rows)
        self.n = nvars
        # Columns: structural vars, then slacks.  Row i gets slack n + i.
        slacks = [0] * self.m
        self.t = [row + slacks + [b] for row, b in zip(rows, rhs)]
        for i, row in enumerate(self.t):
            row[self.n + i] = 1
        self.d = 1
        self.basis = [self.n + i for i in range(self.m)]
        self.obj = [0] * (self.n + self.m + 1)

    def set_objective(self, coeffs: Sequence[int]):
        """Maximize coeffs.z: obj = d*c - sum over rows of c[basis_i] * t_i."""
        d = self.d
        self.obj = [d * c for c in coeffs] + [0] * (self.n + self.m + 1 - len(coeffs))
        for i, bv in enumerate(self.basis):
            f = coeffs[bv] if bv < len(coeffs) else 0
            if f:
                self.obj = [x - f * y for x, y in zip(self.obj, self.t[i])]

    def pivot(self, row: int, col: int):
        pr = self.t[row]
        p = pr[col]
        if p < 0:
            # Rational row pr/p equals (-pr)/(-p); keep the denominator positive.
            pr = self.t[row] = [-x for x in pr]
            p = -p
        d = self.d
        for i in range(self.m):
            if i != row:
                self.t[i] = self._eliminate(self.t[i], pr, col, p, d)
        self.obj = self._eliminate(self.obj, pr, col, p, d)
        self.d = p
        self.basis[row] = col

    @staticmethod
    def _eliminate(x_row: List[int], pr: List[int], col: int, p: int,
                   d: int) -> List[int]:
        f = x_row[col]
        if f == 0:
            if p == d:
                return x_row
            return [x * p // d for x in x_row]
        if d == 1:
            return [x * p - f * y for x, y in zip(x_row, pr)]
        return [(x * p - f * y) // d for x, y in zip(x_row, pr)]

    def optimize(self) -> str:
        ncols = self.n + self.m
        t = self.t
        basis = self.basis
        while True:
            obj = self.obj
            col = next((j for j in range(ncols) if obj[j] > 0), None)
            if col is None:
                return "optimal"
            # Ratio test on t[i][-1] / t[i][col] by cross-multiplication; the
            # denominators are positive.
            row = None
            num = den = 0
            for i in range(self.m):
                a = t[i][col]
                if a > 0:
                    b = t[i][-1]
                    if row is None:
                        row, num, den = i, b, a
                        continue
                    lhs, rhs = b * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                        row, num, den = i, b, a
            if row is None:
                return "unbounded"
            self.pivot(row, col)

    def point(self, rank_: int) -> List[int]:
        """d * x for x = u - w, from the basic values of the split u and w."""
        z = [0] * (2 * rank_)
        for i, bv in enumerate(self.basis):
            if bv < 2 * rank_:
                z[bv] = self.t[i][-1]
        return [z[i] - z[rank_ + i] for i in range(rank_)]


def solve_lp(ineqs: Sequence[Constraint], eqs: Sequence[Constraint],
             objective: Optional[Sequence], rank_: int,
             maximize: bool = True) -> LPResult:
    """Solve max/min objective.x over {ineqs, eqs} with free variables."""
    _check_rank(list(ineqs) + list(eqs), rank_)
    rows: List[List[int]] = []
    rhs: List[int] = []
    bounds: List[Fraction] = []  # the rational offsets b
    scales: List[int] = []  # row i of the tableau is scales[i] * (a, b)

    def add_le(ints, s, b):
        normal = ints[:-1]
        # x = u - w with u, w >= 0, then the artificial column (see below).
        rows.append(normal + [-x for x in normal] + [-s])
        rhs.append(ints[-1])
        bounds.append(b)
        scales.append(s)

    for constraints, pair in ((ineqs, False), (eqs, True)):
        for a, b in constraints:
            if type(b) is not int and type(b) is not Fraction:
                b = Fraction(b)
            ints, s = _integral((*a, b))
            add_le(ints, s, b)
            if pair:
                add_le([-x for x in ints], s, -b)
    nstruct = 2 * rank_
    m = len(rows)

    # Phase 1: the artificial column t has coefficient -1 in every row and we
    # minimize t.  Column index nstruct is t; slacks follow.
    tab = _Tableau(rows, rhs, nstruct + 1)
    tab.set_objective([0] * nstruct + [-1])  # max -t
    neg = min(range(m), key=lambda i: bounds[i], default=None)
    if m and bounds[neg] < 0:
        tab.pivot(neg, nstruct)
        if tab.optimize() != "optimal":
            raise InternalError("phase 1 is unbounded despite -t <= 0")
    def duals(s: int = 1) -> Vec:
        # The negated reduced costs on the slack columns.  Scaling row i by
        # scales[i] and the objective by s scaled the dual of row i by s /
        # scales[i].
        obj = tab.obj
        return tuple(Fraction(-obj[nstruct + 1 + i] * scales[i], tab.d * s)
                     if obj[nstruct + 1 + i] else _ZERO for i in range(m))

    if m and tab.obj[-1] != 0:
        return LPResult(status="infeasible", farkas=duals())

    # Pivot the artificial variable out of the basis if it lingers at zero.
    if m and nstruct in tab.basis:
        i = tab.basis.index(nstruct)
        col = next((j for j in range(nstruct + 1 + m)
                    if j != nstruct and tab.t[i][j] != 0), None)
        if col is not None:
            tab.pivot(i, col)
        # Otherwise the row is identically zero and stays inert.

    # Phase 2: freeze t at zero by dropping its column from consideration.
    for row in tab.t:
        row[nstruct] = 0
    if objective is None:
        return LPResult(status="optimal",
                        point=tuple(Fraction(x, tab.d) for x in tab.point(rank_)))
    objv = tuple(objective)
    if len(objv) != rank_:
        raise DimensionMismatch("objective length != ambient rank")
    sign = 1 if maximize else -1
    # c = s * objective with s > 0 has the same pivots and optimum.
    c, s = _integral(objv)
    tab.set_objective([sign * x for x in c] + [-sign * x for x in c])
    status = tab.optimize()
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = tab.point(rank_)
    point = tuple(Fraction(v, tab.d) for v in x)
    value = Fraction(sum(ci * v for ci, v in zip(c, x)), s * tab.d)
    return LPResult(status="optimal", point=point, value=value, dual=duals(s))


def lp_feasible(ineqs: Sequence[Constraint], eqs: Sequence[Constraint],
                rank_: int) -> LPResult:
    """Feasibility: a witness point, or a Farkas certificate of emptiness."""
    return solve_lp(ineqs, eqs, None, rank_)


def lp_maximize(ineqs: Sequence[Constraint], eqs: Sequence[Constraint],
                objective: Sequence, rank_: int) -> LPResult:
    return solve_lp(ineqs, eqs, objective, rank_, maximize=True)


def lp_max_slack(ineqs: Sequence[Constraint], eqs: Sequence[Constraint],
                 rank_: int) -> LPResult:
    """Max t <= 1 subject to a.x + t <= b on every inequality and E.x = f,
    over (x, t): value is t, point is (x, t), and the dual starts with one
    multiplier per inequality.  Infeasible exactly when the equalities are.
    """
    zeros = (0,) * rank_
    ext = [(tuple(a) + (1,), b) for a, b in ineqs]
    ext.append((zeros + (1,), 1))
    ext_eqs = [(tuple(a) + (0,), b) for a, b in eqs]
    return solve_lp(ext, ext_eqs, zeros + (1,), rank_ + 1)

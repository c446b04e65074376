import random
from fractions import Fraction

import pytest

from tropcalc.errors import DimensionMismatch
from tropcalc.linalg import vec
from tropcalc.lp import (LPResult, lp_feasible, lp_max_slack, lp_maximize,
                         solve_lp)


# -- reference: the rational tableau simplex the integer one replaced -------
# Same Bland's rule, phase 1, Farkas and dual read-off, over Fraction
# throughout.
# The fraction-free solver must take the same pivots and so return the same
# LPResult, certificate included.

class _FractionTableau:
    def __init__(self, rows, rhs, nvars):
        self.m = len(rows)
        self.n = nvars
        self.t = [row[:] + [Fraction(int(i == j)) for j in range(self.m)] + [rhs[i]]
                  for i, row in enumerate(rows)]
        self.basis = [self.n + i for i in range(self.m)]
        self.obj = [Fraction(0)] * (self.n + self.m + 1)

    def set_objective(self, coeffs):
        self.obj = [Fraction(c) for c in coeffs] + \
            [Fraction(0)] * (self.n + self.m + 1 - len(coeffs))
        for i, bv in enumerate(self.basis):
            if self.obj[bv] != 0:
                f = self.obj[bv]
                self.obj = [x - f * y for x, y in zip(self.obj, self.t[i])]

    def pivot(self, row, col):
        inv = 1 / self.t[row][col]
        self.t[row] = [x * inv for x in self.t[row]]
        for i in range(self.m):
            if i != row and self.t[i][col] != 0:
                f = self.t[i][col]
                self.t[i] = [x - f * y for x, y in zip(self.t[i], self.t[row])]
        if self.obj[col] != 0:
            f = self.obj[col]
            self.obj = [x - f * y for x, y in zip(self.obj, self.t[row])]
        self.basis[row] = col

    def optimize(self):
        ncols = self.n + self.m
        while True:
            col = next((j for j in range(ncols) if self.obj[j] > 0), None)
            if col is None:
                return "optimal"
            row = None
            best = None
            for i in range(self.m):
                if self.t[i][col] > 0:
                    ratio = self.t[i][-1] / self.t[i][col]
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[i] < self.basis[row]):
                        best = ratio
                        row = i
            if row is None:
                return "unbounded"
            self.pivot(row, col)

    def solution(self):
        x = [Fraction(0)] * (self.n + self.m)
        for i, bv in enumerate(self.basis):
            x[bv] = self.t[i][-1]
        return x


def oracle_solve_lp(ineqs, eqs, objective, rank_, maximize=True):
    rows = []
    rhs = []

    def add_le(a, b):
        av = vec(a)
        rows.append([x for x in av] + [-x for x in av])
        rhs.append(Fraction(b))

    for a, b in ineqs:
        add_le(a, b)
    for a, b in eqs:
        add_le(a, b)
        add_le([-x for x in a], -Fraction(b))
    nstruct = 2 * rank_
    m = len(rows)
    p1_rows = [row[:] + [Fraction(-1)] for row in rows]
    tab = _FractionTableau(p1_rows, rhs, nstruct + 1)
    tab.set_objective([Fraction(0)] * nstruct + [Fraction(-1)])
    neg = min(range(m), key=lambda i: rhs[i], default=None)
    if m and rhs[neg] < 0:
        tab.pivot(neg, nstruct)
        status = tab.optimize()
        assert status == "optimal"
    if m and -tab.obj[-1] != 0:
        y = tuple(-tab.obj[nstruct + 1 + i] for i in range(m))
        return LPResult(status="infeasible", farkas=y)
    if m and nstruct in tab.basis:
        i = tab.basis.index(nstruct)
        col = next((j for j in range(nstruct + 1 + m)
                    if j != nstruct and tab.t[i][j] != 0), None)
        if col is not None:
            tab.pivot(i, col)
    for row in tab.t:
        row[nstruct] = Fraction(0)
    if objective is None:
        sol = tab.solution()
        point = tuple(sol[i] - sol[rank_ + i] for i in range(rank_))
        return LPResult(status="optimal", point=point)
    objv = vec(objective)
    sign = 1 if maximize else -1
    tab.set_objective([sign * x for x in objv] + [-sign * x for x in objv])
    status = tab.optimize()
    if status == "unbounded":
        return LPResult(status="unbounded")
    sol = tab.solution()
    point = tuple(sol[i] - sol[rank_ + i] for i in range(rank_))
    value = sum((c * x for c, x in zip(objv, point)), Fraction(0))
    y = tuple(-tab.obj[nstruct + 1 + i] for i in range(m))
    return LPResult(status="optimal", point=point, value=value, dual=y)


def satisfies(point, ineqs, eqs):
    for a, b in ineqs:
        if sum(Fraction(x) * p for x, p in zip(a, point)) > Fraction(b):
            return False
    for a, b in eqs:
        if sum(Fraction(x) * p for x, p in zip(a, point)) != Fraction(b):
            return False
    return True


def expanded_rows(ineqs, eqs):
    """The ineqs, then each equality as a <= pair, as the solver sees them."""
    rows = [(list(a), Fraction(b)) for a, b in ineqs]
    for a, b in eqs:
        rows.append((list(a), Fraction(b)))
        rows.append(([-x for x in a], -Fraction(b)))
    return rows


def check_farkas(res, ineqs, eqs, rank_):
    rows = expanded_rows(ineqs, eqs)
    y = res.farkas
    assert y is not None and len(y) == len(rows)
    assert all(v >= 0 for v in y)
    combo = [sum(y[i] * Fraction(rows[i][0][j]) for i in range(len(rows)))
             for j in range(rank_)]
    assert all(c == 0 for c in combo)
    assert sum(y[i] * rows[i][1] for i in range(len(rows))) < 0


def test_interval_feasible():
    ineqs = [((-1,), 0), ((1,), 1)]
    res = lp_feasible(ineqs, [], 1)
    assert res.status == "optimal"
    assert satisfies(res.point, ineqs, [])


def test_empty_interval_farkas():
    ineqs = [((-1,), -1), ((1,), 0)]  # x >= 1, x <= 0
    res = lp_feasible(ineqs, [], 1)
    assert res.status == "infeasible"
    check_farkas(res, ineqs, [], 1)


def test_infeasible_with_equality():
    ineqs = [((-1, 0), 0), ((0, -1), 0), ((-1, 0), -2)]  # x>=0, y>=0, x>=2
    eqs = [((1, 1), 1)]
    res = lp_feasible(ineqs, eqs, 2)
    assert res.status == "infeasible"
    check_farkas(res, ineqs, eqs, 2)


def test_optimize_simplex():
    ineqs = [((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
    res = lp_maximize(ineqs, [], (2, 3), 2)
    assert res.status == "optimal"
    assert res.value == 3
    res = lp_maximize(ineqs, [], (1, 1), 2)
    assert res.value == 1


def test_unbounded():
    res = lp_maximize([((-1,), 0)], [], (1,), 1)
    assert res.status == "unbounded"


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_feasible([((1, 2), 0)], [], 1)


def test_random_feasibility_agrees_with_vertex_scan():
    rng = random.Random(5)
    for _ in range(60):
        r = rng.randint(1, 3)
        ineqs = [(tuple(rng.randint(-2, 2) for _ in range(r)), rng.randint(-2, 2))
                 for _ in range(rng.randint(1, 5))]
        eqs = [(tuple(rng.randint(-2, 2) for _ in range(r)), rng.randint(-1, 1))
               for _ in range(rng.randint(0, 1))]
        res = lp_feasible(ineqs, eqs, r)
        if res.status == "optimal":
            assert satisfies(res.point, ineqs, eqs)
        else:
            check_farkas(res, ineqs, eqs, r)


def test_random_optimization_value_is_extreme():
    rng = random.Random(9)
    for _ in range(40):
        r = rng.randint(1, 3)
        # Box plus random cuts keeps the region bounded.
        ineqs = [tuple((int(i == j) for j in range(r)), ) for i in range(r)]
        ineqs = [(tuple(int(i == j) for j in range(r)), 3) for i in range(r)]
        ineqs += [(tuple(-int(i == j) for j in range(r)), 3) for i in range(r)]
        ineqs += [(tuple(rng.randint(-2, 2) for _ in range(r)), rng.randint(0, 3))
                  for _ in range(rng.randint(0, 3))]
        obj = tuple(rng.randint(-3, 3) for _ in range(r))
        res = lp_maximize(ineqs, [], obj, r)
        if res.status != "optimal":
            assert res.status == "infeasible"
            continue
        assert satisfies(res.point, ineqs, [])
        # Sample random feasible points; none may beat the optimum.
        for _ in range(20):
            cand = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(r))
            if satisfies(cand, ineqs, []):
                assert sum(o * c for o, c in zip(obj, cand)) <= res.value


def _random_scalar(rng):
    """Mostly small integers, sometimes a rational with a small denominator."""
    if rng.random() < 0.3:
        return Fraction(rng.randint(-7, 7), rng.randint(1, 6))
    return Fraction(rng.randint(-3, 3))


def _random_lp(rng):
    r = rng.randint(1, 4)
    ineqs = [(tuple(_random_scalar(rng) for _ in range(r)), _random_scalar(rng))
             for _ in range(rng.randint(0, 2 * r + 2))]
    if rng.random() < 0.5:
        # A box keeps many of the LPs bounded, so optima get compared too.
        for i in range(r):
            e = tuple(Fraction(int(i == j)) for j in range(r))
            ineqs.append((e, Fraction(rng.randint(0, 4))))
            ineqs.append((tuple(-x for x in e), Fraction(rng.randint(0, 4))))
        rng.shuffle(ineqs)
    eqs = [(tuple(_random_scalar(rng) for _ in range(r)), _random_scalar(rng))
           for _ in range(rng.choice([0, 0, 1, 2]))]
    objective = (None if rng.random() < 0.3
                 else tuple(_random_scalar(rng) for _ in range(r)))
    return ineqs, eqs, objective, r, rng.random() < 0.7


def test_integer_tableau_matches_rational_reference():
    rng = random.Random(2024)
    statuses = {}
    for _ in range(2000):
        ineqs, eqs, objective, r, maximize = _random_lp(rng)
        got = solve_lp(ineqs, eqs, objective, r, maximize)
        want = oracle_solve_lp(ineqs, eqs, objective, r, maximize)
        assert got == want, (ineqs, eqs, objective, r, maximize)
        key = (got.status, objective is not None, bool(eqs))
        statuses[key] = statuses.get(key, 0) + 1
    # The corpus reaches every outcome, with and without objective and
    # equalities.
    for status in ("optimal", "infeasible"):
        for has_obj in (False, True):
            for has_eqs in (False, True):
                assert statuses.get((status, has_obj, has_eqs), 0) >= 20
    for has_eqs in (False, True):
        assert statuses.get(("unbounded", True, has_eqs), 0) >= 20


def test_beale_cycling_example_terminates():
    # Beale (1955): the textbook rule with largest-coefficient entry cycles
    # on it; Bland's rule must not.  max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4.
    q = Fraction
    ineqs = [((q(1, 4), -8, -1, 9), 0),
             ((q(1, 2), -12, q(-1, 2), 3), 0),
             ((0, 0, 1, 0), 1)]
    ineqs += [(tuple(-int(i == j) for j in range(4)), 0) for i in range(4)]
    res = lp_maximize(ineqs, [], (q(3, 4), -20, q(1, 2), -6), 4)
    assert res.status == "optimal"
    assert res.value == q(5, 4)
    assert satisfies(res.point, ineqs, [])
    assert res == oracle_solve_lp(ineqs, [], (q(3, 4), -20, q(1, 2), -6), 4)


def test_farkas_with_rational_rows():
    q = Fraction
    # x/2 + y/3 <= 1/5 with x >= 1, y >= 0, and x - y/7 = 4/3.
    ineqs = [((q(1, 2), q(1, 3)), q(1, 5)), ((-1, 0), -1), ((0, -1), 0)]
    eqs = [((1, q(-1, 7)), q(4, 3))]
    res = lp_feasible(ineqs, eqs, 2)
    assert res.status == "infeasible"
    check_farkas(res, ineqs, eqs, 2)
    assert res == oracle_solve_lp(ineqs, eqs, None, 2)


def test_dual_certifies_optimum():
    # Weak duality makes y >= 0, y.A = c and y.b = c.x a proof of
    # optimality; c is the objective when maximizing and its negation when
    # minimizing.
    rng = random.Random(77)
    checked = {True: 0, False: 0}
    for _ in range(1000):
        ineqs, eqs, objective, r, maximize = _random_lp(rng)
        if objective is None:
            continue
        res = solve_lp(ineqs, eqs, objective, r, maximize)
        if res.status != "optimal":
            assert res.dual is None
            continue
        sign = 1 if maximize else -1
        rows = expanded_rows(ineqs, eqs)
        y = res.dual
        assert len(y) == len(rows) and all(v >= 0 for v in y)
        for j in range(r):
            assert sum(y[i] * Fraction(rows[i][0][j])
                       for i in range(len(rows))) == sign * Fraction(objective[j])
        assert sum(y[i] * rows[i][1] for i in range(len(rows))) == \
            sign * res.value
        checked[maximize] += 1
    assert checked[True] >= 150 and checked[False] >= 60


def test_max_slack():
    # 0 <= x <= 1: the slack reaches 1/2 at the midpoint.
    res = lp_max_slack([((1,), 1), ((-1,), 0)], [], 1)
    assert res.value == Fraction(1, 2) and res.point == (Fraction(1, 2),) * 2
    # An open box hits the cap t <= 1.
    res = lp_max_slack([((1, 0), 5), ((-1, 0), 5)], [], 2)
    assert res.value == 1
    # x <= 0 <= x: t* = 0, and the multipliers sit on the two tight rows.
    res = lp_max_slack([((1,), 0), ((-1,), 0), ((1,), 3)], [], 1)
    assert res.value == 0
    assert res.dual[:3] == (Fraction(1, 2), Fraction(1, 2), 0)
    # x >= 1 and x <= 0: t* < 0.
    assert lp_max_slack([((-1,), -1), ((1,), 0)], [], 1).value < 0
    # Inconsistent equalities make the LP infeasible.
    res = lp_max_slack([((1,), 0)], [((1,), 0), ((1,), 1)], 1)
    assert res.status == "infeasible"

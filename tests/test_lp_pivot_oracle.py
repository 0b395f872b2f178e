"""Differential oracle for the simplex pivot.

``dense_pivot`` and ``dense_maximum`` are the dense routines the sparse
``lp._pivot`` replaced, kept verbatim.  Every scenario runs once with a
recorder around the oracle and once with a recorder around the shipped
pivot; the two must pivot on the same (row, col) sequence and leave the
same tableau and cost row after every pivot, entry for entry.  Since the
Bland choices read only those entries, this pins the pivot path, and with
it every vertex and tie-break, to the dense solver's.
"""

import random
from fractions import Fraction as F

import pytest

from relaxround import (FinalTableau, Polytope, UnboundedError,
                        build_relaxation, make_gap_toy, profile_for,
                        residual_maximum, solve_relaxation)
from relaxround import lp

ZERO = F(0)
ONE = F(1)
SHIPPED_PIVOT = lp._pivot


def dense_pivot(tableau, cost, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    prow = tableau[row]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            f = other[col]
            tableau[i] = [a - f * b for a, b in zip(other, prow)]
    if cost[col] != 0:
        f = cost[col]
        for j in range(len(cost)):
            cost[j] -= f * prow[j]


def dense_maximum(final, objective):
    """``FinalTableau.maximum`` with the dense pricing-out loop."""
    n = len(final.objective)
    delta = [new - old for new, old in zip(objective, final.objective)]
    cost = [c + d for c, d in zip(final.cost, delta)] + list(final.cost[n:])
    for row, b in zip(final.rows, final.basis):
        f = delta[b] if b < n else ZERO
        if f != 0:
            cost = [c - f * a for c, a in zip(cost, row)]
    lp._bland_loop(list(final.rows), cost, list(final.basis),
                   n + len(final.rows))
    return -cost[-1]


def dense_solve_square(rows, rhs):
    """The Gauss-Jordan loop ``_solve_square`` had before it used _pivot."""
    n = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][-1] for i in range(n)]


def recorded(monkeypatch, pivot, scenario):
    """Run scenario with lp._pivot = pivot; return its result and the log."""
    log = []

    def recorder(tableau, cost, row, col):
        pivot(tableau, cost, row, col)
        log.append((row, col, [list(r) for r in tableau], list(cost)))

    monkeypatch.setattr(lp, "_pivot", recorder)
    try:
        result = scenario()
    except UnboundedError:
        result = "unbounded"
    monkeypatch.setattr(lp, "_pivot", SHIPPED_PIVOT)
    return result, log


def assert_same_path(monkeypatch, scenario, oracle=None):
    """Oracle and shipped pivot agree on every pivot; returns the result.

    ``oracle`` runs under the dense pivot in place of ``scenario`` where
    the parent code path differs by more than the pivot.
    """
    want, want_log = recorded(monkeypatch, dense_pivot, oracle or scenario)
    got, got_log = recorded(monkeypatch, SHIPPED_PIVOT, scenario)
    assert [(r, c) for r, c, _, _ in got_log] == \
        [(r, c) for r, c, _, _ in want_log]
    for step, (mine, theirs) in enumerate(zip(got_log, want_log)):
        assert mine[2] == theirs[2], f"tableau differs after pivot {step}"
        assert mine[3] == theirs[3], f"cost row differs after pivot {step}"
    assert got == want
    return got, len(got_log)


def random_packing_lp(rng):
    """Small packing LP with zero bounds, zero columns and tied costs."""
    n = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = tuple(F(rng.choice([0, 0, 1, 2, 3]), rng.randint(1, 3))
                       for _ in range(n))
        rows.append((coeffs, F(rng.choice([0, 0, 1, 2, 5]), rng.randint(1, 2))))
    if rng.random() < 0.8:  # otherwise some direction may be unbounded
        for i in range(n):
            rows.append((tuple(ONE if j == i else ZERO for j in range(n)),
                         F(rng.randint(0, 3))))
    objective = [F(rng.choice([0, 1, 1, 2, 2, 3]), rng.choice([1, 2]))
                 for _ in range(n)]
    return Polytope(n, tuple(rows)), objective


def test_random_packing_lps_and_warm_maxima(monkeypatch):
    rng = random.Random(3)
    outcomes = {"unbounded": 0, "degenerate": 0, "tied": 0, "warm": 0}
    for _ in range(240):
        poly, objective = random_packing_lp(rng)
        if any(b == 0 for _, b in poly.constraints):
            outcomes["degenerate"] += 1
        if len(set(objective)) < len(objective):
            outcomes["tied"] += 1
        final = FinalTableau()
        result, _ = assert_same_path(
            monkeypatch, lambda: lp.maximize_linear(objective, poly, final))
        if result == "unbounded":
            outcomes["unbounded"] += 1
            continue
        # A cost change as the payment rule makes one (zero some entries),
        # and an arbitrary one.  Both resume from the same recorded
        # tableau, so they also check that re-optimizing leaves it intact.
        zeroed = [ZERO if rng.random() < 0.5 else c for c in objective]
        other = [F(rng.randint(0, 4)) for _ in objective]
        for changed in (zeroed, other):
            got, _ = assert_same_path(
                monkeypatch, lambda: final.maximum(changed),
                oracle=lambda: dense_maximum(final, changed))
            if got != "unbounded":
                assert got == lp.maximize_linear(changed, poly)[1]
            outcomes["warm"] += 1
    assert all(count > 0 for count in outcomes.values()), outcomes


def test_gap_toy_segment_expanded_lp_and_residuals(monkeypatch):
    instance = make_gap_toy(3, 2)
    for bids in ([F(5), F(3), F(4)], [F(4), F(3), F(5)],
                 [F(7, 2), F(0), F(7, 2)]):
        profile = profile_for(instance, bids)
        objective, poly = build_relaxation(instance, profile)

        def scenario():
            final = FinalTableau()
            point = solve_relaxation(objective, poly, final)
            residuals = [residual_maximum(objective, k, final)
                         for k in range(instance.n)]
            return point, residuals

        _, pivots = assert_same_path(monkeypatch, scenario)
        assert pivots > 50


def random_equalities(rng):
    k = rng.randint(1, 4)
    n = rng.randint(1, 5)
    return [(tuple(F(rng.randint(-2, 3)) for _ in range(n)),
             F(rng.randint(-3, 3))) for _ in range(k)], n


def test_phase_one_with_negative_right_hand_sides(monkeypatch):
    rng = random.Random(11)
    feasible = infeasible = negative = 0
    for _ in range(200):
        equalities, n = random_equalities(rng)
        negative += any(d < 0 for _, d in equalities)
        (solution, residual), _ = assert_same_path(
            monkeypatch, lambda: lp.phase_one(equalities, n))
        if solution is None:
            infeasible += 1
            assert residual > 0
        else:
            feasible += 1
            for coeffs, d in equalities:
                assert sum(c * x for c, x in zip(coeffs, solution)) == d
    assert feasible and infeasible and negative


def test_phase_one_infeasible_system(monkeypatch):
    # x0 + x1 = -1 has no nonnegative solution; the residual is exact.
    (solution, residual), _ = assert_same_path(
        monkeypatch, lambda: lp.phase_one([((ONE, ONE), F(-1))], 2))
    assert solution is None and residual == 1


@pytest.mark.parametrize("rows, rhs, singular", [
    ([[F(2), F(1)], [F(1), F(3)]], [F(3), F(5)], False),
    ([[F(0), F(1)], [F(1), F(0)]], [F(4), F(7)], False),   # needs a swap
    ([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)], True),
    ([[F(0), F(0)], [F(1), F(1)]], [F(0), F(1)], True),
])
def test_solve_square_known_systems(monkeypatch, rows, rhs, singular):
    got, _ = assert_same_path(monkeypatch, lambda: lp._solve_square(rows, rhs))
    assert got == dense_solve_square(rows, rhs)
    assert (got is None) == singular


def test_solve_square_random_systems(monkeypatch):
    rng = random.Random(5)
    singular = nonsingular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[F(rng.choice([0, 0, 0, 1, 2, -1]), rng.randint(1, 2))
                 for _ in range(n)] for _ in range(n)]
        rhs = [F(rng.randint(-2, 2)) for _ in range(n)]
        got, _ = assert_same_path(monkeypatch,
                                  lambda: lp._solve_square(rows, rhs))
        assert got == dense_solve_square(rows, rhs)
        if got is None:
            singular += 1
        else:
            nonsingular += 1
    assert singular and nonsingular

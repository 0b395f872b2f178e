"""Differential oracles for the simplex core.

Two oracles, each kept from the code it checks:

* ``dense_pivot`` is the dense pivot that the sparse ``lp._pivot``
  replaced, taking the same price-row update.  ``assert_same_path`` runs a
  scenario once under each; the two must pivot on the same (row, col)
  sequence and leave the same tableau and price row after every pivot,
  entry for entry.
* ``explicit_lp`` with ``_bland_loop`` and ``maximize_linear`` below is
  the solver that the bounded-variable loop replaced, verbatim but for its
  warm restart, which is gone from both: one LP column per curve segment,
  plus one explicit unit row per capped column.  ``lp.maximize_linear``
  with a column map must walk the same bases in the same order, as read in
  that LP's numbering, and reach the same vertex and value, for the main
  costs and for each residual cost vector's cold solve.
"""

import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from typing import Optional, Sequence

import pytest

from relaxround import (FamilySpec, FractionalPoint, Instance, LPInputError,
                        Polytope, RelaxedObjective, UnboundedError,
                        build_relaxation, make_gap_toy, profile_for,
                        residual_maxima, residual_objective, solve_relaxation)
from relaxround import lp, relaxation
from relaxround.families import GAP_TOY, unit_gap_curve

ZERO = F(0)
ONE = F(1)
SHIPPED_PIVOT = lp._pivot
ORACLE = sys.modules[__name__]


def dense_pivot(tableau, prices, row, col, excess):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    prow = tableau[row]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            f = other[col]
            tableau[i] = [a - f * b for a, b in zip(other, prow)]
    if excess != 0:
        for j in range(len(prices)):
            prices[j] -= excess * prow[j]


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


# --- The explicit-cap-row solver, verbatim -------------------------------

def explicit_lp(poly, col_var, col_cap):
    """The LP over one column per entry of col_var, with unit cap rows."""
    ncols = len(col_var)
    rows = []
    for coeffs, bound in poly.constraints:
        rows.append((tuple(coeffs[col_var[c]] for c in range(ncols)), bound))
    for c in range(ncols):
        if col_cap[c] is None:  # an uncapped column gets no cap row
            continue
        unit = tuple(ONE if j == c else ZERO for j in range(ncols))
        rows.append((unit, col_cap[c]))
    return Polytope(ncols, tuple(rows))


def _minus(target: list[Fraction], f: Fraction, prow: list[Fraction],
           nonzero: list[int]) -> list[Fraction]:
    """A new list target - f * prow, where prow is zero off ``nonzero``."""
    out = list(target)
    for j in nonzero:
        out[j] -= f * prow[j]
    return out


def _pivot(tableau: list[list[Fraction]], cost: list[Fraction],
           row: int, col: int) -> None:
    # Rows are replaced, never mutated, so a FinalTableau's rows stay as
    # recorded.  Since a - f * 0 == a and 0 / p == 0 exactly, skipping the
    # pivot row's zeros changes no entry.
    piv = tableau[row][col]
    prow = list(tableau[row])
    nonzero = [j for j, v in enumerate(prow) if v]
    for j in nonzero:
        prow[j] /= piv
    tableau[row] = prow
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            tableau[i] = _minus(other, other[col], prow, nonzero)
    if cost[col]:
        cost[:] = _minus(cost, cost[col], prow, nonzero)


def _bland_loop(tableau: list[list[Fraction]], cost: list[Fraction],
                basis: list[int], num_cols: int) -> None:
    """Run primal simplex to optimality; raises UnboundedError."""
    while True:
        enter = next((j for j in range(num_cols) if cost[j] > 0), None)
        if enter is None:
            return
        leave = None
        best: Optional[Fraction] = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedError("objective is unbounded in the entering "
                                 f"direction of variable {enter}")
        _pivot(tableau, cost, leave, enter)
        basis[leave] = enter


def maximize_linear(objective: Sequence[Fraction], poly: Polytope
                    ) -> tuple[FractionalPoint, Fraction]:
    """Maximize c.x over the polytope; returns an exact optimal vertex
    and its value.

    Ties are resolved by Bland's rule (lowest-index entering variable),
    which also guarantees termination.
    """
    n = poly.num_vars
    if len(objective) != n:
        raise LPInputError(f"objective has length {len(objective)}, "
                           f"expected {n}")
    rows = poly.constraints
    k = len(rows)
    tableau: list[list[Fraction]] = []
    for i, (coeffs, bound) in enumerate(rows):
        row = list(coeffs) + [ZERO] * k + [bound]
        row[n + i] = ONE
        tableau.append(row)
    cost = list(objective) + [ZERO] * (k + 1)
    basis = list(range(n, n + k))
    _bland_loop(tableau, cost, basis, n + k)
    coords = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            coords[b] = tableau[i][-1]
    point = FractionalPoint(tuple(coords))
    value = sum((c * v for c, v in zip(objective, coords)), ZERO)
    return point, value


SHIPPED_ORACLE_PIVOT = _pivot
SHIPPED_ORACLE_LOOP = _bland_loop


# --- Reading both solvers' paths in the explicit LP's numbering ----------

def explicit_path(monkeypatch, scenario, ncols, nrows, col_cap):
    """Run scenario on the explicit solver; its (entering, leaving) ids.

    The explicit LP numbers the slack of the r-th cap row
    ncols + nrows + r; it is mapped to ncols + nrows + c for the column c
    that row caps, the id the bounded loop gives it.
    """
    capped = [c for c in range(ncols) if col_cap[c] is not None]
    top = ncols + nrows

    def explicit_id(j):
        return top + capped[j - top] if j >= top else j

    running = []  # the basis list of the Bland loop that is running
    path = []

    def loop_recorder(tableau, cost, basis, num_cols):
        running.append(basis)
        SHIPPED_ORACLE_LOOP(tableau, cost, basis, num_cols)

    def pivot_recorder(tableau, cost, row, col):
        path.append((explicit_id(col), explicit_id(running[-1][row])))
        SHIPPED_ORACLE_PIVOT(tableau, cost, row, col)

    monkeypatch.setattr(ORACLE, "_bland_loop", loop_recorder)
    monkeypatch.setattr(ORACLE, "_pivot", pivot_recorder)
    try:
        result = scenario()
    except UnboundedError:
        result = "unbounded"
    monkeypatch.setattr(ORACLE, "_bland_loop", SHIPPED_ORACLE_LOOP)
    monkeypatch.setattr(ORACLE, "_pivot", SHIPPED_ORACLE_PIVOT)
    return result, path


def bounded_path(monkeypatch, scenario):
    """Run scenario on the bounded loop; its (entering, leaving) ids, one
    pair per step.

    After every step the basis of the explicit LP is read off the grouped
    state: the basic columns and slacks, the columns at cap, and the cap
    slacks of the capped columns below their cap.  Each step must change
    it by one pair: a pivot, or a flip to or from a cap.
    """
    steps = []

    def explicit_basis(t):
        n, k = len(t.slopes), len(t.rows)
        return (set(t.basis) | {c for c in range(n) if t.at_cap[c]}
                | {n + k + c for c in range(n)
                   if t.cap[c] is not None and not t.at_cap[c]})

    def recorder(t):
        before = explicit_basis(t)
        moved = shipped_step(t)
        after = explicit_basis(t)
        if moved:
            (entering,), (leaving,) = after - before, before - after
            steps.append((entering, leaving))
        return moved

    shipped_step = lp._step
    monkeypatch.setattr(lp, "_step", recorder)
    try:
        result = scenario()
    except UnboundedError:
        result = "unbounded"
    monkeypatch.setattr(lp, "_step", shipped_step)
    return result, steps


# --- Dense versus sparse pivot on the bounded loop ------------------------

def recorded(monkeypatch, pivot, scenario):
    """Run scenario with lp._pivot = pivot; return its result and the log."""
    log = []

    def recorder(tableau, prices, row, col, excess):
        pivot(tableau, prices, row, col, excess)
        log.append((row, col, [list(r) for r in tableau], list(prices)))

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
        assert mine[3] == theirs[3], f"price row differs after pivot {step}"
    assert got == want
    return got, len(got_log)


# --- Bounded columns against the explicit-cap-row solver ------------------

def value_or_unbounded(solve):
    try:
        return solve()
    except UnboundedError:
        return "unbounded"


def random_bounded_lp(rng):
    """Packing rows over a few variables, each split into LP columns.

    Columns get tied slopes (negative ones too), equal caps, zero caps and
    sometimes no cap; rows get zero right-hand sides.  Columns of one
    variable are not always adjacent.
    """
    nvars = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = tuple(F(rng.choice([0, 0, 1, 2, 3]), rng.randint(1, 3))
                       for _ in range(nvars))
        rows.append((coeffs, F(rng.choice([0, 0, 1, 2, 5]), rng.randint(1, 2))))
    columns = []
    for v in range(nvars):
        for _ in range(rng.choice([1, 2, 3, 4])):
            cap = (None if rng.random() < 0.15
                   else F(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2])))
            slope = F(rng.choice([-1, 0, 1, 1, 2, 2, 3]), rng.choice([1, 2]))
            columns.append((v, cap, slope))
    if rng.random() < 0.5:
        rng.shuffle(columns)
    col_var = [v for v, _, _ in columns]
    col_cap = [cap for _, cap, _ in columns]
    objective = [slope for _, _, slope in columns]
    return Polytope(nvars, tuple(rows)), objective, col_var, col_cap


def test_random_bounded_lps_follow_the_explicit_path(monkeypatch):
    rng = random.Random(17)
    seen = dict.fromkeys(("unbounded", "uncapped", "zero rhs", "tied slopes",
                          "equal caps", "flip", "cap slack enters",
                          "leaves at cap", "residual"), 0)
    for _ in range(240):
        poly, objective, col_var, col_cap = random_bounded_lp(rng)
        n, top = len(col_var), len(col_var) + len(poly.constraints)
        seen["uncapped"] += None in col_cap
        seen["zero rhs"] += any(b == 0 for _, b in poly.constraints)
        seen["tied slopes"] += len(set(objective)) < n
        caps = [u for u in col_cap if u is not None]
        seen["equal caps"] += len(set(caps)) < len(caps)
        # A cost change as the payment rule makes one (zero the columns of
        # one variable), and an arbitrary one, each solved cold.
        k = rng.randrange(poly.num_vars)
        residual = [[ZERO if v == k else c
                     for c, v in zip(objective, col_var)],
                    [F(rng.randint(-2, 4), rng.randint(1, 2))
                     for _ in col_var]]
        result, steps = assert_explicit_path(monkeypatch, objective, poly,
                                             col_var, col_cap, residual)
        if result == "unbounded":
            seen["unbounded"] += 1
            continue
        seen["residual"] += 1
        for entering, leaving in steps:
            seen["flip"] += entering in (leaving - top, leaving + top)
            seen["cap slack enters"] += entering >= top
            seen["leaves at cap"] += (leaving >= top
                                      and entering != leaving - top)
    assert all(seen.values()), seen


def random_concave_lp(rng):
    """Packing rows over 2 to 4 variables, each a run of 1 to 8 adjacent
    columns with nonincreasing slopes, as a concave curve's segments are.

    Slopes tie, and caps are zero or equal, often; rows share variables,
    so a variable's price can rise past a filled segment's slope.
    """
    nvars = rng.randint(2, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(F(rng.choice([0, 1, 1, 2, 3]), rng.randint(1, 2))
                       for _ in range(nvars))
        rows.append((coeffs, F(rng.choice([0, 1, 2, 3, 5]), rng.randint(1, 2))))
    col_var, col_cap, objective = [], [], []
    for v in range(nvars):
        count = rng.randint(1, 8)
        slopes = sorted((F(rng.choice([-1, 0, 1, 2, 2, 3, 4, 6]),
                           rng.choice([1, 2])) for _ in range(count)),
                        reverse=True)
        col_var += [v] * count
        col_cap += [F(rng.choice([0, 1, 1, 1, 2]), rng.choice([1, 1, 2]))
                    for _ in range(count)]
        objective += slopes
    return Polytope(nvars, tuple(rows)), objective, col_var, col_cap


def test_random_concave_lps_follow_the_explicit_path(monkeypatch):
    """The skip table, the resumed scan and the carried ratio test on the
    LP shape they are built for, with main and residual costs."""
    rng = random.Random(23)
    seen = dict.fromkeys(("tied slopes", "zero cap", "equal caps", "flip",
                          "middle released", "unordered residual"), 0)
    for _ in range(150):
        poly, objective, col_var, col_cap = random_concave_lp(rng)
        n, top = len(col_var), len(col_var) + len(poly.constraints)
        seen["tied slopes"] += any(
            col_var[c] == col_var[c + 1] and objective[c] == objective[c + 1]
            for c in range(n - 1))
        seen["zero cap"] += ZERO in col_cap
        seen["equal caps"] += len(set(col_cap)) < n
        k = rng.randrange(poly.num_vars)
        unordered = [F(rng.randint(-2, 6), rng.randint(1, 2)) for _ in col_var]
        seen["unordered residual"] += any(
            col_var[c] == col_var[c + 1] and unordered[c] < unordered[c + 1]
            for c in range(n - 1))
        residual = [[ZERO if v == k else c
                     for c, v in zip(objective, col_var)], unordered]
        result, steps = assert_explicit_path(monkeypatch, objective, poly,
                                             col_var, col_cap, residual)
        assert result != "unbounded"  # every column is capped
        for entering, leaving in steps:
            seen["flip"] += entering in (leaving - top, leaving + top)
            c = entering - top  # a cap slack enters: column c leaves its cap
            seen["middle released"] += (0 < c < n - 1 and col_var[c - 1]
                                        == col_var[c] == col_var[c + 1])
    assert all(seen.values()), seen


def assert_explicit_path(monkeypatch, objective, poly, col_var, col_cap,
                         residual_costs):
    """Both solvers agree on the path, vertex and value of the main solve
    and then of a cold solve of each residual cost vector; returns the
    bounded loop's result and its path, one pair per step."""
    expanded = explicit_lp(poly, col_var, col_cap)

    def explicit():
        point, value = maximize_linear(objective, expanded)
        return point.coords, value, [
            value_or_unbounded(lambda: maximize_linear(cost, expanded)[1])
            for cost in residual_costs]

    def bounded():
        final = lp.maximize_linear(objective, poly, (col_var, col_cap))
        return final.values, final.value, [value_or_unbounded(
            lambda: lp.maximize_linear(cost, poly, (col_var, col_cap)).value)
            for cost in residual_costs]

    want, want_path = explicit_path(monkeypatch, explicit, len(col_var),
                                    len(poly.constraints), col_cap)
    got, got_steps = bounded_path(monkeypatch, bounded)
    assert got_steps == want_path
    assert got == want
    return got, got_steps


GAP_TOY_BIDS = ([F(5), F(3), F(4)], [F(4), F(3), F(5)],
                [F(7, 2), F(0), F(7, 2)])


def gap_toy_lp(bids, machines, segments):
    """gap-toy's (L, P) for one profile, without the construction audits."""
    unit = unit_gap_curve(segments)
    n = len(bids)
    rows = [(tuple(ONE if j == i else ZERO for j in range(n)), ONE)
            for i in range(n)]
    rows += [(tuple(ONE if j % machines == item else ZERO for j in range(n)),
              ONE) for item in range(machines)]
    objective = RelaxedObjective(alpha=unit.value_at(ONE),
                                 owners=tuple(range(n)), coeffs=tuple(bids),
                                 curves=(unit,) * n)
    return objective, Polytope(n, tuple(rows))


def gap_toy_instance(n, machines, segments):
    """gap-toy's instance, also without the construction audits."""
    unit = unit_gap_curve(segments)
    variables = tuple((i, frozenset({i % machines})) for i in range(n))
    return Instance(GAP_TOY, n, machines, variables,
                    FamilySpec(alpha=unit.value_at(ONE), curve=unit))


def test_gap_toy_lp_is_the_family_relaxation():
    instance = make_gap_toy(3, 2)
    assert gap_toy_instance(3, 2, 16) == instance
    for bids in GAP_TOY_BIDS:
        assert gap_toy_lp(bids, 2, 16) == build_relaxation(
            instance, profile_for(instance, bids))


def seeded_bids(seed, n, count):
    rng = random.Random(seed)
    return [[F(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(count)]


@pytest.mark.parametrize("bids, machines, segments", [
    *((bids, 2, 16) for bids in GAP_TOY_BIDS),
    ([F(5), F(3), F(4)], 2, 1),
    ([F(5), F(3), F(4)], 2, 2),
    ([F(4), F(1), F(4), F(2)], 2, 16),
    *((bids, 2, 16) for bids in seeded_bids(7, 3, 6)),
    *((bids, 2, 16) for bids in seeded_bids(8, 4, 2)),
])
def test_gap_toy_follows_the_explicit_path(monkeypatch, bids, machines,
                                           segments):
    objective, poly = gap_toy_lp(bids, machines, segments)
    costs, scale = relaxation._integer_costs(objective)
    col_obj = [F(c, scale) for c in costs]
    col_var, col_cap = relaxation._layout(objective, poly).columns
    n = len(bids)
    residual = [[ZERO if col_var[c] == k else s
                 for c, s in enumerate(col_obj)] for k in range(n)]
    (values, value, maxima), steps = assert_explicit_path(
        monkeypatch, col_obj, poly, col_var, col_cap, residual)
    assert len(steps) > segments
    # solve_relaxation folds the same vertex, and residual_maxima's refills
    # of P give the same maxima as the explicit LP's cold solves.
    final = solve_relaxation(objective, poly)
    want = [ZERO] * n
    for c, d in enumerate(values):
        want[col_var[c]] += d
    assert final.coords == tuple(want)
    assert objective.evaluate(final.coords) == value
    instance = gap_toy_instance(n, machines, segments)
    assert list(residual_maxima(instance, final)) == maxima


# --- Dense versus sparse pivot --------------------------------------------

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


def test_random_packing_lps_and_residual_costs(monkeypatch):
    rng = random.Random(3)
    outcomes = {"unbounded": 0, "degenerate": 0, "tied": 0, "residual": 0}
    for _ in range(240):
        poly, objective = random_packing_lp(rng)
        if any(b == 0 for _, b in poly.constraints):
            outcomes["degenerate"] += 1
        if len(set(objective)) < len(objective):
            outcomes["tied"] += 1

        def solve(costs):
            final = lp.maximize_linear(costs, poly, None)
            return final.coords, final.value

        result, _ = assert_same_path(monkeypatch, lambda: solve(objective))
        if result == "unbounded":
            outcomes["unbounded"] += 1
            continue
        # A cost change as the payment rule makes one (zero some entries),
        # and an arbitrary one, each solved cold.  Zeroing nonnegative
        # costs can only lower the maximum, and never below zero.
        zeroed = [ZERO if rng.random() < 0.5 else c for c in objective]
        other = [F(rng.randint(0, 4)) for _ in objective]
        for changed in (zeroed, other):
            got, _ = assert_same_path(monkeypatch, lambda: solve(changed))
            if changed is zeroed:
                assert ZERO <= got[1] <= result[1]
            outcomes["residual"] += 1
    assert all(count > 0 for count in outcomes.values()), outcomes


def test_gap_toy_segment_expanded_lp_and_residuals(monkeypatch):
    """The simplex on the main LP, on residual_maxima's refills of P and on
    the cold residual LPs pivots as the dense oracle does, and agrees with
    solve_relaxation and residual_maxima, which water-fill where they can.
    Every winner takes one refill of P: L's integer costs with its own
    columns zeroed."""
    instance = make_gap_toy(3, 2)
    shipped, solved = relaxation._maximize, []

    def counting(costs, scale, layout, unique=True):
        solved.append((costs, scale, layout, unique))
        return shipped(costs, scale, layout, unique)

    def simplex(costs, layout):
        return lp.maximize_linear(costs, layout.poly, layout.columns)

    for bids in GAP_TOY_BIDS:
        profile = profile_for(instance, bids)
        objective, poly = build_relaxation(instance, profile)
        final = solve_relaxation(objective, poly)
        monkeypatch.setattr(relaxation, "_maximize", counting)
        del solved[:]
        residuals = list(residual_maxima(instance, final))
        monkeypatch.setattr(relaxation, "_maximize", shipped)
        costs, scale = relaxation._integer_costs(objective)
        layout = relaxation._layout(objective, poly)
        owners = [objective.owners[v] for v in layout.columns[0]]
        refills = [relaxation._zeroed(costs, owners, k)
                   for k in range(3) if final.coords[k]]

        def scenario():
            main = simplex(costs, layout)
            refilled = [simplex(refill, layout).value / scale
                        for refill in refills]
            cold = []
            for k in range(3):
                residual = residual_objective(objective, k)
                cold_costs, _ = relaxation._integer_costs(residual)
                cold.append(residual.evaluate(simplex(
                    cold_costs, relaxation._layout(residual, poly)).coords))
            return main.coords, refilled, cold

        (coords, refilled, cold), pivots = assert_same_path(monkeypatch,
                                                            scenario)
        assert pivots > 50
        assert coords == final.coords
        assert residuals == cold
        # One refill of P per winner, in bidder order, whose value alone is
        # read; it is the simplex's.
        assert solved == [(refill, scale, layout, False)
                          for refill in refills]
        assert [shipped(*args)[1] for args in solved] == refilled


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

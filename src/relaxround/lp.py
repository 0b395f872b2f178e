"""Exact rational linear programming over explicit packing polytopes.

A bounded-variable tableau simplex with Bland's anti-cycling rule, run
entirely on ``fractions.Fraction``.  LP columns may share a polytope
variable and carry an upper bound, so a concave objective's curve
segments are columns of one tableau column, and their caps are bound
flips instead of rows.  Sizes are desk scale, so there is no scaling and
no presolve; exactness and determinism are the product.  Tableau rows stay
dense lists, but a pivot only touches the pivot row's nonzero columns,
which leaves every entry exactly as a dense pivot would.

Pricing is indexed by breakpoints, as in Fourer's piecewise-linear simplex
held to Bland's path: the entering scan skips concave runs of segments
that cannot enter, and resumes after a bound flip with its ratio test
carried along.  Each shortcut leaves out only comparisons whose outcome is
known, so every step makes the full scan's choice (see ``_step``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Row = tuple[tuple[Fraction, ...], Fraction]


class LPInputError(ValueError):
    """Dimension mismatch or malformed polytope data."""


class UnboundedError(ValueError):
    """The objective is unbounded over the polytope."""


@dataclass(frozen=True)
class Polytope:
    """Constraints A x <= b with x >= 0 implicit.

    All bounds must be nonnegative so the origin is always feasible.  A
    packing polytope additionally requires every coefficient to be
    nonnegative, which makes the feasible set downward closed.
    """

    num_vars: int
    constraints: tuple[Row, ...]
    packing: bool = True

    def __post_init__(self):
        if self.num_vars < 1:
            raise LPInputError("a polytope needs at least one variable")
        for coeffs, bound in self.constraints:
            if len(coeffs) != self.num_vars:
                raise LPInputError("constraint row length does not match "
                                   f"num_vars={self.num_vars}")
            if bound < 0:
                raise LPInputError("constraint bounds must be nonnegative")
            if self.packing and any(c < 0 for c in coeffs):
                raise LPInputError("packing polytopes require nonnegative "
                                   "constraint coefficients")


@dataclass(frozen=True)
class FractionalPoint:
    """A nonnegative rational point in the relaxation's variable space."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coords):
            raise LPInputError("coordinates must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.coords)


def contains(poly: Polytope, x: FractionalPoint) -> bool:
    """Exact membership test: x >= 0 and A x <= b."""
    if x.dim != poly.num_vars:
        raise LPInputError(f"point has dimension {x.dim}, "
                           f"polytope has {poly.num_vars}")
    for coeffs, bound in poly.constraints:
        if sum((c * v for c, v in zip(coeffs, x.coords)), ZERO) > bound:
            return False
    return True


def _minus(target: list[Fraction], f: Fraction, prow: list[Fraction],
           nonzero: list[int]) -> list[Fraction]:
    """A new list target - f * prow, where prow is zero off ``nonzero``."""
    out = list(target)
    for j in nonzero:
        out[j] -= f * prow[j]
    return out


def _pivot(tableau: list[list[Fraction]], prices: list[Fraction],
           row: int, col: int, excess: Fraction) -> None:
    """Pivot on (row, col), then take excess times the new pivot row off
    the prices (excess: the entering column's price minus its cost)."""
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
    if excess:
        prices[:] = _minus(prices, excess, prow, nonzero)


@dataclass(eq=False)
class FinalTableau:
    """The state of a bounded-variable simplex: the optimum a solve ended on.

    The LP maximizes sum_c slopes[c] * y_c over the polytope's rows, where
    LP column c adds y_c to polytope variable ``var[c]`` and 0 <= y_c <=
    ``cap[c]`` (None: no upper bound).  Columns of one variable share that
    variable's tableau column, so ``rows`` has one row per polytope row,
    over the variables, the slacks and the right-hand side.  ``basis``
    names each row's basic LP column c, or slack i as len(slopes) + i;
    ``at_cap`` flags the nonbasic columns held at their cap; ``prices``
    holds c_B B^-1 over the tableau columns, then the objective value.
    ``polytope`` is the one solved on; ``_step`` explains the rest.

    Pass one to ``maximize_linear`` to have it filled in.  A new cost per
    LP column leaves that basis and those caps primal feasible, so
    ``maximum`` prices the change in and resumes Bland's rule there instead
    of at the slack basis; Bland's rule terminates from any feasible basis.
    """

    rows: list[list[Fraction]] | None = None
    basis: list[int] = field(default_factory=list)
    at_cap: list[bool] = field(default_factory=list)
    prices: list[Fraction] = field(default_factory=list)
    slopes: tuple[Fraction, ...] = ()
    var: tuple[int, ...] = ()
    cap: tuple[Optional[Fraction], ...] = ()
    polytope: Optional[Polytope] = None
    ends: list[int] = field(default_factory=list)
    start: int = 0
    carry: Optional[tuple[int, Optional[Fraction], int, int]] = None

    def maximum(self, objective: Sequence[Fraction]) -> Fraction:
        """Optimal value of the LP with per-column costs ``objective``.

        The value is unique, so it equals the value of a cold solve even
        where the optimal vertex would differ.
        """
        if self.rows is None:
            raise LPInputError("no optimal tableau has been recorded")
        n = len(self.slopes)
        if len(objective) != n:
            raise LPInputError(f"objective has length {len(objective)}, "
                               f"expected {n}")
        # Prices are linear in the basic costs, so only the change from the
        # recorded costs needs pricing in: through the rows whose basic
        # column's cost changed, and into the value for columns at cap.
        prices = list(self.prices)
        for row, b in zip(self.rows, self.basis):
            if b < n and objective[b] != self.slopes[b]:
                prices = _minus(prices, self.slopes[b] - objective[b], row,
                                [j for j, a in enumerate(row) if a])
        for c in range(n):
            if self.at_cap[c]:
                prices[-1] += (objective[c] - self.slopes[c]) * self.cap[c]
        # Pivots and flips replace rows and never mutate them, so copies of
        # the lists leave the recorded state intact for the next cost row.
        resumed = FinalTableau(list(self.rows), list(self.basis),
                               list(self.at_cap), prices, tuple(objective),
                               self.var, self.cap, self.polytope,
                               _run_ends(objective, self.var))
        _bland(resumed)
        return resumed.prices[-1]


def _flip(t: FinalTableau, c: int, to_cap: bool) -> None:
    """Move LP column c to its cap, or from its cap to zero, nonbasic.

    Only the right-hand side and the objective value change.  A column
    basic in row r has the unit tableau column e_r, so this also moves a
    leaving basic column to its cap.
    """
    v = t.var[c]
    step = t.cap[c] if to_cap else -t.cap[c]
    for i, row in enumerate(t.rows):
        if row[v]:
            row = list(row)
            row[-1] -= step * row[v]
            t.rows[i] = row
    t.prices[-1] += step * (t.slopes[c] - t.prices[v])
    t.at_cap[c] = to_cap


def _run_ends(slopes: Sequence[Fraction], var: Sequence[int]) -> list[int]:
    """For each LP column c, one past the longest run c, c + 1, ... of
    adjacent columns of one variable with nonincreasing costs."""
    ends = list(range(1, len(slopes) + 1))
    for c in range(len(slopes) - 2, -1, -1):
        if var[c] == var[c + 1] and slopes[c] >= slopes[c + 1]:
            ends[c] = ends[c + 1]
    return ends


def _step(t: FinalTableau) -> bool:
    """One step of Bland's rule: a pivot or a bound flip; False at optimum.

    Bland's rule chooses in the numbering of the same LP with one explicit
    row y_c + s_c = cap[c] per capped column: LP column c, slack n + i,
    cap slack n + k + c, for n LP columns and k rows.  Ratio ties go to the
    lowest such leaving id, so the bases visited are the explicit LP's.

    Three shortcuts keep that choice.  A column below its cap whose cost
    does not beat its variable's price has no later column of its run
    (``ends``) beating it, so the scan jumps past the run.  A pure flip to
    the cap moves no price, so the next scan resumes after the flipped
    column (``start``; a pivot resets it).  That flip lowers every row's
    ratio on its tableau column by exactly the cap, ties kept in order, so
    a next entering column on that tableau column takes the rows' minimum
    over (``carry``) instead of taking it afresh.
    """
    rows, basis, at_cap, prices = t.rows, t.basis, t.at_cap, t.prices
    slopes, var, cap, ends = t.slopes, t.var, t.cap, t.ends
    n, k = len(slopes), len(rows)
    width = len(prices) - k - 1
    # Entering: a column below its cap whose cost beats its variable's
    # price, else a slack with a negative price, else a column at its cap
    # whose cost falls short of that price (its cap slack enters).
    up = False
    enter = t.start
    while enter < n and (at_cap[enter]
                         or slopes[enter] <= prices[var[enter]]):
        enter = enter + 1 if at_cap[enter] else ends[enter]
    if enter < n:
        col = var[enter]
    else:
        slack = next((i for i in range(k) if prices[width + i] < 0), None)
        if slack is not None:
            enter, col = n + slack, width + slack
        else:
            enter = next((c for c in range(n)
                          if at_cap[c] and prices[var[c]] > slopes[c]), None)
            if enter is None:
                t.start, t.carry = 0, None
                return False
            up, col = True, var[enter]
    # Ratio test over the explicit LP's rows: for each tableau row its
    # basic variable, which falls to zero or, for a capped column, rises to
    # its cap; then the entering column's own cap row.
    carry, t.carry = t.carry, None
    if carry is not None and carry[0] == col and not up:
        _, best, leave, leave_row = carry
    else:
        best, leave, leave_row = None, -1, -1
        for i, row in enumerate(rows):
            a = -row[col] if up else row[col]
            if a > 0:
                ratio, out = row[-1] / a, basis[i]
            elif a and basis[i] < n and cap[basis[i]] is not None:
                b = basis[i]
                ratio, out = (cap[b] - row[-1]) / -a, n + k + b
            else:
                continue
            if best is None or ratio < best or (ratio == best and out < leave):
                best, leave, leave_row = ratio, out, i
    if enter < n and cap[enter] is not None:
        u, own = cap[enter], enter if up else n + k + enter
        if best is None or u < best or (u == best and own < leave):
            # The entering column reaches its other bound.
            _flip(t, enter, not up)
            if not up:
                t.start = enter + 1
                t.carry = (col, None if best is None else best - u, leave,
                           leave_row)
            return True
    if best is None:
        raise UnboundedError("objective is unbounded in the entering "
                             f"direction of variable {enter}")
    if up:
        _flip(t, enter, False)
    b = basis[leave_row]
    if leave != b:
        _flip(t, b, True)
    excess = prices[col] - slopes[enter] if enter < n else prices[col]
    _pivot(rows, prices, leave_row, col, excess)
    basis[leave_row] = enter
    t.start = 0
    return True


def _bland(t: FinalTableau) -> None:
    """Run Bland's rule to optimality; raises UnboundedError."""
    while _step(t):
        pass


def _slack_start(t: FinalTableau, width: int, rows: Sequence[Row],
                 slopes: Sequence[Fraction], var: Sequence[int],
                 cap: Sequence[Optional[Fraction]]) -> None:
    """Set t to the slack basis of rows over ``width`` variables, every LP
    column at zero."""
    k = len(rows)
    tableau = []
    for i, (coeffs, bound) in enumerate(rows):
        row = list(coeffs) + [ZERO] * k + [bound]
        row[width + i] = ONE
        tableau.append(row)
    n = len(slopes)
    t.rows, t.basis, t.at_cap = tableau, list(range(n, n + k)), [False] * n
    t.prices = [ZERO] * (width + k + 1)
    t.slopes, t.var, t.cap = tuple(slopes), tuple(var), tuple(cap)
    t.ends, t.start, t.carry = _run_ends(slopes, var), 0, None


def _values(t: FinalTableau) -> list[Fraction]:
    """Every LP column's value in t's basic solution."""
    values = [u if up else ZERO for u, up in zip(t.cap, t.at_cap)]
    for row, b in zip(t.rows, t.basis):
        if b < len(values):
            values[b] = row[-1]
    return values


def maximize_linear(objective: Sequence[Fraction], poly: Polytope,
                    final: FinalTableau | None = None,
                    columns: tuple[Sequence[int],
                                   Sequence[Optional[Fraction]]] | None = None
                    ) -> tuple[FractionalPoint, Fraction]:
    """Maximize c.y over the polytope; returns an exact optimal vertex.

    Without ``columns`` there is one LP column per polytope variable.  With
    ``columns = (var, cap)``, LP column c adds y_c to variable ``var[c]``,
    is bounded by 0 <= y_c <= ``cap[c]`` (None: unbounded) and costs
    ``objective[c]``; the returned point then has one coordinate per LP
    column.  Ties are resolved by Bland's rule (lowest-index entering
    variable), which also guarantees termination.  ``final``, if given,
    receives the optimal state for re-optimizing other costs.
    """
    n = poly.num_vars
    if columns is None:
        var: Sequence[int] = range(n)
        cap: Sequence[Optional[Fraction]] = (None,) * n
    else:
        var, cap = columns
        if len(var) != len(cap):
            raise LPInputError("every LP column needs a variable and a cap")
        if any(not 0 <= v < n for v in var):
            raise LPInputError(f"LP columns must map into {n} variables")
        if any(u is not None and u < 0 for u in cap):
            raise LPInputError("column caps must be nonnegative")
    if len(objective) != len(var):
        raise LPInputError(f"objective has length {len(objective)}, "
                           f"expected {len(var)}")
    t = final if final is not None else FinalTableau()
    _slack_start(t, n, poly.constraints, objective, var, cap)
    t.polytope = poly
    _bland(t)
    return FractionalPoint(tuple(_values(t))), t.prices[-1]


def phase_one(equalities: Sequence[Row],
              nonneg_vars: int) -> tuple[Optional[tuple[Fraction, ...]], Fraction]:
    """Find x >= 0 with E x = d, or report the residual infeasibility.

    Returns ``(solution, 0)`` for a basic feasible solution (at most
    ``len(equalities)`` nonzero entries) or ``(None, residual)`` where the
    residual is the minimal total constraint violation.
    """
    if nonneg_vars < 1:
        raise LPInputError("need at least one variable")
    rows: list[Row] = []
    for coeffs, d in equalities:
        if len(coeffs) != nonneg_vars:
            raise LPInputError("equality row length does not match "
                               f"nonneg_vars={nonneg_vars}")
        if d < 0:
            rows.append((tuple(-c for c in coeffs), -d))
        else:
            rows.append((tuple(coeffs), d))
    if not rows:
        return tuple([ZERO] * nonneg_vars), ZERO
    # The slacks are the artificial variables.  Maximizing the column sums
    # times x maximizes minus the artificial sum, up to the constant sum d,
    # and leaves the same reduced costs at every basis.
    sums = [sum((coeffs[j] for coeffs, _ in rows), ZERO)
            for j in range(nonneg_vars)]
    t = FinalTableau()
    _slack_start(t, nonneg_vars, rows, sums, range(nonneg_vars),
                 (None,) * nonneg_vars)
    _bland(t)
    residual = sum((row[-1] for row, b in zip(t.rows, t.basis)
                    if b >= nonneg_vars), ZERO)
    if residual > 0:
        return None, residual
    return tuple(_values(t)), ZERO


def _solve_square(rows: list[list[Fraction]],
                  rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Gauss-Jordan elimination on an n x n rational system; None if singular."""
    n = len(rows)
    a = [row + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        _pivot(a, [], col, col, ZERO)
    return [a[i][-1] for i in range(n)]


def enumerate_vertices(poly: Polytope, max_vars: int = 8,
                       max_systems: int = 200_000) -> list[FractionalPoint]:
    """Brute-force vertex enumeration for desk-scale polytopes.

    Intersects every choice of ``num_vars`` constraint/nonnegativity planes
    and keeps the feasible solutions.  A system holding an all-zero or a
    repeated plane is singular, so those planes are dropped first (and
    ``max_systems`` counts the choices that remain).  Intended as an oracle
    and for construction-time audits, not as a solver.
    """
    n = poly.num_vars
    if n > max_vars:
        raise LPInputError(f"vertex enumeration is limited to {max_vars} "
                           "variables")
    units = [(tuple(ONE if i == j else ZERO for i in range(n)), ZERO)
             for j in range(n)]
    planes = list(dict.fromkeys(plane for plane in
                                [*poly.constraints, *units] if any(plane[0])))
    from math import comb
    if comb(len(planes), n) > max_systems:
        raise LPInputError("too many candidate plane intersections")
    seen: set[tuple[Fraction, ...]] = set()
    vertices: list[FractionalPoint] = []
    for chosen in combinations(range(len(planes)), n):
        rows = [list(planes[i][0]) for i in chosen]
        rhs = [planes[i][1] for i in chosen]
        sol = _solve_square(rows, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        point = FractionalPoint(tuple(sol))
        if contains(poly, point) and point.coords not in seen:
            seen.add(point.coords)
            vertices.append(point)
    vertices.sort(key=lambda p: p.coords)
    return vertices

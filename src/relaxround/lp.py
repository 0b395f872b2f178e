"""Exact rational linear programming over explicit packing polytopes.

A bounded-variable tableau simplex with Bland's anti-cycling rule, run
entirely on ``fractions.Fraction``.  LP columns may share a polytope
variable and carry an upper bound, so a concave objective's curve
segments are columns of one tableau column, and their caps are bound
flips instead of rows.  Sizes are desk scale, so there is no scaling and
no presolve; exactness and determinism are the product.  Tableau rows stay
dense lists, changed in place, but a pivot only touches the pivot row's
nonzero columns, which leaves every entry exactly as a dense pivot would.

Pricing is indexed by breakpoints, as in Fourer's piecewise-linear simplex
held to Bland's path: the entering scan skips concave runs of segments
that cannot enter, and one long step passes every breakpoint of a run
that the ratio allows, flipping those columns to their caps together
before the next column enters.  Each shortcut leaves out only comparisons
whose outcome is known, so the bases visited are those of Bland's rule
one flip a step (see ``_step``).  Row ratios are compared as integer pairs, without
a division.  Every answer comes from one cold solve from the slack basis,
on rows built for that solve alone; no solve resumes or shares a tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

#: ``enumerate_vertices`` refuses polytopes beyond these sizes.
MAX_VERTEX_VARS = 8
MAX_VERTEX_SYSTEMS = 200_000

Row = tuple[tuple[Fraction, ...], Fraction]


class LPInputError(ValueError):
    """Dimension mismatch or malformed polytope data."""


class UnboundedError(ValueError):
    """The objective is unbounded over the polytope."""


@dataclass(frozen=True)
class Polytope:
    """Packing constraints A x <= b with x >= 0 implicit.

    Every bound and every coefficient must be nonnegative, so the origin is
    feasible and the feasible set is downward closed.
    """

    num_vars: int
    constraints: tuple[Row, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise LPInputError("a polytope needs at least one variable")
        for coeffs, bound in self.constraints:
            if len(coeffs) != self.num_vars:
                raise LPInputError("constraint row length does not match "
                                   f"num_vars={self.num_vars}")
            if bound < 0:
                raise LPInputError("constraint bounds must be nonnegative")
            if any(c < 0 for c in coeffs):
                raise LPInputError("packing polytopes require nonnegative "
                                   "constraint coefficients")
        # Each row's nonzero (index, coefficient) pairs, for ``contains``:
        # family rows are mostly 0/1 with few ones.
        object.__setattr__(self, "_sparse", tuple(
            (tuple((j, c) for j, c in enumerate(coeffs) if c), bound)
            for coeffs, bound in self.constraints))


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
    coords = x.coords
    for pairs, bound in poly._sparse:  # type: ignore[attr-defined]
        if sum((c * coords[j] for j, c in pairs), ZERO) > bound:
            return False
    return True


def _pivot(tableau: list[list[Fraction]], prices: list[Fraction],
           row: int, col: int, excess: Fraction) -> None:
    """Pivot on (row, col), then take excess times the new pivot row off
    the prices (excess: the entering column's price minus its cost)."""
    # Rows change in place; every solve builds its own rows.  Since
    # a - f * 0 == a and 0 / p == 0 exactly, skipping the pivot row's zeros
    # changes no entry.
    prow = tableau[row]
    piv = prow[col]
    nonzero = [j for j, v in enumerate(prow) if v]
    for j in nonzero:
        prow[j] /= piv
    for i, other in enumerate(tableau):
        f = other[col]
        if i != row and f:
            for j in nonzero:
                other[j] -= f * prow[j]
    if excess:
        for j in nonzero:
            prices[j] -= excess * prow[j]


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
    ``poly`` is the polytope ``maximize_linear`` solved over (None for
    ``phase_one``'s equalities).  ``_step`` explains the rest.

    ``maximize_linear`` returns one; ``values`` and ``coords`` are read
    from the finished tableau, once.  The payments read only ``value``,
    ``values`` and ``coords`` of the tableau they price.
    """

    rows: list[list[Fraction]]
    basis: list[int]
    at_cap: list[bool]
    prices: list[Fraction]
    slopes: tuple[Fraction, ...]
    var: tuple[int, ...]
    cap: tuple[Optional[Fraction], ...]
    poly: Optional[Polytope]
    ends: list[int] = field(init=False)

    def __post_init__(self):
        self.ends = _run_ends(self.slopes, self.var)

    @property
    def value(self) -> Fraction:
        """The objective value of the basic solution."""
        return self.prices[-1]

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """Every LP column's value in the basic solution."""
        values = [u if up else ZERO for u, up in zip(self.cap, self.at_cap)]
        for row, b in zip(self.rows, self.basis):
            if b < len(values):
                values[b] = row[-1]
        return tuple(values)

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        """Each polytope variable's value: its nonzero LP columns summed."""
        coords = [ZERO] * (len(self.prices) - len(self.rows) - 1)
        for v, y in zip(self.var, self.values):
            if y:
                coords[v] += y
        return tuple(coords)


def _flip(t: FinalTableau, c: int, to_cap: bool) -> None:
    """Move LP column c to its cap, or from its cap to zero, nonbasic.

    Only the right-hand side and the objective value change.  A column
    basic in row r has the unit tableau column e_r, so this also moves a
    leaving basic column to its cap.
    """
    v = t.var[c]
    step = t.cap[c] if to_cap else -t.cap[c]
    for row in t.rows:
        if row[v]:
            row[-1] -= step * row[v]
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
    """One step of Bland's rule: a pivot, a run of bound flips to the cap
    that may end in a pivot, or one flip back from a cap; False at optimum.

    Bland's rule chooses in the numbering of the same LP with one explicit
    row y_c + s_c = cap[c] per capped column: LP column c, slack n + i,
    cap slack n + k + c, for n LP columns and k rows.  Ratio ties go to the
    lowest such leaving id, so the bases visited are the explicit LP's.

    A column below its cap whose cost does not beat its variable's price
    has no later column of its run (``ends``) beating it, so the entering
    scan jumps past the run.  Row ratios are compared as integer pairs,
    and only the winner becomes a ``Fraction``.

    The long step: a column entering from zero whose cap fits under the
    ratio goes to its cap, and so does each next column of its run (same
    variable, below its cap, cost above the price) while the caps summed
    still fit.  A flip moves no price and lowers every row's ratio on the
    shared tableau column by its cap, ties kept in order, so these are the
    flips that Bland's rule makes one step at a time, and the first column
    that does not fit enters on the ratio left over, in the same step.
    """
    rows, basis, at_cap, prices = t.rows, t.basis, t.at_cap, t.prices
    slopes, var, cap, ends = t.slopes, t.var, t.cap, t.ends
    n, k = len(slopes), len(rows)
    width = len(prices) - k - 1
    # Entering: a column below its cap whose cost beats its variable's
    # price, else a slack with a negative price, else a column at its cap
    # whose cost falls short of that price (its cap slack enters).
    up = False
    enter = 0
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
                return False
            up, col = True, var[enter]
    # Ratio test over the explicit LP's rows: for each tableau row its
    # basic variable, which falls to zero or, for a capped column, rises to
    # its cap; then the entering column's own cap row.  A ratio is the
    # integer pair (num, den), den > 0.
    num = den = 0
    leave = leave_row = -1
    sign = -1 if up else 1
    for i, row in enumerate(rows):
        a = row[col]
        if not a:
            continue
        top = a.numerator * sign
        if top > 0:
            rhs, out = row[-1], basis[i]
        elif basis[i] < n and cap[basis[i]] is not None:
            b = basis[i]
            rhs, out, top = cap[b] - row[-1], n + k + b, -top
        else:
            continue
        p, q = rhs.numerator * a.denominator, rhs.denominator * top
        if leave < 0 or p * den < num * q or (p * den == num * q
                                              and out < leave):
            num, den, leave, leave_row = p, q, out, i
    best = None if leave < 0 else Fraction(num, den)
    if up:
        _flip(t, enter, False)
        if best is None or cap[enter] < best or (cap[enter] == best
                                                 and enter < leave):
            return True  # it falls back to zero
    elif enter < n:
        price, total, gain, c = prices[col], ZERO, ZERO, enter
        while cap[c] is not None:
            fill = total + cap[c]
            if best is not None and (fill > best or (fill == best
                                                     and leave < n + k + c)):
                break
            total, gain = fill, gain + cap[c] * slopes[c]
            at_cap[c] = True
            c += 1
            if (c == n or var[c] != col or at_cap[c]
                    or slopes[c] <= price):
                c = n  # the run is over
                break
        if c > enter:
            for row in rows:
                if row[col]:
                    row[-1] -= total * row[col]
            prices[-1] += gain - total * price
            # Past an uncapped column no row bounds, the next step raises.
            if c == n or best is None:
                return True
            enter = c
    if best is None:
        raise UnboundedError("objective is unbounded in the entering "
                             f"direction of variable {enter}")
    b = basis[leave_row]
    if leave != b:
        _flip(t, b, True)
    excess = prices[col] - slopes[enter] if enter < n else prices[col]
    _pivot(rows, prices, leave_row, col, excess)
    basis[leave_row] = enter
    return True


def _bland(t: FinalTableau) -> None:
    """Run Bland's rule to optimality; raises UnboundedError."""
    while _step(t):
        pass


def _slack_start(width: int, rows: Sequence[Row],
                 slopes: Sequence[Fraction], var: Sequence[int],
                 cap: Sequence[Optional[Fraction]],
                 poly: Optional[Polytope]) -> FinalTableau:
    """The slack basis of rows over ``width`` variables, every LP column at
    zero."""
    k = len(rows)
    tableau = []
    for i, (coeffs, bound) in enumerate(rows):
        row = list(coeffs) + [ZERO] * k + [bound]
        row[width + i] = ONE
        tableau.append(row)
    n = len(slopes)
    return FinalTableau(tableau, list(range(n, n + k)), [False] * n,
                        [ZERO] * (width + k + 1), tuple(slopes), tuple(var),
                        tuple(cap), poly)


def maximize_linear(objective: Sequence[Fraction], poly: Polytope,
                    columns: tuple[Sequence[int],
                                   Sequence[Optional[Fraction]]] | None = None
                    ) -> FinalTableau:
    """Maximize c.y over the polytope; returns the optimal tableau.

    Without ``columns`` there is one LP column per polytope variable.  With
    ``columns = (var, cap)``, LP column c adds y_c to variable ``var[c]``,
    is bounded by 0 <= y_c <= ``cap[c]`` (None: unbounded) and costs
    ``objective[c]``.  The tableau's ``coords`` is an exact optimal point
    of the polytope and ``value`` its objective value.  Ties are resolved
    by Bland's rule (lowest-index entering variable), which also
    guarantees termination.
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
    t = _slack_start(n, poly.constraints, objective, var, cap, poly)
    _bland(t)
    return t


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
    t = _slack_start(nonneg_vars, rows, sums, range(nonneg_vars),
                     (None,) * nonneg_vars, None)
    _bland(t)
    residual = sum((row[-1] for row, b in zip(t.rows, t.basis)
                    if b >= nonneg_vars), ZERO)
    if residual > 0:
        return None, residual
    return t.values, ZERO


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


def enumerate_vertices(poly: Polytope) -> list[FractionalPoint]:
    """Brute-force vertex enumeration for desk-scale polytopes.

    Intersects every choice of ``num_vars`` constraint/nonnegativity planes
    and keeps the feasible solutions.  A system holding an all-zero or a
    repeated plane is singular, so those planes are dropped first (and
    ``MAX_VERTEX_SYSTEMS`` counts the choices that remain).  Intended as an
    oracle and for construction-time audits, not as a solver.
    """
    n = poly.num_vars
    if n > MAX_VERTEX_VARS:
        raise LPInputError("vertex enumeration is limited to "
                           f"{MAX_VERTEX_VARS} variables")
    units = [(tuple(ONE if i == j else ZERO for i in range(n)), ZERO)
             for j in range(n)]
    planes = list(dict.fromkeys(plane for plane in
                                [*poly.constraints, *units] if any(plane[0])))
    from math import comb
    if comb(len(planes), n) > MAX_VERTEX_SYSTEMS:
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

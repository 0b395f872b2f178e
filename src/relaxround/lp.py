"""Exact rational linear programming over explicit packing polytopes.

A bounded-variable tableau simplex with Bland's anti-cycling rule, run
entirely on ``fractions.Fraction``.  LP columns may share a polytope
variable and carry an upper bound, so a concave objective's curve
segments are columns of one tableau column, and their caps are bound
flips instead of rows.  Sizes are desk scale, so there is no scaling and
no presolve; exactness and determinism are the product.  Tableau rows stay
dense lists, changed in place, but a pivot only touches the pivot row's
nonzero columns, which leaves every entry exactly as a dense pivot would.

Each step is one pivot or one bound flip, the step Bland's rule takes on
the same LP with an explicit row per cap (see ``_step``).  The entering
scan skips concave runs of segments that cannot enter, which leaves out
only comparisons whose outcome is known.  Row ratios are compared as
integer pairs, without a division.  Every answer comes from one cold
solve from the slack basis, on rows built for that solve alone; no solve
resumes or shares a tableau.

A polytope whose every block is one row, a 0/1 row over all of the
block's variables that implies the block's other rows, has a second
solver: ``water_fill`` fills each block's LP columns by falling cost, the
one-row case of Fourer's simplex, and ``certify_fill`` checks the fill by
one dual price per block, apart from the greedy.  A strict certificate
proves the fill the vertex Bland's rule ends on: zero on each block whose
costs are all zero, where Bland's rule never moves, and the only optimum
on every other block.  Each polytope reads its blocks, and whether each
is one row, from its rows once, when it is built; a ``Layout`` groups a
set of LP columns by those blocks once, for every fill over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

#: ``enumerate_vertices`` refuses polytopes beyond these sizes.
MAX_VERTEX_VARS = 8
MAX_VERTEX_SYSTEMS = 200_000

Row = tuple[tuple[Fraction, ...], Fraction]
#: (var, cap): LP column c adds to variable var[c], up to cap[c] (None: no
#: upper bound).
Columns = tuple[Sequence[int], Sequence[Optional[Fraction]]]


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
        sparse = tuple((tuple((j, c) for j, c in enumerate(coeffs) if c),
                        bound) for coeffs, bound in self.constraints)
        blocks = _blocks(self.num_vars, sparse)
        object.__setattr__(self, "_sparse", sparse)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_one_row", _one_row_bounds(blocks, sparse))
        # Callers' column layouts over this polytope, by keys of their own.
        object.__setattr__(self, "_layouts", {})


def _blocks(n: int, sparse) -> tuple[tuple[int, ...], ...]:
    """The polytope's blocks, each in increasing order, by least variable:
    two variables share a block when some row has nonzero coefficients on
    both, so the polytope is the product of its blocks."""
    block = [{v} for v in range(n)]
    for pairs, _ in sparse:
        joined = set().union(*(block[j] for j, _ in pairs))
        for v in joined:
            block[v] = joined
    return tuple(dict.fromkeys(tuple(sorted(b)) for b in block))


def _one_row_bounds(blocks, sparse) -> Optional[tuple[Fraction, ...]]:
    """Per block, the bound b of a 0/1 row R over all of its variables,
    when every other row on the block is implied by R: 0/1 too (so its
    support lies inside R's) with a bound of at least b.  Each block is
    then the simplex {x >= 0, sum x <= b}.  None unless every block is."""
    of = {v: i for i, block in enumerate(blocks) for v in block}
    touching: list[list[tuple]] = [[] for _ in blocks]
    for pairs, bound in sparse:
        if pairs:
            touching[of[pairs[0][0]]].append((pairs, bound))
    bounds = []
    for block, rows in zip(blocks, touching):
        if any(c != 1 for pairs, _ in rows for _, c in pairs):
            return None
        b = min((bound for pairs, bound in rows if len(pairs) == len(block)),
                default=None)
        if b is None or any(bound < b for _, bound in rows):
            return None
        bounds.append(b)
    return tuple(bounds)


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
    ``_step`` explains the rest.

    ``maximize_linear`` returns one; ``values`` and ``coords`` are read
    from the finished tableau, once.
    """

    rows: list[list[Fraction]]
    basis: list[int]
    at_cap: list[bool]
    prices: list[Fraction]
    slopes: tuple[Fraction, ...]
    var: tuple[int, ...]
    cap: tuple[Optional[Fraction], ...]
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
    """One step of Bland's rule: a pivot, or one bound flip to or from a
    cap; False at optimum.

    Bland's rule chooses in the numbering of the same LP with one explicit
    row y_c + s_c = cap[c] per capped column: LP column c, slack n + i,
    cap slack n + k + c, for n LP columns and k rows.  Ratio ties go to the
    lowest such leaving id, so the bases visited are the explicit LP's: an
    entering column whose own cap row wins the ratio test flips to its
    cap, and one at its cap whose cap row wins flips back to zero.

    A column below its cap whose cost does not beat its variable's price
    has no later column of its run (``ends``) beating it, so the entering
    scan jumps past the run.  Row ratios are compared as integer pairs,
    and only the winner becomes a ``Fraction``.
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
    # The entering column's own cap row leaves as the column itself (it
    # falls to zero) or as its cap slack (it rises to its cap).
    if enter < n and cap[enter] is not None and (
            best is None or cap[enter] < best
            or (cap[enter] == best and (enter if up else n + k + enter)
                < leave)):
        _flip(t, enter, not up)
        return True
    if up:
        _flip(t, enter, False)  # the pivot below takes it from zero
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


def _slack_start(width: int, rows: Sequence[Row],
                 slopes: Sequence[Fraction], var: Sequence[int],
                 cap: Sequence[Optional[Fraction]]) -> FinalTableau:
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
                        tuple(cap))


def maximize_linear(objective: Sequence[Fraction], poly: Polytope,
                    columns: Optional[Columns]) -> FinalTableau:
    """Maximize c.y over the polytope; returns the optimal tableau.

    With ``columns`` None there is one LP column per polytope variable.
    With ``columns = (var, cap)``, LP column c adds y_c to variable
    ``var[c]``, is bounded by 0 <= y_c <= ``cap[c]`` (None: unbounded) and
    costs ``objective[c]``.  The tableau's ``coords`` is an exact optimal
    point of the polytope and ``value`` its objective value.  Ties are
    resolved by Bland's rule (lowest-index entering variable), which also
    guarantees termination.
    """
    var, cap = _lp_columns(poly, columns)
    if len(objective) != len(var):
        raise LPInputError(f"objective has length {len(objective)}, "
                           f"expected {len(var)}")
    t = _slack_start(poly.num_vars, poly.constraints, objective, var, cap)
    while _step(t):  # Bland's rule to optimality; raises UnboundedError
        pass
    return t


def _lp_columns(poly: Polytope, columns: Optional[Columns]) -> Columns:
    """The checked (var, cap) of the LP columns; None is one uncapped
    column per polytope variable."""
    n = poly.num_vars
    if columns is None:
        return range(n), (None,) * n
    var, cap = columns
    if len(var) != len(cap):
        raise LPInputError("every LP column needs a variable and a cap")
    if any(not 0 <= v < n for v in var):
        raise LPInputError(f"LP columns must map into {n} variables")
    # A rational's sign is its numerator's.
    if any(u is not None and u.numerator < 0 for u in cap):
        raise LPInputError("column caps must be nonnegative")
    return var, cap


@dataclass(frozen=True, eq=False)
class Layout:
    """LP columns checked against a polytope, as ``maximize_linear`` takes
    them, and, where every block of the polytope is one row, grouped by
    block: per block its row's bound with the LP columns on the block
    (``blocks``, None otherwise).  ``column_layout`` makes one."""

    poly: Polytope
    columns: Columns
    blocks: Optional[tuple[tuple[Fraction, tuple[int, ...]], ...]]


def column_layout(poly: Polytope, columns: Optional[Columns]) -> Layout:
    """The ``Layout`` of ``columns`` (as ``maximize_linear`` takes them)
    over ``poly``."""
    var, cap = _lp_columns(poly, columns)
    bounds = poly._one_row  # type: ignore[attr-defined]
    return Layout(poly, (var, cap), None if bounds is None else tuple(
        (bound, tuple(c for c, v in enumerate(var) if v in block))
        for bound, block in zip(bounds, poly._blocks)))  # type: ignore


def _one_row_blocks(costs: Sequence, layout: Layout
                    ) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """The layout's blocks; LPInputError unless every block is one row and
    there is one cost per LP column."""
    if layout.blocks is None:
        raise LPInputError("the polytope has a block that is not one row")
    if len(costs) != len(layout.columns[0]):
        raise LPInputError("a fill needs one cost per LP column")
    return layout.blocks


@dataclass(frozen=True)
class Fill:
    """A solution of ``maximize_linear``'s LP: each LP column's value
    times ``scale`` (integers), each polytope variable's value (its columns
    summed) and the objective value."""

    units: tuple[int, ...]
    scale: int
    coords: tuple[Fraction, ...]
    value: Fraction


def water_fill(costs: Sequence, layout: Layout) -> Fill:
    """Maximize ``maximize_linear``'s LP on ``layout``'s columns greedily
    over a polytope whose every block is one row (see ``_one_row_bounds``).

    On each block, {y >= 0, y_c <= cap[c], sum y <= b}, the columns are
    filled by falling cost, each to its cap or to what is left of b, until
    b is used up or the costs stop being positive: the fractional-knapsack
    greedy, which is Fourer's piecewise-linear simplex on one row.  Ties
    go to the lower column, so where optima tie this is one of them, not
    necessarily Bland's; ``certify_fill`` tells.  Costs may be integers
    over a common denominator, and the value is in their units.  Caps and
    bounds are counted in integer units of 1/q, one q per solve.
    """
    blocks = _one_row_blocks(costs, layout)
    var, cap = layout.columns
    q = lcm(*{u.denominator for u in cap if u is not None},
            *(b.denominator for b, _ in blocks))
    units = [0] * len(var)
    coords = [0] * layout.poly.num_vars
    value = 0
    for bound, group in blocks:
        left = bound.numerator * (q // bound.denominator)
        for c in sorted(group, key=costs.__getitem__, reverse=True):
            if not left or costs[c] <= 0:
                break
            u = cap[c]
            y = left if u is None else min(left,
                                            u.numerator * (q // u.denominator))
            units[c] = y
            left -= y
            coords[var[c]] += y
            value += costs[c] * y
    return Fill(tuple(units), q, tuple(Fraction(x, q) if x else ZERO
                                       for x in coords), Fraction(value, q))


def certify_fill(costs: Sequence, layout: Layout,
                 fill: Fill) -> Optional[bool]:
    """Check a fill's LP column values optimal for ``water_fill``'s LP,
    exactly and apart from the greedy, by one dual price lam >= 0 per
    block: True if the check is strict, False if it only holds, None if
    it fails.  Only ``fill.units`` and ``fill.scale`` are read.

    It holds when the values are feasible, lam > 0 only if the block's row
    is tight, and each reduced cost d_c = costs[c] - lam is <= 0 on a
    column at zero, >= 0 on a column at its cap and 0 on a column strictly
    between: every feasible y then has sum costs * y <= lam * b + the sum
    of d_c * cap[c] over d_c > 0, which the values reach.  It is strict
    when every column is pinned (at zero with d_c < 0, at its cap with
    d_c > 0) but for at most one column strictly between, and that one
    only with lam > 0.  An optimum must then take every pinned value and
    fill the row, so it is the block's only optimum.  A block whose costs
    and values are all zero is pinned too.  P is the product of its
    blocks, so no pivot, flip or price update elsewhere touches that
    block's rows or prices: its prices stay 0, none of its columns ever
    beats them, and Bland's rule ends with the block at zero.  So a strict
    fill is the vertex Bland's rule ends on.

    lam is read from the values: a column strictly between sets it, a
    slack row makes it 0, and otherwise it is the midpoint between the
    costs at zero (and 0) below and the costs at cap above.  It is held
    doubled, so integer costs stay integers.  Values, caps and bounds are
    compared in integer units of 1/q.
    """
    blocks = _one_row_blocks(costs, layout)
    var, cap = layout.columns
    if len(fill.units) != len(var):
        raise LPInputError("a fill needs one value per LP column")
    q = lcm(fill.scale, *{u.denominator for u in cap if u is not None},
            *(b.denominator for b, _ in blocks))
    k = q // fill.scale
    strict = True
    for bound, group in blocks:
        if not any(costs[c] or fill.units[c] for c in group):
            continue  # pinned at zero
        zero, full, part = [], [], []
        total = 0
        for c in group:
            y, u = fill.units[c] * k, cap[c]
            top = None if u is None else u.numerator * (q // u.denominator)
            if y < 0 or (top is not None and y > top):
                return None
            total += y
            if not y:
                if top != 0:  # a column capped at 0 is fixed
                    zero.append(costs[c])
            elif y == top:
                full.append(costs[c])
            else:
                part.append(costs[c])
        b = bound.numerator * (q // bound.denominator)
        if total > b:
            return None
        tight = total == b
        low = max([0, *zero])
        if part:
            lam = 2 * part[0]
        elif not tight:
            lam = 0
        else:
            lam = low + min(full) if full else 2 * low + 2
        if (lam < 0 or (lam and not tight)
                or any(2 * d > lam for d in zero)
                or any(2 * d < lam for d in full)
                or any(2 * d != lam for d in part)):
            return None
        strict = (strict and len(part) <= 1 and (not part or lam > 0)
                  and all(2 * d < lam for d in zero)
                  and all(2 * d > lam for d in full))
    return strict


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
                     (None,) * nonneg_vars)
    while _step(t):
        pass
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

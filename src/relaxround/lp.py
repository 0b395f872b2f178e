"""Exact rational linear programming over explicit packing polytopes.

A tableau simplex with Bland's anti-cycling rule, run entirely on
``fractions.Fraction``.  Sizes are desk scale, so there is no scaling and
no presolve; exactness and determinism are the product.  Tableau rows stay
dense lists, but a pivot only touches the pivot row's nonzero columns,
which leaves every entry exactly as a dense pivot would.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class FinalTableau:
    """The optimal tableau a ``maximize_linear`` call ended on.

    Pass one to ``maximize_linear`` to have it filled in.  A new cost row
    over the same polytope leaves that basis primal feasible, so
    ``maximum`` prices the row out of it and resumes Bland's rule there
    instead of at the slack basis; Bland's rule terminates from any
    feasible basis.
    """

    def __init__(self) -> None:
        self.rows: list[list[Fraction]] | None = None
        self.basis: tuple[int, ...] = ()
        self.objective: tuple[Fraction, ...] = ()
        self.cost: tuple[Fraction, ...] = ()

    def maximum(self, objective: Sequence[Fraction]) -> Fraction:
        """Optimal value of objective.x over the recorded polytope.

        The value is unique, so it equals the value of a cold solve even
        where the optimal vertex would differ.
        """
        if self.rows is None:
            raise LPInputError("no optimal tableau has been recorded")
        n = len(self.objective)
        if len(objective) != n:
            raise LPInputError(f"objective has length {len(objective)}, "
                               f"expected {n}")
        # Reduced costs are linear in the cost row, so only the change from
        # the recorded objective needs pricing out, through the rows whose
        # basic variable's cost changed.
        delta = [new - old for new, old in zip(objective, self.objective)]
        cost = [c + d for c, d in zip(self.cost, delta)] + list(self.cost[n:])
        for row, b in zip(self.rows, self.basis):
            f = delta[b] if b < n else ZERO
            if f:
                cost = _minus(cost, f, row,
                              [j for j, a in enumerate(row) if a])
        # _pivot replaces rows and never mutates them, so a copy of the row
        # list leaves the recorded tableau intact for the next cost row.
        _bland_loop(list(self.rows), cost, list(self.basis),
                    n + len(self.rows))
        return -cost[-1]


def maximize_linear(objective: Sequence[Fraction], poly: Polytope,
                    final: FinalTableau | None = None
                    ) -> tuple[FractionalPoint, Fraction]:
    """Maximize c.x over the polytope; returns an exact optimal vertex.

    Ties are resolved by Bland's rule (lowest-index entering variable),
    which also guarantees termination.  ``final``, if given, receives the
    optimal tableau for re-optimizing other cost rows.
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
    if final is not None:
        final.rows, final.basis = tableau, tuple(basis)
        final.objective, final.cost = tuple(objective), tuple(cost)
    coords = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            coords[b] = tableau[i][-1]
    point = FractionalPoint(tuple(coords))
    value = sum((c * v for c, v in zip(objective, coords)), ZERO)
    return point, value


def phase_one(equalities: Sequence[Row],
              nonneg_vars: int) -> tuple[Optional[tuple[Fraction, ...]], Fraction]:
    """Find x >= 0 with E x = d, or report the residual infeasibility.

    Returns ``(solution, 0)`` for a basic feasible solution (at most
    ``len(equalities)`` nonzero entries) or ``(None, residual)`` where the
    residual is the minimal total constraint violation.
    """
    if nonneg_vars < 1:
        raise LPInputError("need at least one variable")
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, d in equalities:
        if len(coeffs) != nonneg_vars:
            raise LPInputError("equality row length does not match "
                               f"nonneg_vars={nonneg_vars}")
        if d < 0:
            rows.append([-c for c in coeffs])
            rhs.append(-d)
        else:
            rows.append(list(coeffs))
            rhs.append(d)
    k = len(rows)
    if k == 0:
        return tuple([ZERO] * nonneg_vars), ZERO
    total = nonneg_vars + k
    tableau = []
    for i in range(k):
        row = rows[i] + [ZERO] * k + [rhs[i]]
        row[nonneg_vars + i] = ONE
        tableau.append(row)
    # Maximize minus the artificial sum; pricing out the artificial basis
    # leaves column sums as reduced costs for the decision variables.
    cost = [ZERO] * (total + 1)
    for j in range(nonneg_vars):
        cost[j] = sum((tableau[i][j] for i in range(k)), ZERO)
    basis = list(range(nonneg_vars, total))
    _bland_loop(tableau, cost, basis, total)
    residual = sum((tableau[i][-1] for i in range(k)
                    if basis[i] >= nonneg_vars), ZERO)
    if residual > 0:
        return None, residual
    coords = [ZERO] * nonneg_vars
    for i, b in enumerate(basis):
        if b < nonneg_vars:
            coords[b] = tableau[i][-1]
    return tuple(coords), ZERO


def solve_feasibility(equalities: Sequence[Row],
                      nonneg_vars: int) -> Optional[tuple[Fraction, ...]]:
    """Nonnegative exact solution of an equality system, or None."""
    solution, _ = phase_one(equalities, nonneg_vars)
    return solution


def _solve_square(rows: list[list[Fraction]],
                  rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Gauss-Jordan elimination on an n x n rational system; None if singular."""
    n = len(rows)
    a = [row + [b] for row, b in zip(rows, rhs)]
    no_cost = [ZERO] * (n + 1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        _pivot(a, no_cost, col, col)
    return [a[i][-1] for i in range(n)]


def enumerate_vertices(poly: Polytope, max_vars: int = 8,
                       max_systems: int = 200_000) -> list[FractionalPoint]:
    """Brute-force vertex enumeration for desk-scale polytopes.

    Intersects every choice of ``num_vars`` constraint/nonnegativity planes
    and keeps the feasible solutions.  Intended as an oracle and for
    construction-time audits, not as a solver.
    """
    n = poly.num_vars
    if n > max_vars:
        raise LPInputError(f"vertex enumeration is limited to {max_vars} "
                           "variables")
    planes: list[tuple[tuple[Fraction, ...], Fraction]] = list(poly.constraints)
    for j in range(n):
        unit = tuple(ONE if i == j else ZERO for i in range(n))
        planes.append((unit, ZERO))
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

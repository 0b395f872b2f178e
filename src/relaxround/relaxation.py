"""Relaxed objectives over packing polytopes, and the alpha-contract audit.

The relaxed objective is either linear (one coefficient per variable) or
separable concave, represented exactly as one piecewise-linear curve per
variable.  Concave maximization is a single exact LP with one bounded
column per curve segment, so one solver serves both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lp import (FinalTableau, FractionalPoint, LPInputError, Polytope,
                 maximize_linear)
from .model import (Allocation, Instance, InvariantError, ValuationProfile,
                    ZERO, ONE, enumerate_feasible, indicator, social_welfare,
                    value_of, validate_profile)


class UnsupportedFamilyError(ValueError):
    """The instance family has no relaxation recipe."""


@dataclass(frozen=True)
class PiecewiseCurve:
    """A concave, nondecreasing piecewise-linear curve through the origin.

    ``points`` are (t, value) breakpoints with strictly increasing t
    starting at (0, 0); slopes must be nonnegative and nonincreasing.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.points) < 2 or self.points[0] != (ZERO, ZERO):
            raise ValueError("curve must start at (0, 0) with >= 2 points")
        last_slope = None
        for (t0, v0), (t1, v1) in zip(self.points, self.points[1:]):
            if t1 <= t0:
                raise ValueError("breakpoints must strictly increase")
            slope = (v1 - v0) / (t1 - t0)
            if slope < 0:
                raise ValueError("curve must be nondecreasing")
            if last_slope is not None and slope > last_slope:
                raise ValueError("curve must be concave")
            last_slope = slope
        object.__setattr__(self, "_segs", tuple(
            (t1 - t0, (v1 - v0) / (t1 - t0))
            for (t0, v0), (t1, v1) in zip(self.points, self.points[1:])))

    @property
    def domain_end(self) -> Fraction:
        return self.points[-1][0]

    def segments(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(length, slope) per linear piece."""
        return self._segs  # type: ignore[attr-defined]

    def value_at(self, t: Fraction) -> Fraction:
        if not (ZERO <= t <= self.domain_end):
            raise ValueError(f"argument {t} outside curve domain")
        for (t0, v0), (t1, v1) in zip(self.points, self.points[1:]):
            if t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return self.points[-1][1]

    def inverse(self, y: Fraction) -> Fraction:
        """Preimage of a value; requires strictly increasing segments."""
        if not (ZERO <= y <= self.points[-1][1]):
            raise ValueError(f"value {y} outside curve range")
        for (t0, v0), (t1, v1) in zip(self.points, self.points[1:]):
            if y <= v1:
                if v1 == v0:
                    raise ValueError("curve is flat; inverse is ambiguous")
                return t0 + (t1 - t0) * (y - v0) / (v1 - v0)
        return self.points[-1][0]

    def scaled(self, c: Fraction) -> "PiecewiseCurve":
        if c < 0:
            raise ValueError("curve scale must be nonnegative")
        return PiecewiseCurve(tuple((t, c * v) for t, v in self.points))


def zero_curve() -> PiecewiseCurve:
    return PiecewiseCurve(((ZERO, ZERO), (ONE, ZERO)))


@dataclass(frozen=True)
class RelaxedObjective:
    """L with its guarantee factor and the per-bidder variable split."""

    alpha: Fraction
    owners: tuple[int | None, ...]
    linear_coeffs: tuple[Fraction, ...] | None = None
    curves: tuple[PiecewiseCurve, ...] | None = None

    def __post_init__(self):
        if not (ZERO < self.alpha <= ONE):
            raise ValueError("alpha must lie in (0, 1]")
        if (self.linear_coeffs is None) == (self.curves is None):
            raise ValueError("exactly one of linear_coeffs/curves is required")
        n = len(self.linear_coeffs if self.curves is None else self.curves)
        if n != len(self.owners):
            raise ValueError("owners must cover every variable")

    @property
    def is_linear(self) -> bool:
        return self.linear_coeffs is not None

    @property
    def num_vars(self) -> int:
        return len(self.owners)

    def evaluate(self, coords: Sequence[Fraction]) -> Fraction:
        if len(coords) != self.num_vars:
            raise LPInputError("point dimension does not match objective")
        if self.linear_coeffs is not None:
            return sum((c * x for c, x in zip(self.linear_coeffs, coords)), ZERO)
        if self.curves is None:
            raise InvariantError("a curved objective must carry curves")
        return sum((curve.value_at(x)
                    for curve, x in zip(self.curves, coords)), ZERO)


def build_polytope(instance: Instance) -> Polytope:
    """The packing polytope of the family: bidder rows then item rows.

    It depends on the instance alone, so it is built once per instance.
    """
    if not instance.family.money:
        raise UnsupportedFamilyError(
            f"family {instance.family.name!r} has no relaxation recipe")
    if "polytope" in instance.derived:
        return instance.derived["polytope"]
    nv = instance.num_vars
    rows = []
    for bidder in range(instance.n):
        coeffs = tuple(ONE if owner == bidder else ZERO
                       for owner, _ in instance.variable_index)
        rows.append((coeffs, ONE))
    for item in range(instance.m):
        coeffs = tuple(ONE if item in bundle else ZERO
                       for _, bundle in instance.variable_index)
        rows.append((coeffs, ONE))
    return instance.derived.setdefault("polytope", Polytope(nv, tuple(rows)))


def _bundle_value(profile: ValuationProfile, instance: Instance,
                  var: int) -> Fraction:
    owner, bundle = instance.variable_index[var]
    if owner is None:
        raise InvariantError(f"variable {var} has no owner to value it")
    probe = Allocation(tuple(bundle if i == owner else frozenset()
                             for i in range(instance.n)))
    return value_of(profile, owner, probe)


def build_relaxation(instance: Instance,
                     profile: ValuationProfile) -> tuple[RelaxedObjective, Polytope]:
    """Assemble (L, P) for the reported profile: L is linear in the bids,
    or the family's unit curve scaled by each bid.

    That P contains every feasible allocation's indicator depends on the
    instance alone; the family constructors prove it once per instance.
    """
    validate_profile(instance, profile)
    poly = build_polytope(instance)
    owners = tuple(owner for owner, _ in instance.variable_index)
    bids = tuple(_bundle_value(profile, instance, v)
                 for v in range(instance.num_vars))
    curve = instance.spec.curve
    if curve is None:
        objective = RelaxedObjective(alpha=instance.spec.alpha, owners=owners,
                                     linear_coeffs=bids)
    else:
        objective = RelaxedObjective(alpha=instance.spec.alpha, owners=owners,
                                     curves=tuple(curve.scaled(bid)
                                                  for bid in bids))
    return objective, poly


def _segment_columns(objective: RelaxedObjective
                     ) -> tuple[list[int], list[Fraction], list[Fraction]]:
    """Variable, slope and length of every piece of a curved objective."""
    if objective.curves is None:
        raise InvariantError("segment columns need a curved objective")
    col_var: list[int] = []
    col_obj: list[Fraction] = []
    col_cap: list[Fraction] = []
    for v, curve in enumerate(objective.curves):
        for length, slope in curve.segments():
            col_var.append(v)
            col_obj.append(slope)
            col_cap.append(length)
    return col_var, col_obj, col_cap


def solve_relaxation(objective: RelaxedObjective, poly: Polytope,
                     final: FinalTableau | None = None) -> FractionalPoint:
    """Exact maximizer of L over P, deterministic via Bland's rule.

    ``final``, if given, receives the optimal state of the LP solved (with
    one capped column per curve segment for a curved L), for
    ``residual_maximum``.
    """
    if objective.num_vars != poly.num_vars:
        raise LPInputError("objective and polytope dimensions differ")
    if objective.is_linear:
        point, _ = maximize_linear(objective.linear_coeffs, poly, final)
        return point
    # One LP column per linear piece, capped at its length; concavity
    # (nonincreasing slopes) makes the split exact at any LP optimum.
    col_var, col_obj, col_cap = _segment_columns(objective)
    delta, value = maximize_linear(col_obj, poly, final, (col_var, col_cap))
    coords = [ZERO] * poly.num_vars
    for c, d in enumerate(delta.coords):
        coords[col_var[c]] += d
    point = FractionalPoint(tuple(coords))
    # Any optimal fill is ordered up to slope ties, so folding is lossless.
    folded = objective.evaluate(point.coords)
    if folded != value:
        raise InvariantError(f"folding the segment fill changed the value "
                             f"from {value} to {folded}")
    return point


def _check_bidder(objective: RelaxedObjective, k: int) -> None:
    known = [o for o in objective.owners if o is not None]
    if k < 0 or (known and k > max(known)):
        raise IndexError(f"bidder index {k} out of range")


def residual_maximum(objective: RelaxedObjective, k: int,
                     final: FinalTableau) -> Fraction:
    """max L^{-k} over P, re-optimized from the solve of L.

    ``final`` holds the optimal tableau of ``solve_relaxation(objective,
    poly)``.  Bidder k's cost entries are set to zero on the same columns
    (its segment slopes, for a curved L), so that basis stays feasible.
    Zeroed columns add nothing and P is packing, so the maximum equals that
    of ``residual_objective(objective, k)`` over P.  Raises InvariantError
    if ``final`` was recorded for other costs than L's.
    """
    _check_bidder(objective, k)
    if objective.is_linear:
        owners = objective.owners
        costs: Sequence[Fraction] = objective.linear_coeffs
    else:
        col_var, costs, _ = _segment_columns(objective)
        owners = tuple(objective.owners[v] for v in col_var)
    if tuple(costs) != final.slopes:
        raise InvariantError("the recorded tableau was solved for other "
                             "costs than this relaxation's")
    return final.maximum([ZERO if owner == k else c
                          for c, owner in zip(costs, owners)])


def residual_objective(objective: RelaxedObjective,
                       k: int) -> RelaxedObjective:
    """L with bidder k removed: zero out every variable k owns."""
    _check_bidder(objective, k)
    if objective.is_linear:
        coeffs = tuple(ZERO if owner == k else c
                       for c, owner in zip(objective.linear_coeffs,
                                           objective.owners))
        return RelaxedObjective(alpha=objective.alpha, owners=objective.owners,
                                linear_coeffs=coeffs)
    if objective.curves is None:
        raise InvariantError("a curved objective must carry curves")
    curves = tuple(zero_curve() if owner == k else curve
                   for curve, owner in zip(objective.curves, objective.owners))
    return RelaxedObjective(alpha=objective.alpha, owners=objective.owners,
                            curves=curves)


@dataclass(frozen=True)
class AlphaAudit:
    """Result of checking L(chi(s)) >= alpha f(s) over the feasible set."""

    passed: bool
    equality_holds: bool
    cases: int
    counterexample: Optional[tuple[Allocation, Fraction, Fraction]] = None


def audit_alpha(objective: RelaxedObjective, instance: Instance,
                profile: ValuationProfile) -> AlphaAudit:
    """Desk-scale audit of the alpha contract between L and f.

    For linear objectives the stronger per-allocation equality
    L(chi(s)) = f(s) is checked as well.
    """
    equality = True
    unequal = None
    cases = 0
    for alloc in enumerate_feasible(instance):
        cases += 1
        lval = objective.evaluate(indicator(instance, alloc))
        fval = social_welfare(profile, alloc)
        if lval < objective.alpha * fval:
            return AlphaAudit(False, False, cases, (alloc, lval, fval))
        if lval != fval and equality:
            equality = False
            unequal = (alloc, lval, fval)
    if objective.is_linear and not equality:
        return AlphaAudit(False, False, cases, unequal)
    return AlphaAudit(True, equality, cases)

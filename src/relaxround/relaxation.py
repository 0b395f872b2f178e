"""Relaxed objectives over packing polytopes, and the alpha-contract audit.

The relaxed objective is the bids times 1 (linear) or times the family's
concave piecewise-linear unit curve, one per variable.  Concave
maximization is a single exact LP with one bounded column per curve
segment, so one LP serves both shapes.  Where every block of the polytope
is one row (gap-toy, single-item, case-b, single-minded markets of two
bidders), ``_maximize`` water-fills that LP and keeps the fill on a
certificate; elsewhere, and where optima may tie, Bland's simplex solves
it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .lp import (FractionalPoint, Layout, LPInputError, Polytope,
                 certify_fill, column_layout, contains, maximize_linear,
                 water_fill)
from .model import (Allocation, Instance, InvariantError, ValuationProfile,
                    ZERO, ONE, bids, enumerate_feasible, indicator,
                    social_welfare, validate_profile)


class UnsupportedFamilyError(ValueError):
    """The instance family has no relaxation recipe."""


def _over_one_denominator(values: Sequence[Fraction]
                          ) -> tuple[list[int], int]:
    """Rationals as integer numerators over one positive denominator,
    returned as (numerators, denominator)."""
    common = lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


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
        object.__setattr__(self, "_ends", tuple(t for t, _ in self.points[1:]))
        # The slopes as integers over one denominator, for integer costs.
        object.__setattr__(self, "_int_slopes", _over_one_denominator(
            [slope for _, slope in self._segs]))
        # Layouts are held per curve tuple, so the hash is computed once.
        object.__setattr__(self, "_hash", hash(self.points))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def domain_end(self) -> Fraction:
        return self.points[-1][0]

    def segments(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(length, slope) per linear piece."""
        return self._segs  # type: ignore[attr-defined]

    def value_at(self, t: Fraction) -> Fraction:
        if not (ZERO <= t <= self.domain_end):
            raise ValueError(f"argument {t} outside curve domain")
        # The first segment whose right end reaches t.
        k = bisect_left(self._ends, t)  # type: ignore[attr-defined]
        t0, v0 = self.points[k]
        return v0 + self._segs[k][1] * (t - t0)  # type: ignore[attr-defined]

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


@dataclass(frozen=True)
class RelaxedObjective:
    """L with its guarantee factor and the per-bidder variable split.

    L(x) is the sum of ``terms(x)``: coeffs[v] * x_v for a linear L
    (``curves`` is None), and coeffs[v] * curves[v](x_v) for a concave one.
    """

    alpha: Fraction
    owners: tuple[int | None, ...]
    coeffs: tuple[Fraction, ...]
    curves: tuple[PiecewiseCurve, ...] | None

    def __post_init__(self):
        if not (ZERO < self.alpha <= ONE):
            raise ValueError("alpha must lie in (0, 1]")
        if not len(self.coeffs) == len(self.owners) == len(
                self.curves or self.owners):
            raise ValueError("owners must cover every variable")

    @property
    def is_linear(self) -> bool:
        return self.curves is None

    @property
    def num_vars(self) -> int:
        return len(self.owners)

    def terms(self, coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(coords) != self.num_vars:
            raise LPInputError("point dimension does not match objective")
        units = coords if self.curves is None else map(
            PiecewiseCurve.value_at, self.curves, coords)
        return tuple(map(mul, self.coeffs, units))

    def evaluate(self, coords: Sequence[Fraction]) -> Fraction:
        return sum(self.terms(coords), ZERO)


@dataclass(frozen=True)
class RelaxedOptimum:
    """x*, a maximizer of L over P, L(x*) and L's terms at x*: all that
    the Clarke pivots and the charge read, however x* was found."""

    objective: RelaxedObjective
    coords: tuple[Fraction, ...]
    value: Fraction

    @cached_property
    def terms(self) -> tuple[Fraction, ...]:
        return self.objective.terms(self.coords)


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


def build_relaxation(instance: Instance,
                     profile: ValuationProfile) -> tuple[RelaxedObjective, Polytope]:
    """Assemble (L, P) for the reported profile: L is the bids times 1
    (linear) or times the family's unit curve, one per variable.

    That P contains every feasible allocation's indicator depends on the
    instance alone; the family constructors prove it once per instance.
    """
    validate_profile(instance, profile)
    poly = build_polytope(instance)
    owners = tuple(owner for owner, _ in instance.variable_index)
    curve = instance.spec.curve
    return RelaxedObjective(
        alpha=instance.spec.alpha, owners=owners,
        coeffs=bids(instance, profile),
        curves=None if curve is None else (curve,) * len(owners)), poly


def _layout(objective: RelaxedObjective, poly: Polytope) -> Layout:
    """L's LP columns over P: one per variable for a linear L, and one per
    linear piece, capped at its length, for a curved one.  They depend on
    P and L's curves alone, so P holds one layout per curve tuple."""
    layouts = poly._layouts  # type: ignore[attr-defined]
    curves = objective.curves
    if curves not in layouts:
        layouts[curves] = column_layout(poly, None if curves is None else (
            [v for v, curve in enumerate(curves) for _ in curve._segs],
            [length for curve in curves for length, _ in curve._segs]))
    return layouts[curves]


def _integer_costs(objective: RelaxedObjective) -> tuple[list[int], int]:
    """The LP columns' costs as integers over one positive denominator,
    returned as (costs, denominator): the bids, times each piece's slope
    for a curved L, in ``_layout``'s order."""
    bids, scale = _over_one_denominator(objective.coeffs)
    if objective.curves is None:
        return bids, scale
    unit = lcm(*(curve._int_slopes[1] for curve in objective.curves))
    costs = []
    for bid, curve in zip(bids, objective.curves):
        slopes, den = curve._int_slopes
        costs += [bid * (unit // den) * slope for slope in slopes]
    return costs, scale * unit


def _maximize(costs: Sequence[int], scale: int, layout: Layout,
              unique: bool = True) -> tuple[tuple[Fraction, ...], Fraction]:
    """An optimum of the LP of ``layout``'s columns at the integer
    ``costs`` over ``scale`` (``_integer_costs``), with its value.

    Where every block of P is one row (``lp.water_fill``), the greedy fill
    is taken if ``lp.certify_fill`` proves it the vertex Bland's rule ends
    on: the only optimum on each block with a nonzero cost, and zero on
    each block whose costs are all zero.  P is the product of its blocks,
    so no pivot, flip or price update elsewhere touches such a block's
    rows or prices; its prices stay 0, which none of its costs beats, and
    Bland's rule ends with it at zero.  With ``unique`` False only the
    value is read, so any certificate will do, ties included, and the
    point is one optimum of possibly several.  Otherwise one cold
    ``maximize_linear`` solves it on the same integer costs: a positive
    factor on every cost leaves Bland's path unchanged and scales the
    value.  A certificate that fails raises.
    """
    if layout.blocks is not None:
        fill = water_fill(costs, layout)
        strict = certify_fill(costs, layout, fill)
        if strict is None:
            raise InvariantError("the water-fill's optimality certificate "
                                 f"fails for the fill {fill}")
        if strict or not unique:
            return fill.coords, fill.value / scale
    final = maximize_linear(costs, layout.poly, layout.columns)
    return final.coords, final.value / scale


def solve_relaxation(objective: RelaxedObjective,
                     poly: Polytope) -> RelaxedOptimum:
    """Exact maximizer x* of L over P and L(x*): the vertex Bland's rule
    ends on, found by the simplex or by a fill certified to be the only
    optimum.  ``residual_maxima`` prices every max L^{-k} from them."""
    if objective.num_vars != poly.num_vars:
        raise LPInputError("objective and polytope dimensions differ")
    optimum = RelaxedOptimum(objective, *_maximize(
        *_integer_costs(objective), _layout(objective, poly)))
    # L's terms at x* must sum to the LP's value: concavity (nonincreasing
    # slopes) orders any optimal fill up to slope ties, so folding is lossless.
    if sum(optimum.terms, ZERO) != optimum.value:
        raise InvariantError(f"folding the fill changed the value from "
                             f"{optimum.value} to {sum(optimum.terms, ZERO)}")
    return optimum


def residual_maxima(instance: Instance,
                    optimum: RelaxedOptimum) -> tuple[Fraction, ...]:
    """max L^{-k} over P for every bidder k, from an optimum of max L.

    Only L, x* and L(x*) are read, so x* may come from any solver; an x*
    outside the instance's polytope P raises InvariantError.  L^{-k} is
    ``residual_objective(L, k)``, and its LP costs are L's integer costs
    with bidder k's columns zeroed (``_zeroed``).  A bidder whose
    coordinates of x* are all zero keeps L(x*): coefficients are
    nonnegative, so L^{-k} <= L on P.

    A linear L over a family whose constructor audited every vertex of P
    (single-minded auctions) peaks at a vertex, so it is maximized over
    that table.  x* must be one of its vertices, and the table's max L
    must equal L(x*), so a table missing the optimal vertex raises.
    Otherwise (gap-toy's curved L, single-item, case-b) L^{-k} is
    maximized over P by ``_maximize``, whose value alone is read, so a
    one-row P takes any certified water-fill, ties included.
    Optimal values are unique, so both ways give the same number; x* stays
    Bland's vertex, whose lottery ``run`` plays even where vertices tie for
    max L.
    """
    objective, coords, value = optimum.objective, optimum.coords, optimum.value
    owners = objective.owners
    winners = {owner for owner, x in zip(owners, coords) if x}
    poly = build_polytope(instance)
    tabled = instance.spec.curve is None and instance.vertex_lotteries
    # The table's checks below refuse an x* that is none of its vertices.
    if len(coords) != poly.num_vars or not (
            tabled or contains(poly, FractionalPoint(coords))):
        raise InvariantError(f"x* = {coords} lies outside this "
                             "instance's polytope")
    layout = _layout(objective, poly)
    costs, scale = _integer_costs(objective)
    column_owners = [owners[v] for v in layout.columns[0]]
    if tabled:
        common, rows = _vertex_rows(instance)

        def top(k: Optional[int]) -> Fraction:
            residual = _zeroed(costs, column_owners, k)
            return Fraction(max(sum(map(mul, residual, row))
                                for row in rows), scale * common)

        best = top(None)  # money families own every variable: max L
        if best != value:
            raise InvariantError(f"the vertex table's max L is {best}, but "
                                 f"the recorded optimum is {value}")
        if coords not in instance.vertex_lotteries:
            raise InvariantError(f"x* = {coords} is not a vertex of this "
                                 "instance's polytope")
    else:
        def top(k: Optional[int]) -> Fraction:
            return _maximize(_zeroed(costs, column_owners, k), scale, layout,
                             unique=False)[1]
    return tuple(top(k) if k in winners else value
                 for k in range(instance.n))


def _zeroed(costs: Sequence[int], owners: Sequence[Optional[int]],
            k: Optional[int]) -> list[int]:
    """L^{-k}'s integer LP costs: L's, with the columns that bidder k owns
    (``owners``, one per LP column) zeroed."""
    return [0 if owner == k else c for c, owner in zip(costs, owners)]


def _vertex_rows(instance: Instance) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The vertices of ``instance.vertex_lotteries`` as integer rows over
    one common denominator, returned as (denominator, rows).

    They depend on the instance alone, so they are built once per instance.
    """
    if "vertex_rows" in instance.derived:
        return instance.derived["vertex_rows"]
    vertices = tuple(instance.vertex_lotteries)
    scale = lcm(*(x.denominator for coords in vertices for x in coords))
    rows = tuple(tuple(x.numerator * (scale // x.denominator) for x in coords)
                 for coords in vertices)
    return instance.derived.setdefault("vertex_rows", (scale, rows))


def residual_objective(objective: RelaxedObjective,
                       k: int) -> RelaxedObjective:
    """L with bidder k removed: zero every coefficient k owns, which is L
    of the same profile with bidder k's bid set to 0."""
    known = [o for o in objective.owners if o is not None]
    if k < 0 or (known and k > max(known)):
        raise IndexError(f"bidder index {k} out of range")
    return replace(objective, coeffs=tuple(
        ZERO if owner == k else c
        for c, owner in zip(objective.coeffs, objective.owners)))


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

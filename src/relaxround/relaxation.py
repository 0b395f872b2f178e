"""Relaxed objectives over packing polytopes, and the alpha-contract audit.

The relaxed objective is the bids times 1 (linear) or times the family's
concave piecewise-linear unit curve, one per variable.  Concave
maximization is a single exact LP with one bounded column per curve
segment, so one solver serves both shapes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .lp import FinalTableau, LPInputError, Polytope, maximize_linear
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
        object.__setattr__(self, "_ends", tuple(t for t, _ in self.points[1:]))

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

    L(x) = sum of coeffs[v] * x_v for a linear L (``curves`` is None), and
    sum of coeffs[v] * curves[v](x_v) for a separable concave one.
    """

    alpha: Fraction
    owners: tuple[int | None, ...]
    coeffs: tuple[Fraction, ...]
    curves: tuple[PiecewiseCurve, ...] | None = None

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

    def evaluate(self, coords: Sequence[Fraction]) -> Fraction:
        if len(coords) != self.num_vars:
            raise LPInputError("point dimension does not match objective")
        if self.curves is None:
            return sum((c * x for c, x in zip(self.coeffs, coords)), ZERO)
        return sum((c * curve.value_at(x) for c, curve, x
                    in zip(self.coeffs, self.curves, coords)), ZERO)


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
    """Assemble (L, P) for the reported profile: L is the bids times 1
    (linear) or times the family's unit curve, one per variable.

    That P contains every feasible allocation's indicator depends on the
    instance alone; the family constructors prove it once per instance.
    """
    validate_profile(instance, profile)
    poly = build_polytope(instance)
    owners = tuple(owner for owner, _ in instance.variable_index)
    bids = tuple(_bundle_value(profile, instance, v)
                 for v in range(instance.num_vars))
    curve = instance.spec.curve
    return RelaxedObjective(
        alpha=instance.spec.alpha, owners=owners, coeffs=bids,
        curves=None if curve is None else (curve,) * len(bids)), poly


def _segment_columns(objective: RelaxedObjective
                     ) -> tuple[list[int], list[Fraction], list[Fraction]]:
    """Variable, slope and length of every piece of a curved objective."""
    curves = objective.curves
    col_var = [v for v, curve in enumerate(curves) for _ in curve._segs]
    col_obj = [coeff * slope for coeff, curve in zip(objective.coeffs, curves)
               for _, slope in curve._segs]
    col_cap = [length for curve in curves for length, _ in curve._segs]
    return col_var, col_obj, col_cap


def solve_relaxation(objective: RelaxedObjective,
                     poly: Polytope) -> FinalTableau:
    """Exact maximizer of L over P, deterministic via Bland's rule.

    Returns the optimal tableau of the LP solved (with one capped column
    per curve segment for a curved L): its ``coords`` is the maximizer,
    its ``value`` is L there, and ``residual_maxima`` prices every
    bidder's max L^{-k} from it.
    """
    if objective.num_vars != poly.num_vars:
        raise LPInputError("objective and polytope dimensions differ")
    if objective.is_linear:
        return maximize_linear(objective.coeffs, poly)
    # One LP column per linear piece, capped at its length; concavity
    # (nonincreasing slopes) makes the split exact at any LP optimum.
    col_var, col_obj, col_cap = _segment_columns(objective)
    final = maximize_linear(col_obj, poly, (col_var, col_cap))
    # Any optimal fill is ordered up to slope ties, so folding is lossless.
    folded = objective.evaluate(final.coords)
    if folded != final.value:
        raise InvariantError(f"folding the segment fill changed the value "
                             f"from {final.value} to {folded}")
    return final


def residual_maxima(instance: Instance,
                    final: FinalTableau) -> tuple[Fraction, ...]:
    """max L^{-k} over P for every bidder k, from the recorded solve of max L.

    ``final`` holds the optimal tableau of ``solve_relaxation`` over the
    instance's polytope; its ``slopes`` are L's costs, one per LP column,
    and ``var`` maps each column to a polytope variable.  L^{-k} is L with
    bidder k's costs set to zero; zeroed columns add nothing and P is
    packing, so its maximum equals that of ``residual_objective`` over P.
    Raises InvariantError if ``final`` was recorded over another polytope
    than the instance's.

    A bidder whose coordinates of x* are all zero needs no
    re-optimization: costs are nonnegative, so L^{-k} <= L on P, and
    L^{-k}(x*) = L(x*) is already the recorded value.

    A linear L over a family whose constructor audited every vertex of P
    (single-minded auctions) is maximized over that vertex table, since a
    linear function peaks at a vertex; the table's max L is checked once
    against the recorded value, so a table missing the optimal vertex
    raises InvariantError.

    Otherwise (gap-toy's curved L, single-item, case-b), two variables
    share a block when some row has nonzero coefficients on both.  P is the
    product of its blocks and L a sum over them, so x* is optimal on each
    block.  Let B(k) be the blocks holding k's variables and F(k) the rest
    of B(k).  Off B(k), L^{-k} = L peaks at x*: L(x*) - L_{B(k)}(x*).  On
    B(k), k's columns cost nothing and P is downward closed, so x_k = 0
    loses nothing: max L over P_{F(k)}, P's rows restricted to F(k), by
    one cold ``maximize_linear`` (0 if F(k) is empty).  Optimal values are
    unique, so every path returns the same number; x* stays Bland's
    vertex, whose lottery ``run`` plays even where vertices tie for max L.
    """
    if final.poly != build_polytope(instance):
        raise InvariantError("the recorded tableau was solved over another "
                             "polytope than this instance's")
    owners = [owner for owner, _ in instance.variable_index]
    winners = {owner for owner, x in zip(owners, final.coords) if x}
    if instance.spec.curve is None and instance.vertex_lotteries:
        scale, rows = _vertex_rows(instance)
        common = lcm(*(c.denominator for c in final.slopes))
        costs = [0] * instance.num_vars
        for c, v in zip(final.slopes, final.var):
            costs[v] = c.numerator * (common // c.denominator)

        def top(k: Optional[int]) -> Fraction:
            residual = [0 if owner == k else c
                        for c, owner in zip(costs, owners)]
            return Fraction(max(sum(map(mul, residual, row)) for row in rows),
                            common * scale)

        best = top(None)  # money families own every variable: max L
        if best != final.value:
            raise InvariantError(f"the vertex table's max L is {best}, but "
                                 f"the recorded optimum is {final.value}")
    else:
        faces = _faces(instance)
        columns = list(zip(final.slopes, final.values, final.var, final.cap))

        def top(k: Optional[int]) -> Fraction:
            block, local, face = faces[k]
            rest = final.value - sum((s * y for s, y, v, _ in columns
                                      if y and v in block), ZERO)
            if face is None:
                return rest
            kept = [(s, local[v], u) for s, _, v, u in columns if v in local]
            return rest + maximize_linear(
                [s for s, _, _ in kept], face,
                ([v for _, v, _ in kept], [u for _, _, u in kept])).value
    return tuple(top(k) if k in winners else final.value
                 for k in range(instance.n))


def _faces(instance: Instance) -> tuple[
        tuple[frozenset[int], dict[int, int], Optional[Polytope]], ...]:
    """Per bidder k: B(k), F(k) as a map from variable to face variable,
    and P_{F(k)} with each nonzero row once (None if F(k) is empty).

    They depend on the instance alone, so they are built once per instance,
    and bidders whose faces are equal share one polytope.
    """
    if "faces" in instance.derived:
        return instance.derived["faces"]
    poly = build_polytope(instance)
    block = [{v} for v in range(poly.num_vars)]  # each variable's block
    for coeffs, _ in poly.constraints:
        joined = set().union(*(block[v] for v, c in enumerate(coeffs) if c))
        for v in joined:
            block[v] = joined
    faces, shared = [], {}
    for k in range(instance.n):
        own = {v for v, (owner, _) in enumerate(instance.variable_index)
               if owner == k}
        near = frozenset().union(*(block[v] for v in own))
        local = {v: i for i, v in enumerate(sorted(near - own))}
        rows = tuple(dict.fromkeys((tuple(c[v] for v in local), bound)
                                   for c, bound in poly.constraints
                                   if any(c[v] for v in local)))
        # rows == () iff F(k) is empty: face variables share rows with k's.
        if rows and rows not in shared:
            shared[rows] = Polytope(len(local), rows)
        faces.append((near, local, shared.get(rows)))
    return instance.derived.setdefault("faces", tuple(faces))


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

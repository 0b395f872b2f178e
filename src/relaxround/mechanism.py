"""The assembled mechanism: allocation rule, payments, range, no-money path.

The allocation rule maximizes the relaxed objective exactly, decomposes the
(scaled) optimum into an exact lottery and applies the family's thinning
case.  Payments charge each bidder the externality measured on the same
calibrated scale, which makes the expected-utility identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .lp import FinalTableau, FractionalPoint, Polytope, contains
from .model import (Allocation, Instance, InvariantError, ValuationProfile,
                    ZERO, ONE, enumerate_feasible, indicator,
                    validate_profile, value_of)
from .relaxation import (RelaxedObjective, UnsupportedFamilyError,
                         build_polytope, build_relaxation, residual_maximum,
                         residual_objective, solve_relaxation)
from .rounding import (AllocationDistribution, adjust, convex_decompose,
                       expected_value_per_bidder, sample)


@dataclass(frozen=True)
class MechanismOutcome:
    """Distribution, a sampled allocation, payments and the relaxed value."""

    distribution: AllocationDistribution
    realized: Allocation
    expected_payments: tuple[Fraction, ...]
    relaxed_value: Fraction
    calibration: Fraction
    seed: int


def keep_probabilities(instance: Instance,
                       x: FractionalPoint) -> tuple[Fraction, ...]:
    """The family's per-bidder keep probabilities at a fractional point.

    With a curve, keep_i = curve(x_i) / x_i, the exact case-(a) deflation
    to L; otherwise every bidder is kept with probability beta (1 outside
    case b).  They read the instance and the point only, never a profile.
    """
    curve = instance.spec.curve
    if curve is None:
        return tuple(instance.spec.beta for _ in range(instance.n))
    probs = [ONE] * instance.n
    for v, (owner, _) in zip(x.coords, instance.variable_index):
        if owner is None:
            raise InvariantError("the curve-ratio keep formula needs an "
                                 "owner for every variable")
        probs[owner] = curve.value_at(v) / v if v > 0 else ONE
    return tuple(probs)


def _round_point(instance: Instance,
                 x: FractionalPoint) -> AllocationDistribution:
    """The oblivious part of the pipeline: decompose, then thin.

    A vertex the family constructor already rounded is read back from
    ``instance.vertex_lotteries`` as it is.
    """
    cached = instance.vertex_lotteries.get(x.coords)
    if cached is not None:
        return cached
    dist = convex_decompose(x, instance.spec.decomposition_scale, instance)
    return adjust(dist, instance.spec.rounding_case,
                  keep_probabilities(instance, x))


def _solve(instance: Instance, profile: ValuationProfile
           ) -> tuple[RelaxedObjective, FractionalPoint, FinalTableau]:
    """Build (L, P) and maximize L once, keeping the optimal tableau."""
    objective, poly = build_relaxation(instance, profile)
    final = FinalTableau()
    optimum = solve_relaxation(objective, poly, final)
    return objective, optimum, final


def _charge(instance: Instance, profile: ValuationProfile,
            dist: AllocationDistribution, objective: RelaxedObjective,
            final: FinalTableau) -> tuple[Fraction, ...]:
    """Externality payments, each residual maximum taken from ``final``."""
    expectations = expected_value_per_bidder(dist, profile)
    total = sum(expectations, ZERO)
    gamma = instance.spec.calibration
    return tuple(gamma * residual_maximum(objective, k, final)
                 - (total - expectations[k]) for k in range(instance.n))


def allocate(instance: Instance, profile: ValuationProfile,
             final: FinalTableau | None = None
             ) -> tuple[FractionalPoint, AllocationDistribution]:
    """Relax, maximize, decompose, thin; deterministic end to end.  ``final``,
    if given, receives the optimal tableau, for ``payments``."""
    objective, poly = build_relaxation(instance, profile)
    optimum = solve_relaxation(objective, poly, final)
    return optimum, _round_point(instance, optimum)


def payments(instance: Instance, profile: ValuationProfile,
             dist: AllocationDistribution,
             final: FinalTableau | None = None) -> tuple[Fraction, ...]:
    """Expected externality payments on the calibrated scale.

    p_k = calibration * max L^{-k} - E[sum of the others' values].  Each
    residual maximum is re-optimized from the optimal tableau of max L, on
    the same (segment-expanded) LP, so both terms live on the same scale.
    That tableau is ``final`` as ``allocate`` recorded it for this instance
    and profile, or else a new solve; another LP's raises InvariantError.
    """
    if final is None:
        objective, _, final = _solve(instance, profile)
    else:
        objective, poly = build_relaxation(instance, profile)
        if final.polytope != poly:
            raise InvariantError("the recorded tableau was solved on another "
                                 "polytope than this instance's")
    return _charge(instance, profile, dist, objective, final)


def run(instance: Instance, profile: ValuationProfile,
        seed: int) -> MechanismOutcome:
    """Full mechanism: allocate, price, and sample one allocation.

    One relaxation is built and solved; the payments re-optimize from it.
    """
    objective, optimum, final = _solve(instance, profile)
    dist = _round_point(instance, optimum)
    pay = _charge(instance, profile, dist, objective, final)
    realized = sample(dist, seed)
    if realized not in dist.support():
        raise InvariantError(f"sampled allocation {realized.bitmasks()} "
                             "is outside the distribution's support")
    return MechanismOutcome(distribution=dist, realized=realized,
                            expected_payments=pay,
                            relaxed_value=objective.evaluate(optimum.coords),
                            calibration=instance.spec.calibration, seed=seed)


def _excluded_distribution(instance: Instance, objective: RelaxedObjective,
                           poly: Polytope, k: int) -> AllocationDistribution:
    """Pipeline run on the residual objective with bidder k silenced."""
    # Cold solve: this rounds the residual vertex, not just its value, and a
    # warm start may stop at another optimal vertex.
    best = solve_relaxation(residual_objective(objective, k), poly)
    return _round_point(instance, best)


def expected_realized_payments(instance: Instance,
                               profile: ValuationProfile
                               ) -> tuple[Fraction, ...]:
    """Expectation of the realized payment variant, both pipelines exact.

    Bidder k pays the others' welfare under the k-excluded pipeline minus
    their welfare under the main pipeline; in expectation this equals the
    expected payment rule.
    """
    objective, poly = build_relaxation(instance, profile)
    dist = _round_point(instance, solve_relaxation(objective, poly))
    main = expected_value_per_bidder(dist, profile)
    result = []
    for k in range(instance.n):
        excluded = _excluded_distribution(instance, objective, poly, k)
        without_k = expected_value_per_bidder(excluded, profile)
        first = sum((without_k[i] for i in range(instance.n) if i != k), ZERO)
        second = sum((main[i] for i in range(instance.n) if i != k), ZERO)
        result.append(first - second)
    return tuple(result)


def realized_payments(instance: Instance, profile: ValuationProfile,
                      seed: int) -> tuple[Fraction, ...]:
    """One seeded draw of the realized payment variant per bidder.

    The k-excluded pipeline uses the derived seed seed * 1_000_003 + k + 1.
    """
    objective, poly = build_relaxation(instance, profile)
    main = sample(_round_point(instance, solve_relaxation(objective, poly)),
                  seed)
    result = []
    for k in range(instance.n):
        excluded = _excluded_distribution(instance, objective, poly, k)
        drawn = sample(excluded, seed * 1_000_003 + k + 1)
        first = sum((value_of(profile, i, drawn)
                     for i in range(instance.n) if i != k), ZERO)
        second = sum((value_of(profile, i, main)
                      for i in range(instance.n) if i != k), ZERO)
        result.append(first - second)
    return tuple(result)


def range_contains(instance: Instance,
                   dist: AllocationDistribution) -> bool:
    """Exact membership test for the distributional range.

    The range is the image of the rounding pipeline over the family
    polytope, so it depends on the instance alone.  Reconstructs the unique
    candidate preimage from the distribution's variable marginals (dividing
    out the calibration, or inverting the family's curve), then accepts iff
    the preimage lies in the polytope and the pipeline reproduces the
    distribution bit for bit.
    """
    feasible = set(enumerate_feasible(instance))
    if any(a not in feasible for a in dist.support()):
        return False
    nv = instance.num_vars
    marginals = [ZERO] * nv
    for alloc, p in dist.entries:
        chi = indicator(instance, alloc)
        for v in range(nv):
            marginals[v] += p * chi[v]
    curve = instance.spec.curve
    if curve is None:
        coords = [m_v / instance.spec.calibration for m_v in marginals]
    elif any(m_v > curve.points[-1][1] for m_v in marginals):
        return False
    else:
        coords = [curve.inverse(m_v) for m_v in marginals]
    if any(c > ONE for c in coords):
        return False
    preimage = FractionalPoint(tuple(coords))
    if not contains(build_polytope(instance), preimage):
        return False
    return _round_point(instance, preimage) == dist


def run_without_money(instance: Instance, profile: ValuationProfile
                      ) -> tuple[FractionalPoint, AllocationDistribution]:
    """Payment-free pipeline for the lottery and single-peaked families.

    The lottery plays the constant equal-split point (report-independent,
    hence fractionally truthful) rounded by the uniform single-winner
    lottery; the single-peaked family returns the point mass on the median
    of the reported peaks (lower median for even counts).
    """
    validate_profile(instance, profile)
    if instance.family.money:
        raise UnsupportedFamilyError(f"family {instance.family.name!r} is "
                                     "not a without-money family")
    if not instance.family.shared:
        share = Fraction(1, instance.n)
        x = FractionalPoint(tuple(share for _ in range(instance.n)))
        return x, convex_decompose(x, ONE, instance)
    peaks = sorted(v.peak for v in profile.valuations)
    median = peaks[(instance.n - 1) // 2]
    position = int(median)
    alloc = Allocation(tuple(frozenset({position}) for _ in range(instance.n)))
    x = FractionalPoint(indicator(instance, alloc))
    return x, AllocationDistribution.from_pairs([(alloc, ONE)])

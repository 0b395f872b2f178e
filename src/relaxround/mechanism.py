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
from .relaxation import (PiecewiseCurve, RelaxedObjective,
                         UnsupportedFamilyError, build_polytope,
                         build_relaxation, residual_maximum,
                         residual_objective, solve_relaxation)
from .rounding import (AllocationDistribution, adjust, convex_decompose,
                       exact_distribution, expected_value_per_bidder, sample)


@dataclass(frozen=True)
class MechanismOutcome:
    """Distribution, a sampled allocation, payments and the relaxed value."""

    distribution: AllocationDistribution
    realized: Allocation
    expected_payments: tuple[Fraction, ...]
    relaxed_value: Fraction
    calibration: Fraction
    seed: int


@dataclass(frozen=True)
class RangeDescriptor:
    """Identity of the valuation-independent distributional range.

    The generator is the rounding pipeline (family tag, scale, case, keep
    formula) over the family polytope; it is built from the instance alone.
    """

    family: str
    alpha: Fraction
    decomposition_scale: Fraction
    rounding_case: str
    beta: Fraction
    keep_prob_name: str
    polytope: Polytope


def keep_probabilities(instance: Instance,
                       x: FractionalPoint) -> tuple[Fraction, ...]:
    """The family's per-bidder keep probabilities at a fractional point."""
    if instance.spec.keep_prob is None:
        return tuple(ONE for _ in range(instance.n))
    return instance.spec.keep_prob(instance, x.coords)


def _round_point(instance: Instance,
                 x: FractionalPoint) -> AllocationDistribution:
    """The oblivious part of the pipeline: decompose, then thin.

    A vertex the family constructor already rounded is read back from
    ``instance.vertex_lotteries`` as it is.
    """
    cached = instance.vertex_lotteries.get(x.coords)
    if cached is not None:
        return cached
    dist = exact_distribution(
        convex_decompose(x, instance.spec.decomposition_scale, instance))
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


def distributional_range(instance: Instance) -> RangeDescriptor:
    """Descriptor of the image of the rounding pipeline over the polytope."""
    spec = instance.spec
    return RangeDescriptor(family=instance.family, alpha=spec.alpha,
                           decomposition_scale=spec.decomposition_scale,
                           rounding_case=spec.rounding_case, beta=spec.beta,
                           keep_prob_name=spec.keep_prob_name,
                           polytope=build_polytope(instance))


def range_contains(descriptor: RangeDescriptor, instance: Instance,
                   dist: AllocationDistribution) -> bool:
    """Exact membership test for the distributional range.

    Reconstructs the unique candidate preimage from the distribution's
    variable marginals (dividing out the scale and thinning, or inverting
    the curve for case a), then accepts iff the preimage lies in the
    polytope and the pipeline reproduces the distribution bit for bit.
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
    coords = []
    if descriptor.rounding_case == "a":
        if instance.spec.curve is None:
            raise InvariantError("rounding case a needs the family's curve")
        unit = PiecewiseCurve(instance.spec.curve)
        for m_v in marginals:
            if m_v > unit.points[-1][1]:
                return False
            coords.append(unit.inverse(m_v))
    else:
        factor = descriptor.decomposition_scale * descriptor.beta
        coords = [m_v / factor for m_v in marginals]
    if any(c > ONE for c in coords):
        return False
    preimage = FractionalPoint(tuple(coords))
    if not contains(descriptor.polytope, preimage):
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
    if instance.family == "no-money-lottery":
        share = Fraction(1, instance.n)
        x = FractionalPoint(tuple(share for _ in range(instance.n)))
        return x, exact_distribution(convex_decompose(x, ONE, instance))
    if instance.family == "single-peaked":
        peaks = sorted(v.peak for v in profile.valuations)
        median = peaks[(instance.n - 1) // 2]
        position = int(median)
        alloc = Allocation(tuple(frozenset({position})
                                 for _ in range(instance.n)))
        x = FractionalPoint(indicator(instance, alloc))
        return x, AllocationDistribution.from_pairs([(alloc, ONE)])
    raise UnsupportedFamilyError(
        f"family {instance.family!r} is not a without-money family")

"""The assembled mechanism: allocation rule, payments, range, no-money path.

The allocation rule maximizes the relaxed objective exactly, decomposes the
(scaled) optimum into an exact lottery and applies the family's thinning
case.  Payments charge each bidder the relaxation's externality on the
same calibrated scale, which makes the expected-utility identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence
from .lp import FractionalPoint, contains
from .model import (Allocation, Instance, InvariantError, ValuationProfile,
                    ZERO, ONE, enumerate_feasible, indicator,
                    validate_profile, value_of)
from .relaxation import (RelaxedOptimum, UnsupportedFamilyError,
                         build_polytope, build_relaxation, residual_maxima,
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


def _marginals(instance: Instance,
               dist: AllocationDistribution) -> list[Fraction]:
    """P[X's indicator has a 1 at v] for every variable v."""
    marginals = [ZERO] * instance.num_vars
    for alloc, p in dist.entries:
        for v, chi in enumerate(indicator(instance, alloc)):
            if chi:
                marginals[v] += p
    return marginals


def _round_point(instance: Instance,
                 x: FractionalPoint) -> AllocationDistribution:
    """The oblivious part of the pipeline: decompose, then thin.

    A vertex the family constructor already rounded here is read back
    from ``instance.vertex_lotteries``.  Every lottery built must give each
    variable v the marginal calibration * curve(x_v) (calibration * x_v for
    a linear L), the curve read from the spec, not the keep formula; so
    each bidder's expected value is calibration times its term of L at x,
    the premise ``_charge`` rests on.
    """
    cached = instance.vertex_lotteries.get(x.coords)
    if cached is not None:
        return cached
    spec = instance.spec
    dist = adjust(convex_decompose(x, spec.decomposition_scale, instance),
                  keep_probabilities(instance, x))
    want = [spec.calibration * (t if spec.curve is None
                                else spec.curve.value_at(t))
            for t in x.coords]
    got = _marginals(instance, dist)
    if got != want:
        raise InvariantError(f"calibration fails at {x.coords}: marginals "
                             f"{got}, not {want}")
    return dist


def _charge(instance: Instance,
            optimum: RelaxedOptimum) -> tuple[Fraction, ...]:
    """Expected externality payments, the one payment formula: bidder k
    pays calibration * (max L^{-k} - L(x*) + k's term of L at x*), every
    residual maximum priced from ``optimum``.  No lottery is read.

    It equals calibration * max L^{-k} less the others' expected values
    under x*'s lottery X'.  Variable k is bidder k's bundle, and X' gives k
    that bundle or nothing, so E[v_k(X')] = bid_k * P(k wins), which
    ``_round_point`` proves is calibration * (k's term of L at x*).  The
    others' values sum to calibration * (L(x*) - k's term).
    """
    gamma, value = instance.spec.calibration, optimum.value
    return tuple(gamma * (top - value + own) for top, own
                 in zip(residual_maxima(instance, optimum), optimum.terms))


def allocate(instance: Instance, profile: ValuationProfile
             ) -> tuple[RelaxedOptimum, AllocationDistribution]:
    """Relax, maximize, decompose, thin; deterministic end to end.  Returns
    the optimum of max L, which prices the payments, and the lottery."""
    optimum = solve_relaxation(*build_relaxation(instance, profile))
    return optimum, _round_point(instance, FractionalPoint(optimum.coords))


def payments(instance: Instance, profile: ValuationProfile,
             dist: AllocationDistribution) -> tuple[Fraction, ...]:
    """Expected externality payments on the calibrated scale: the charge
    ``run`` makes, priced from one solve of max L (``_charge``).  It reads
    no lottery, so ``dist`` is ignored; it is kept for ``PaymentRule``.
    """
    return _charge(instance, solve_relaxation(
        *build_relaxation(instance, profile)))


def run(instance: Instance, profile: ValuationProfile,
        seed: int) -> MechanismOutcome:
    """Full mechanism: allocate, price, and sample one allocation.

    One relaxation is built and solved; the payments are priced from its
    optimum x*, and the relaxed value is L(x*).
    """
    optimum, dist = allocate(instance, profile)
    realized = sample(dist, seed)
    if realized not in dist.support():
        raise InvariantError(f"sampled allocation {realized.bitmasks()} "
                             "is outside the distribution's support")
    return MechanismOutcome(distribution=dist, realized=realized,
                            expected_payments=_charge(instance, optimum),
                            relaxed_value=optimum.value,
                            calibration=instance.spec.calibration, seed=seed)


def _pipeline_lotteries(instance: Instance, profile: ValuationProfile
                        ) -> list[AllocationDistribution]:
    """The main pipeline's lottery, then the k-excluded pipeline's for each
    bidder k: the same pipeline run on L with bidder k silenced."""
    objective, poly = build_relaxation(instance, profile)
    # Cold solves: each rounds its residual vertex, not just its value, and
    # a warm start may stop at another optimal vertex.
    return [_round_point(instance, FractionalPoint(
                solve_relaxation(relaxed, poly).coords))
            for relaxed in (objective, *(residual_objective(objective, k)
                                         for k in range(instance.n)))]


def _externalities(values: Sequence[Sequence[Fraction]]
                   ) -> tuple[Fraction, ...]:
    """Per-bidder values under the main pipeline, then under each k-excluded
    one, to bidder k's charge: the others' values without k less with k."""
    main, *excluded = values
    return tuple(sum(without, ZERO) - without[k] - (sum(main, ZERO) - main[k])
                 for k, without in enumerate(excluded))


def expected_realized_payments(instance: Instance,
                               profile: ValuationProfile
                               ) -> tuple[Fraction, ...]:
    """Expectation of the realized payment variant, both pipelines exact.

    Bidder k pays the others' welfare under the k-excluded pipeline minus
    their welfare under the main pipeline; in expectation this equals the
    expected payment rule.
    """
    return _externalities([expected_value_per_bidder(dist, profile)
                           for dist in _pipeline_lotteries(instance, profile)])


def realized_payments(instance: Instance, profile: ValuationProfile,
                      seed: int) -> tuple[Fraction, ...]:
    """One seeded draw of the realized payment variant per bidder.

    The main pipeline draws with ``seed``, the k-excluded pipeline with the
    derived seed seed * 1_000_003 + k + 1.
    """
    seeds = [seed] + [seed * 1_000_003 + k + 1 for k in range(instance.n)]
    draws = [sample(dist, s) for dist, s in
             zip(_pipeline_lotteries(instance, profile), seeds)]
    return _externalities([[value_of(profile, i, alloc)
                            for i in range(instance.n)] for alloc in draws])


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
    marginals = _marginals(instance, dist)
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


def lower_median(peaks: Sequence[Fraction]) -> Fraction:
    """The single-peaked rule: the lower median of the reported peaks."""
    ordered = sorted(peaks)
    return ordered[(len(ordered) - 1) // 2]


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
    position = int(lower_median([v.peak for v in profile.valuations]))
    alloc = Allocation(tuple(frozenset({position}) for _ in range(instance.n)))
    x = FractionalPoint(indicator(instance, alloc))
    return x, AllocationDistribution.from_pairs([(alloc, ONE)])

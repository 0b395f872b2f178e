"""Exhaustive exact verification of the mechanism guarantees.

Every check here quantifies over an explicit finite domain (value grids,
bundle misreports, peak grids) and compares exact rationals with zero
tolerance.  A failing check always carries a witness that can be replayed
through the pipeline.  The brute-force welfare oracle lives here too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .lp import FractionalPoint
from .model import (AdditiveValuation, Allocation, Instance, InvariantError,
                    SingleMindedValuation, Valuation, ValuationProfile, ZERO,
                    ONE, bids, enumerate_feasible, fractional_value,
                    social_welfare, value_of)
# build_relaxation is bound, not called: bench/tests/test_tracer.py wants it.
from .relaxation import build_polytope, build_relaxation  # noqa: F401
from .rounding import (AllocationDistribution, expected_value_per_bidder,
                       expected_welfare)
from . import mechanism
from .mechanism import _charge, _round_point, allocate, run_without_money
from .families import conflict_structure, profile_for, with_desires

#: The most pipeline runs one verification sweep may take.
VERIFICATION_BUDGET = 1_000_000

PaymentRule = Callable[[Instance, ValuationProfile, AllocationDistribution],
                       tuple[Fraction, ...]]
Rounder = Callable[[FractionalPoint, ValuationProfile],
                   AllocationDistribution]


class VerificationBudgetError(ValueError):
    """The grid requires more pipeline runs than the configured budget.

    Raised instead of silently sampling; the caller must shrink the grid.
    """

    def __init__(self, required: int, budget: int):
        # A grid of g values over n bidders needs g**n profiles, which can
        # have more digits than int-to-str conversion allows.
        shown = (str(required) if required.bit_length() <= 64
                 else f"more than 2**{required.bit_length() - 1}")
        super().__init__(f"verification needs {shown} pipeline runs, "
                         f"budget is {budget}; not sampling silently")
        self.required = required
        self.budget = budget


def require_budget(required: int) -> None:
    """Refuse a sweep beyond ``VERIFICATION_BUDGET``; callers count it
    before building a single profile."""
    if required > VERIFICATION_BUDGET:
        raise VerificationBudgetError(required, VERIFICATION_BUDGET)


@dataclass(frozen=True)
class Witness:
    """A reproducible counterexample: who deviated, how, and the exact gap."""

    profile: str
    bidder: Optional[int]
    misreport: str
    lhs: Fraction
    rhs: Fraction

    @property
    def gap(self) -> Fraction:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    domain: str
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def cases(self) -> int:
        return sum(c.cases for c in self.checks)


def _format_valuation(v: Valuation) -> str:
    if isinstance(v, SingleMindedValuation):
        items = ",".join(str(j) for j in sorted(v.bundle))
        return "{" + items + "}@" + str(v.value)
    if isinstance(v, AdditiveValuation):
        return "(" + ",".join(str(x) for x in v.item_values) + ")"
    return f"peak={v.peak}"


def profile_signature(profile: ValuationProfile) -> str:
    return ";".join(_format_valuation(v) for v in profile.valuations)


def brute_force_opt(instance: Instance,
                    profile: ValuationProfile) -> tuple[Allocation, Fraction]:
    """Exact welfare maximum by exhaustive enumeration, lowest index wins."""
    best_alloc = None
    best = None
    for alloc in enumerate_feasible(instance):
        welfare = social_welfare(profile, alloc)
        if best is None or welfare > best:
            best = welfare
            best_alloc = alloc
    if best_alloc is None or best is None:
        raise InvariantError("the feasible set is empty; it always holds "
                             "the empty allocation")
    return best_alloc, best


def grid_profiles(instance: Instance,
                  grid: Sequence[Fraction]) -> list[ValuationProfile]:
    """Every profile with one grid scalar per bidder."""
    return [profile_for(instance, values)
            for values in product([Fraction(g) for g in grid],
                                  repeat=instance.n)]


@dataclass(frozen=True)
class _Misreport:
    value: Fraction
    bundle: Optional[frozenset[int]] = None

    def describe(self) -> str:
        if self.bundle is None:
            return str(self.value)
        return _format_valuation(SingleMindedValuation(self.bundle,
                                                       self.value))


def _misreports(instance: Instance, misreport_grid: Sequence[Fraction],
                include_bundle_misreports: bool
                ) -> tuple[list[_Misreport], str]:
    """The misreports to try, and a note naming any that were left out."""
    values = [Fraction(g) for g in misreport_grid]
    reports = [_Misreport(v) for v in values]
    if instance.family.valuation is not SingleMindedValuation:
        return reports, ""
    if not include_bundle_misreports:
        return reports, "bundle misreports omitted (not requested)"
    if instance.m > 3:
        return reports, f"bundle misreports omitted (m={instance.m} > 3)"
    bundles = [frozenset(j for j in range(instance.m) if mask >> j & 1)
               for mask in range(1, 2 ** instance.m)]
    return [_Misreport(v, b) for b in bundles for v in values], ""


@dataclass(frozen=True)
class _Outcome:
    """One pipeline run as the verifier keeps it: the lottery and the
    expected payments charged."""

    dist: AllocationDistribution
    charged: tuple[Fraction, ...]


class _PipelineCache:
    """Memoizes one check's outcomes per reported instance + profile.

    A miss keeps the lottery and charges what ``run`` charges, from that
    solve's optimum alone (or ``payment_rule``'s charge).  No pivot is
    shared, so a pivot that read a bidder's own report shows in the sweep;
    values come from the lotteries, so a lottery that moves probability
    between bidders shows too.  The instances of one check share family,
    item count and calibration, so packages and profile name an outcome.
    """

    def __init__(self, payment_rule: Optional[PaymentRule]):
        self.payment_rule = payment_rule
        self._store: dict[tuple, _Outcome] = {}

    def outcome(self, instance: Instance,
                profile: ValuationProfile) -> _Outcome:
        key = (tuple(b for _, b in instance.variable_index), profile)
        found = self._store.get(key)
        if found is None:
            optimum, dist = allocate(instance, profile)
            charged = (_charge(instance, optimum) if self.payment_rule is None
                       else self.payment_rule(instance, profile, dist))
            found = self._store[key] = _Outcome(dist, charged)
        return found


def _reported(instance: Instance, truth: ValuationProfile,
              scalars: Sequence[Fraction], bidder: int,
              misreport: _Misreport, instance_cache: dict,
              sources: dict) -> tuple[Instance, ValuationProfile]:
    """Instance and profile as seen by the mechanism after one deviation.

    ``scalars`` are the truth's values of each bidder's own bundle, read
    once per truth profile.  ``instance_cache`` holds each reported
    package tuple's instance, and ``sources`` the first one rebound for
    each conflict structure, which ``with_desires`` rebinds without
    auditing again; a structure not yet seen is rebound from
    ``instance``, which is audited as well.
    """
    if misreport.bundle is None:
        reported = list(scalars)
        reported[bidder] = misreport.value
        return instance, profile_for(instance, reported)
    valuations = list(truth.valuations)
    desires = tuple(misreport.bundle if i == bidder else b
                    for i, (_, b) in enumerate(instance.variable_index))
    if desires not in instance_cache:
        structure = conflict_structure(desires, instance.spec.alpha)
        rebound = with_desires(sources.get(structure, instance), desires)
        instance_cache[desires] = rebound
        sources.setdefault(structure, rebound)
    valuations[bidder] = SingleMindedValuation(misreport.bundle,
                                               misreport.value)
    return instance_cache[desires], ValuationProfile(tuple(valuations))


def check_truthfulness(instance: Instance, value_grid: Sequence[Fraction],
                       misreport_grid: Sequence[Fraction],
                       payment_rule: Optional[PaymentRule] = None,
                       include_bundle_misreports: bool = True
                       ) -> VerificationReport:
    """Exhaustive truthfulness-in-expectation check over grid profiles.

    For every grid profile, bidder, and grid misreport (bundle misreports
    included for single-minded instances with at most three items; the
    report's domain says when they were omitted), the two sides of the
    incentive inequality are computed from exact distributions and expected
    payments and compared with zero tolerance.
    """
    if not value_grid or not misreport_grid:
        raise ValueError("value and misreport grids must be nonempty")
    misreports, omitted = _misreports(instance, misreport_grid,
                                      include_bundle_misreports)
    require_budget(len(value_grid) ** instance.n
                   * (1 + instance.n * len(misreports)))
    cache = _PipelineCache(payment_rule)
    instance_cache = {tuple(b for _, b in instance.variable_index): instance}
    sources: dict = {}
    witnesses = []
    cases = 0
    for truth in grid_profiles(instance, value_grid):
        at_truth = cache.outcome(instance, truth)
        utility_truth = [value - paid for value, paid in zip(
            expected_value_per_bidder(at_truth.dist, truth), at_truth.charged)]
        scalars = bids(instance, truth)
        for k in range(instance.n):
            for mis in misreports:
                cases += 1
                rep_instance, rep_profile = _reported(
                    instance, truth, scalars, k, mis, instance_cache, sources)
                at_mis = cache.outcome(rep_instance, rep_profile)
                true_value = sum((p * value_of(truth, k, a)
                                  for a, p in at_mis.dist.entries), ZERO)
                utility_mis = true_value - at_mis.charged[k]
                if utility_truth[k] < utility_mis:
                    witnesses.append(Witness(
                        profile=profile_signature(truth), bidder=k,
                        misreport=mis.describe(), lhs=utility_truth[k],
                        rhs=utility_mis))
    domain = (f"family={instance.family.name} n={instance.n} m={instance.m} "
              f"values={[str(v) for v in value_grid]} "
              f"misreports={len(misreports)} per bidder")
    if omitted:
        domain += f"; {omitted}"
    check = CheckResult(name="truthfulness-in-expectation",
                        passed=not witnesses, cases=cases, domain=domain,
                        witnesses=tuple(witnesses))
    return VerificationReport((check,))


def first_price_payments(instance: Instance, profile: ValuationProfile,
                         dist: AllocationDistribution) -> tuple[Fraction, ...]:
    """Negative control: every bidder pays its own reported expected value."""
    return expected_value_per_bidder(dist, profile)


def check_approximation(instance: Instance,
                        profile: ValuationProfile) -> tuple[Fraction, bool]:
    """Exact ratio E[f(X')] / OPT against the alpha*beta floor.

    A zero optimum counts as a pass (the 0/0 convention) and reports 1.
    """
    _, dist = allocate(instance, profile)
    achieved = expected_welfare(dist, profile)
    _, opt = brute_force_opt(instance, profile)
    if opt == 0:
        return ONE, True
    ratio = achieved / opt
    return ratio, ratio >= instance.spec.alpha * instance.spec.beta


def default_probe_point(instance: Instance) -> FractionalPoint:
    """A deterministic interior point of the family polytope."""
    poly = build_polytope(instance)
    t = ONE
    for coeffs, bound in poly.constraints:
        total = sum(coeffs, ZERO)
        if total > 0:
            t = min(t, bound / total)
    return FractionalPoint(tuple(t for _ in range(poly.num_vars)))


def check_obliviousness(instance: Instance,
                        profiles: Sequence[ValuationProfile],
                        rounder: Optional[Rounder] = None
                        ) -> VerificationReport:
    """Fixed-point rounding must be bit-identical under every profile.

    Every profile is handed to ``rounder`` (by default the shipped
    pipeline, ``oblivious_rounder(instance)``) together with the same
    fractional point, ``default_probe_point(instance)``, and each
    distribution is compared with the first profile's.  Distributions
    obtained from different fractional points may of course differ; only
    the fixed-x comparison is asserted.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two profiles to compare")
    x = default_probe_point(instance)
    if rounder is None:
        rounder = oblivious_rounder(instance)
    reference = rounder(x, profiles[0])
    witnesses = []
    for idx, profile in enumerate(profiles):
        outcome = rounder(x, profile)
        if outcome != reference:
            witnesses.append(Witness(profile=profile_signature(profile),
                                     bidder=None, misreport=f"profile#{idx}",
                                     lhs=ZERO, rhs=ONE))
    check = CheckResult(name="obliviousness", passed=not witnesses,
                        cases=len(profiles),
                        domain=f"fixed x={tuple(str(c) for c in x.coords)}",
                        witnesses=tuple(witnesses))
    return VerificationReport((check,))


def oblivious_rounder(instance: Instance) -> Rounder:
    """The shipped pipeline, wrapped with a profile argument it ignores."""
    def rounder(x: FractionalPoint,
                profile: ValuationProfile) -> AllocationDistribution:
        return _round_point(instance, x)
    return rounder


def adversarial_rounder(instance: Instance) -> Rounder:
    """Negative control: hands the bundle to the lowest reported bid.

    Reads the profile, and rewards bidders for deflating their reports, so
    it must fail the non-oblivious truthfulness-preservation condition.
    """
    def rounder(x: FractionalPoint,
                profile: ValuationProfile) -> AllocationDistribution:
        reported = bids(instance, profile)
        loser = min(range(instance.n), key=lambda i: (reported[i], i))
        _, bundle = instance.variable_index[loser]
        alloc = Allocation(tuple(bundle if i == loser else frozenset()
                                 for i in range(instance.n)))
        return AllocationDistribution.from_pairs([(alloc, ONE)])
    return rounder


def check_nonoblivious_condition(rounder: Rounder, instance: Instance,
                                 value_grid: Sequence[Fraction]
                                 ) -> VerificationReport:
    """Misreports must never raise the expected true welfare of a rounder.

    Exhausts grid profiles and grid misreports at the fixed fractional point
    ``default_probe_point(instance)``; a single-value grid passes vacuously.
    """
    if not value_grid:
        raise ValueError("value grid must be nonempty")
    require_budget(len(value_grid) ** instance.n
                   * (1 + instance.n * len(value_grid)))
    x = default_probe_point(instance)
    witnesses = []
    cases = 0
    for truth in grid_profiles(instance, value_grid):
        baseline = expected_welfare(rounder(x, truth), truth)
        scalars = bids(instance, truth)
        for k in range(instance.n):
            for value in value_grid:
                cases += 1
                reported_scalars = list(scalars)
                reported_scalars[k] = Fraction(value)
                reported = profile_for(instance, reported_scalars)
                deviated = expected_welfare(rounder(x, reported), truth)
                if deviated > baseline:
                    witnesses.append(Witness(
                        profile=profile_signature(truth), bidder=k,
                        misreport=str(value), lhs=baseline, rhs=deviated))
    check = CheckResult(name="non-oblivious-rounding-condition",
                        passed=not witnesses, cases=cases,
                        domain=f"values={[str(v) for v in value_grid]}",
                        witnesses=tuple(witnesses))
    return VerificationReport((check,))


def check_without_money(instance: Instance,
                        profile: ValuationProfile) -> VerificationReport:
    """Feasibility and the exact thinned-value identity, componentwise:
    each bidder's expected value is the instance's calibration times its
    value at the fractional point."""
    x, dist = run_without_money(instance, profile)
    feasible = set(enumerate_feasible(instance))
    bad_support = [a for a in dist.support() if a not in feasible]
    feas_check = CheckResult(
        name="no-money-feasibility", passed=not bad_support,
        cases=len(dist.support()),
        domain=f"family={instance.family.name} n={instance.n}",
        witnesses=tuple(Witness(profile=profile_signature(profile),
                                bidder=None,
                                misreport=str(a.bitmasks()), lhs=ZERO,
                                rhs=ONE) for a in bad_support))
    expectations = expected_value_per_bidder(dist, profile)
    beta = instance.spec.calibration
    witnesses = []
    for i in range(instance.n):
        want = beta * fractional_value(profile, i, instance, x.coords)
        if expectations[i] != want:
            witnesses.append(Witness(profile=profile_signature(profile),
                                     bidder=i, misreport="",
                                     lhs=expectations[i], rhs=want))
    value_check = CheckResult(
        name="no-money-value-identity", passed=not witnesses,
        cases=instance.n, domain=f"beta={beta}", witnesses=tuple(witnesses))
    return VerificationReport((feas_check, value_check))


def check_median_no_improvement(instance: Instance,
                                peak_grid: Sequence[Fraction]
                                ) -> VerificationReport:
    """No misreported peak may move the median closer to a true peak.

    The median is the shipped rule, ``mechanism.lower_median``, applied to
    the raw grid peaks.
    """
    if not instance.family.shared:
        raise ValueError("median check applies to the single-peaked family")
    grid = [Fraction(g) for g in peak_grid]
    require_budget(len(grid) ** instance.n * instance.n * len(grid))
    witnesses = []
    cases = 0
    for peaks in product(grid, repeat=instance.n):
        truth_median = mechanism.lower_median(peaks)
        for k in range(instance.n):
            truth_distance = abs(truth_median - peaks[k])
            for deviation in grid:
                cases += 1
                misreported = list(peaks)
                misreported[k] = deviation
                distance = abs(mechanism.lower_median(misreported) - peaks[k])
                if distance < truth_distance:
                    witnesses.append(Witness(
                        profile=profile_signature(
                            profile_for(instance, peaks)), bidder=k,
                        misreport=str(deviation), lhs=-truth_distance,
                        rhs=-distance))
    check = CheckResult(name="median-no-improvement", passed=not witnesses,
                        cases=cases,
                        domain=f"peaks={[str(g) for g in grid]}^{instance.n}",
                        witnesses=tuple(witnesses))
    return VerificationReport((check,))

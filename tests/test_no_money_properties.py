"""The without-money families' guarantees on random small instances.

Uniform lotteries over one item and single-peaked medians over a few
positions, with random reports.  Each instance shape is built once.
Properties:

- every allocation in the support is feasible;
- the lottery's expected values are the point's: E[v_i(X)] = v_i(x);
- no misreported peak moves the median closer to the reporter's true peak.

The negative controls show that each property can fail: an allocation
outside the feasible set, a point mass that is not the point's lottery,
and the mean of the peaks, which a bidder can pull toward its own.
"""

from fractions import Fraction as F
from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import (Allocation, AllocationDistribution,
                        enumerate_feasible, expected_value_per_bidder,
                        fractional_value, make_no_money, profile_for,
                        run_without_money)

ONE = F(1)

EXAMPLES = settings(max_examples=100, deadline=2000, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@cache
def shape(kind, n, positions=1):
    if kind == "lottery":
        return make_no_money(n, kind)
    return make_no_money(n, kind, positions=positions)


@st.composite
def peak_lists(draw):
    """A number of positions, and one peak among them per bidder."""
    positions = draw(st.integers(1, 6))
    return positions, [F(draw(st.integers(0, positions - 1)))
                       for _ in range(draw(st.integers(1, 4)))]


@st.composite
def profiles(draw):
    if draw(st.booleans()):
        positions, peaks = draw(peak_lists())
        instance = shape("single_peaked", len(peaks), positions)
        return instance, profile_for(instance, peaks)
    instance = shape("lottery", draw(st.integers(1, 4)))
    bids = [F(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
            for _ in range(instance.n)]
    return instance, profile_for(instance, bids)


def support_is_feasible(instance, dist):
    feasible = set(enumerate_feasible(instance))
    return all(alloc in feasible for alloc in dist.support())


def values_match_the_point(instance, profile, x, dist):
    return list(expected_value_per_bidder(dist, profile)) == [
        fractional_value(profile, i, instance, x.coords)
        for i in range(instance.n)]


def shipped_rule(instance):
    """The position ``run_without_money`` picks for a list of peaks."""
    def rule(peaks):
        _, dist = run_without_money(instance, profile_for(instance, peaks))
        [(alloc, _)] = dist.entries
        [position] = alloc.bundles[0]
        return F(position)
    return rule


def no_misreport_helps(positions, peaks, rule):
    """No bidder moves ``rule``'s position closer to its true peak by
    reporting any other position."""
    chosen = rule(peaks)
    for k, peak in enumerate(peaks):
        for report in range(positions):
            misreported = list(peaks)
            misreported[k] = F(report)
            if abs(rule(misreported) - peak) < abs(chosen - peak):
                return False
    return True


@EXAMPLES
@given(profiles())
def test_every_allocation_in_the_support_is_feasible(market):
    instance, profile = market
    _, dist = run_without_money(instance, profile)
    assert support_is_feasible(instance, dist)


@EXAMPLES
@given(profiles())
def test_the_lottery_keeps_the_points_values(market):
    instance, profile = market
    x, dist = run_without_money(instance, profile)
    assert values_match_the_point(instance, profile, x, dist)


@EXAMPLES
@given(peak_lists())
def test_no_misreported_peak_moves_the_median_closer(case):
    positions, peaks = case
    instance = shape("single_peaked", len(peaks), positions)
    assert no_misreport_helps(positions, peaks, shipped_rule(instance))


def test_an_infeasible_allocation_is_found():
    instance = shape("lottery", 2)
    both = Allocation((frozenset({0}), frozenset({0})))
    assert not support_is_feasible(
        instance, AllocationDistribution.from_pairs([(both, ONE)]))


def test_a_point_mass_is_not_the_equal_split_lottery():
    instance = shape("lottery", 2)
    profile = profile_for(instance, [F(4), F(2)])
    x, _ = run_without_money(instance, profile)
    first = Allocation((frozenset({0}), frozenset()))
    point_mass = AllocationDistribution.from_pairs([(first, ONE)])
    assert not values_match_the_point(instance, profile, x, point_mass)


def test_the_mean_of_the_peaks_can_be_pulled():
    # Peaks 0, 2, 2 put the rounded-down mean at 1; the second bidder
    # reports 4 and moves it to its own peak, 2.
    def floor_of_mean(peaks):
        return F(sum(peaks) // len(peaks))
    assert not no_misreport_helps(5, [F(0), F(2), F(2)], floor_of_mean)

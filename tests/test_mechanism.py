"""Assembled mechanism: allocation, payments, range, without-money path."""

from fractions import Fraction as F

import pytest

from relaxround import (Allocation, AllocationDistribution, FinalTableau,
                        FractionalPoint, allocate, build_relaxation,
                        expected_realized_payments, expected_value_per_bidder,
                        make_case_b_family, make_gap_toy, make_no_money,
                        make_single_item, make_single_minded_ca, payments,
                        profile_for, range_contains, realized_payments,
                        residual_objective, run, run_without_money,
                        solve_relaxation)
from relaxround import InvariantError, mechanism
from relaxround.relaxation import UnsupportedFamilyError

ZERO = F(0)
ONE = F(1)


def win(n, i):
    return Allocation(tuple(frozenset({0}) if j == i else frozenset()
                            for j in range(n)))


def utility_identity_holds(instance, profile):
    """E[u_k] must equal calibration * (L(x*) - max L^{-k}) exactly."""
    objective, poly = build_relaxation(instance, profile)
    optimum, dist = allocate(instance, profile)
    pay = payments(instance, profile, dist)
    values = expected_value_per_bidder(dist, profile)
    gamma = instance.spec.calibration
    top = objective.evaluate(optimum.coords)
    outcome = run(instance, profile, seed=0)
    assert outcome.expected_payments == pay
    assert outcome.relaxed_value == top
    for k in range(instance.n):
        residual = residual_objective(objective, k)
        ceiling = residual.evaluate(solve_relaxation(residual, poly).coords)
        assert values[k] - pay[k] == gamma * (top - ceiling)
        assert values[k] - pay[k] >= 0  # individual rationality
        assert pay[k] >= 0
    return True


class TestAllocate:
    def test_integral_lp_is_a_point_mass(self):
        inst = make_single_item(2)
        x, dist = allocate(inst, profile_for(inst, [F(5), F(3)]))
        assert x.coords == (ONE, ZERO)
        assert dist.entries == ((win(2, 0), ONE),)

    def test_tie_break_prefers_lowest_index(self):
        inst = make_single_item(2)
        _, dist = allocate(inst, profile_for(inst, [F(4), F(4)]))
        assert dist.entries == ((win(2, 0), ONE),)

    def test_zero_bids_give_empty_point_mass(self):
        inst = make_single_item(2)
        x, dist = allocate(inst, profile_for(inst, [ZERO, ZERO]))
        assert x.coords == (ZERO, ZERO)
        assert dist.entries == ((Allocation.empty(2), ONE),)


class TestPayments:
    def test_vickrey_second_price(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        _, dist = allocate(inst, profile)
        assert payments(inst, profile, dist) == (F(3), ZERO)

    def test_single_bidder_pays_nothing(self):
        inst = make_single_item(1)
        profile = profile_for(inst, [F(7)])
        _, dist = allocate(inst, profile)
        assert payments(inst, profile, dist) == (ZERO,)

    def test_symmetric_tie_charges_the_tied_bid(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(4), F(4)])
        _, dist = allocate(inst, profile)
        assert payments(inst, profile, dist) == (F(4), ZERO)

    @pytest.mark.parametrize("build", [
        lambda: (make_single_minded_ca(2, [{0, 1}, {0}, {1}]), [F(5), F(3), F(3)]),
        lambda: (make_gap_toy(3, 2), [F(4), F(3), F(7, 2)]),
    ])
    def test_recorded_tableau_gives_the_cold_payments(self, build):
        instance, scalars = build()
        profile = profile_for(instance, scalars)
        final = FinalTableau()
        _, dist = allocate(instance, profile, final)
        assert payments(instance, profile, dist, final) == payments(
            instance, profile, dist)

    @pytest.mark.parametrize("build", [
        lambda: (make_single_minded_ca(2, [{0, 1}, {0}, {1}]), [F(5), F(3), F(3)]),
        lambda: (make_gap_toy(3, 2), [F(4), F(3), F(7, 2)]),
    ])
    def test_another_profiles_tableau_is_refused(self, build):
        """Negative control: the tableau of other bids must not be reused."""
        instance, scalars = build()
        other = FinalTableau()
        allocate(instance, profile_for(instance, scalars[::-1]), other)
        profile = profile_for(instance, scalars)
        _, dist = allocate(instance, profile)
        with pytest.raises(InvariantError, match="other costs"):
            payments(instance, profile, dist, other)

    def test_another_polytopes_tableau_is_refused(self):
        """Negative control: same bids and costs, another polytope.  Reusing
        that tableau would charge (1/2, 0, 1) against the cold (1, 0, 0)."""
        instance = make_single_minded_ca(2, [{0}, {0}, {1}])
        other_instance = make_single_minded_ca(2, [{0}, {1}, {1}])
        bids = [F(3), F(2), F(1)]
        other = FinalTableau()
        allocate(other_instance, profile_for(other_instance, bids), other)
        profile = profile_for(instance, bids)
        _, dist = allocate(instance, profile)
        assert payments(instance, profile, dist) == (F(1), ZERO, ZERO)
        with pytest.raises(InvariantError, match="another polytope"):
            payments(instance, profile, dist, other)

    @pytest.mark.parametrize("build", [
        lambda: (make_single_item(3), [F(5), F(3), F(2)]),
        lambda: (make_single_minded_ca(2, [{0, 1}, {0}, {1}]), [F(5), F(3), F(3)]),
        lambda: (make_gap_toy(2, 1), [F(4), F(3)]),
        lambda: (make_case_b_family(2, F(1, 2)), [F(5), F(3)]),
    ])
    def test_utility_identity_and_ir(self, build):
        instance, scalars = build()
        assert utility_identity_holds(instance, profile_for(instance, scalars))


class TestRun:
    def test_composes_the_pipeline(self):
        inst = make_single_item(2)
        outcome = run(inst, profile_for(inst, [F(5), F(3)]), seed=11)
        assert outcome.realized == win(2, 0)
        assert outcome.expected_payments == (F(3), ZERO)
        assert outcome.relaxed_value == 5
        assert outcome.realized in outcome.distribution.support()

    def test_zero_bids_pay_nothing(self):
        inst = make_single_item(3)
        outcome = run(inst, profile_for(inst, [ZERO] * 3), seed=5)
        assert outcome.expected_payments == (ZERO, ZERO, ZERO)

    def test_sample_outside_the_support_raises(self, monkeypatch):
        inst = make_single_item(2)
        monkeypatch.setattr(mechanism, "sample",
                            lambda dist, seed: Allocation.empty(2))
        with pytest.raises(InvariantError, match="support"):
            run(inst, profile_for(inst, [F(5), F(3)]), seed=1)

    def test_seed_determinism(self):
        inst = make_case_b_family(2, F(1, 2))
        profile = profile_for(inst, [F(5), F(3)])
        assert run(inst, profile, seed=9) == run(inst, profile, seed=9)

    @pytest.mark.parametrize("build", [
        lambda: (make_single_item(2), [F(5), F(3)]),
        lambda: (make_case_b_family(2, F(1, 2)), [F(5), F(3)]),
        lambda: (make_gap_toy(2, 1), [F(4), F(4)]),
        lambda: (make_single_minded_ca(2, [{0}, {0, 1}]), [F(3), F(4)]),
    ])
    def test_expected_realized_payment_equals_payment_rule(self, build):
        """Both pipelines' exact distributions agree with the payment rule."""
        instance, scalars = build()
        profile = profile_for(instance, scalars)
        _, dist = allocate(instance, profile)
        assert expected_realized_payments(instance, profile) == payments(
            instance, profile, dist)

    def test_realized_payments_are_deterministic(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        assert realized_payments(inst, profile, 3) == realized_payments(
            inst, profile, 3)
        # With a point-mass distribution the realized and expected coincide.
        assert realized_payments(inst, profile, 3) == (F(3), ZERO)


class TestDistributionalRange:
    def test_contains_images_of_simple_points(self):
        inst = make_single_item(2)
        for dist in (
            AllocationDistribution.from_pairs([(win(2, 0), ONE)]),
            AllocationDistribution.from_pairs([(win(2, 1), ONE)]),
            AllocationDistribution.from_pairs([(win(2, 0), F(1, 2)),
                                               (win(2, 1), F(1, 2))]),
        ):
            assert range_contains(inst, dist)

    @pytest.mark.parametrize("build", [
        lambda: (make_single_item(2), [F(5), F(3)]),
        lambda: (make_single_minded_ca(2, [{0}, {0, 1}]), [F(3), F(4)]),
        lambda: (make_gap_toy(2, 1), [F(4), F(4)]),
        lambda: (make_case_b_family(2, F(1, 2)), [F(5), F(3)]),
    ])
    def test_allocate_output_is_always_in_range(self, build):
        instance, scalars = build()
        _, dist = allocate(instance, profile_for(instance, scalars))
        assert range_contains(instance, dist)

    def test_item_violating_distribution_has_no_preimage(self):
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        clash = AllocationDistribution.from_pairs([
            (Allocation((frozenset({0}), frozenset())), F(1, 2)),
            (Allocation((frozenset(), frozenset({0, 1}))), F(1, 2)),
        ])
        assert not range_contains(inst, clash)

    def test_infeasible_support_is_rejected(self):
        inst = make_single_item(2)
        overlap = AllocationDistribution.from_pairs([
            (Allocation((frozenset({0}), frozenset({0}))), ONE)])
        assert not range_contains(inst, overlap)

    def test_range_reads_the_instance_only(self):
        """Thinning to beta = 1/2 keeps half the mass on the empty
        allocation, so a half-half single-item lottery has no preimage."""
        point = FractionalPoint((F(1, 2), F(1, 2)))
        lottery = mechanism._round_point(make_single_item(2), point)
        assert range_contains(make_single_item(2), lottery)
        assert not range_contains(make_case_b_family(2, F(1, 2)), lottery)


class TestRunWithoutMoney:
    def test_lottery_is_uniform_and_value_preserving(self):
        inst = make_no_money(2, "lottery")
        profile = profile_for(inst, [F(6), F(2)])
        x, dist = run_without_money(inst, profile)
        assert x.coords == (F(1, 2), F(1, 2))
        assert dist.mass(win(2, 0)) == F(1, 2)
        assert dist.mass(win(2, 1)) == F(1, 2)
        values = expected_value_per_bidder(dist, profile)
        assert values == (F(3), F(1))

    def test_median_of_peaks(self):
        inst = make_no_money(3, "single_peaked")
        _, dist = run_without_money(inst, profile_for(inst, [F(1), F(5), F(3)]))
        ((alloc, mass),) = dist.entries
        assert mass == 1
        assert alloc.bundles[0] == frozenset({3})

    def test_even_count_uses_lower_median(self):
        inst = make_no_money(2, "single_peaked")
        _, dist = run_without_money(inst, profile_for(inst, [F(2), F(7)]))
        assert dist.entries[0][0].bundles[0] == frozenset({2})

    def test_single_bidder_gets_its_peak(self):
        inst = make_no_money(1, "single_peaked")
        _, dist = run_without_money(inst, profile_for(inst, [F(7)]))
        assert dist.entries[0][0].bundles[0] == frozenset({7})

    def test_auction_families_are_rejected(self):
        inst = make_single_item(2)
        with pytest.raises(UnsupportedFamilyError):
            run_without_money(inst, profile_for(inst, [F(1), F(2)]))

"""The verifier itself: oracle, truthfulness sweeps, negative controls."""

import random
from fractions import Fraction as F

import pytest

from relaxround import (Allocation, AllocationDistribution,
                        VerificationBudgetError, adversarial_rounder,
                        brute_force_opt, check_approximation,
                        check_median_no_improvement,
                        check_nonoblivious_condition, check_obliviousness,
                        check_truthfulness, check_without_money,
                        first_price_payments, make_case_b_family,
                        make_gap_toy, make_no_money, make_single_item,
                        make_single_minded_ca, oblivious_rounder, profile_for)

ZERO = F(0)
ONE = F(1)
GRID = [F(0), F(1), F(2), F(3)]


class TestBruteForceOpt:
    def test_single_minded_exhaustive(self):
        inst = make_single_minded_ca(2, [{0, 1}, {0}, {1}])
        alloc, opt = brute_force_opt(inst, profile_for(inst, [F(5), F(3), F(3)]))
        assert opt == 6
        assert alloc.winners() == (1, 2)

    def test_single_item(self):
        inst = make_single_item(2)
        alloc, opt = brute_force_opt(inst, profile_for(inst, [F(5), F(3)]))
        assert (alloc.winners(), opt) == ((0,), F(5))

    def test_zero_values_tie_break_to_empty(self):
        inst = make_single_item(3)
        alloc, opt = brute_force_opt(inst, profile_for(inst, [ZERO] * 3))
        assert alloc == Allocation.empty(3)
        assert opt == 0


class TestCheckTruthfulness:
    def test_single_item_reduces_to_second_price(self):
        inst = make_single_item(2)
        report = check_truthfulness(inst, GRID, GRID)
        assert report.passed
        assert report.cases == 16 * 2 * 4

    def test_first_price_control_fails_with_witness(self):
        inst = make_single_item(2)
        report = check_truthfulness(inst, GRID, GRID,
                                    payment_rule=first_price_payments)
        assert not report.passed
        witness = report.checks[0].witnesses[0]
        assert witness.gap > 0
        assert witness.bidder in (0, 1)

    def test_single_bidder_always_passes(self):
        inst = make_single_item(1)
        assert check_truthfulness(inst, GRID, GRID).passed

    def test_budget_guard_refuses_to_sample(self):
        inst = make_single_item(2)
        with pytest.raises(VerificationBudgetError) as err:
            check_truthfulness(inst, GRID, GRID, budget=10)
        assert err.value.required > 10

    def test_bundle_misreports_are_exhausted(self):
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        small = [F(0), F(1), F(2)]
        report = check_truthfulness(inst, small, small)
        assert report.passed
        # 9 profiles x 2 bidders x (3 bundles x 3 values) misreports
        assert report.cases == 9 * 2 * 9
        assert "omitted" not in report.checks[0].domain

    def test_bundle_misreports_omitted_above_three_items_says_so(self):
        inst = make_single_minded_ca(4, [{0, 1}, {2, 3}])
        small = [F(0), F(1)]
        report = check_truthfulness(inst, small, small)
        assert report.passed
        # 4 profiles x 2 bidders x 2 value misreports, no bundle misreports
        assert report.cases == 4 * 2 * 2
        assert report.checks[0].domain.endswith(
            "; bundle misreports omitted (m=4 > 3)")


class TestCheckApproximation:
    def test_single_item_ratio_is_one(self):
        inst = make_single_item(2)
        assert check_approximation(inst, profile_for(inst, [F(5), F(3)])) == (ONE, True)

    def test_case_b_ratio_floor_over_grid(self):
        inst = make_case_b_family(2, F(1, 2))
        for a in GRID:
            for b in GRID:
                ratio, ok = check_approximation(inst, profile_for(inst, [a, b]))
                assert ok and ratio >= F(1, 2)

    def test_zero_profile_passes_by_convention(self):
        inst = make_single_item(2)
        assert check_approximation(inst, profile_for(inst, [ZERO, ZERO])) == (ONE, True)


class TestCheckObliviousness:
    def test_fixed_point_identical_distributions(self):
        inst = make_single_item(2)
        profiles = [profile_for(inst, [F(5), F(3)]),
                    profile_for(inst, [F(3), F(5)])]
        assert check_obliviousness(inst, profiles).passed

    def test_ten_random_profiles(self):
        rng = random.Random(7)
        inst = make_gap_toy(2, 1)
        profiles = [profile_for(inst, [F(rng.randint(0, 9)) for _ in range(2)])
                    for _ in range(10)]
        assert check_obliviousness(inst, profiles).passed

    def test_needs_at_least_two_profiles(self):
        inst = make_single_item(2)
        with pytest.raises(ValueError):
            check_obliviousness(inst, [profile_for(inst, [F(1), F(2)])])

    def test_oblivious_rounder_is_the_default(self):
        inst = make_gap_toy(2, 1)
        profiles = [profile_for(inst, [F(5), F(3)]),
                    profile_for(inst, [F(3), F(5)])]
        default = check_obliviousness(inst, profiles)
        explicit = check_obliviousness(inst, profiles,
                                       rounder=oblivious_rounder(inst))
        assert default == explicit and default.passed

    def test_adversarial_rounder_fails_with_witness(self):
        inst = make_single_item(2)
        profiles = [profile_for(inst, [F(5), F(3)]),
                    profile_for(inst, [F(5), F(4)]),
                    profile_for(inst, [F(3), F(5)])]
        report = check_obliviousness(inst, profiles,
                                     rounder=adversarial_rounder(inst))
        assert not report.passed
        # Only the third profile moves the lowest bid to another bidder.
        witnesses = report.checks[0].witnesses
        assert [w.misreport for w in witnesses] == ["profile#2"]


class TestNonObliviousCondition:
    def test_oblivious_rounder_passes_with_equality(self):
        inst = make_single_item(2)
        report = check_nonoblivious_condition(oblivious_rounder(inst), inst, GRID)
        assert report.passed

    def test_adversarial_rounder_fails_with_witness(self):
        inst = make_single_item(2)
        report = check_nonoblivious_condition(adversarial_rounder(inst), inst, GRID)
        assert not report.passed
        assert report.checks[0].witnesses

    def test_single_value_grid_is_vacuous(self):
        inst = make_single_item(2)
        report = check_nonoblivious_condition(adversarial_rounder(inst), inst, [F(2)])
        assert report.passed


class TestCheckWithoutMoney:
    def test_lottery_passes_with_beta_one(self):
        inst = make_no_money(3, "lottery")
        report = check_without_money(inst, profile_for(inst, [F(6), F(3), F(9)]), ONE)
        assert report.passed

    def test_median_support_is_feasible(self):
        inst = make_no_money(3, "single_peaked")
        report = check_without_money(inst, profile_for(inst, [F(1), F(5), F(3)]), ONE)
        assert report.passed

    def test_corrupted_lottery_fails_normalization_upstream(self):
        with pytest.raises(ValueError):
            AllocationDistribution.from_pairs([
                (Allocation((frozenset({0}), frozenset())), F(3, 5)),
                (Allocation((frozenset(), frozenset({0}))), F(3, 5)),
            ])

    def test_wrong_beta_is_detected(self):
        inst = make_no_money(2, "lottery")
        report = check_without_money(inst, profile_for(inst, [F(4), F(2)]), F(1, 2))
        assert not report.passed


class TestMedianNoImprovement:
    def test_small_grid_exhaustive(self):
        inst = make_no_money(3, "single_peaked", positions=4)
        report = check_median_no_improvement(inst, [F(g) for g in range(4)])
        assert report.passed
        assert report.cases == 4 ** 3 * 3 * 4

    def test_mean_rule_would_fail(self):
        """Sanity for the checker: a mean-based rule admits improving lies."""
        from itertools import product
        grid = [F(g) for g in range(4)]
        violations = 0
        for peaks in product(grid, repeat=3):
            for k in range(3):
                truth_mean = sum(peaks, ZERO) / 3
                for lie in grid:
                    reported = list(peaks)
                    reported[k] = lie
                    lied_mean = sum(reported, ZERO) / 3
                    if abs(lied_mean - peaks[k]) < abs(truth_mean - peaks[k]):
                        violations += 1
        assert violations > 0


class TestOracleEquivalence:
    def test_single_item_support_matches_brute_force_argmax(self):
        """With alpha = beta = 1 and an integral LP both routes agree."""
        from relaxround import allocate
        from itertools import product as iproduct
        inst = make_single_item(2)
        for bids in iproduct(GRID, repeat=2):
            profile = profile_for(inst, list(bids))
            _, dist = allocate(inst, profile)
            best_alloc, _ = brute_force_opt(inst, profile)
            assert dist.support() == (best_alloc,)

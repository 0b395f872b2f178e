"""Family constructors and their audits."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from relaxround import (FamilyConstructionError, FamilySpec, InvariantError,
                        adjust, allocate, audit_alpha, brute_force_opt,
                        build_relaxation,
                        check_approximation,
                        convex_decompose, expected_welfare,
                        make_case_b_family,
                        make_gap_toy, make_no_money, make_single_item,
                        make_single_minded_ca, profile_for, run,
                        solve_relaxation, unit_gap_curve)
from relaxround import families, mechanism
from relaxround.families import InputError
from relaxround.lp import FractionalPoint, Polytope
from relaxround.mechanism import keep_probabilities

ZERO = F(0)
ONE = F(1)


class TestContainmentAudit:
    @pytest.mark.parametrize("build", [
        lambda: make_single_item(2),
        lambda: make_case_b_family(2, F(1, 2)),
        lambda: make_single_minded_ca(2, [{0}, {0, 1}]),
        lambda: make_gap_toy(2, 1),
    ])
    def test_polytope_missing_an_indicator_fails_construction(
            self, build, monkeypatch):
        exact = families.build_polytope

        def item_zero_closed(instance):
            poly = exact(instance)
            rows = list(poly.constraints)
            coeffs, _ = rows[instance.n]  # bidder rows come first
            rows[instance.n] = (coeffs, ZERO)
            return Polytope(poly.num_vars, tuple(rows))

        monkeypatch.setattr(families, "build_polytope", item_zero_closed)
        with pytest.raises(FamilyConstructionError, match="indicator"):
            build()


AUDITED = [
    lambda: make_single_item(2),
    lambda: make_case_b_family(2, F(1, 2)),
    lambda: make_single_minded_ca(2, [{0}, {0, 1}]),
    lambda: make_gap_toy(2, 1),
]


class TestAlphaAudit:
    @pytest.mark.parametrize("build", AUDITED)
    def test_the_unit_profiles_prove_every_nonnegative_profile(self, build):
        """For each allocation both sides are linear in the bids, so the
        audit runs on the n unit profiles alone, and the contract holds on
        random nonnegative profiles, with equality for a linear L."""
        instance = build()
        probes = families._probe_profiles(instance)
        assert probes == [profile_for(instance, [ONE if j == i else ZERO
                                                 for j in range(instance.n)])
                          for i in range(instance.n)]
        rng = random.Random(11)
        for _ in range(30):
            profile = profile_for(instance, [
                F(rng.randint(0, 9), rng.randint(1, 4))
                for _ in range(instance.n)])
            objective, _ = build_relaxation(instance, profile)
            audit = audit_alpha(objective, instance, profile)
            assert audit.passed
            assert audit.equality_holds or not objective.is_linear

    @pytest.mark.parametrize("build", AUDITED)
    def test_a_relaxation_that_halves_one_bid_fails_construction(
            self, build, monkeypatch):
        exact = families.build_relaxation

        def first_bid_halved(instance, profile):
            objective, poly = exact(instance, profile)
            coeffs = list(objective.coeffs)
            coeffs[0] /= 2
            return replace(objective, coeffs=tuple(coeffs)), poly

        monkeypatch.setattr(families, "build_relaxation", first_bid_halved)
        with pytest.raises(FamilyConstructionError, match="alpha audit"):
            build()


class TestCalibrationIdentity:
    """Every thinned lottery is checked against calibration * curve(x_v)
    when it is built, at the point ``run`` plays."""

    @pytest.mark.parametrize("build", [
        lambda: make_gap_toy(3, 2),
        lambda: make_case_b_family(3, F(1, 2)),
    ])
    def test_a_wrong_keep_formula_fails_at_run(self, build, monkeypatch):
        # Keeping every bidder skips the thinning both families rely on.
        monkeypatch.setattr(mechanism, "keep_probabilities",
                            lambda instance, x: (ONE,) * instance.n)
        instance = build()
        with pytest.raises(InvariantError, match="calibration"):
            run(instance, profile_for(instance, [F(5), F(3), F(4)]), seed=0)

    def test_a_keep_formula_wrong_off_the_quarter_grid_fails(self,
                                                             monkeypatch):
        """Keeping everyone only where 4 * x_i is not an integer agrees
        with the true formula on every point of a quarter grid; x* =
        (9/16, 1, 7/16) is off it."""
        def off_grid_keeps_everyone(instance, x):
            return tuple(ONE if (4 * t).denominator != 1 else q for t, q
                         in zip(x.coords, keep_probabilities(instance, x)))

        monkeypatch.setattr(mechanism, "keep_probabilities",
                            off_grid_keeps_everyone)
        instance = make_gap_toy(3, 2)
        profile = profile_for(instance, [F(5), F(3), F(4)])
        objective, poly = build_relaxation(instance, profile)
        assert solve_relaxation(objective, poly).coords == (
            F(9, 16), ONE, F(7, 16))
        with pytest.raises(InvariantError, match="calibration"):
            run(instance, profile, seed=0)


class TestFamilySpec:
    """The spec holds alpha, beta and the curve; the rest is derived."""

    @pytest.mark.parametrize("build, scale, calibration", [
        (lambda: make_single_item(2), ONE, ONE),
        (lambda: make_case_b_family(2, F(1, 2)), ONE, F(1, 2)),
        (lambda: make_single_minded_ca(2, [{0}, {0, 1}]), F(1, 2), F(1, 2)),
        (lambda: make_single_minded_ca(2, [{0}, {1}], alpha=ONE), ONE, ONE),
        (lambda: make_gap_toy(2, 1), ONE, ONE),
        (lambda: make_no_money(2, "lottery"), ONE, ONE),
        (lambda: make_no_money(2, "single_peaked"), ONE, ONE),
    ])
    def test_every_shipped_family_keeps_its_scale_and_calibration(
            self, build, scale, calibration):
        spec = build().spec
        assert spec.decomposition_scale == scale
        assert spec.calibration == calibration

    @pytest.mark.parametrize("alpha, beta, curve, match", [
        (F(2), F(1, 4), None, "alpha"),
        (ZERO, ONE, None, "alpha"),
        (ONE, ZERO, None, "beta"),
        (ONE, F(3, 2), None, "beta"),
        (F(1, 2), F(1, 2), unit_gap_curve(2), "beta must be 1"),
    ])
    def test_a_contradictory_spec_is_refused_when_built(self, alpha, beta,
                                                        curve, match):
        with pytest.raises(ValueError, match=match):
            FamilySpec(alpha=alpha, beta=beta, curve=curve)


class TestSingleItem:
    @pytest.mark.parametrize("bids,winner,price", [
        ([F(5), F(3)], 0, F(3)),
        ([F(5), F(3), F(2)], 0, F(3)),
        ([F(7)], 0, ZERO),
        ([F(3), F(5), F(2)], 1, F(3)),
    ])
    def test_pipeline_reproduces_second_price(self, bids, winner, price):
        inst = make_single_item(len(bids))
        outcome = run(inst, profile_for(inst, bids), seed=0)
        assert outcome.realized.winners() == (winner,)
        assert outcome.expected_payments[winner] == price
        assert all(p == 0 for k, p in enumerate(outcome.expected_payments)
                   if k != winner)

    def test_declared_spec(self):
        spec = make_single_item(2).spec
        assert (spec.alpha, spec.beta, spec.curve) == (ONE, ONE, None)


class TestSingleMinded:
    def test_opt_from_brute_force(self):
        inst = make_single_minded_ca(2, [{0, 1}, {0}, {1}])
        profile = profile_for(inst, [F(5), F(3), F(3)])
        alloc, opt = brute_force_opt(inst, profile)
        assert opt == 6
        assert alloc.winners() == (1, 2)

    def test_disjoint_desires_make_the_lp_integral(self):
        inst = make_single_minded_ca(2, [{0}, {1}])
        profile = profile_for(inst, [F(3), F(4)])
        objective, poly = build_relaxation(inst, profile)
        optimum = FractionalPoint(solve_relaxation(objective, poly).coords)
        assert all(c.denominator == 1 for c in optimum.coords)
        decomposition = convex_decompose(optimum, inst.spec.decomposition_scale,
                                         inst)
        # Half-scaling of the integral point: winners at 1/2, slack on empty.
        total = sum(w for _, w in decomposition.entries)
        assert total == 1

    def test_single_bidder_wanting_everything_acts_like_single_item(self):
        inst = make_single_minded_ca(2, [{0, 1}], alpha=ONE)
        profile = profile_for(inst, [F(7)])
        outcome = run(inst, profile, seed=0)
        assert outcome.realized.winners() == (0,)
        assert outcome.expected_payments == (ZERO,)

    def test_desk_scale_limits(self):
        with pytest.raises(InputError):
            make_single_minded_ca(5, [{0}])
        with pytest.raises(InputError):
            make_single_minded_ca(2, [set()])

    def test_alpha_half_survives_the_odd_cycle_audit(self):
        make_single_minded_ca(3, [{0, 1}, {1, 2}, {0, 2}], alpha=F(1, 2))

    def test_alpha_one_fails_the_odd_cycle_audit(self):
        with pytest.raises(FamilyConstructionError):
            make_single_minded_ca(3, [{0, 1}, {1, 2}, {0, 2}], alpha=ONE)


class TestGapToy:
    def test_curve_evaluates_exactly(self):
        curve = unit_gap_curve(16)
        assert curve.value_at(ONE) == F(1, 2)
        assert curve.value_at(F(1, 2)) == F(3, 8)
        assert curve.value_at(ZERO) == ZERO

    def test_probe_overshoots_before_thinning_and_lands_after(self):
        """E[f(X)] > L(x) from the decomposition; equality after adjust."""
        inst = make_gap_toy(2, 1)
        profile = profile_for(inst, [F(4), F(4)])
        objective, _ = build_relaxation(inst, profile)
        probe = FractionalPoint((F(1, 2), F(1, 4)))
        before = convex_decompose(probe, ONE, inst)
        relaxed = objective.evaluate(probe.coords)
        assert expected_welfare(before, profile) > relaxed
        after = adjust(before, keep_probabilities(inst, probe))
        assert expected_welfare(after, profile) == relaxed

    def test_zero_bids_are_zero_everywhere(self):
        inst = make_gap_toy(2, 2)
        outcome = run(inst, profile_for(inst, [ZERO, ZERO]), seed=0)
        assert outcome.relaxed_value == 0
        assert outcome.expected_payments == (ZERO, ZERO)
        assert outcome.realized.winners() == ()

    def test_contention_spreads_mass(self):
        inst = make_gap_toy(3, 2)  # bidders 0 and 2 share machine 0
        profile = profile_for(inst, [F(4), F(4), F(4)])
        x, _ = allocate(inst, profile)
        assert x.coords[0] + x.coords[2] <= 1
        assert 0 < x.coords[0] < 1


class TestCaseB:
    def test_thinned_distribution_and_welfare(self):
        inst = make_case_b_family(2, F(1, 2))
        profile = profile_for(inst, [F(5), F(3)])
        _, dist = allocate(inst, profile)
        masses = {a.winners(): p for a, p in dist.entries}
        assert masses == {(0,): F(1, 2), (): F(1, 2)}
        assert expected_welfare(dist, profile) == F(5, 2)

    def test_beta_one_is_the_single_item_family(self):
        inst = make_case_b_family(2, ONE)
        profile = profile_for(inst, [F(5), F(3)])
        _, dist = allocate(inst, profile)
        assert dist.entries[0][0].winners() == (0,)
        assert dist.entries[0][1] == 1

    def test_ratio_is_exactly_beta_with_unique_maximum(self):
        inst = make_case_b_family(2, F(1, 2))
        ratio, ok = check_approximation(inst, profile_for(inst, [F(5), F(3)]))
        assert ok and ratio == F(1, 2)

    def test_welfare_is_beta_times_single_item(self):
        beta = F(1, 3)
        thinned = make_case_b_family(2, beta)
        plain = make_single_item(2)
        for bids in ([F(5), F(3)], [F(2), F(2)], [ZERO, F(4)]):
            _, dist_b = allocate(thinned, profile_for(thinned, bids))
            _, dist_c = allocate(plain, profile_for(plain, bids))
            assert expected_welfare(dist_b, profile_for(thinned, bids)) == \
                beta * expected_welfare(dist_c, profile_for(plain, bids))


class TestNoMoney:
    def test_lottery_probabilities(self):
        from relaxround import run_without_money
        inst = make_no_money(4, "lottery")
        _, dist = run_without_money(inst, profile_for(inst, [F(1)] * 4))
        assert all(p == F(1, 4) for _, p in dist.entries)
        assert len(dist.entries) == 4

    def test_single_peaked_median(self):
        from relaxround import run_without_money
        inst = make_no_money(3, "single_peaked")
        _, dist = run_without_money(inst, profile_for(inst, [F(1), F(5), F(3)]))
        assert dist.entries[0][0].bundles[0] == frozenset({3})

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            make_no_money(2, "raffle")

"""Relaxation recipes, exact maximization, residuals, alpha audit."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from relaxround import (FractionalPoint, InvariantError,
                        PiecewiseCurve, RelaxedObjective,
                        UnsupportedFamilyError, audit_alpha, build_polytope,
                        build_relaxation, contains, enumerate_feasible,
                        indicator, make_case_b_family, make_gap_toy,
                        make_no_money, make_single_item,
                        make_single_minded_ca, profile_for,
                        residual_maxima, residual_objective,
                        solve_relaxation)
from relaxround import relaxation

ZERO = F(0)
ONE = F(1)


class TestBuildRelaxation:
    def test_single_item_recipe(self):
        inst = make_single_item(2)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(5), F(3)]))
        assert objective.coeffs == (F(5), F(3))
        assert objective.alpha == 1
        assert contains(poly, FractionalPoint((F(1, 2), F(1, 2))))
        assert not contains(poly, FractionalPoint((F(3, 4), F(1, 2))))

    def test_single_minded_constraint_counts(self):
        inst = make_single_minded_ca(2, [{0}, {1}, {0, 1}])
        objective, poly = build_relaxation(inst, profile_for(inst, [F(3), F(3), F(5)]))
        assert poly.num_vars == 3
        assert len(poly.constraints) == 3 + 2  # bidder rows + item rows
        for alloc in enumerate_feasible(inst):
            assert contains(poly, FractionalPoint(indicator(inst, alloc)))

    def test_zero_profile_gives_zero_objective(self):
        inst = make_single_item(3)
        objective, _ = build_relaxation(inst, profile_for(inst, [ZERO] * 3))
        assert objective.coeffs == (ZERO, ZERO, ZERO)

    def test_no_money_families_have_no_recipe(self):
        inst = make_no_money(2, "lottery")
        with pytest.raises(UnsupportedFamilyError):
            build_polytope(inst)

    def test_feasible_indicators_always_contained(self):
        for inst in (make_single_item(3),
                     make_single_minded_ca(3, [{0, 1}, {1, 2}, {0}]),
                     make_gap_toy(3, 2)):
            profile = profile_for(inst, [F(2)] * inst.n)
            _, poly = build_relaxation(inst, profile)
            for alloc in enumerate_feasible(inst):
                assert contains(poly, FractionalPoint(indicator(inst, alloc)))


class TestSolveRelaxation:
    def test_highest_bid_wins(self):
        inst = make_single_item(2)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(5), F(3)]))
        assert solve_relaxation(objective, poly).coords == (ONE, ZERO)

    def test_tie_breaks_to_lowest_index(self):
        inst = make_single_item(2)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(4), F(4)]))
        assert solve_relaxation(objective, poly).coords == (ONE, ZERO)

    def test_zero_bids_stay_at_origin(self):
        inst = make_single_item(2)
        objective, poly = build_relaxation(inst, profile_for(inst, [ZERO, ZERO]))
        assert solve_relaxation(objective, poly).coords == (ZERO, ZERO)

    def test_dominates_every_integral_point(self):
        """First inequality of the ratio proof: L(x*) >= L(chi(s)) for all s."""
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        profile = profile_for(inst, [F(3), F(4)])
        objective, poly = build_relaxation(inst, profile)
        best = objective.evaluate(solve_relaxation(objective, poly).coords)
        for alloc in enumerate_feasible(inst):
            assert best >= objective.evaluate(indicator(inst, alloc))

    def test_concave_objective_splits_symmetric_mass(self):
        inst = make_gap_toy(2, 1)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(4), F(4)]))
        optimum = solve_relaxation(objective, poly)
        assert optimum.coords == (F(1, 2), F(1, 2))

    def test_concave_value_matches_curve_evaluation(self):
        inst = make_gap_toy(2, 1)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(4), F(1)]))
        optimum = solve_relaxation(objective, poly)
        direct = sum((bid * curve.value_at(x) for bid, curve, x
                      in zip(objective.coeffs, objective.curves,
                             optimum.coords)), ZERO)
        assert direct == objective.evaluate(optimum.coords)

    def test_fold_mismatch_raises(self, monkeypatch):
        # The bids 3 and 11/7 tie the last segment filled with the first
        # one left out, so the water-fill is not the only optimum, and the
        # simplex solves it.
        inst = make_gap_toy(2, 1)
        objective, poly = build_relaxation(inst, profile_for(
            inst, [F(3), F(11, 7)]))
        exact, solved = relaxation.maximize_linear, []

        def off_by_one(objective, poly, columns=None):
            final = exact(objective, poly, columns)
            final.prices[-1] += 1
            solved.append(final)
            return final

        monkeypatch.setattr(relaxation, "maximize_linear", off_by_one)
        with pytest.raises(InvariantError, match="folding"):
            solve_relaxation(objective, poly)
        assert len(solved) == 1

    def test_fold_mismatch_of_a_water_filled_value_raises(self, monkeypatch):
        inst = make_gap_toy(2, 1)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(4), F(1)]))
        exact, filled = relaxation.water_fill, []

        def off_by_one(costs, layout):
            fill = exact(costs, layout)
            filled.append(fill)
            return replace(fill, value=fill.value + 1)

        monkeypatch.setattr(relaxation, "water_fill", off_by_one)
        monkeypatch.setattr(relaxation, "maximize_linear", None)
        with pytest.raises(InvariantError, match="folding"):
            solve_relaxation(objective, poly)
        assert len(filled) == 1

    def test_a_linear_value_off_its_terms_raises(self, monkeypatch):
        """The charge reads L's terms at x* and L(x*) together, so the
        check covers linear L too."""
        inst = make_single_item(2)
        objective, poly = build_relaxation(inst, profile_for(inst, [F(4), F(1)]))
        exact = relaxation.water_fill

        def off_by_one(costs, layout):
            fill = exact(costs, layout)
            return replace(fill, value=fill.value + 1)

        monkeypatch.setattr(relaxation, "water_fill", off_by_one)
        monkeypatch.setattr(relaxation, "maximize_linear", None)
        with pytest.raises(InvariantError, match="folding"):
            solve_relaxation(objective, poly)


class TestResidualMaxima:
    @pytest.mark.parametrize("build", [
        lambda: (make_single_item(3), [F(5), F(5), F(2)], [0], [0]),
        lambda: (make_single_minded_ca(3, [{0, 1}, {1, 2}, {0, 2}]),
                 [F(3), F(2), ZERO], [0], []),
        lambda: (make_gap_toy(3, 2), [F(4), F(1), F(4)], [0, 1, 2],
                 [0, 1, 2]),
        lambda: (make_gap_toy(3, 2), [F(4), ZERO, F(1)], [0, 2], [0, 2]),
    ])
    def test_matches_the_cold_residual_solve(self, build, monkeypatch):
        """Only a bidder who wins part of x* is re-optimized, and by a
        refill of P only where the family has no vertex table: one
        ``_maximize`` over P's layout at L's integer costs with that
        bidder's columns zeroed, whose value alone is read."""
        instance, scalars, winners, refilled = build()
        objective, poly = build_relaxation(instance,
                                           profile_for(instance, scalars))
        final = solve_relaxation(objective, poly)
        assert [k for k in range(instance.n)
                if any(x for x, owner in zip(final.coords,
                                             objective.owners)
                       if owner == k)] == winners
        cold = []
        for k in range(instance.n):
            residual = residual_objective(objective, k)
            cold.append(residual.evaluate(
                solve_relaxation(residual, poly).coords))
        solve, solved = relaxation._maximize, []

        def counting(costs, scale, layout, unique=True):
            solved.append((costs, scale, layout, unique))
            return solve(costs, scale, layout, unique)

        monkeypatch.setattr(relaxation, "_maximize", counting)
        assert residual_maxima(instance, final) == tuple(cold)
        costs, scale = relaxation._integer_costs(objective)
        layout = relaxation._layout(objective, poly)
        owners = [objective.owners[v] for v in layout.columns[0]]
        assert solved == [([0 if owner == k else c
                            for c, owner in zip(costs, owners)],
                           scale, layout, False) for k in refilled]
        assert all(layout.poly is poly for _, _, layout, _ in solved)


class TestBlocksAndLayouts:
    @pytest.mark.parametrize("instance, blocks", [
        (make_gap_toy(3, 2), [{0, 2}, {1}]),
        (make_gap_toy(2, 2), [{0}, {1}]),
        (make_single_item(3), [{0, 1, 2}]),
        (make_single_minded_ca(3, [{0}, {1, 2}]), [{0}, {1}]),
    ])
    def test_blocks_are_read_once_per_instance(self, instance, blocks):
        poly = build_polytope(instance)
        assert build_polytope(instance) is poly
        assert instance.derived["polytope"] is poly
        assert sorted(poly._blocks) == sorted(tuple(sorted(block))
                                              for block in blocks)

    @pytest.mark.parametrize("build", [
        lambda: make_gap_toy(3, 2),
        lambda: make_single_item(3),
        lambda: make_single_minded_ca(3, [{0, 1}, {1, 2}, {0, 2}]),
    ])
    def test_the_column_layout_is_made_once_per_instance(self, build,
                                                         monkeypatch):
        """Every solve of the instance, the main one and each refill of
        P, on every profile, reads one layout of P's LP columns."""
        instance = build()
        shipped, made = relaxation.column_layout, []

        def counting(poly, columns):
            made.append(columns)
            return shipped(poly, columns)

        monkeypatch.setattr(relaxation, "column_layout", counting)
        layouts = set()
        for bids in ([F(4), F(1), F(4)], [F(5), F(3), F(2)]):
            objective, poly = build_relaxation(instance,
                                               profile_for(instance, bids))
            residual_maxima(instance, solve_relaxation(objective, poly))
            layouts.add(relaxation._layout(objective, poly))
            layouts.add(relaxation._layout(residual_objective(objective, 0),
                                           poly))
        assert len(layouts) == len(made) == 1


class TestResidualObjective:
    def test_zeroes_the_named_bidder(self):
        inst = make_single_item(2)
        objective, _ = build_relaxation(inst, profile_for(inst, [F(5), F(3)]))
        assert residual_objective(objective, 0).coeffs == (ZERO, F(3))
        assert residual_objective(objective, 1).coeffs == (F(5), ZERO)

    def test_idempotent_and_commutative(self):
        inst = make_single_item(3)
        objective, _ = build_relaxation(inst, profile_for(inst, [F(5), F(3), F(2)]))
        once = residual_objective(objective, 1)
        assert residual_objective(once, 1) == once
        ab = residual_objective(residual_objective(objective, 0), 2)
        ba = residual_objective(residual_objective(objective, 2), 0)
        assert ab == ba

    @pytest.mark.parametrize("build", [
        lambda: make_single_item(3),
        lambda: make_case_b_family(3, F(1, 2)),
        lambda: make_single_minded_ca(3, [{0}, {0, 1}, {2}]),
        lambda: make_gap_toy(3, 2),
    ])
    def test_removing_a_bidder_is_setting_its_bid_to_zero(self, build):
        """L^{-k} is L of the same profile with k's scalar set to 0, so
        the cold k-excluded pipeline solves the LP of a real profile."""
        inst = build()
        bids = [F(5), F(3, 2), F(4)]
        objective, _ = build_relaxation(inst, profile_for(inst, bids))
        for k in range(inst.n):
            silenced = [ZERO if i == k else b for i, b in enumerate(bids)]
            want, _ = build_relaxation(inst, profile_for(inst, silenced))
            assert residual_objective(objective, k) == want

    def test_zero_objective_unchanged(self):
        inst = make_single_item(2)
        objective, _ = build_relaxation(inst, profile_for(inst, [ZERO, ZERO]))
        assert residual_objective(objective, 0) == objective

    def test_index_out_of_range(self):
        inst = make_single_item(2)
        objective, _ = build_relaxation(inst, profile_for(inst, [F(5), F(3)]))
        with pytest.raises(IndexError):
            residual_objective(objective, 5)


class TestAuditAlpha:
    def test_single_item_passes_with_equality(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        objective, _ = build_relaxation(inst, profile)
        audit = audit_alpha(objective, inst, profile)
        assert audit.passed and audit.equality_holds

    def test_single_minded_passes_with_equality(self):
        inst = make_single_minded_ca(2, [{0}, {1}, {0, 1}])
        profile = profile_for(inst, [F(3), F(3), F(5)])
        objective, _ = build_relaxation(inst, profile)
        audit = audit_alpha(objective, inst, profile)
        assert audit.passed and audit.equality_holds

    def test_corrupted_objective_fails_with_counterexample(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        objective, _ = build_relaxation(inst, profile)
        halved = RelaxedObjective(alpha=objective.alpha,
                                  owners=objective.owners,
                                  coeffs=(F(5, 2), F(3)), curves=None)
        audit = audit_alpha(halved, inst, profile)
        assert not audit.passed
        alloc, lval, fval = audit.counterexample
        assert alloc.bundles[0] == frozenset({0})
        assert (lval, fval) == (F(5, 2), F(5))

    def test_gap_toy_passes_at_declared_alpha(self):
        inst = make_gap_toy(2, 1)
        profile = profile_for(inst, [F(4), F(2)])
        objective, _ = build_relaxation(inst, profile)
        audit = audit_alpha(objective, inst, profile)
        assert audit.passed
        assert inst.spec.alpha == F(1, 2)


class TestPiecewiseCurve:
    def test_breakpoints_match_quadratic(self):
        from relaxround import unit_gap_curve
        curve = unit_gap_curve(16)
        for k in range(17):
            t = F(k, 16)
            assert curve.value_at(t) == t * (2 - t) / 2

    def test_secant_lies_below_the_diagonal(self):
        from relaxround import unit_gap_curve
        curve = unit_gap_curve(8)
        for num in range(1, 33):
            t = F(num, 32)
            assert curve.value_at(t) <= t

    def test_inverse_round_trips(self):
        from relaxround import unit_gap_curve
        curve = unit_gap_curve(4)
        for num in range(0, 17):
            t = F(num, 16)
            assert curve.inverse(curve.value_at(t)) == t

    def test_convex_curve_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseCurve(((ZERO, ZERO), (F(1, 2), F(1, 8)), (ONE, ONE)))

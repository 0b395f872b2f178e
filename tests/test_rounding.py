"""Convex decomposition, distribution arithmetic, thinning, sampling."""

from fractions import Fraction as F
from itertools import product

import pytest

from relaxround import (AllocationDistribution, Allocation,
                        DecompositionInfeasibleError, FractionalPoint, adjust,
                        convex_decompose, expected_value_per_bidder,
                        expected_welfare, indicator, make_single_item,
                        make_single_minded_ca, phase_one, profile_for,
                        sample)

ZERO = F(0)
ONE = F(1)


def win(n, i):
    return Allocation(tuple(frozenset({0}) if j == i else frozenset()
                            for j in range(n)))


def decomposition_identity(instance, x, scale):
    decomposition = convex_decompose(x, scale, instance)
    total = [ZERO] * instance.num_vars
    for alloc, weight in decomposition.entries:
        chi = indicator(instance, alloc)
        for v in range(instance.num_vars):
            total[v] += weight * chi[v]
    assert tuple(total) == tuple(scale * c for c in x.coords)
    assert sum(w for _, w in decomposition.entries) == 1
    assert decomposition.support_size <= instance.num_vars + 1
    return decomposition


class TestConvexDecompose:
    def test_symmetric_half_half(self):
        inst = make_single_item(2)
        dist = convex_decompose(FractionalPoint((F(1, 2), F(1, 2))), ONE,
                                inst)
        assert dist.mass(win(2, 0)) == F(1, 2)
        assert dist.mass(win(2, 1)) == F(1, 2)

    def test_quarter_half_matches_feasibility_oracle(self):
        """Oracle: solve the 3-allocation weight system directly."""
        inst = make_single_item(2)
        x = FractionalPoint((F(1, 4), F(1, 2)))
        dist = convex_decompose(x, ONE, inst)
        # Columns follow the enumeration order: empty, b0-wins, b1-wins.
        rows = [((ZERO, ONE, ZERO), F(1, 4)),
                ((ZERO, ZERO, ONE), F(1, 2)),
                ((ONE, ONE, ONE), ONE)]
        oracle, _ = phase_one(rows, 3)
        assert oracle == (F(1, 4), F(1, 4), F(1, 2))
        assert dist.mass(Allocation.empty(2)) == oracle[0]
        assert dist.mass(win(2, 0)) == oracle[1]
        assert dist.mass(win(2, 1)) == oracle[2]

    def test_integral_point_gives_point_mass(self):
        inst = make_single_item(3)
        alloc = win(3, 1)
        x = FractionalPoint(indicator(inst, alloc))
        decomposition = convex_decompose(x, ONE, inst)
        assert decomposition.entries == ((alloc, ONE),)

    def test_identity_on_probe_grid(self):
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        scale = inst.spec.decomposition_scale
        for coords in product([ZERO, F(1, 2), ONE], repeat=2):
            if coords[0] + coords[1] > 1:
                continue  # item 0 is shared
            decomposition_identity(inst, FractionalPoint(coords), scale)

    def test_infeasible_scale_reports_residual(self):
        # Odd cycle of pairwise-overlapping bundles: the all-half point is in
        # the polytope, but at scale 1 only singleton winner sets can carry
        # its marginals and their weights would sum to 3/2.
        inst = make_single_minded_ca(3, [{0, 1}, {1, 2}, {0, 2}], alpha=F(1, 2))
        x = FractionalPoint((F(1, 2), F(1, 2), F(1, 2)))
        decomposition_identity(inst, x, F(1, 2))  # declared scale still works
        with pytest.raises(DecompositionInfeasibleError) as err:
            convex_decompose(x, ONE, inst)
        assert err.value.residual > 0

    def test_rejects_point_outside_polytope(self):
        inst = make_single_item(2)
        with pytest.raises(ValueError):
            convex_decompose(FractionalPoint((ONE, ONE)), ONE, inst)

    def test_scale_must_be_probability(self):
        inst = make_single_item(2)
        with pytest.raises(ValueError):
            convex_decompose(FractionalPoint((ZERO, ZERO)), F(2), inst)


class TestExactDistribution:
    def test_merges_duplicates(self):
        alloc = win(2, 0)
        dist = AllocationDistribution.from_pairs([(alloc, F(1, 2)),
                                                  (alloc, F(1, 2))])
        assert dist.entries == ((alloc, ONE),)

    def test_two_point_support_preserved(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 2)),
                                                  (win(2, 1), F(1, 2))])
        assert len(dist.entries) == 2

    def test_point_mass_on_empty(self):
        dist = AllocationDistribution.from_pairs([(Allocation.empty(2), ONE)])
        assert dist.mass(Allocation.empty(2)) == 1

    def test_unnormalized_mass_rejected(self):
        with pytest.raises(ValueError):
            AllocationDistribution.from_pairs([(win(2, 0), F(3, 5)),
                                               (win(2, 1), F(3, 5))])


class TestAdjust:
    def test_case_c_is_identity(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 3)),
                                                  (win(2, 1), F(2, 3))])
        assert adjust(dist, "c", (ONE, ONE)) == dist

    def test_case_c_rejects_thinning(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), ONE)])
        with pytest.raises(ValueError):
            adjust(dist, "c", (F(1, 2), ONE))

    def test_case_b_bernoulli_thinning(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), ONE)])
        thinned = adjust(dist, "b", (F(1, 2), F(1, 2)))
        assert thinned.mass(win(2, 0)) == F(1, 2)
        assert thinned.mass(Allocation.empty(2)) == F(1, 2)

    def test_case_a_matches_convolution_oracle(self):
        """Oracle: direct product over keep/drop outcomes per bidder."""
        both = Allocation((frozenset({0}), frozenset({1})))
        dist = AllocationDistribution.from_pairs([(both, F(2, 3)),
                                                  (win(2, 0), F(1, 3))])
        keep = (F(1, 2), F(1, 4))
        adjusted = adjust(dist, "a", keep)
        oracle: dict[Allocation, F] = {}
        for alloc, p in dist.entries:
            for pattern in product([True, False], repeat=2):
                weight = p
                bundles = []
                for i, keep_it in enumerate(pattern):
                    if not alloc.bundles[i]:
                        bundles.append(frozenset())
                        if not keep_it:
                            weight = ZERO  # drop pattern on empty: skip dup
                        continue
                    if keep_it:
                        weight *= keep[i]
                        bundles.append(alloc.bundles[i])
                    else:
                        weight *= 1 - keep[i]
                        bundles.append(frozenset())
                if weight > 0:
                    key = Allocation(tuple(bundles))
                    oracle[key] = oracle.get(key, ZERO) + weight
        assert sum(p for _, p in adjusted.entries) == 1
        for alloc, p in adjusted.entries:
            assert oracle[alloc] == p
        assert len(oracle) == len(adjusted.entries)

    def test_probability_out_of_range_rejected(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), ONE)])
        with pytest.raises(ValueError):
            adjust(dist, "b", (F(3, 2), ONE))

    def test_uniform_thinning_scales_welfare_by_beta(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 2)),
                                                  (win(2, 1), F(1, 2))])
        for beta in (F(1, 3), F(2, 5), ONE):
            thinned = adjust(dist, "b", (beta, beta))
            assert expected_welfare(thinned, profile) == beta * expected_welfare(dist, profile)


class TestExpectations:
    def test_expected_welfare_arithmetic(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 2)),
                                                  (win(2, 1), F(1, 2))])
        assert expected_welfare(dist, profile) == 4
        assert expected_value_per_bidder(dist, profile) == (F(5, 2), F(3, 2))

    def test_empty_distribution_is_zero(self):
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        dist = AllocationDistribution.from_pairs([(Allocation.empty(2), ONE)])
        assert expected_welfare(dist, profile) == 0
        assert expected_value_per_bidder(dist, profile) == (ZERO, ZERO)

    def test_decomposition_welfare_equals_relaxed_value(self):
        """E[f(X)] after decomposition equals L(x*) for the integral LP."""
        from relaxround import build_relaxation, solve_relaxation
        inst = make_single_item(2)
        profile = profile_for(inst, [F(5), F(3)])
        objective, poly = build_relaxation(inst, profile)
        optimum = solve_relaxation(objective, poly)
        dist = convex_decompose(optimum, ONE, inst)
        assert expected_welfare(dist, profile) == objective.evaluate(optimum.coords) == 5

    def test_scaled_decomposition_calibrates_linear_objectives(self):
        """E[f(X)] = scale * L(x) pointwise for every linear-objective family."""
        from relaxround import build_relaxation
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        profile = profile_for(inst, [F(3), F(4)])
        objective, poly = build_relaxation(inst, profile)
        scale = inst.spec.decomposition_scale
        for coords in product([ZERO, F(1, 2), ONE], repeat=2):
            x = FractionalPoint(coords)
            from relaxround import contains
            if not contains(poly, x):
                continue
            dist = convex_decompose(x, scale, inst)
            assert expected_welfare(dist, profile) == \
                scale * objective.evaluate(coords)


class TestSample:
    def test_point_mass(self):
        dist = AllocationDistribution.from_pairs([(win(2, 1), ONE)])
        assert sample(dist, 123) == win(2, 1)

    def test_support_membership(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 2)),
                                                  (win(2, 1), F(1, 2))])
        assert sample(dist, 42) in dist.support()

    def test_same_seed_same_draw(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 3)),
                                                  (win(2, 1), F(2, 3))])
        for seed in range(20):
            assert sample(dist, seed) == sample(dist, seed)

    def test_sampling_frequencies_track_mass(self):
        dist = AllocationDistribution.from_pairs([(win(2, 0), F(1, 4)),
                                                  (win(2, 1), F(3, 4))])
        hits = sum(1 for seed in range(400) if sample(dist, seed) == win(2, 1))
        assert 240 <= hits <= 350  # crude sanity band around 300

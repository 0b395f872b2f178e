"""Core model: valuations, welfare, feasible-set enumeration."""

import gc
import sys
import threading
import weakref
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from relaxround import (AdditiveValuation, Allocation, EnumerationTooLargeError,
                        Polytope, SingleMindedValuation,
                        SinglePeakedValuation, ValuationProfile, build_polytope, enumerate_feasible,
                        make_no_money,
                        make_single_item, make_single_minded_ca, profile_for,
                        social_welfare, value_of)
from relaxround import relaxation


def bundles(*sets):
    return Allocation(tuple(frozenset(s) for s in sets))


class TestValueOf:
    def test_additive_sums_items(self):
        profile = ValuationProfile((AdditiveValuation((F(2), F(3))),))
        assert value_of(profile, 0, bundles({0, 1})) == 5

    def test_single_minded_misses_partial_bundle(self):
        profile = ValuationProfile((SingleMindedValuation(frozenset({0, 1}), F(7)),))
        assert value_of(profile, 0, bundles({0})) == 0

    def test_single_minded_superset_pays_full_value(self):
        profile = ValuationProfile((SingleMindedValuation(frozenset({0}), F(7)),))
        assert value_of(profile, 0, bundles({0, 1})) == 7

    @pytest.mark.parametrize("valuation", [
        AdditiveValuation((F(2), F(3))),
        SingleMindedValuation(frozenset({0}), F(7)),
        SingleMindedValuation(frozenset({0, 1}), F(4)),
        SinglePeakedValuation(F(3)),
    ])
    def test_empty_bundle_is_worth_zero(self, valuation):
        profile = ValuationProfile((valuation,))
        assert value_of(profile, 0, bundles(set())) == 0

    def test_single_peaked_is_negative_distance(self):
        profile = ValuationProfile((SinglePeakedValuation(F(3)),))
        assert value_of(profile, 0, bundles({3})) == 0
        assert value_of(profile, 0, bundles({5})) == -2

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            AdditiveValuation((F(-1),))
        with pytest.raises(ValueError):
            SingleMindedValuation(frozenset({0}), F(-2))


class TestSocialWelfare:
    def test_sums_over_bidders(self):
        profile = ValuationProfile((AdditiveValuation((F(5),)),
                                    AdditiveValuation((F(3),))))
        alloc = Allocation((frozenset({0}), frozenset({0})))
        # Not a feasible auction allocation, but welfare is still a plain sum.
        assert social_welfare(profile, alloc) == 8

    def test_all_empty_is_zero(self):
        profile = ValuationProfile((AdditiveValuation((F(5),)),
                                    AdditiveValuation((F(3),))))
        assert social_welfare(profile, Allocation.empty(2)) == 0

    def test_single_item_only_winner_contributes(self):
        profile = ValuationProfile((AdditiveValuation((F(5),)),
                                    AdditiveValuation((F(3),))))
        assert social_welfare(profile, bundles({0}, set())) == 5

    def test_linearity_in_one_bidder(self):
        """Scaling one bidder's values scales exactly that contribution."""
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        profile = profile_for(inst, [F(3), F(5)])
        first = profile.valuations[0]
        scaled = ValuationProfile((
            SingleMindedValuation(first.bundle, F(7, 2) * first.value),
            profile.valuations[1]))
        for alloc in enumerate_feasible(inst):
            base0 = value_of(profile, 0, alloc)
            assert (social_welfare(scaled, alloc) - social_welfare(profile, alloc)
                    == (F(7, 2) - 1) * base0)


class TestEnumerateFeasible:
    def test_single_item_two_bidders(self):
        allocs = enumerate_feasible(make_single_item(2))
        assert allocs == [
            Allocation.empty(2),
            bundles({0}, set()),
            bundles(set(), {0}),
        ]

    def test_single_item_one_bidder(self):
        assert len(enumerate_feasible(make_single_item(1))) == 2

    def test_single_minded_disjoint_matches_bitmask_oracle(self):
        """Oracle: filter all item-to-bidder maps down to demand-respecting ones."""
        desires = [frozenset({0}), frozenset({1})]
        inst = make_single_minded_ca(2, desires)
        oracle = set()
        for assignment in product(range(len(desires) + 1), repeat=2):
            got = [frozenset(j for j in range(2) if assignment[j] == i + 1)
                   for i in range(len(desires))]
            if all(b in (frozenset(), desires[i]) for i, b in enumerate(got)):
                oracle.add(Allocation(tuple(got)))
        allocs = enumerate_feasible(inst)
        assert set(allocs) == oracle
        assert len(allocs) == 4

    def test_overlapping_desires_exclude_conflicts(self):
        inst = make_single_minded_ca(2, [{0}, {0, 1}])
        allocs = enumerate_feasible(inst)
        for alloc in allocs:
            won = [b for b in alloc.bundles if b]
            for i, a in enumerate(won):
                for b in won[i + 1:]:
                    assert not (a & b)
        assert len(allocs) == 3  # empty, bidder 0, bidder 1

    def test_order_is_deterministic_and_lexicographic(self):
        inst = make_single_item(3)
        allocs = enumerate_feasible(inst)
        keys = [a.sort_key() for a in allocs]
        assert keys == sorted(keys)
        assert allocs == enumerate_feasible(inst)
        assert allocs[0] == Allocation.empty(3)

    def test_shrink_to_empty_stays_feasible(self):
        inst = make_single_minded_ca(3, [{0}, {1, 2}, {0, 2}])
        feasible = set(enumerate_feasible(inst))
        for alloc in feasible:
            for i in range(inst.n):
                shrunk = list(alloc.bundles)
                shrunk[i] = frozenset()
                assert Allocation(tuple(shrunk)) in feasible

    def test_single_peaked_positions_plus_empty(self):
        inst = make_no_money(3, "single_peaked", positions=5)
        allocs = enumerate_feasible(inst)
        assert len(allocs) == 6
        assert allocs[0] == Allocation.empty(3)

    def test_size_bound_raises_with_estimate(self):
        inst = make_single_minded_ca(2, [{0}, {1}])
        with pytest.raises(EnumerationTooLargeError) as err:
            enumerate_feasible(inst, bound=2)
        assert err.value.bound == 2


class TestPerInstanceMemo:
    """The polytope and the feasible set are computed once per instance."""

    def test_a_warm_memo_still_checks_a_smaller_bound(self):
        inst = make_single_minded_ca(2, [{0}, {1}])
        assert len(enumerate_feasible(inst)) == 4
        with pytest.raises(EnumerationTooLargeError) as err:
            enumerate_feasible(inst, bound=3)
        assert err.value.bound == 3
        assert len(enumerate_feasible(inst, bound=4)) == 4

    def test_shared_outcome_memo_checks_the_bound_too(self):
        inst = make_no_money(2, "single_peaked", positions=5)
        assert len(enumerate_feasible(inst)) == 6
        with pytest.raises(EnumerationTooLargeError):
            enumerate_feasible(inst, bound=5)

    def test_a_failed_enumeration_is_not_kept(self):
        inst = make_no_money(2, "lottery")
        with pytest.raises(EnumerationTooLargeError):
            enumerate_feasible(inst, bound=2)
        assert len(enumerate_feasible(inst)) == 3

    def test_callers_receive_a_fresh_list(self):
        inst = make_single_minded_ca(2, [{0}, {1}])
        first = enumerate_feasible(inst)
        first.clear()
        assert len(enumerate_feasible(inst)) == 4
        assert enumerate_feasible(inst) is not enumerate_feasible(inst)

    def test_the_polytope_is_built_once_per_instance_object(self):
        inst = make_single_item(2)
        assert build_polytope(inst) is build_polytope(inst)
        twin = make_single_item(2)
        assert twin == inst
        assert build_polytope(twin) is not build_polytope(inst)
        copy = replace(inst)
        assert build_polytope(copy) is not build_polytope(inst)
        assert build_polytope(copy) == build_polytope(inst)

    def test_single_minded_construction_keeps_the_audits_memo(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(Polytope(*args))
            return built[-1]

        monkeypatch.setattr(relaxation, "Polytope", counted)
        inst = make_single_minded_ca(3, [{0, 1}, {1, 2}, {0}])
        assert len(built) == 1
        assert build_polytope(inst) is built[0]
        feasible = inst.derived["feasible"]
        assert enumerate_feasible(inst) == list(feasible)
        assert inst.derived["feasible"] is feasible
        assert len(built) == 1
        cold = replace(inst)
        assert not cold.derived
        assert cold == inst and hash(cold) == hash(inst)
        assert repr(cold) == repr(inst)

    def test_memo_takes_no_part_in_equality_hashing_or_repr(self):
        cold = make_no_money(2, "lottery")
        warm = make_no_money(2, "lottery")
        enumerate_feasible(warm)
        assert "feasible" in warm.derived and not cold.derived
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_threads_sharing_a_cold_instance_agree(self):
        base = make_single_minded_ca(3, [{0, 1}, {1, 2}, {0}])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                inst = replace(base)  # same instance, empty memo
                results = []

                def work():
                    results.append((build_polytope(inst),
                                    enumerate_feasible(inst)))

                threads = [threading.Thread(target=work) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 8
                assert all(poly is results[0][0] for poly, _ in results)
                assert all(found == results[0][1] for _, found in results)
        finally:
            sys.setswitchinterval(interval)

    def test_memo_lives_as_long_as_its_instance(self):
        inst = make_single_item(2)
        poly = weakref.ref(build_polytope(inst))
        del inst
        gc.collect()
        assert poly() is None


class TestInstanceInvariants:
    def test_variable_index_is_a_bijection(self):
        inst = make_single_minded_ca(2, [{0, 1}, {0, 1}])
        assert len(set(inst.variable_index)) == inst.num_vars

    def test_profile_must_match_family(self):
        from relaxround.model import validate_profile
        inst = make_single_item(2)
        sp = ValuationProfile((SinglePeakedValuation(F(1)),
                               SinglePeakedValuation(F(2))))
        with pytest.raises(ValueError):
            validate_profile(inst, sp)

    def test_single_peaked_peak_must_be_a_position(self):
        from relaxround.model import validate_profile
        inst = make_no_money(1, "single_peaked", positions=4)
        with pytest.raises(ValueError):
            validate_profile(inst, ValuationProfile((SinglePeakedValuation(F(9)),)))
        with pytest.raises(ValueError):
            validate_profile(inst, ValuationProfile((SinglePeakedValuation(F(1, 2)),)))

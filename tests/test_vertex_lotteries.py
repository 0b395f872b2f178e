"""The per-instance table of vertex lotteries that `_round_point` reads.

A single-minded constructor rounds every polytope vertex in its
decomposability audit and keeps the results in the instance's ``derived``
facts; ``Instance.vertex_lotteries`` reads them.  A linear relaxation's simplex
optimum is a vertex, so `run` reads its lottery from the table and never
decomposes, and prices its winners' Clarke pivots from the same vertices.
These tests check the table against the pipeline with the table removed,
that the lookup is live, and that it changes no output.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from relaxround import (FractionalPoint, Instance, build_polytope,
                        build_relaxation,
                        enumerate_vertices,
                        make_case_b_family, make_gap_toy, make_no_money,
                        make_single_item, make_single_minded_ca,
                        maximize_linear, profile_for, range_contains, run)
from relaxround import mechanism
from relaxround.mechanism import _round_point
from relaxround.verify import default_probe_point

#: The run-ca benchmark instance: 4 items, 6 single-minded bidders.
RUN_CA_DESIRES = ((0,), (1, 2), (0, 3), (2, 3), (1,), (3,))

SWEEP_BUNDLES = [tuple(j for j in range(3) if mask >> j & 1)
                 for mask in range(1, 8)]
#: Every ordered bundle pair of the verify-sweep workload (m=3, n=2).
SWEEP_PAIRS = [(a, b) for a in SWEEP_BUNDLES for b in SWEEP_BUNDLES]

DIFFERENTIAL = ([(4, RUN_CA_DESIRES), (2, ({0}, {0, 1})),
                 (3, ({0, 1}, {1, 2}, {0, 2}))]
                + [(3, pair) for pair in SWEEP_PAIRS])


def untabled(instance):
    """The same instance with no derived facts, so an empty table."""
    bare = replace(instance)
    assert len(bare.vertex_lotteries) == 0
    return bare


def seeded_bids(rng, n):
    return [F(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(n)]


@pytest.fixture(scope="module")
def run_ca():
    return make_single_minded_ca(4, RUN_CA_DESIRES)


@pytest.fixture(scope="module")
def run_ca_profiles(run_ca):
    rng = random.Random(20261018)
    return [profile_for(run_ca, seeded_bids(rng, run_ca.n))
            for _ in range(200)]


class TestTable:
    @pytest.mark.parametrize("m, desires", DIFFERENTIAL)
    def test_entries_are_the_pipeline_at_every_vertex(self, m, desires):
        instance = make_single_minded_ca(m, desires)
        vertices = enumerate_vertices(build_polytope(instance))
        assert set(instance.vertex_lotteries) == {v.coords for v in vertices}
        bare = untabled(instance)
        for coords, lottery in instance.vertex_lotteries.items():
            assert lottery == _round_point(bare, FractionalPoint(coords))

    def test_run_ca_has_nineteen_vertices(self, run_ca):
        assert len(run_ca.vertex_lotteries) == 19

    def test_the_constructor_takes_no_table(self, run_ca):
        with pytest.raises(TypeError, match="vertex_lotteries"):
            Instance(run_ca.family, run_ca.n, run_ca.m, run_ca.variable_index,
                     run_ca.spec, vertex_lotteries={})

    def test_table_is_read_only(self, run_ca):
        coords = next(iter(run_ca.vertex_lotteries))
        with pytest.raises(TypeError):
            run_ca.vertex_lotteries[coords] = None

    def test_table_takes_no_part_in_identity(self, run_ca):
        bare = untabled(run_ca)
        assert bare == run_ca
        assert hash(bare) == hash(run_ca)
        assert repr(bare) == repr(run_ca)
        assert "vertex_lotteries" not in repr(run_ca)

    @pytest.mark.parametrize("build", [
        lambda: make_single_item(3),
        lambda: make_case_b_family(2, F(1, 2)),
        lambda: make_gap_toy(2, 1),
        lambda: make_no_money(3, "lottery"),
        lambda: make_no_money(3, "single_peaked", positions=4),
    ])
    def test_families_without_a_vertex_audit_have_an_empty_table(self,
                                                                 build):
        table = build().vertex_lotteries
        assert isinstance(table, MappingProxyType)
        assert len(table) == 0


class TestLookup:
    def test_every_simplex_optimum_is_a_key(self, run_ca, run_ca_profiles):
        for profile in run_ca_profiles:
            objective, poly = build_relaxation(run_ca, profile)
            optimum = maximize_linear(objective.coeffs, poly, None)
            assert optimum.coords in run_ca.vertex_lotteries

    def test_run_matches_the_untabled_pipeline(self, run_ca,
                                               run_ca_profiles):
        bare = untabled(run_ca)
        for seed, profile in enumerate(run_ca_profiles):
            assert run(run_ca, profile, seed) == run(bare, profile, seed)

    def test_swapped_entries_change_the_distribution(self, run_ca,
                                                     run_ca_profiles):
        # Negative control: the lookup is live, so corrupting the table
        # must show in run's output.
        profile = next(p for p in run_ca_profiles
                       if any(v.value for v in p.valuations))
        objective, poly = build_relaxation(run_ca, profile)
        optimum = maximize_linear(objective.coeffs, poly, None)
        table = dict(run_ca.vertex_lotteries)
        other = next(c for c in table if table[c] != table[optimum.coords])
        table[optimum.coords], table[other] = (table[other],
                                               table[optimum.coords])
        swapped = replace(run_ca)
        swapped.derived["vertex_lotteries"] = MappingProxyType(table)
        honest = run(run_ca, profile, 0).distribution
        assert run(swapped, profile, 0).distribution == table[optimum.coords]
        assert run(swapped, profile, 0).distribution != honest


@pytest.fixture
def decompositions(monkeypatch):
    calls = []
    real = mechanism.convex_decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mechanism, "convex_decompose", counting)
    return calls


class TestCallCounts:
    def test_single_minded_run_never_decomposes(self, run_ca,
                                                run_ca_profiles,
                                                decompositions):
        for seed, profile in enumerate(run_ca_profiles[:20]):
            run(run_ca, profile, seed)
        assert decompositions == []

    def test_untabled_run_decomposes_once(self, run_ca, run_ca_profiles,
                                          decompositions):
        run(untabled(run_ca), run_ca_profiles[0], 0)
        assert len(decompositions) == 1

    def test_gap_toy_run_still_decomposes_once(self, decompositions):
        instance = make_gap_toy(3, 2)
        assert decompositions == []
        run(instance, profile_for(instance, [F(5), F(3), F(4)]), 0)
        assert len(decompositions) == 1

    def test_interior_point_misses_the_table(self, run_ca, decompositions):
        point = default_probe_point(run_ca)
        assert point.coords not in run_ca.vertex_lotteries
        assert (_round_point(run_ca, point)
                == _round_point(untabled(run_ca), point))
        assert len(decompositions) == 2

    def test_range_membership_at_a_vertex_reads_the_table(self, run_ca,
                                                          decompositions):
        for lottery in run_ca.vertex_lotteries.values():
            assert range_contains(run_ca, lottery)
        assert decompositions == []

"""Bundle-misreport rebinds reuse a same-structure instance's audits.

``with_desires`` hands a rebind whose conflict structure matches its
source's the source's vertex lotteries, relabelled by winners, and runs no
audit.  The oracle is a fresh ``make_single_minded_ca`` of the same
packages: equal as an instance and in its vertex lotteries, key order and
entry order included.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from relaxround import families, verify
from relaxround.families import (InputError, conflict_structure,
                                 make_single_minded_ca, with_desires)
from relaxround.model import InvariantError

GRID = [F(0), F(1), F(2)]


def all_bundles(m):
    return [frozenset(j for j in range(m) if mask >> j & 1)
            for mask in range(1, 2 ** m)]


class Fresh:
    """Fresh constructions by (m, packages), each built once."""

    def __init__(self):
        self.built = {}

    def __call__(self, m, desires):
        key = (m, tuple(desires))
        if key not in self.built:
            self.built[key] = make_single_minded_ca(m, desires)
        return self.built[key]


def same_instance(got, want):
    return (got == want and list(got.vertex_lotteries.items())
            == list(want.vertex_lotteries.items()))


def rebinds(m, base):
    """Each package tuple one bidder's bundle misreport reaches, as
    ``check_truthfulness`` builds them: every other bundle of the items."""
    for k, bundle in product(range(len(base)), all_bundles(m)):
        if bundle != base[k]:
            yield tuple(bundle if i == k else b for i, b in enumerate(base))


def check_rebinds(m, bases):
    """Every rebind of every base equals its fresh construction; returns
    how many took the source's lotteries and how many were audited."""
    fresh = Fresh()
    reused = audited = 0
    for base in bases:
        source = fresh(m, base)
        structure = conflict_structure(base, source.spec.alpha)
        for desires in rebinds(m, base):
            got = with_desires(source, desires)
            assert same_instance(got, fresh(m, desires)), (base, desires)
            if conflict_structure(desires, source.spec.alpha) == structure:
                reused += 1
            else:
                audited += 1
    return reused, audited


def test_every_two_bidder_rebind_over_three_items_matches_a_fresh_build():
    bundles = all_bundles(3)
    reused, audited = check_rebinds(3, list(product(bundles, repeat=2)))
    # 49 ordered pairs, 12 rebinds each; both paths are exercised.
    assert reused + audited == 49 * 12
    assert reused and audited


@pytest.mark.parametrize("m, n, count", [(3, 3, 4), (4, 3, 3), (4, 4, 2)])
def test_seeded_rebinds_match_a_fresh_build(m, n, count):
    rng = random.Random(1000 * m + n)
    bundles = all_bundles(m)
    bases = [tuple(rng.choice(bundles) for _ in range(n))
             for _ in range(count)]
    reused, audited = check_rebinds(m, bases)
    assert reused and reused + audited == count * n * (len(bundles) - 1)


def test_a_same_structure_rebind_runs_no_audit(monkeypatch):
    source = make_single_minded_ca(3, [{0, 1}, {1, 2}])
    calls = []
    for name in ("_audit_containment", "_audit_alpha_on_probes",
                 "_audit_decomposability"):
        monkeypatch.setattr(families, name,
                            lambda inst, name=name: calls.append(name))
    rebound = with_desires(source, [{0}, {0, 1, 2}])
    assert calls == []
    assert rebound.variable_index == ((0, frozenset({0})),
                                      (1, frozenset({0, 1, 2})))


def test_an_unaudited_source_hands_on_nothing():
    """A copy made with ``dataclasses.replace`` carries no derived facts,
    so its rebinds are audited in full."""
    bare = replace(make_single_minded_ca(3, [{0, 1}, {1, 2}]))
    assert not bare.vertex_lotteries
    desires = [{0}, {0, 1, 2}]
    assert same_instance(with_desires(bare, desires),
                         make_single_minded_ca(3, desires))


def test_a_sweep_audits_each_structure_once(monkeypatch):
    """({0,1},{1,2}) and its 12 rebinds hold two conflict structures: the
    two packages share an item, or they do not."""
    audited = []
    audit = families._audit_decomposability

    def counting(instance):
        audited.append(tuple(b for _, b in instance.variable_index))
        return audit(instance)

    monkeypatch.setattr(families, "_audit_decomposability", counting)
    instance = make_single_minded_ca(3, [{0, 1}, {1, 2}])
    report = verify.check_truthfulness(instance, GRID, GRID)
    assert len(audited) == 2
    assert len({conflict_structure(d, instance.spec.alpha)
                for d in audited}) == 2

    monkeypatch.setattr(verify, "with_desires", lambda inst, desires:
                        make_single_minded_ca(inst.m, desires,
                                              inst.spec.alpha))
    audited.clear()
    assert verify.check_truthfulness(instance, GRID, GRID) == report
    assert len(audited) == 12


def test_the_structure_map_lives_in_one_call(monkeypatch):
    """A second sweep audits its rebinds again: nothing outlives a call."""
    audited = []
    audit = families._audit_decomposability
    monkeypatch.setattr(families, "_audit_decomposability",
                        lambda inst: audited.append(inst) or audit(inst))
    instance = make_single_minded_ca(3, [{0, 1}, {1, 2}])
    verify.check_truthfulness(instance, GRID, GRID)
    verify.check_truthfulness(instance, GRID, GRID)
    assert len(audited) == 3


def test_the_structure_keeps_maximal_supports_only():
    alpha = F(1, 2)
    # Item 1's support {0} lies inside item 0's {0, 1}: one maximal row.
    assert conflict_structure([frozenset({0, 1}), frozenset({0})], alpha) == (
        2, alpha, frozenset({frozenset({0, 1})}))
    assert (conflict_structure([frozenset({0})] * 3, alpha)
            != conflict_structure([frozenset({0, 1}), frozenset({1, 2}),
                                   frozenset({0, 2})], alpha))


class TestNegativeControls:
    def test_a_conflict_graph_key_misses_the_half_integral_vertex(
            self, monkeypatch):
        """({0},{0},{0}) and ({0,1},{1,2},{0,2}) conflict pairwise alike,
        but only the second polytope has the vertex (1/2, 1/2, 1/2)."""
        source = make_single_minded_ca(3, [{0}, {0}, {0}])
        target = [{0, 1}, {1, 2}, {0, 2}]
        fresh = make_single_minded_ca(3, target)
        half = (F(1, 2),) * 3
        assert half in fresh.vertex_lotteries
        assert half not in source.vertex_lotteries

        def graph_key(bundles, alpha):
            return len(bundles), alpha, frozenset(
                (i, j) for i, j in product(range(len(bundles)), repeat=2)
                if i < j and bundles[i] & bundles[j])

        monkeypatch.setattr(families, "conflict_structure", graph_key)
        got = with_desires(source, target)
        assert got == fresh
        assert not same_instance(got, fresh)

    def test_a_missing_winner_set_is_an_invariant_error(self, monkeypatch):
        """At (1/2, 1/2, 1/2) three disjoint packages need a lottery with
        two winners, and three copies of one item have none."""
        source = make_single_minded_ca(3, [{0}, {1}, {2}])
        monkeypatch.setattr(families, "conflict_structure",
                            lambda bundles, alpha: ())
        with pytest.raises(InvariantError, match="not feasible"):
            with_desires(source, [{0}, {0}, {0}])


@pytest.mark.parametrize("desires, message", [
    ([{0}, set()], "desired bundles must be nonempty"),
    ([{0}, {3}], "desired bundle references an unknown item"),
])
@pytest.mark.parametrize("base", [[{0}, {1}], [{0, 1}, {1, 2}]])
def test_bad_packages_raise_what_construction_raises(base, desires, message):
    source = make_single_minded_ca(3, base)
    with pytest.raises(InputError) as built:
        make_single_minded_ca(3, desires)
    with pytest.raises(InputError) as rebound:
        with_desires(source, desires)
    assert str(rebound.value) == str(built.value) == message

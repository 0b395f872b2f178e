"""The coupled lottery of one- and two-block polytopes against phase one.

``rounding.convex_decompose`` builds the lottery of a polytope with one or
two one-row blocks as a north-west-corner coupling of the blocks' outcomes,
not by phase one.  With one block that lottery is the only one; with two it
is one of many, and it equals phase one's basic solution by measurement
only.  So phase one is the oracle here, built exactly as the decomposition
built it before: the enumerated feasible set, each allocation's indicator
and the equality system over them.

No marginal check can tell a wrong coupling: every coupling of the two
blocks' outcomes gives each variable its mass s * x_v, so
``mechanism._round_point``'s identity holds for all of them, and so do
``AllocationDistribution``'s own checks.  A coupling with block 1's
variables ascending, or with block 0's "none" last, passes both and fails
this file.  Only this oracle test and the pinned digests pin the lottery.
Swapping the two blocks changes nothing: it reverses both orders, and the
north-west-corner coupling of two reversed orders is the same coupling
(an overlap [a, b) of cumulative masses becomes [1 - b, 1 - a)).
"""

import random
from fractions import Fraction as F

import pytest

from relaxround import (AllocationDistribution, FractionalPoint,
                        build_polytope, build_relaxation, contains,
                        convex_decompose, enumerate_feasible, indicator,
                        make_case_b_family, make_gap_toy, make_no_money,
                        make_single_item, make_single_minded_ca, phase_one,
                        profile_for, run, run_without_money,
                        solve_relaxation)
from relaxround import rounding

ZERO = F(0)
ONE = F(1)

SHAPES = {
    **{f"single-item-{n}": (make_single_item, (n,)) for n in range(1, 5)},
    **{f"case-b-{n}": (make_case_b_family, (n, F(1, 2)))
       for n in range(2, 5)},
    **{f"gap-toy-{n}x{m}x{s}": (make_gap_toy, (n, m, s)) for n, m, s in
       ((1, 1, 4), (2, 1, 4), (3, 1, 4), (4, 1, 4), (2, 2, 4), (3, 2, 4),
        (4, 2, 2), (3, 2, 16), (4, 2, 16))},
    **{f"single-minded-{'-'.join(''.join(map(str, sorted(b))) for b in d)}":
       (make_single_minded_ca, (m, d)) for m, d in
       ((2, [{0}, {0}, {1}]), (3, [{0}, {1, 2}]), (2, [{0}, {0, 1}]),
        (2, [{0}, {1}]), (2, [{1}, {0}, {0}]), (2, [{0}, {1}, {0}]),
        (3, [{0, 1}, {2}, {1}]))},
}


def oracle(instance, x, scale):
    """Phase one's lottery: the weights of the enumerated feasible set."""
    allocs = enumerate_feasible(instance)
    columns = [indicator(instance, a) for a in allocs]
    equalities = [(tuple(col[v] for col in columns), scale * x.coords[v])
                  for v in range(instance.num_vars)]
    equalities.append((tuple(ONE for _ in columns), ONE))
    weights, _ = phase_one(equalities, len(columns))
    return AllocationDistribution(tuple(
        (a, w) for a, w in zip(allocs, weights) if w > 0))


def random_point(rng, instance):
    """A point of P: per block all zero, full (sum 1) or partial, with
    zero coordinates and runs of equal ones common."""
    coords = [ZERO] * instance.num_vars
    for block in build_polytope(instance)._blocks:
        kind = rng.choice(("zero", "full", "full", "partial", "partial"))
        if kind == "zero":
            continue
        level = rng.randint(1, 3)
        weights = [rng.choice((0, level, level, rng.randint(0, 4)))
                   for _ in block]
        total = sum(weights)
        if not total:
            continue
        total += 0 if kind == "full" else rng.randint(1, 3)
        for v, w in zip(block, weights):
            coords[v] = F(w, total)
    x = FractionalPoint(tuple(coords))
    assert contains(build_polytope(instance), x)
    return x


def assert_matches_oracle(instance, x, scale):
    got = convex_decompose(x, scale, instance)
    assert got == oracle(instance, x, scale), (x.coords, scale)
    assert got.support_size <= instance.num_vars + 1


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_coupling_equals_phase_one_on_random_points(name):
    make, args = SHAPES[name]
    instance = make(*args)
    assert rounding._coupling(instance) is not None
    rng = random.Random(f"forced-{name}")
    scales = sorted({ONE, F(1, 2), instance.spec.decomposition_scale})
    for _ in range(60):
        x = random_point(rng, instance)
        for scale in scales:
            assert_matches_oracle(instance, x, scale)


def test_coupling_equals_phase_one_on_gap_toy_optima():
    """x* of 300 seeded gap-toy 3x2x16 profiles, about a quarter of the
    bids 0."""
    instance = make_gap_toy(3, 2, 16)
    rng = random.Random(20261021)
    for _ in range(300):
        bids = [ZERO if rng.random() < 0.25
                else F(rng.randint(1, 20), rng.randint(1, 6))
                for _ in range(instance.n)]
        optimum = solve_relaxation(*build_relaxation(
            instance, profile_for(instance, bids)))
        assert_matches_oracle(instance, FractionalPoint(optimum.coords),
                              instance.spec.decomposition_scale)


def count_phase_one(monkeypatch):
    calls = []
    real = rounding.phase_one

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rounding, "phase_one", counting)
    return calls


def test_one_and_two_block_paths_make_no_phase_one_call(monkeypatch):
    calls = count_phase_one(monkeypatch)
    gap_toy = make_gap_toy(3, 2, 16)
    run(gap_toy, profile_for(gap_toy, [F(3), F(5, 2), F(7)]), seed=1)
    make_single_minded_ca(2, [{0}, {0, 1}])
    make_single_minded_ca(2, [{0}, {1}])
    assert calls == []


def run_gap_toy_3x3():
    instance = make_gap_toy(3, 3, 4)
    run(instance, profile_for(instance, [F(3), F(5, 2), F(7)]), seed=1)


def build_run_ca():
    make_single_minded_ca(4, [{0}, {1, 2}, {0, 3}, {2, 3}, {1}, {3}])


def no_money_lottery():
    instance = make_no_money(3, "lottery")
    run_without_money(instance, profile_for(instance, [F(1), F(2), F(3)]))


@pytest.mark.parametrize("build", [run_gap_toy_3x3, build_run_ca,
                                   no_money_lottery])
def test_other_polytopes_keep_phase_one(monkeypatch, build):
    """Three blocks, blocks that are not one row, and the no-money
    lottery still decompose by phase one."""
    calls = count_phase_one(monkeypatch)
    build()
    assert calls

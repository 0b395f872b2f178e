"""Acceptance suite: every shipped guarantee, checked exactly.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  All comparisons
are exact rational equalities or inequalities, tolerance zero.
"""

import random
import time
from fractions import Fraction as F
from itertools import product

from relaxround import (Allocation, adversarial_rounder, allocate,
                        brute_force_opt, build_relaxation,
                        check_approximation, check_median_no_improvement,
                        check_nonoblivious_condition, check_obliviousness,
                        check_truthfulness, check_without_money,
                        convex_decompose, enumerate_vertices,
                        expected_value_per_bidder, expected_welfare,
                        first_price_payments, indicator, make_case_b_family,
                        make_gap_toy, make_no_money, make_single_item,
                        make_single_minded_ca, payments, profile_for,
                        residual_objective, run, solve_relaxation,
                        write_report_files)
from relaxround.io import write_witness_file
from relaxround.relaxation import build_polytope

ZERO = F(0)
ONE = F(1)

GRID_7 = [F(v) for v in range(7)]
GRID_4 = [F(v) for v in range(4)]
GRID_3 = [F(v) for v in range(3)]


def desk_families():
    """Every shipped auction family at desk scale, with its sweep grid."""
    return [
        ("single-item n=2", make_single_item(2), GRID_4),
        ("single-item n=3", make_single_item(3), GRID_3),
        ("single-minded m=2 n=2", make_single_minded_ca(2, [{0}, {0, 1}]),
         GRID_4),
        ("single-minded m=3 n=3",
         make_single_minded_ca(3, [{0}, {1, 2}, {0, 2}]), GRID_3),
        ("gap-toy n=2", make_gap_toy(2, 1), GRID_4),
        ("gap-toy n=3", make_gap_toy(3, 2), GRID_3),
        ("case-b beta=1/2", make_case_b_family(2, F(1, 2)), GRID_4),
    ]


def verdict(number, name, passed):
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}"
    print(line)
    assert passed, line


def test_criterion_1_second_price_reduction():
    """Winner = argmax (lowest index), payment = second-highest bid, exact."""
    started = time.monotonic()
    checked = 0
    for n in (2, 3):
        instance = make_single_item(n)
        for bids in product(GRID_7, repeat=n):
            profile = profile_for(instance, list(bids))
            outcome = run(instance, profile, seed=checked)
            checked += 1
            top = max(bids)
            if top == 0:
                # Nobody bid: the pipeline allocates nothing and charges 0,
                # the welfare-equivalent of a zero-price win.
                assert outcome.realized == Allocation.empty(n)
                assert outcome.expected_payments == tuple([ZERO] * n)
                continue
            winner = min(i for i, b in enumerate(bids) if b == top)
            second = max(b for i, b in enumerate(bids) if i != winner)
            assert outcome.realized.winners() == (winner,)
            assert outcome.expected_payments[winner] == second
            assert all(p == 0 for i, p in enumerate(outcome.expected_payments)
                       if i != winner)
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"second-price sweep took {elapsed:.1f}s"
    verdict(1, f"second-price reduction, {checked} profiles "
               f"in {elapsed:.1f}s", True)


def test_criterion_2_truthfulness_with_negative_control():
    """Zero violations on every family; first price must violate."""
    started = time.monotonic()
    total = 0
    for name, instance, grid in desk_families():
        report = check_truthfulness(instance, grid, grid)
        assert report.passed, f"{name}: {report.checks[0].witnesses[:3]}"
        total += report.cases
    control = check_truthfulness(make_single_item(2), GRID_4, GRID_4,
                                 payment_rule=first_price_payments)
    assert not control.passed
    assert len(control.checks[0].witnesses) >= 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"truthfulness sweep took {elapsed:.1f}s"
    verdict(2, f"truthfulness, {total} exact comparisons, first-price "
               f"control violated {len(control.checks[0].witnesses)} times, "
               f"{elapsed:.1f}s", True)


def test_criterion_3_utility_identity():
    """E[u_k] equals calibration * (L(x*) - max L^{-k}), exactly."""
    checked = 0
    for name, instance, grid in desk_families():
        gamma = instance.spec.calibration
        for bids in product(grid, repeat=instance.n):
            profile = profile_for(instance, list(bids))
            objective, poly = build_relaxation(instance, profile)
            optimum, dist = allocate(instance, profile)
            pay = payments(instance, profile, dist)
            values = expected_value_per_bidder(dist, profile)
            top = objective.evaluate(optimum.coords)
            outcome = run(instance, profile, seed=0)
            assert outcome.expected_payments == pay, f"{name} bids={bids}"
            assert outcome.relaxed_value == top, f"{name} bids={bids}"
            for k in range(instance.n):
                residual = residual_objective(objective, k)
                ceiling = residual.evaluate(
                    solve_relaxation(residual, poly).coords)
                assert values[k] - pay[k] == gamma * (top - ceiling), \
                    f"{name} bids={bids} bidder={k}"
                checked += 1
    verdict(3, f"utility identity, {checked} exact equalities", True)


def test_criterion_4_approximation_ratio():
    """E[f(X')] >= alpha*beta*OPT everywhere; case b is exactly beta."""
    checked = 0
    for name, instance, grid in desk_families():
        floor = instance.spec.alpha * instance.spec.beta
        for bids in product(grid, repeat=instance.n):
            profile = profile_for(instance, list(bids))
            ratio, ok = check_approximation(instance, profile)
            assert ok, f"{name} bids={bids} ratio={ratio} < {floor}"
            checked += 1
            if instance.family == "case-b" and bids.count(max(bids)) == 1:
                _, dist = allocate(instance, profile)
                _, opt = brute_force_opt(instance, profile)
                assert expected_welfare(dist, profile) == \
                    instance.spec.beta * opt
    verdict(4, f"approximation ratio, {checked} grid profiles", True)


def test_criterion_5_decomposition_identities():
    """sum(w*chi) = scale*x, sum(w) = 1, support <= num_vars + 1 everywhere.

    Probes every polytope vertex (covering the whole polytope by convexity)
    plus every relaxation optimum met on the sweep grids.
    """
    probes = 0
    for name, instance, grid in desk_families():
        poly = build_polytope(instance)
        scale = instance.spec.decomposition_scale
        points = list(enumerate_vertices(poly))
        for bids in product(grid, repeat=instance.n):
            objective, _ = build_relaxation(instance,
                                            profile_for(instance, list(bids)))
            points.append(solve_relaxation(objective, poly))
        for point in points:
            decomposition = convex_decompose(point, scale, instance)
            total = [ZERO] * instance.num_vars
            for alloc, weight in decomposition.entries:
                chi = indicator(instance, alloc)
                for v in range(instance.num_vars):
                    total[v] += weight * chi[v]
            assert tuple(total) == tuple(scale * c for c in point.coords), name
            assert sum(w for _, w in decomposition.entries) == 1, name
            assert decomposition.support_size <= instance.num_vars + 1, name
            probes += 1
    verdict(5, f"decomposition identities, {probes} probe points, "
               "0 violations", True)


def test_criterion_6_obliviousness():
    """Fixed-x rounding is bit-identical across >= 10 random profile pairs;
    the valuation-reading rounder fails the same check."""
    pairs = 0
    for family_idx, (name, instance, grid) in enumerate(desk_families()):
        rng = random.Random(1000 + family_idx)
        for _ in range(10):
            profiles = [
                profile_for(instance, [F(rng.randint(0, 9))
                                       for _ in range(instance.n)])
                for _ in range(2)]
            report = check_obliviousness(instance, profiles)
            assert report.passed, name
            pairs += 1
        ascending = [F(i + 1) for i in range(instance.n)]
        control = check_obliviousness(
            instance, [profile_for(instance, ascending),
                       profile_for(instance, ascending[::-1])],
            rounder=adversarial_rounder(instance))
        assert not control.passed, name
        assert control.checks[0].witnesses, name
    verdict(6, f"obliviousness, {pairs} seeded profile pairs, "
               "negative-control rounder rejected", True)


def test_criterion_7_without_money_properties():
    """Lottery: feasible support and exact value identity; median: no
    misreported peak ever helps, over the full peak grid."""
    lottery_cases = 0
    for n in (2, 3, 4):
        instance = make_no_money(n, "lottery")
        rng = random.Random(n)
        profiles = [profile_for(instance, [F(v) for v in range(1, n + 1)]),
                    profile_for(instance, [F(rng.randint(0, 9))
                                           for _ in range(n)])]
        for profile in profiles:
            report = check_without_money(instance, profile, ONE)
            assert report.passed
            lottery_cases += report.cases
    median_instance = make_no_money(3, "single_peaked", positions=7)
    median = check_median_no_improvement(median_instance, GRID_7)
    assert median.passed
    sample_profile = profile_for(median_instance, [F(1), F(5), F(3)])
    assert check_without_money(median_instance, sample_profile, ONE).passed
    verdict(7, f"without-money properties, lottery {lottery_cases} cases, "
               f"median {median.cases} cases", True)


def test_criterion_8_valuation_reading_rounder_fails(tmp_path):
    """The negative-control rounder must fail, and the witness is written."""
    instance = make_single_item(2)
    report = check_nonoblivious_condition(adversarial_rounder(instance),
                                          instance, GRID_3)
    assert not report.passed
    assert report.checks[0].witnesses
    witness_path = write_witness_file(report, tmp_path)
    assert witness_path is not None and witness_path.exists()
    write_report_files(report, tmp_path, "both")
    assert (tmp_path / "report.csv").exists()
    verdict(8, "negative-control rounder rejected, witness at "
               f"{witness_path.name}", True)

"""The exact output checks, with negative controls that must fail."""

import dataclasses
from fractions import Fraction

import pytest

import relaxround as rr
from relaxround import io as rio

import ops
import workloads


@pytest.fixture(scope="module")
def instance():
    return rr.make_single_minded_ca(2, [{0}, {1}, {0, 1}])


@pytest.fixture(scope="module")
def runner(instance):
    return ops.RunOps(instance)


@pytest.fixture(scope="module")
def op(runner):
    prepared = runner.prepare({"bids": ["5/2", "3", "4/3"], "draw_seed": 9})
    return prepared, runner.execute(prepared)


def test_correct_run_passes(runner, op):
    prepared, result = op
    problems, bits = runner.check(prepared, result)
    assert problems == []
    assert bits > 0


def _corrupted(runner, op, **changes):
    prepared, (outcome, _) = op
    bad = dataclasses.replace(outcome, **changes)
    problems, _ = runner.check(prepared, (bad, rio.outcome_to_obj(bad)))
    return problems


def test_payment_above_expected_value_fails(runner, op):
    outcome = op[1][0]
    values = rr.expected_value_per_bidder(outcome.distribution, op[0][0])
    pay = (values[0] + Fraction(1, 7),) + outcome.expected_payments[1:]
    assert _corrupted(runner, op, expected_payments=pay)


def test_negative_payment_fails(runner, op):
    pay = (Fraction(-1, 3),) + op[1][0].expected_payments[1:]
    assert _corrupted(runner, op, expected_payments=pay)


def test_relaxed_value_off_calibration_fails(runner, op):
    outcome = op[1][0]
    assert _corrupted(runner, op,
                      relaxed_value=outcome.relaxed_value + Fraction(1, 5))


def test_realized_outside_support_fails(runner, op, instance):
    outcome = op[1][0]
    missing = [a for a in rr.enumerate_feasible(instance)
               if a not in outcome.distribution.support()]
    assert _corrupted(runner, op, realized=missing[0])


def test_infeasible_support_fails(runner, op, instance):
    clash = rr.Allocation((frozenset({0}), frozenset(), frozenset({0, 1})))
    dist = rr.AllocationDistribution.from_pairs([(clash, Fraction(1))])
    assert _corrupted(runner, op, distribution=dist, realized=clash)


def test_written_outcome_must_match(runner, op):
    prepared, (outcome, obj) = op
    written = dict(obj, relaxed_value="0/1")
    problems, _ = runner.check(prepared, (outcome, written))
    assert problems


@pytest.fixture(scope="module")
def sweep():
    runner = ops.SweepOps(workloads.SWEEP_GRID)
    document = workloads.first_inputs("verify-sweep", 1, 1)[0]["document"]
    return runner, document, runner.execute(document)


def test_correct_sweep_passes(sweep):
    runner, document, result = sweep
    problems, _ = runner.check(document, result)
    assert problems == []
    assert result[1].cases == 378


def test_first_price_payments_fail_the_sweep_check(sweep):
    runner, document, (instance, _, approximations) = sweep
    report = rr.check_truthfulness(instance, runner.grid, runner.grid,
                                   payment_rule=rr.first_price_payments)
    assert ops.check_sweep(instance, runner.grid, report, approximations)


def test_narrowed_domain_fails_the_sweep_check(sweep):
    runner, document, (instance, _, approximations) = sweep
    report = rr.check_truthfulness(instance, runner.grid, runner.grid,
                                   include_bundle_misreports=False)
    assert report.passed
    assert ops.check_sweep(instance, runner.grid, report, approximations)


def test_failed_ratio_fails_the_sweep_check(sweep):
    runner, document, (instance, report, approximations) = sweep
    broken = [(Fraction(1, 3), False)] + approximations[1:]
    assert ops.check_sweep(instance, runner.grid, report, broken)

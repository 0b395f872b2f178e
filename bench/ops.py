"""The workloads' ops, and the exact checks run on every op's output.

An op is the timed call into the program.  Its inputs are prepared before
the timer starts and its outputs are checked after it stops.  A check
returns the list of what it found wrong; an empty list is a pass.  None of
the checks depends on how the simplex breaks ties or on the seeded draw, so
a change to either still passes when the outputs stay correct.

This module imports relaxround at the top, so it must be imported after the
set-up runs, which re-imports the package.
"""

from __future__ import annotations

from fractions import Fraction

import relaxround as rr
from relaxround import io as rio
from relaxround import verify as rv

from tracer import denominator_bits


def check_run(instance, profile, outcome, obj: dict) -> list[str]:
    """One mechanism run: support, calibration, ratio floor, payments."""
    problems = []
    dist = outcome.distribution
    support = dist.support()
    if outcome.realized not in support:
        problems.append("realized allocation is not in the support")
    feasible = set(rr.enumerate_feasible(instance))
    if any(alloc not in feasible for alloc in support):
        problems.append("support holds an infeasible allocation")
    spec = instance.spec
    welfare = rr.expected_welfare(dist, profile)
    if welfare != spec.calibration * outcome.relaxed_value:
        problems.append(f"E[f(X')] = {welfare} is not calibration "
                        f"{spec.calibration} x relaxed value "
                        f"{outcome.relaxed_value}")
    _, opt = rr.brute_force_opt(instance, profile)
    if welfare < spec.alpha * spec.beta * opt:
        problems.append(f"E[f(X')] = {welfare} is below "
                        f"{spec.alpha * spec.beta} x OPT {opt}")
    values = rr.expected_value_per_bidder(dist, profile)
    if len(outcome.expected_payments) != instance.n:
        problems.append("one payment per bidder is required")
    for k, (pay, value) in enumerate(zip(outcome.expected_payments, values)):
        if not 0 <= pay <= value:
            problems.append(f"bidder {k}: payment {pay} is outside "
                            f"[0, E[v_k] = {value}]")
    written = ([Fraction(p) for p in obj["expected_payments"]],
               Fraction(obj["relaxed_value"]),
               [Fraction(row["probability"]) for row in obj["distribution"]],
               obj["realized"])
    if written != (list(outcome.expected_payments), outcome.relaxed_value,
                   [p for _, p in dist.entries],
                   list(outcome.realized.bitmasks())):
        problems.append("written outcome differs from the computed one")
    return problems


def expected_sweep_cases(instance, grid) -> int:
    """|grid|^n profiles x n bidders x |grid| values x nonempty bundles."""
    bundles = 2 ** instance.m - 1
    return len(grid) ** instance.n * instance.n * len(grid) * bundles


def check_sweep(instance, grid, report, approximations) -> list[str]:
    """Both verifier reports pass over the full, unnarrowed domain."""
    problems = []
    if not report.passed:
        problems.append("truthfulness report failed: "
                        f"{report.checks[0].witnesses[:1]}")
    want = expected_sweep_cases(instance, grid)
    if report.cases != want:
        problems.append(f"truthfulness checked {report.cases} cases, "
                        f"the domain has {want}")
    profiles = len(grid) ** instance.n
    if len(approximations) != profiles:
        problems.append(f"{len(approximations)} ratio checks for "
                        f"{profiles} grid profiles")
    for ratio, passed in approximations:
        if not passed:
            problems.append(f"approximation ratio {ratio} is below the floor")
    return problems


class RunOps:
    """run-ca and run-gap-toy: one mechanism run on fresh bids, written out."""

    def __init__(self, instance):
        self.instance = instance

    def prepare(self, inputs: dict):
        bids = [Fraction(b) for b in inputs["bids"]]
        return rr.profile_for(self.instance, bids), inputs["draw_seed"]

    def execute(self, prepared):
        profile, draw_seed = prepared
        outcome = rr.run(self.instance, profile, draw_seed)
        return outcome, rio.outcome_to_obj(outcome)

    def check(self, prepared, result) -> tuple[list[str], int]:
        outcome, obj = result
        exact = ([p for _, p in outcome.distribution.entries]
                 + list(outcome.expected_payments) + [outcome.relaxed_value])
        return (check_run(self.instance, prepared[0], outcome, obj),
                denominator_bits(exact))


class SweepOps:
    """verify-sweep: build an instance, then run both verifiers on it."""

    def __init__(self, grid):
        self.grid = [Fraction(g) for g in grid]

    def prepare(self, inputs: dict):
        return inputs["document"]

    def execute(self, document):
        instance, _, _ = rio.load_instance_document(document)
        report = rr.check_truthfulness(instance, self.grid, self.grid)
        approximations = [rr.check_approximation(instance, profile)
                          for profile in rv.grid_profiles(instance, self.grid)]
        return instance, report, approximations

    def check(self, document, result) -> tuple[list[str], int]:
        instance, report, approximations = result
        return (check_sweep(instance, self.grid, report, approximations),
                denominator_bits(ratio for ratio, _ in approximations))

"""SHA-256 digests of the pipeline's outputs on many seeded profiles.

The golden CLI fixtures pin one profile per family; these digests pin the
outputs of ``run``, both verifiers and the realized payment variant on a
few hundred profiles, so a refactor that claims bit-identical outputs is
checked on more than one input each:

- ``run-ca``: ``outcome_to_obj`` of ``run`` on the single-minded auction
  with 4 items and 6 bidders, 200 bid vectors;
- ``run-gap-toy``: the same on gap-toy with 3 bidders, 2 machines and 16
  segments, 60 bid vectors;
- ``sweep-truthfulness`` and ``sweep-ratios``: ``check_truthfulness``'s
  report and every grid profile's ``check_approximation`` ratio, for the 49
  ordered bundle pairs of 2 single-minded bidders over 3 items, on the
  value grid {0, 1, 2};
- ``gap-toy-realized-payments``: ``realized_payments`` and
  ``expected_realized_payments`` on 10 gap-toy bid vectors;
- ``one-and-two-block``: ``run``'s outcome and the ``decompose`` mode's
  lottery of x* on polytopes of one or two one-row blocks, 24 bid vectors
  each (half of them on a small grid, so zero bids and ties are common):
  single-item with 1-4 bidders, case-b with 2-4 at beta 1/2, gap-toy
  2x2x4, 4x1x4 and 4x2x2, and single-minded ``[{0},{0},{1}]`` and
  ``[{0},{1,2}]``;
- ``charge-shapes``: ``run``'s outcome and ``payments`` of its lottery on
  shapes the entries above miss, 24 bid vectors each (12 seeded, 12 on
  the small grid): gap-toy 3x3x4 and 4x3x2 (three blocks, so phase-one
  lotteries) and the odd cycle ``[{0,1},{1,2},{0,2}]`` (a fractional
  vertex); then gap-toy 3x2x16 on 12 small-grid and 12 margin-tie bid
  vectors, where the solve goes to the bounded-variable simplex and flips
  caps.

Inputs come from this file's own seeded generator.  After a change that is
meant to alter outputs, rewrite the file with
``PYTHONPATH=src python tests/test_output_digests.py`` and say why.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

from relaxround import (FractionalPoint, build_relaxation,
                        check_approximation, check_truthfulness,
                        convex_decompose, expected_realized_payments,
                        make_case_b_family, make_gap_toy, make_single_item,
                        make_single_minded_ca, payments, profile_for,
                        realized_payments, run, solve_relaxation)
from relaxround import lp
from relaxround.io import (distribution_rows, format_fraction, outcome_to_obj,
                           report_to_obj)
from relaxround.verify import grid_profiles

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

RUN_CA_DESIRES = ((0,), (1, 2), (0, 3), (2, 3), (1,), (3,))
SWEEP_BUNDLES = [tuple(j for j in range(3) if mask >> j & 1)
                 for mask in range(1, 8)]
SWEEP_GRID = (F(0), F(1), F(2))


def seeded_runs(rng, instance, count):
    """``count`` (profile, draw seed) pairs; bids p/q, p <= 20, q <= 6."""
    return [(profile_for(instance, [F(rng.randint(0, 20), rng.randint(1, 6))
                                    for _ in range(instance.n)]),
             rng.getrandbits(32)) for _ in range(count)]


def small_grid_runs(rng, instance, count):
    """``count`` (profile, draw seed) pairs; bids p/q, p <= 3, q <= 2."""
    return [(profile_for(instance, [F(rng.randint(0, 3), rng.randint(1, 2))
                                    for _ in range(instance.n)]),
             rng.getrandbits(32)) for _ in range(count)]


def margin_tie_runs(rng, instance, count):
    """``count`` (profile, draw seed) pairs on gap-toy with 3 bidders and 2
    machines whose machine-0 bids tie two LP columns at the fill's margin.

    Bidder 0's piece a costs bid_0 * slope_a and bidder 2's piece b costs
    bid_2 * slope_b; with a + b one less than the segment count the two
    pieces compete for the last unit of machine 0.  Bids slope_b * t and
    slope_a * t make those costs equal and positive, so no fill is the
    strict optimum and the simplex decides.
    """
    slopes = [slope for _, slope in instance.spec.curve.segments()]
    runs = []
    for _ in range(count):
        b = rng.randrange(len(slopes))
        a = len(slopes) - 1 - b
        t = F(rng.randint(1, 20), rng.randint(1, 6))
        bids = [slopes[b] * t, F(rng.randint(0, 3), rng.randint(1, 2)),
                slopes[a] * t]
        runs.append((profile_for(instance, bids), rng.getrandbits(32)))
    return runs


def charge_shape_runs():
    """(instance, runs) per ``charge-shapes`` shape, in a fixed order."""
    rng = random.Random(20261022)
    shapes = [(instance, seeded_runs(rng, instance, 12)
               + small_grid_runs(rng, instance, 12))
              for instance in (make_gap_toy(3, 3, 4), make_gap_toy(4, 3, 2),
                               make_single_minded_ca(
                                   3, [{0, 1}, {1, 2}, {0, 2}]))]
    ties = make_gap_toy(3, 2, 16)
    return shapes + [(ties, small_grid_runs(rng, ties, 12)
                      + margin_tie_runs(rng, ties, 12))]


def run_and_charge(instance, profile, seed):
    """``run``'s outcome, then ``payments`` of its lottery."""
    outcome = run(instance, profile, seed)
    return [outcome_to_obj(outcome),
            fractions(payments(instance, profile, outcome.distribution))]


def one_and_two_block_instances():
    """Instances whose polytope has one or two blocks, each one row."""
    return ([make_single_item(n) for n in range(1, 5)]
            + [make_case_b_family(n, F(1, 2)) for n in range(2, 5)]
            + [make_gap_toy(n, m, s) for n, m, s in
               ((2, 2, 4), (4, 1, 4), (4, 2, 2))]
            + [make_single_minded_ca(2, [{0}, {0}, {1}]),
               make_single_minded_ca(3, [{0}, {1, 2}])])


def run_and_decompose(instance, profile, seed):
    """``run``'s outcome, then x* and its lottery as ``decompose`` writes
    them."""
    optimum = FractionalPoint(solve_relaxation(
        *build_relaxation(instance, profile)).coords)
    lottery = convex_decompose(optimum, instance.spec.decomposition_scale,
                               instance)
    return [outcome_to_obj(run(instance, profile, seed)),
            fractions(optimum.coords), distribution_rows(lottery, "weight")]


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fractions(values):
    return [format_fraction(v) for v in values]


def outputs():
    """Every pinned output, by name."""
    rng = random.Random(20261018)
    run_ca = make_single_minded_ca(4, RUN_CA_DESIRES)
    gap_toy = make_gap_toy(3, 2, 16)
    sweep = [make_single_minded_ca(3, (a, b))
             for a in SWEEP_BUNDLES for b in SWEEP_BUNDLES]
    return {
        "run-ca": [outcome_to_obj(run(run_ca, profile, seed))
                   for profile, seed in seeded_runs(rng, run_ca, 200)],
        "run-gap-toy": [outcome_to_obj(run(gap_toy, profile, seed))
                        for profile, seed in seeded_runs(rng, gap_toy, 60)],
        "sweep-truthfulness": [report_to_obj(check_truthfulness(
            instance, SWEEP_GRID, SWEEP_GRID)) for instance in sweep],
        "sweep-ratios": [[[format_fraction(ratio), passed]
                          for ratio, passed in (
                              check_approximation(instance, profile)
                              for profile in grid_profiles(instance,
                                                           SWEEP_GRID))]
                         for instance in sweep],
        "gap-toy-realized-payments": [
            [fractions(realized_payments(gap_toy, profile, seed)),
             fractions(expected_realized_payments(gap_toy, profile))]
            for profile, seed in seeded_runs(rng, gap_toy, 10)],
        "one-and-two-block": one_and_two_block(),
        "charge-shapes": [[run_and_charge(instance, profile, seed)
                           for profile, seed in runs]
                          for instance, runs in charge_shape_runs()],
    }


def one_and_two_block():
    rng = random.Random(20261021)
    return [[run_and_decompose(instance, profile, seed)
             for profile, seed in (seeded_runs(rng, instance, 12)
                                   + small_grid_runs(rng, instance, 12))]
            for instance in one_and_two_block_instances()]


def test_margin_ties_reach_the_cap_flips(monkeypatch):
    """The gap-toy 3x2x16 shape of ``charge-shapes`` reaches ``lp._flip``,
    so the digest pins the bounded-variable simplex's outputs."""
    flips = []
    flip = lp._flip
    monkeypatch.setattr(lp, "_flip", lambda *a: flips.append(a) or flip(*a))
    instance, runs = charge_shape_runs()[-1]
    for profile, seed in runs:
        run(instance, profile, seed)
    assert flips


def test_outputs_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = {name: digest(obj) for name, obj in outputs().items()}
    assert got == want


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: digest(obj) for name, obj in outputs().items()},
        indent=2, sort_keys=True) + "\n")

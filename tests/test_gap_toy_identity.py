"""Gap-toy's lotteries and payments on 880 seeded profiles, pinned by one
SHA-256 digest.

``mechanism._pipeline_lotteries`` cold-solves L and every L^{-k}, L with
bidder k's bids set to 0, and rounds each optimum.  A change to how L or
L^{-k} is held that moves a Bland path, and so a lottery or a payment,
changes the digest.  It covers more gap-toy shapes than
``tests/test_output_digests.py``: 176 profiles on each of 3x2, 2x1, 4x2,
3x1 and 4x3 (bidders x machines) at 16, 16, 8, 4 and 16 curve segments,
with about a quarter of the bids 0.  Per profile it pins the main and
every k-excluded lottery, one seeded ``realized_payments`` draw, and
``outcome_to_obj`` of ``run`` with the same seed.

After a change that is meant to alter outputs, print the new digest with
``PYTHONPATH=src python tests/test_gap_toy_identity.py`` and say why.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from unittest import mock

from relaxround import make_gap_toy, mechanism, profile_for, run
from relaxround.io import distribution_rows, format_fraction, outcome_to_obj

SHAPES = ((3, 2, 16), (2, 1, 16), (4, 2, 8), (3, 1, 4), (4, 3, 16))
PROFILES_PER_SHAPE = 176
DIGEST = "42ec6a450df77ae45e90796e99953e4aee0957daf8eb57f7df4b9b23ce0eb5cf"


def seeded_bids(rng, n):
    """Bids p/q with p <= 20, q <= 6; each one is 0 with probability 1/4."""
    return [F(0) if rng.random() < 0.25
            else F(rng.randint(1, 20), rng.randint(1, 6)) for _ in range(n)]


def outputs():
    rng = random.Random(20261019)
    rows = []
    # realized_payments draws from _pipeline_lotteries; recording its
    # lotteries there pins them without solving every pipeline twice.
    pipeline = mechanism._pipeline_lotteries
    seen = []

    def recorded(instance, profile):
        seen.append(pipeline(instance, profile))
        return seen[-1]

    with mock.patch.object(mechanism, "_pipeline_lotteries", recorded):
        for shape in SHAPES:
            instance = make_gap_toy(*shape)
            for _ in range(PROFILES_PER_SHAPE):
                profile = profile_for(instance, seeded_bids(rng, instance.n))
                seed = rng.getrandbits(32)
                paid = mechanism.realized_payments(instance, profile, seed)
                rows.append([
                    [distribution_rows(dist, "probability")
                     for dist in seen.pop()],
                    [format_fraction(p) for p in paid],
                    outcome_to_obj(run(instance, profile, seed))])
    return rows


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_lotteries_and_payments_match_the_recorded_digest():
    assert digest(outputs()) == DIGEST


if __name__ == "__main__":
    print(digest(outputs()))

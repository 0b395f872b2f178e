"""Seeded input generators for the three benchmark workloads.

Everything here is plain data: instance documents in the JSON schema that
``relaxround.io.load_instance_document`` reads, and bid vectors written as
"p/q" strings.  Nothing imports the program, so the inputs for a seed are
fixed before the program sees them, and one seed always yields the same
bytes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from typing import Iterator

WORKLOADS = ("run-ca", "run-gap-toy", "verify-sweep")

#: Bids are p/q with p in 0..20 and q in 1..6, so denominators grow.
BID_NUMERATORS = (0, 20)
BID_DENOMINATORS = (1, 6)

#: run-ca: single-minded auction, 4 items, 6 bidders, 19 feasible allocations.
CA_ITEMS = 4
CA_DESIRES = ((0,), (1, 2), (0, 3), (2, 3), (1,), (3,))

#: run-gap-toy: 3 bidders on 2 machines, 16 curve segments.
GAP_BIDDERS = 3
GAP_MACHINES = 2
GAP_SEGMENTS = 16

#: verify-sweep: 2 single-minded bidders over 3 items, value grid {0, 1, 2}.
SWEEP_ITEMS = 3
SWEEP_GRID = ("0", "1", "2")
#: Set-up builds one instance with these fixed bundles, so set-up work does
#: not depend on the seed.
SWEEP_SETUP_DESIRES = ((0, 1), (1, 2))


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # String seeds hash with SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"relaxround-bench/{workload}/{seed}/{stream}")


def _bid(rng: random.Random) -> str:
    return _fraction(rng.randint(*BID_NUMERATORS), rng)


def _fraction(numerator: int, rng: random.Random) -> str:
    value = Fraction(numerator, rng.randint(*BID_DENOMINATORS))
    return f"{value.numerator}/{value.denominator}"


def _bid_vectors(rng: random.Random, bidders: int) -> Iterator[list[str]]:
    """Endless bid vectors; numerators are stratified per bidder.

    Each block of 21 vectors gives every bidder each numerator 0..20 once,
    in seeded order, so every run holds the same share of zero bids (a
    zero bid skips much of the LP work).  Each bid on its own is still
    uniform over the numerators.
    """
    low, high = BID_NUMERATORS
    while True:
        columns = []
        for _ in range(bidders):
            numerators = list(range(low, high + 1))
            rng.shuffle(numerators)
            columns.append(numerators)
        for row in zip(*columns):
            yield [_fraction(numerator, rng) for numerator in row]


def _single_minded_doc(m: int, desires, values) -> dict:
    return {"family": "single-minded-ca", "n": len(desires), "m": m,
            "alpha": "1/2",
            "valuations": [{"kind": "single-minded", "bundle": list(bundle),
                            "value": value}
                           for bundle, value in zip(desires, values)]}


def _gap_toy_doc(bids) -> dict:
    return {"family": "gap-toy", "n": GAP_BIDDERS, "m": GAP_MACHINES,
            "segments": GAP_SEGMENTS,
            "valuations": [{"kind": "additive",
                            "values": [bid if j == i % GAP_MACHINES else "0/1"
                                       for j in range(GAP_MACHINES)]}
                           for i, bid in enumerate(bids)]}


def setup_document(workload: str, seed: int) -> dict:
    """The document whose load is timed as the workload's set-up."""
    rng = _rng(workload, seed, "setup")
    if workload == "run-ca":
        return _single_minded_doc(CA_ITEMS, CA_DESIRES,
                                  [_bid(rng) for _ in CA_DESIRES])
    if workload == "run-gap-toy":
        return _gap_toy_doc([_bid(rng) for _ in range(GAP_BIDDERS)])
    if workload == "verify-sweep":
        return _single_minded_doc(SWEEP_ITEMS, SWEEP_SETUP_DESIRES,
                                  [_bid(rng) for _ in SWEEP_SETUP_DESIRES])
    raise ValueError(f"unknown workload {workload!r}")


def _ca_ops(rng: random.Random) -> Iterator[dict]:
    for bids in _bid_vectors(rng, len(CA_DESIRES)):
        yield {"bids": bids, "draw_seed": rng.getrandbits(32)}


def _gap_toy_ops(rng: random.Random) -> Iterator[dict]:
    # Bidders 0 and 2 share machine 0, and whether bid 0 or bid 2 is larger
    # moves the op time by about 1.4x (another pivot path).  Each profile is
    # followed by its copy with those two bids swapped, so every run holds
    # both orders in equal numbers and its percentiles move less with the
    # seed.  Each op's bids are still uniformly distributed.
    for bids in _bid_vectors(rng, GAP_BIDDERS):
        swapped = [bids[2], bids[1], bids[0]]
        for pair in (bids, swapped):
            yield {"bids": pair, "draw_seed": rng.getrandbits(32)}


def _bundles(m: int) -> list[tuple[int, ...]]:
    return [tuple(j for j in range(m) if mask >> j & 1)
            for mask in range(1, 2 ** m)]


def _sweep_ops(rng: random.Random) -> Iterator[dict]:
    # The sweep's work depends on the bundles alone (the grid fixes the
    # values it checks), so ops come in blocks that hold each of the 49
    # ordered bundle pairs once, in seeded order.
    bundles = _bundles(SWEEP_ITEMS)
    pairs = [(a, b) for a in bundles for b in bundles]
    while True:
        block = list(pairs)
        rng.shuffle(block)
        for desires in block:
            yield {"document": _single_minded_doc(
                SWEEP_ITEMS, desires, [_bid(rng) for _ in desires])}


def op_inputs(workload: str, seed: int) -> Iterator[dict]:
    """Endless, seeded sequence of op inputs for one workload."""
    rng = _rng(workload, seed, "ops")
    if workload == "run-ca":
        return _ca_ops(rng)
    if workload == "run-gap-toy":
        return _gap_toy_ops(rng)
    if workload == "verify-sweep":
        return _sweep_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def first_inputs(workload: str, seed: int, k: int) -> list[dict]:
    """The first k op inputs; used to compare seeds byte for byte."""
    return list(islice(op_inputs(workload, seed), k))


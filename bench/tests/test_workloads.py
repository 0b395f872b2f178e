"""The generators: one seed gives byte-identical inputs."""

import json
from fractions import Fraction

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    def dump(seed):
        return json.dumps([workloads.setup_document(workload, seed),
                           workloads.first_inputs(workload, seed, 120)],
                          sort_keys=True).encode()
    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("workload", ["run-ca", "run-gap-toy"])
def test_bids_stay_in_range(workload):
    for op in workloads.first_inputs(workload, 3, 200):
        for bid in op["bids"]:
            value = Fraction(bid)
            assert 0 <= value <= 20 and value.denominator <= 6


def test_gap_toy_ops_come_in_swapped_pairs():
    ops = workloads.first_inputs("run-gap-toy", 5, 40)
    for first, second in zip(ops[::2], ops[1::2]):
        assert second["bids"] == first["bids"][::-1]


def test_sweep_blocks_hold_every_bundle_pair_once():
    ops = workloads.first_inputs("verify-sweep", 2, 98)
    for block in (ops[:49], ops[49:]):
        pairs = {tuple(tuple(valuation["bundle"])
                       for valuation in op["document"]["valuations"])
                 for op in block}
        assert len(pairs) == 49

"""Span wrappers: every binding, exact self-time accounting, counters."""

import sys

import pytest

import relaxround as rr

import ops
import workloads
from tracer import PACKAGE, TRACED, Tracer


def _modules():
    return [m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _originals():
    return {id(getattr(sys.modules[f"{PACKAGE}.{module}"], func))
            for module, func, _, _ in TRACED}


def test_every_binding_is_wrapped_inside_an_op_and_restored_after():
    originals = _originals()
    tracer = Tracer()
    # relaxation.py, mechanism.py, families.py and verify.py import
    # build_relaxation directly; each of those bindings needs a wrapper.
    holders = {module.__name__ for module, attr, _, _ in tracer._bindings
               if attr == "build_relaxation"}
    assert {"relaxround", "relaxround.relaxation", "relaxround.mechanism",
            "relaxround.families", "relaxround.verify"} <= holders
    with tracer.op(0):
        leftover = [(module.__name__, attr)
                    for module in _modules()
                    for attr, value in vars(module).items()
                    if id(value) in originals]
    assert leftover == []
    assert _originals() == originals


def test_self_times_add_up_and_counters_are_read():
    instance = rr.make_single_minded_ca(2, [{0}, {1}, {0, 1}])
    runner = ops.RunOps(instance)
    tracer = Tracer()
    for index, bids in enumerate((["1", "2", "5/2"], ["3/4", "0", "7"])):
        prepared = runner.prepare({"bids": bids, "draw_seed": index})
        with tracer.op(index):
            runner.execute(prepared)
    stats = tracer.layer_stats([0, 1])
    self_total = sum(stats[f"{name}.self_ms"]
                     for name in dict.fromkeys(n for _, _, n, _ in TRACED))
    assert self_total + stats["op.unwrapped_ms"] == pytest.approx(
        stats["op.traced_ms"], abs=1e-9)
    assert stats["mechanism.run.calls"] == 1
    assert stats["relaxation.build_relaxation.calls"] == 3
    assert stats["mechanism.payments.calls"] == 1
    assert stats["lp.maximize_linear.calls"] == 1 + instance.n
    assert stats["model.feasible_set_size"] == len(
        rr.enumerate_feasible(instance))
    rows = instance.n + instance.m
    assert stats["lp.maximize_linear.tableau_cells"] == (
        (1 + instance.n) * rows * (instance.num_vars + rows + 1))


def test_self_time_mismatch_is_reported():
    tracer = Tracer()
    with tracer.op(0):
        rr.enumerate_feasible(rr.make_single_item(2))
    tracer.spans[-1][5] += 10 ** 9  # the child now outlasts the op
    with pytest.raises(RuntimeError):
        tracer.layer_stats([0])


def test_pipeline_cache_hit_ratio_counts_verifier_allocations():
    runner = ops.SweepOps(workloads.SWEEP_GRID)
    document = workloads.first_inputs("verify-sweep", 4, 1)[0]["document"]
    tracer = Tracer()
    with tracer.op(0):
        runner.execute(document)
    stats = tracer.layer_stats([0])
    lookups = 9 + stats["verify.cases"]
    truthfulness_allocates = stats["mechanism.allocate.calls"] - 9
    assert stats["verify.cases"] == 378
    assert stats["verify.pipeline_cache.hit_ratio"] == pytest.approx(
        1 - truthfulness_allocates / lookups)
    assert 0 < stats["verify.pipeline_cache.hit_ratio"] < 1

"""The benchmark's tracer and ops still fit the program.

``bench/tracer.py`` wraps each function its ``TRACED`` table names, and its
probes read arguments and results by name: ``maximize_linear``'s ``poly``,
``solve_relaxation``'s ``objective`` and the ``coords`` of its result,
``check_truthfulness``'s ``instance`` and ``value_grid``.  A rename breaks
the benchmark only when it runs, so these tests run one traced op of each
workload here.  The bench modules are imported as they stand.
"""

import importlib
import sys
from pathlib import Path

import pytest

from relaxround import io as rio

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, TRACED, Tracer  # noqa: E402

SEED = 1


@pytest.mark.parametrize("module, function",
                         [(module, function)
                          for module, function, _, _ in TRACED])
def test_every_traced_function_resolves(module, function):
    found = getattr(importlib.import_module(f"{PACKAGE}.{module}"), function,
                    None)
    assert callable(found)


def _runner(workload):
    if workload == "verify-sweep":
        return ops.SweepOps(workloads.SWEEP_GRID)
    document = workloads.setup_document(workload, SEED)
    return ops.RunOps(rio.load_instance_document(document)[0])


#: Exact counters the tracer's probes read on the program as it stands:
#: run-ca's 6 single-minded variables, and gap-toy 3x2's 3 variables times
#: the 16 segments of its unit curve.  A change to how the relaxed
#: objective is held that breaks the ``_relaxation`` probe fails here.
#: gap-toy's polytope is one row per block, so its solves are water-filled
#: and reach ``maximize_linear`` only on a tie; run-ca's market is not, so
#: its row keeps the ``_tableau`` probe running.
@pytest.mark.parametrize("workload, spans, counters, pinned", [
    ("run-ca", ("mechanism.run", "lp.maximize_linear",
                "relaxation.solve_relaxation"),
     ("lp.maximize_linear.tableau_cells", "relaxation.expanded_cols"),
     {"relaxation.expanded_cols": 6}),
    ("run-gap-toy", ("mechanism.run", "relaxation.solve_relaxation"),
     ("relaxation.expanded_cols",), {"relaxation.expanded_cols": 48}),
    ("verify-sweep", ("verify.check_truthfulness",
                      "verify.check_approximation", "mechanism.allocate"),
     ("verify.cases",), {}),
])
def test_one_traced_op_gives_layer_stats(workload, spans, counters, pinned):
    runner = _runner(workload)
    prepared = runner.prepare(next(workloads.op_inputs(workload, SEED)))
    tracer = Tracer()
    with tracer.op(0):
        result = runner.execute(prepared)
    stats = tracer.layer_stats([0])
    problems, _ = runner.check(prepared, result)
    assert problems == []
    assert all(stats[f"{span}.calls"] >= 1 for span in spans)
    assert all(stats[counter] > 0 for counter in counters)
    assert {name: stats[name] for name in pinned} == pinned

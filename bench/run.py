"""relaxround benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload run-ca --seed 1 --seconds 30 --trace 0

One client sends the next op only after the previous one returned.  The
program is imported from the checkout's ``src`` directory.  Every op's
output is checked exactly, outside the op's timed region.  With
``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it runs every op twice, once plain and
once with layer wrappers installed, and reports the per-layer metrics, the
tracing overhead among them.  The end-to-end times are scaled to the
reference speed of ``speed.py``, which is read while each call runs; the
raw wall-clock figures are printed above the result, and the traced run
reports them as per-layer metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-up is repeated and its median reported: at least this many times,
#: and more while the repeats together stay under the time budget.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 2.0

#: A run goes on past --seconds until it has this many ops, so that at
#: least 10 latencies lie above the 90th percentile.
MIN_OPS = 100

#: Layer metrics also reported for the traced set-up, with a setup. prefix.
SETUP_LAYER_METRICS = (
    "families.construct.calls", "families.construct.self_ms",
    "lp.enumerate_vertices.calls", "lp.enumerate_vertices.self_ms",
    "rounding.convex_decompose.calls", "rounding.convex_decompose.self_ms",
    "lp.phase_one.self_ms", "relaxation.audit_alpha.self_ms",
    "relaxation.build_relaxation.self_ms", "op.traced_ms", "op.unwrapped_ms")


@dataclass
class Window:
    """Ops run back to back, with their latencies and check results."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    denominator_bits: int = 0


def _purge_package() -> None:
    for name in [n for n in sys.modules
                 if n == "relaxround" or n.startswith("relaxround.")]:
        del sys.modules[name]


def measure_setup(document: dict):
    """Import the package and load the workload's document, repeatedly.

    Returns the raw and the scaled set-up times, and the instance from the
    last repeat, whose modules stay imported for the rest of the run.
    """
    def set_up():
        package = importlib.import_module("relaxround")
        return package.io.load_instance_document(document)[0]

    times: list[float] = []
    scaled: list[float] = []
    while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        _purge_package()
        raw, at_reference, instance = speed.measure(set_up)
        times.append(raw)
        scaled.append(at_reference)
    return times, scaled, instance


def _timed_op(runner, prepared, window: Window, context,
              sampled: bool) -> None:
    window.attempted += 1
    start = perf_counter()
    try:
        with context:
            elapsed, scaled, result = speed.measure(
                partial(runner.execute, prepared), sampled)
    except Exception:
        window.busy_s += perf_counter() - start
        window.failed += 1
        traceback.print_exc()
        return
    window.busy_s += elapsed
    window.latencies.append(elapsed)
    if sampled:
        window.scaled.append(scaled)
    problems, bits = runner.check(prepared, result)
    window.denominator_bits = max(window.denominator_bits, bits)
    if problems:
        window.failed += 1
        print(f"op failed its check: {problems}", file=sys.stderr)


def run_window(runner, inputs, seconds: float,
               tracer: Tracer | None = None) -> tuple[Window, Window]:
    """Run ops back to back until their latencies add up to ``seconds``
    and at least ``MIN_OPS`` ops ran.

    With a tracer, every input runs twice, once plain and once recorded as
    a span tree whose op id is the input's index, in alternating order, so
    the two windows hold the same work and slow spells of the machine hit
    both alike.  The second window is empty without a tracer.  Only an
    untraced run reads the machine's speed during its ops, so that the
    readings do not show up in the spans.
    """
    plain, traced = Window(), Window()
    for index, op_input in enumerate(inputs):
        if (plain.busy_s + traced.busy_s >= seconds
                and plain.attempted + traced.attempted >= MIN_OPS):
            break
        prepared = runner.prepare(op_input)
        runs = [(plain, nullcontext())]
        if tracer is not None:
            runs.append((traced, tracer.op(index)))
            if index % 2:
                runs.reverse()
        for window, context in runs:
            _timed_op(runner, prepared, window, context, tracer is None)
    return plain, traced


def end_to_end(window: Window, setup_scaled: list[float]) -> dict:
    """The listed end-to-end metrics, from times at the reference speed."""
    ms = sorted(1000 * t for t in window.scaled)
    p90 = statistics.quantiles(ms, n=10)[-1]
    return {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": len(window.scaled) / sum(window.scaled),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "error_rate": window.failed / window.attempted,
        "ops": window.attempted,
        "samples_above_p90": sum(1 for t in ms if t > p90),
        "setup_reps": len(setup_scaled),
    }


def raw_figures(window: Window, setup_times: list[float]) -> dict:
    """Wall-clock figures, not scaled to the reference speed."""
    ms = [1000 * t for t in window.latencies]
    return {"raw.setup_s": statistics.median(setup_times),
            "raw.ops_per_s": len(ms) / window.busy_s,
            "raw.op_ms_p50": statistics.median(ms)}


def layer_metrics(tracer: Tracer, plain: Window, traced: Window,
                  document: dict) -> dict:
    """Per-layer metrics from the traced ops, plus one traced set-up."""
    with tracer.op("setup"):
        importlib.import_module("relaxround").io.load_instance_document(
            document)
    stats = tracer.layer_stats(range(traced.attempted))
    setup = tracer.layer_stats(["setup"])
    for key in SETUP_LAYER_METRICS:
        stats[f"setup.{key}"] = setup[key]
    stats["numeric.max_denominator_bits"] = max(
        stats["numeric.max_denominator_bits"], plain.denominator_bits,
        traced.denominator_bits)
    untraced_rate = plain.attempted / plain.busy_s
    traced_rate = traced.attempted / traced.busy_s
    stats["trace.untraced_ops_per_s"] = untraced_rate
    stats["trace.traced_ops_per_s"] = traced_rate
    stats["trace.ops_per_s_ratio"] = traced_rate / untraced_rate
    return stats


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "relaxround" / "__init__.py").is_file():
        print(f"relaxround sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    document = workloads.setup_document(args.workload, args.seed)
    setup_times, setup_scaled, instance = measure_setup(document)
    ops = importlib.import_module("ops")
    if args.workload == "verify-sweep":
        runner = ops.SweepOps(workloads.SWEEP_GRID)
    else:
        runner = ops.RunOps(instance)
    inputs = workloads.op_inputs(args.workload, args.seed)

    if args.trace:
        tracer = Tracer()
        plain, traced = run_window(runner, inputs, args.seconds, tracer)
        values = layer_metrics(tracer, plain, traced, document)
        values.update(raw_figures(plain, setup_times))
        tracer.dump(BENCH_DIR / "out" / f"trace-{args.workload}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "ops": traced.attempted})
        listed = spec["per_layer"]
    else:
        plain, traced = run_window(runner, inputs, args.seconds)
        values = end_to_end(plain, setup_scaled)
        listed = spec["end_to_end"]
        print(f"{args.workload} seed {args.seed}: {values['ops']} ops, "
              f"{plain.failed} failed (error_rate {values['error_rate']}), "
              f"{values['samples_above_p90']} samples above p90, "
              f"set-up median of {values['setup_reps']}")
        raw = raw_figures(plain, setup_times)
        raw["raw_over_scaled"] = sum(plain.latencies) / sum(plain.scaled)
        for key, value in raw.items():
            print(f"{key:45s} {value:14.6g}")

    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
        print(f"{entry['name']:45s} {values[entry['name']]:14.6g} "
              f"{entry['unit']}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans for relaxround, recorded from outside the program.

Each traced function is replaced by a wrapper that records a span: name,
start, end, the span that called it and the op it belongs to.  Modules
import names directly (``from .lp import maximize_linear`` in
relaxation.py, ``from .relaxation import build_relaxation`` in mechanism.py,
families.py and verify.py), so a wrapper is installed on every module
attribute that binds the function, not only in the module that defines it.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct child
spans; one thread runs everything, so children never overlap.  Per op, the
self times of all spans add up to the op's duration exactly, and the op's
own self time is the part no wrapper covered.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

PACKAGE = "relaxround"
OP = "op"

# A probe reads a call's bound arguments and result and returns counters,
# keyed by metric name.  Probes are cheap reads of sizes.
Probe = Callable[[dict, Any], dict]


def denominator_bits(values) -> int:
    """Bit length of the largest denominator among exact rationals."""
    return max((v.denominator.bit_length() for v in values), default=0)


def _tableau(args: dict, result) -> dict:
    poly = args["poly"]
    rows = len(poly.constraints)
    # Constraint rows x (variables + slacks + right-hand side).
    return {"lp.maximize_linear.tableau_cells":
            rows * (poly.num_vars + rows + 1)}


def _relaxation(args: dict, result) -> dict:
    objective = args["objective"]
    cols = (objective.num_vars if objective.is_linear
            else sum(len(c.segments()) for c in objective.curves))
    return {"relaxation.expanded_cols": cols,
            "numeric.max_denominator_bits": denominator_bits(result.coords)}


def _truthfulness(args: dict, result) -> dict:
    profiles = len(args["value_grid"]) ** args["instance"].n
    # The verifier looks up one outcome per truthful profile and one per
    # (profile, bidder, misreport) case.
    return {"verify.cases": result.cases,
            "verify.pipeline_cache.lookups": profiles + result.cases}


#: (module, function, span name, probe).  All make_* constructors share the
#: span name families.construct.
TRACED: tuple[tuple[str, str, str, Probe | None], ...] = (
    ("model", "enumerate_feasible", "model.enumerate_feasible",
     lambda args, result: {"model.feasible_set_size": len(result)}),
    ("lp", "maximize_linear", "lp.maximize_linear", _tableau),
    ("lp", "phase_one", "lp.phase_one", None),
    ("lp", "contains", "lp.contains", None),
    ("lp", "enumerate_vertices", "lp.enumerate_vertices", None),
    ("relaxation", "build_relaxation", "relaxation.build_relaxation", None),
    ("relaxation", "solve_relaxation", "relaxation.solve_relaxation",
     _relaxation),
    ("relaxation", "audit_alpha", "relaxation.audit_alpha", None),
    ("rounding", "convex_decompose", "rounding.convex_decompose",
     lambda args, result: {"rounding.support_size": result.support_size}),
    ("rounding", "adjust", "rounding.adjust", None),
    ("rounding", "sample", "rounding.sample", None),
    ("rounding", "expected_value_per_bidder",
     "rounding.expected_value_per_bidder", None),
    ("rounding", "expected_welfare", "rounding.expected_welfare", None),
    ("mechanism", "allocate", "mechanism.allocate", None),
    ("mechanism", "payments", "mechanism.payments", None),
    ("mechanism", "run", "mechanism.run", None),
    ("families", "make_single_item", "families.construct", None),
    ("families", "make_single_minded_ca", "families.construct", None),
    ("families", "make_gap_toy", "families.construct", None),
    ("families", "make_case_b_family", "families.construct", None),
    ("families", "make_no_money", "families.construct", None),
    ("families", "with_desires", "families.with_desires", None),
    ("verify", "check_truthfulness", "verify.check_truthfulness",
     _truthfulness),
    ("verify", "check_approximation", "verify.check_approximation", None),
    ("verify", "brute_force_opt", "verify.brute_force_opt", None),
    ("io", "load_instance_document", "io.load_instance_document", None),
    ("io", "outcome_to_obj", "io.outcome_to_obj", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))

#: How each counter is summarised over the traced ops: summed per op,
#: averaged per call of its span, or the maximum.
COUNTERS = {
    "lp.maximize_linear.tableau_cells": "per_op",
    "model.feasible_set_size": "per_call",
    "relaxation.expanded_cols": "per_call",
    "rounding.support_size": "per_call",
    "verify.cases": "per_op",
    "verify.pipeline_cache.lookups": "per_op",
    "numeric.max_denominator_bits": "max",
}


def _covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class Tracer:
    """Span wrappers for the imported relaxround modules.

    Create it after the package is imported.  Wrappers are installed only
    while an op runs, so code outside ``op`` calls the program unwrapped.
    """

    def __init__(self):
        # Each span is [id, parent id, op id, name, start ns, end ns,
        # counters or None].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id: Any = None
        self._bindings: list[tuple[Any, str, Any, Callable]] = []
        modules = [module for name, module in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, func_name, span, probe in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"],
                               func_name)
            wrapper = self._wrap(original, span, probe)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original,
                                               wrapper))

    def _wrap(self, fn: Callable, name: str, probe: Probe | None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1], self._op_id, name, 0,
                    0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                self._stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = probe(bound.arguments, result)
            return result
        return wrapper

    @contextmanager
    def op(self, op_id) -> Iterator[None]:
        """Record everything called inside as one op's span tree."""
        span = [len(self.spans), None, op_id, OP, 0, 0, None]
        self.spans.append(span)
        self._stack = [span[0]]
        self._op_id = op_id
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        span[4] = perf_counter_ns()
        try:
            yield
        finally:
            span[5] = perf_counter_ns()
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._stack = []

    def layer_stats(self, op_ids) -> dict[str, float]:
        """Per-op means of calls, self time and counters over the given ops.

        Raises RuntimeError if the self times of an op's spans do not add
        up to the op's duration, which happens when a span is not nested
        inside its parent or overlaps a sibling.
        """
        wanted = set(op_ids)
        spans = [s for s in self.spans if s[2] in wanted]
        duration = {s[0]: s[5] - s[4] for s in spans}
        children: dict[int, list[tuple[int, int]]] = {}
        for s in spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append((s[4], s[5]))
        self_ns = {s[0]: duration[s[0]] - _covered(s[4], s[5],
                                                   children.get(s[0], []))
                   for s in spans}
        parent = {s[0]: s[1] for s in spans}
        name_of = {s[0]: s[3] for s in spans}
        roots = [s for s in spans if s[3] == OP]
        per_op_total: dict[Any, int] = {}
        for s in spans:
            per_op_total[s[2]] = per_op_total.get(s[2], 0) + self_ns[s[0]]
        for root in roots:
            if per_op_total[root[2]] != duration[root[0]]:
                raise RuntimeError(f"self times of op {root[2]} add up to "
                                   f"{per_op_total[root[2]]} ns, the op took "
                                   f"{duration[root[0]]} ns")
        nops = len(roots)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_total = dict.fromkeys(SPAN_NAMES, 0)
        counter_sum = dict.fromkeys(COUNTERS, 0)
        counter_calls = dict.fromkeys(COUNTERS, 0)
        counter_max = dict.fromkeys(COUNTERS, 0)
        cached_allocates = 0
        for s in spans:
            if s[3] == OP:
                continue
            calls[s[3]] += 1
            self_total[s[3]] += self_ns[s[0]]
            for key, value in (s[6] or {}).items():
                counter_sum[key] += value
                counter_calls[key] += 1
                counter_max[key] = max(counter_max[key], value)
            if s[3] == "mechanism.allocate":
                ancestor = parent[s[0]]
                while ancestor is not None:
                    if name_of[ancestor] == "verify.check_truthfulness":
                        cached_allocates += 1
                        break
                    ancestor = parent[ancestor]
        stats: dict[str, float] = {}
        for name in SPAN_NAMES:
            stats[f"{name}.calls"] = calls[name] / nops
            stats[f"{name}.self_ms"] = self_total[name] / nops / 1e6
        for key, how in COUNTERS.items():
            if how == "per_op":
                stats[key] = counter_sum[key] / nops
            elif how == "per_call":
                stats[key] = (counter_sum[key] / counter_calls[key]
                              if counter_calls[key] else 0)
            else:
                stats[key] = counter_max[key]
        lookups = counter_sum["verify.pipeline_cache.lookups"]
        stats["verify.pipeline_cache.hit_ratio"] = (
            1 - cached_allocates / lookups if lookups else 0)
        stats["op.traced_ms"] = sum(duration[r[0]]
                                    for r in roots) / nops / 1e6
        stats["op.unwrapped_ms"] = sum(self_ns[r[0]]
                                       for r in roots) / nops / 1e6
        return stats

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span recorded so far, with the run's metadata."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "op", "name", "start_ns", "end_ns",
                  "counters"]
        with path.open("w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh)
            fh.write("\n")

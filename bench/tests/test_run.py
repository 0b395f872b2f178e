"""The command's contract: result line, metric names, missing sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run-ca",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_last_line_reports_every_listed_metric(tmp_path, trace, section):
    checkout = _checkout(tmp_path, with_sources=True)
    done = _run(checkout, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in spec[section]}
    if trace:
        spans = json.loads(
            (checkout / "bench/out/trace-run-ca.json").read_text())
        assert spans["ops"] * 2 == result["attempted"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    done = _run(_checkout(tmp_path, with_sources=False), 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout

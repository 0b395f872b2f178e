"""Oversized documents and sweeps fail fast with exit 2, before the work."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from relaxround import (FAMILIES, FormatError, VerificationBudgetError,
                        check_truthfulness, load_instance_document,
                        make_no_money)
from relaxround import cli, io as rio, verify
from relaxround.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def gap_toy_doc(n=2, m=1, **extra):
    return {"family": "gap-toy", "n": n, "m": m, **extra,
            "valuations": [{"kind": "additive",
                            "values": ["1" if j == i % m else "0"
                                       for j in range(m)]}
                           for i in range(n)]}


def single_minded_doc(n=2, m=3):
    return {"family": "single-minded-ca", "n": n, "m": m,
            "valuations": [{"kind": "single-minded", "bundle": [i % m],
                            "value": "1"} for i in range(n)]}


def single_peaked_doc(n=2, m=8):
    return {"family": "single-peaked", "n": n, "m": m,
            "valuations": [{"kind": "single-peaked", "peak": "1"}] * n}


@pytest.mark.parametrize("field, doc", [
    ("segments", {**gap_toy_doc(), "segments": 10**6}),
    ("m", {**gap_toy_doc(), "m": 10**6}),
    ("m", {**single_peaked_doc(), "m": 10**6}),
    ("n", {**single_peaked_doc(), "n": 10**6}),
    ("n", {**single_minded_doc(), "n": 10**6}),
])
def test_a_million_exits_two_fast(field, doc, tmp_path, capsys):
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    assert main(["--instance", str(path), "--mode", "run"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "input error" in err and repr(field) in err


@pytest.mark.parametrize("field, doc", [
    ("segments",
     gap_toy_doc(segments=FAMILIES["gap-toy"].max_segments + 1)),
    ("m", gap_toy_doc(m=FAMILIES["gap-toy"].max_m + 1)),
    ("m", single_peaked_doc(m=FAMILIES["single-peaked"].max_m + 1)),
    ("n", single_peaked_doc(n=FAMILIES["single-peaked"].max_n + 1)),
    ("m", single_minded_doc(m=FAMILIES["single-minded-ca"].max_m + 1)),
])
def test_one_over_the_cap_is_rejected_before_construction(field, doc,
                                                          monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a constructor ran")

    for name in ("make_gap_toy", "make_no_money", "make_single_minded_ca"):
        monkeypatch.setattr(rio.families, name, never)
    with pytest.raises(FormatError, match=f"{field!r}.*at most"):
        load_instance_document(doc)


@pytest.mark.parametrize("doc", [
    gap_toy_doc(n=1, m=FAMILIES["gap-toy"].max_m,
                segments=FAMILIES["gap-toy"].max_segments),
    single_peaked_doc(n=FAMILIES["single-peaked"].max_n,
                      m=FAMILIES["single-peaked"].max_m),
    single_minded_doc(m=FAMILIES["single-minded-ca"].max_m),
])
def test_the_caps_themselves_load(doc):
    instance, _, _ = load_instance_document(doc)
    assert (instance.n, instance.m) == (doc["n"], doc["m"])


@pytest.mark.parametrize("doc", [
    gap_toy_doc(n=FAMILIES["gap-toy"].max_n, m=2),
    gap_toy_doc(n=FAMILIES["gap-toy"].max_n, m=FAMILIES["gap-toy"].max_m,
                segments=FAMILIES["gap-toy"].max_segments),
    {"family": "case-b", "n": FAMILIES["case-b"].max_n, "m": 1,
     "beta": "1/2", "valuations": [{"kind": "additive", "values": ["1"]}]
     * FAMILIES["case-b"].max_n},
])
def test_the_thinned_families_load_fast_at_their_caps(doc):
    """Their calibration is checked on each lottery as it is built, so
    loading runs no audit that grows as 5**n (0.4-3.5 s while one did)."""
    start = time.perf_counter()
    instance, _, _ = load_instance_document(doc)
    assert time.perf_counter() - start < 1
    assert (instance.n, instance.m) == (doc["n"], doc["m"])


@pytest.mark.parametrize("mode, code", [
    ("run", 0), ("verify-no-money", 0), ("verify-truthfulness", 2),
    ("verify-ratio", 2), ("decompose", 2)])
def test_every_mode_at_the_single_peaked_caps_is_fast(mode, code, tmp_path):
    """The feasible set holds one n-bundle allocation per position, so both
    caps bound verify-no-money (0.2-0.3 s and 27 MiB measured); the money
    modes refuse the family."""
    family = FAMILIES["single-peaked"]
    path = _write(tmp_path, single_peaked_doc(n=family.max_n, m=family.max_m))
    start = time.perf_counter()
    assert main(["--instance", str(path), "--mode", mode, "--grid", "0",
                 "--out", str(tmp_path / "out")]) == code
    assert time.perf_counter() - start < 2


#: Runs the CLI, then reports its peak resident set in KiB.  VmHWM counts
#: the new process image only; ``ru_maxrss`` would also count the forking
#: test process.
PEAK_RSS_SCRIPT = """
import sys
from relaxround.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from /proc")
def test_verify_no_money_at_the_single_peaked_caps_stays_small(tmp_path):
    """The feasible set at the caps holds 10001 allocations of 32 bundles;
    ordering it must not build n m-bit masks per allocation (244 MiB
    measured when it did, 27 MiB without)."""
    family = FAMILIES["single-peaked"]
    path = _write(tmp_path, single_peaked_doc(n=family.max_n, m=family.max_m))
    path_var = os.pathsep.join(p for p in (str(SRC),
                                           os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "--instance", str(path),
         "--mode", "verify-no-money", "--grid", "1",
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path_var}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    peak_kib = int(result.stderr.split()[-1])
    assert peak_kib < 64 * 1024


def test_nine_single_minded_bidders_fail_on_n(tmp_path, capsys):
    """Vertex enumeration takes at most 8 variables, one per bidder, so the
    document fails on its bidder count before any audit runs."""
    path = _write(tmp_path, single_minded_doc(n=9))
    start = time.perf_counter()
    assert main(["--instance", str(path), "--mode", "run"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "input error: field 'n'" in err and "at most 8 bidders" in err


@pytest.fixture(scope="module")
def single_item_32():
    """A 32-bidder single-item document and its loaded form.

    Loading alone takes about 0.6 s (the construction audits), so the
    timed tests below hand the CLI the loaded form.
    """
    doc = {"family": "single-item", "n": 32, "m": 1,
           "valuations": [{"kind": "additive", "values": ["1"]}] * 32}
    return doc, load_instance_document(doc)


@pytest.mark.parametrize("mode", ["verify-truthfulness", "verify-ratio"])
def test_32_bidder_sweeps_exit_two_fast(mode, single_item_32, tmp_path,
                                        capsys, monkeypatch):
    doc, loaded = single_item_32
    monkeypatch.setattr(cli.rio, "load_instance_document",
                        lambda document: loaded)
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    assert main(["--instance", str(path), "--mode", mode, "--grid", "0,1,2",
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1
    assert "budget" in capsys.readouterr().err


def test_large_n_single_peaked_exits_two_fast(tmp_path, capsys):
    path = _write(tmp_path, single_peaked_doc(
        n=FAMILIES["single-peaked"].max_n))
    start = time.perf_counter()
    assert main(["--instance", str(path), "--mode", "verify-no-money",
                 "--grid", "0,1,2", "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1
    assert "budget" in capsys.readouterr().err


def test_truthfulness_budget_is_checked_before_any_profile(single_item_32,
                                                           monkeypatch):
    _, (instance, _, _) = single_item_32

    def never(*args, **kwargs):
        raise AssertionError("profiles were enumerated")

    monkeypatch.setattr(verify, "grid_profiles", never)
    with pytest.raises(VerificationBudgetError) as err:
        check_truthfulness(instance, [0, 1, 2], [0, 1, 2])
    assert err.value.required == 3 ** 32 * (1 + 32 * 3)


def test_median_budget(monkeypatch):
    instance = make_no_money(3, "single_peaked")
    grid = [0, 1, 2]
    cases = 3 ** 3 * 3 * 3
    monkeypatch.setattr(verify, "VERIFICATION_BUDGET", cases)
    assert verify.check_median_no_improvement(instance, grid).cases == cases
    monkeypatch.setattr(verify, "VERIFICATION_BUDGET", cases - 1)
    with pytest.raises(VerificationBudgetError):
        verify.check_median_no_improvement(instance, grid)


def test_a_huge_requirement_is_reported_without_its_digits():
    # 3**10000 has more digits than int-to-str conversion allows.
    err = VerificationBudgetError(3 ** 10000, 10)
    assert "more than 2**15849 pipeline runs" in str(err)

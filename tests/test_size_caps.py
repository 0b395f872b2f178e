"""Oversized documents and sweeps fail fast with exit 2, before the work."""

import json
import time

import pytest

from relaxround import (FAMILIES, FormatError, VerificationBudgetError,
                        check_truthfulness, load_instance_document,
                        make_no_money)
from relaxround import cli, io as rio, verify
from relaxround.cli import main


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
])
def test_one_over_the_cap_is_rejected_before_construction(field, doc,
                                                          monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a constructor ran")

    for name in ("make_gap_toy", "make_no_money"):
        monkeypatch.setattr(rio.families, name, never)
    with pytest.raises(FormatError, match=f"{field!r}.*at most"):
        load_instance_document(doc)


@pytest.mark.parametrize("doc", [
    gap_toy_doc(n=1, m=FAMILIES["gap-toy"].max_m,
                segments=FAMILIES["gap-toy"].max_segments),
    single_peaked_doc(m=FAMILIES["single-peaked"].max_m),
])
def test_the_caps_themselves_load(doc):
    instance, _, _ = load_instance_document(doc)
    assert instance.m == doc["m"]


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
    path = _write(tmp_path, single_peaked_doc(n=40))
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


def test_median_budget():
    instance = make_no_money(3, "single_peaked")
    grid = [0, 1, 2]
    cases = 3 ** 3 * 3 * 3
    assert verify.check_median_no_improvement(instance, grid,
                                              budget=cases).cases == cases
    with pytest.raises(VerificationBudgetError):
        verify.check_median_no_improvement(instance, grid, budget=cases - 1)


def test_a_huge_requirement_is_reported_without_its_digits():
    # 3**10000 has more digits than int-to-str conversion allows.
    err = VerificationBudgetError(3 ** 10000, 10)
    assert "more than 2**15849 pipeline runs" in str(err)

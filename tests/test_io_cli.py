"""Interchange round trips and the command-line runner's exit contract."""

import json
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from relaxround import (FAMILIES, DecompositionInfeasibleError, FormatError,
                        InvariantError, UnboundedError,
                        UnsupportedFamilyError, VerificationBudgetError,
                        dump_instance_document, format_fraction,
                        load_instance, load_instance_document, make_case_b_family,
                        make_gap_toy, make_no_money, make_single_item,
                        make_single_minded_ca, parse_fraction, profile_for,
                        write_instance)
from relaxround import cli, io as rio
from relaxround.cli import main

ONE = F(1)


class TestFractions:
    def test_format_always_p_over_q(self):
        assert format_fraction(F(3)) == "3/1"
        assert format_fraction(F(1, 2)) == "1/2"

    @pytest.mark.parametrize("raw,expected", [(3, F(3)), ("3", F(3)),
                                              ("5/2", F(5, 2))])
    def test_parse_accepts_ints_and_strings(self, raw, expected):
        assert parse_fraction(raw) == expected

    def test_parse_rejects_junk(self):
        with pytest.raises(FormatError):
            parse_fraction("three")
        with pytest.raises(FormatError):
            parse_fraction(1.5)


FAMILY_BUILDS = [
    lambda: (make_single_item(2), [F(5), F(3)]),
    lambda: (make_single_minded_ca(2, [{0}, {0, 1}]), [F(3), F(4)]),
    lambda: (make_gap_toy(2, 1), [F(4), F(2)]),
    lambda: (make_case_b_family(2, F(1, 2)), [F(5), F(3)]),
    lambda: (make_no_money(3, "lottery"), [F(2), F(4), F(6)]),
    lambda: (make_no_money(3, "single_peaked"), [F(1), F(5), F(3)]),
]


class TestInstanceDocuments:
    @pytest.mark.parametrize("build", FAMILY_BUILDS)
    def test_round_trip_is_bit_exact(self, build, tmp_path):
        instance, scalars = build()
        profile = profile_for(instance, scalars)
        path = tmp_path / "instance.json"
        write_instance(path, instance, profile)
        loaded_instance, loaded_profile = load_instance(path)
        assert loaded_instance == instance
        assert loaded_profile == profile

    def test_round_trip_survives_reserialization(self):
        instance = make_single_minded_ca(3, [{0}, {1, 2}, {0, 2}])
        profile = profile_for(instance, [F(1, 3), F(2), F(7, 5)])
        doc = dump_instance_document(instance, profile)
        again = dump_instance_document(
            *load_instance_document(json.loads(json.dumps(doc)))[:2])
        assert doc == again

    def test_negative_value_rejected(self):
        doc = {"family": "single-item", "n": 1, "m": 1,
               "valuations": [{"kind": "additive", "values": ["-3"]}]}
        with pytest.raises(FormatError):
            load_instance_document(doc)

    def test_overlapping_desires_load_fine(self):
        doc = {"family": "single-minded-ca", "n": 2, "m": 2,
               "valuations": [
                   {"kind": "single-minded", "bundle": [0, 1], "value": "5"},
                   {"kind": "single-minded", "bundle": [0], "value": "3"}]}
        instance, profile, _ = load_instance_document(doc)
        assert instance.n == 2

    def test_a_valuation_of_the_wrong_kind_exits_two(self, tmp_path, capsys):
        """Negative control for the valuation-kind guard: without it, the
        single-minded constructor reads bidder 0's bundle and crashes with
        an AttributeError traceback instead."""
        doc = {"family": "single-minded-ca", "n": 2, "m": 2,
               "valuations": [
                   {"kind": "additive", "values": ["1", "2"]},
                   {"kind": "single-minded", "bundle": [1], "value": "3"}]}
        path = _write(tmp_path, "kind.json", doc)
        assert main(["--instance", str(path), "--mode", "run",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "input error: field 'valuations[0].kind': single-minded-ca "
            "documents need a SingleMindedValuation\n")

    def test_missing_field_is_named(self):
        with pytest.raises(FormatError, match="family"):
            load_instance_document({"n": 1, "m": 1, "valuations": []})

    def test_wrong_valuation_count_is_named(self):
        doc = {"family": "single-item", "n": 2, "m": 1,
               "valuations": [{"kind": "additive", "values": ["1"]}]}
        with pytest.raises(FormatError, match="valuations"):
            load_instance_document(doc)

    def test_unknown_payment_rule_rejected(self):
        doc = {"family": "single-item", "n": 1, "m": 1,
               "valuations": [{"kind": "additive", "values": ["1"]}],
               "payment_rule": "third-price"}
        with pytest.raises(FormatError, match="payment_rule"):
            load_instance_document(doc)

    @pytest.mark.parametrize("doc", [
        {"family": "gap-toy", "n": 4, "m": 2,
         "valuations": [{"kind": "additive", "values": ["1", "0"]}] * 4},
        {"family": "single-minded-ca", "n": 8, "m": 4,
         "valuations": [{"kind": "single-minded", "bundle": [i % 4],
                         "value": "1"} for i in range(8)]},
    ])
    def test_unknown_payment_rule_is_rejected_before_construction(
            self, doc, monkeypatch):
        # These documents take seconds to construct.
        def never(*args, **kwargs):
            raise AssertionError("the family was constructed")

        family = FAMILIES[doc["family"]]
        monkeypatch.setitem(FAMILIES, family.name,
                            replace(family, load=never))
        with pytest.raises(FormatError, match="payment_rule"):
            load_instance_document({**doc, "payment_rule": "second-price"})

    @pytest.mark.parametrize("field, doc", [
        ("n", {"family": "single-item", "n": True, "m": 1,
               "valuations": [{"kind": "additive", "values": ["1"]}]}),
        ("m", {"family": "single-item", "n": 1, "m": True,
               "valuations": [{"kind": "additive", "values": ["1"]}]}),
        ("segments", {"family": "gap-toy", "n": 2, "m": 1, "segments": True,
                      "valuations": [{"kind": "additive", "values": ["1"]},
                                     {"kind": "additive", "values": ["2"]}]}),
    ])
    def test_boolean_count_rejected(self, field, doc, tmp_path, capsys):
        # JSON true is a Python bool, which isinstance(..., int) accepts.
        with pytest.raises(FormatError, match=repr(field)):
            load_instance_document(doc)
        path = _write(tmp_path, "bool.json", doc)
        assert main(["--instance", str(path), "--mode", "run"]) == 2
        assert repr(field) in capsys.readouterr().err

    def test_boolean_value_rejected(self, tmp_path, capsys):
        """Negative control for parse_fraction's boolean guard: without it,
        JSON true loads as the bid 1 and the run succeeds."""
        doc = {"family": "single-item", "n": 1, "m": 1,
               "valuations": [{"kind": "additive", "values": [True]}]}
        with pytest.raises(FormatError) as err:
            load_instance_document(doc)
        assert err.value.fieldname == "valuations[0].values[0]"
        path = _write(tmp_path, "bool.json", doc)
        assert main(["--instance", str(path), "--mode", "run",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "input error: field 'valuations[0].values[0]': expected a "
            "rational, got a boolean\n")


class TestBidderCap:
    def test_huge_n_exits_two_fast(self, tmp_path, capsys):
        doc = {"family": "single-item", "n": 10**6, "m": 1,
               "valuations": [{"kind": "additive", "values": ["1"]}]}
        path = _write(tmp_path, "huge.json", doc)
        start = time.perf_counter()
        assert main(["--instance", str(path), "--mode", "run"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "input error" in err and "'n'" in err

    @pytest.mark.parametrize("family", sorted(
        name for name, family in FAMILIES.items() if family.max_n))
    def test_one_over_the_cap_is_rejected_before_construction(
            self, family, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a constructor ran")

        for name in ("make_single_item", "make_case_b_family",
                     "make_no_money", "make_single_minded_ca",
                     "make_gap_toy"):
            monkeypatch.setattr(rio.families, name, never)
        n = FAMILIES[family].max_n + 1
        doc = {"family": family, "n": n, "m": 1, "beta": "1/2",
               "valuations": [{"kind": "additive", "values": ["1"]}] * n}
        with pytest.raises(FormatError, match="'n'.*at most"):
            load_instance_document(doc)

    def test_the_cap_itself_loads(self):
        n = FAMILIES["no-money-lottery"].max_n
        doc = {"family": "no-money-lottery", "n": n, "m": 1,
               "valuations": [{"kind": "additive", "values": ["1"]}] * n}
        instance, _, _ = load_instance_document(doc)
        assert instance.n == n


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


SINGLE_ITEM_DOC = {
    "family": "single-item", "n": 2, "m": 1,
    "valuations": [{"kind": "additive", "values": ["5"]},
                   {"kind": "additive", "values": ["3"]}],
}


class TestCli:
    def test_run_writes_outcome_and_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "si.json", SINGLE_ITEM_DOC)
        out = tmp_path / "out"
        assert main(["--instance", str(path), "--mode", "run",
                     "--out", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["winners"] == [0]
        assert outcome["expected_payments"] == ["3/1", "0/1"]

    def test_verify_truthfulness_passes(self, tmp_path, capsys):
        path = _write(tmp_path, "si.json", SINGLE_ITEM_DOC)
        out = tmp_path / "out"
        code = main(["--instance", str(path), "--mode", "verify-truthfulness",
                     "--grid", "0,1,2,3", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "truthfulness-in-expectation: PASS" in printed
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()

    def test_first_price_fixture_fails_with_witness_file(self, tmp_path):
        doc = dict(SINGLE_ITEM_DOC)
        doc["payment_rule"] = "first-price"
        path = _write(tmp_path, "fp.json", doc)
        out = tmp_path / "out"
        code = main(["--instance", str(path), "--mode", "verify-truthfulness",
                     "--grid", "0,1,2,3", "--out", str(out)])
        assert code == 1
        witness = json.loads((out / "witness.json").read_text())
        assert witness["checks"][0]["witnesses"]

    def test_verify_ratio(self, tmp_path, capsys):
        doc = {"family": "case-b", "n": 2, "m": 1, "beta": "1/2",
               "valuations": [{"kind": "additive", "values": ["5"]},
                              {"kind": "additive", "values": ["3"]}]}
        path = _write(tmp_path, "cb.json", doc)
        code = main(["--instance", str(path), "--mode", "verify-ratio",
                     "--grid", "0,1,2", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_verify_no_money_median(self, tmp_path, capsys):
        doc = {"family": "single-peaked", "n": 3, "m": 7,
               "valuations": [{"kind": "single-peaked", "peak": "1"},
                              {"kind": "single-peaked", "peak": "5"},
                              {"kind": "single-peaked", "peak": "3"}]}
        path = _write(tmp_path, "sp.json", doc)
        code = main(["--instance", str(path), "--mode", "verify-no-money",
                     "--grid", "0,1,2,3,4,5,6", "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "median-no-improvement: PASS" in printed

    def test_decompose_mode(self, tmp_path):
        doc = {"family": "single-minded-ca", "n": 3, "m": 2,
               "valuations": [
                   {"kind": "single-minded", "bundle": [0, 1], "value": "5"},
                   {"kind": "single-minded", "bundle": [0], "value": "3"},
                   {"kind": "single-minded", "bundle": [1], "value": "3"}]}
        path = _write(tmp_path, "sm.json", doc)
        out = tmp_path / "out"
        assert main(["--instance", str(path), "--mode", "decompose",
                     "--out", str(out)]) == 0
        dump = json.loads((out / "decomposition.json").read_text())
        assert dump["scale"] == "1/2"
        total = sum(F(t["weight"]) for t in dump["terms"])
        assert total == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["--instance", str(tmp_path / "nope.json"),
                     "--mode", "run"]) == 2

    def test_malformed_json_exits_two_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["--instance", str(path), "--mode", "run"]) == 2
        assert "line" in capsys.readouterr().err

    def test_invariant_violation_exits_two_naming_field(self, tmp_path, capsys):
        doc = {"family": "single-item", "n": 1, "m": 1,
               "valuations": [{"kind": "additive", "values": ["-1"]}]}
        path = _write(tmp_path, "neg.json", doc)
        assert main(["--instance", str(path), "--mode", "run"]) == 2
        assert "values" in capsys.readouterr().err

    def test_verify_mode_requires_grid(self, tmp_path, capsys):
        """Refused before the instance file is read: this one is missing."""
        for mode in ("verify-truthfulness", "verify-ratio", "verify-no-money"):
            assert main(["--instance", str(tmp_path / "nope.json"),
                         "--mode", mode]) == 2
            assert capsys.readouterr().err == (
                f"input error: mode {mode!r} requires a nonempty --grid\n")

    def test_malformed_grid_exits_two_naming_the_field(self, tmp_path,
                                                       capsys):
        path = _write(tmp_path, "si.json", SINGLE_ITEM_DOC)
        assert main(["--instance", str(path), "--mode", "verify-ratio",
                     "--grid", "1,x", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "input error: field '--grid': not a rational: 'x'\n")


class TestInternalErrors:
    """Failures a loaded instance rules out exit 3, not as bad input."""

    @pytest.mark.parametrize("error", [
        InvariantError("broken guarantee"),
        DecompositionInfeasibleError(F(1, 3)),
        UnboundedError("objective is unbounded"),
    ])
    def test_internal_failure_exits_three(self, error, tmp_path, capsys,
                                          monkeypatch):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.mechanism, "run", fail)
        path = _write(tmp_path, "si.json", SINGLE_ITEM_DOC)
        assert main(["--instance", str(path), "--mode", "run",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:")
        assert str(error) in err

    def test_invariant_failure_while_loading_exits_three(
            self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise InvariantError("audit broke")

        monkeypatch.setattr(rio.families, "make_single_item", fail)
        path = _write(tmp_path, "si.json", SINGLE_ITEM_DOC)
        assert main(["--instance", str(path), "--mode", "run"]) == 3
        assert "internal error: audit broke" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        VerificationBudgetError(10, 1),
        UnsupportedFamilyError("no relaxation recipe"),
    ])
    def test_input_failures_still_exit_two(self, error, tmp_path, capsys,
                                           monkeypatch):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.verify, "check_truthfulness", fail)
        path = _write(tmp_path, "si.json", SINGLE_ITEM_DOC)
        assert main(["--instance", str(path), "--mode",
                     "verify-truthfulness", "--grid", "0,1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("input error:")

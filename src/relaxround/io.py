"""Interchange formats: instance documents, outcomes, and reports.

Rationals travel as "p/q" strings so every round trip is bit exact.
Instance documents are JSON objects {family, n, m, valuations, ...}; the
loader rebuilds instances through the family constructors, so a loaded
instance passes the same construction-time audits as a fresh one.
"""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

from .model import (AdditiveValuation, Family, Instance,
                    SingleMindedValuation, SinglePeakedValuation, Valuation,
                    ValuationProfile, validate_profile)
from .mechanism import MechanismOutcome
from .rounding import AllocationDistribution
from .verify import VerificationReport
from . import families

PAYMENT_RULES = ("expected-vcg", "first-price")


class FormatError(ValueError):
    """Malformed document; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"field {fieldname!r}: {message}")
        self.fieldname = fieldname


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(obj: Any, fieldname: str = "value") -> Fraction:
    if isinstance(obj, bool):
        raise FormatError(fieldname, "expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        # Fraction("1e999999999") would build a billion-digit integer.
        if re.search("[0-9][eE]", obj):
            raise FormatError(fieldname, "exponent notation is not "
                                         f"accepted, write p/q: {obj!r}")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(fieldname, f"not a rational: {obj!r}") from exc
    raise FormatError(fieldname, f"expected int or 'p/q' string, "
                                 f"got {type(obj).__name__}")


def _require(obj: dict, key: str, fieldname: str | None = None) -> Any:
    if key not in obj:
        raise FormatError(fieldname or key, "missing required field")
    return obj[key]


def _list(obj: dict, key: str, fieldname: str) -> list:
    value = _require(obj, key, f"{fieldname}.{key}")
    if not isinstance(value, list):
        raise FormatError(f"{fieldname}.{key}", "expected a list")
    return value


def _bundle(obj: Any, fieldname: str) -> frozenset[int]:
    # int(1.5) == 1 and iterating "12" gives items 1 and 2, so only a list
    # of integers is read.
    if not isinstance(obj, list) or any(
            isinstance(j, bool) or not isinstance(j, int) for j in obj):
        raise FormatError(fieldname, "a bundle must be a list of item "
                                     "indices")
    return frozenset(obj)


def valuation_to_obj(v: Valuation) -> dict:
    if isinstance(v, AdditiveValuation):
        return {"kind": "additive",
                "values": [format_fraction(x) for x in v.item_values]}
    if isinstance(v, SingleMindedValuation):
        return {"kind": "single-minded", "bundle": sorted(v.bundle),
                "value": format_fraction(v.value)}
    if isinstance(v, SinglePeakedValuation):
        return {"kind": "single-peaked", "peak": format_fraction(v.peak)}
    raise TypeError(f"unknown valuation type {type(v).__name__}")


def valuation_from_obj(obj: Any, fieldname: str) -> Valuation:
    if not isinstance(obj, dict):
        raise FormatError(fieldname, "valuations must be objects")
    kind = _require(obj, "kind", f"{fieldname}.kind")
    try:
        if kind == "additive":
            values = _list(obj, "values", fieldname)
            return AdditiveValuation(tuple(
                parse_fraction(x, f"{fieldname}.values[{i}]")
                for i, x in enumerate(values)))
        if kind == "single-minded":
            bundle = _bundle(_require(obj, "bundle", f"{fieldname}.bundle"),
                             f"{fieldname}.bundle")
            value = parse_fraction(_require(obj, "value", f"{fieldname}.value"),
                                   f"{fieldname}.value")
            return SingleMindedValuation(bundle, value)
        if kind == "single-peaked":
            peak = parse_fraction(_require(obj, "peak", f"{fieldname}.peak"),
                                  f"{fieldname}.peak")
            return SinglePeakedValuation(peak)
    except FormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise FormatError(fieldname, str(exc)) from exc
    raise FormatError(f"{fieldname}.kind", f"unknown valuation kind {kind!r}")


def _extra_field(obj: dict, key: str, default: Any, family: Family) -> Any:
    """One of the family's extra fields: a curve segment count, or else a
    rational; ``default`` stands in for an absent field (None: required)."""
    if key not in obj:
        if default is None:
            raise FormatError(key, "missing required field")
        return default
    if key != "segments":
        return parse_fraction(obj[key], key)
    segments = obj[key]
    if (isinstance(segments, bool) or not isinstance(segments, int)
            or segments < 1):
        raise FormatError(key, "must be a positive integer")
    if segments > family.max_segments:
        raise FormatError(key, f"{family.name} documents accept at most "
                               f"{family.max_segments} curve segments, got "
                               f"{segments}")
    return segments


def dump_instance_document(instance: Instance, profile: ValuationProfile,
                           payment_rule: str = "expected-vcg") -> dict:
    doc: dict[str, Any] = {"family": instance.family.name, "n": instance.n,
                           "m": instance.m}
    for key, _ in instance.family.extra:
        doc[key] = (len(instance.spec.curve.points) - 1 if key == "segments"
                    else format_fraction(getattr(instance.spec, key)))
    doc["valuations"] = [valuation_to_obj(v) for v in profile.valuations]
    if payment_rule != "expected-vcg":
        doc["payment_rule"] = payment_rule
    return doc


def load_instance_document(obj: Any) -> tuple[Instance, ValuationProfile, str]:
    if not isinstance(obj, dict):
        raise FormatError("document", "top level must be a JSON object")
    name = _require(obj, "family")
    n = _require(obj, "n")
    m = _require(obj, "m")
    for key, count in (("n", n), ("m", m)):
        if isinstance(count, bool) or not isinstance(count, int):
            raise FormatError(key, "bidder and item counts must be integers")
    family = families.FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise FormatError("family", f"unknown family {name!r}")
    for key, count, cap, noun in (("n", n, family.max_n, "bidders"),
                                  ("m", m, family.max_m, "items")):
        if cap is not None and count > cap:
            raise FormatError(key, f"{name} documents accept at most {cap} "
                                   f"{noun}, got {count}")
    raw_vals = _require(obj, "valuations")
    if not isinstance(raw_vals, list) or len(raw_vals) != n:
        raise FormatError("valuations", f"expected a list of {n} valuations")
    valuations = tuple(valuation_from_obj(v, f"valuations[{i}]")
                       for i, v in enumerate(raw_vals))
    for i, v in enumerate(valuations):
        if not isinstance(v, family.valuation):
            raise FormatError(f"valuations[{i}].kind", f"{name} documents "
                              f"need a {family.valuation.__name__}")
    profile = ValuationProfile(valuations)
    if family.m is not None and m != family.m:
        raise FormatError("m", f"{name} instances have m = {family.m}")
    extras = {key: _extra_field(obj, key, default, family)
              for key, default in family.extra}
    try:
        instance = family.load(n, m, profile, **extras)
    except ValueError as exc:
        raise FormatError("family", str(exc)) from exc
    try:
        validate_profile(instance, profile)
    except ValueError as exc:
        raise FormatError("valuations", str(exc)) from exc
    payment_rule = obj.get("payment_rule", "expected-vcg")
    if payment_rule not in PAYMENT_RULES:
        raise FormatError("payment_rule",
                          f"must be one of {PAYMENT_RULES}")
    return instance, profile, payment_rule


def load_instance(path: str | Path) -> tuple[Instance, ValuationProfile]:
    """Parse and validate an instance file; see the JSON schema in README."""
    text = Path(path).read_text(encoding="utf-8")
    instance, profile, _ = load_instance_document(json.loads(text))
    return instance, profile


def write_instance(path: str | Path, instance: Instance,
                   profile: ValuationProfile,
                   payment_rule: str = "expected-vcg") -> None:
    doc = dump_instance_document(instance, profile, payment_rule)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def distribution_rows(dist: AllocationDistribution) -> list[dict]:
    """Ordered dump rows: allocation bitmask per bidder plus probability."""
    return [{"bundles": list(alloc.bitmasks()),
             "probability": format_fraction(p)}
            for alloc, p in dist.entries]


def decomposition_rows(decomposition: AllocationDistribution) -> list[dict]:
    """Like ``distribution_rows``, with each probability as a "weight"."""
    return [{"bundles": list(alloc.bitmasks()),
             "weight": format_fraction(w)}
            for alloc, w in decomposition.entries]


def outcome_to_obj(outcome: MechanismOutcome) -> dict:
    return {
        "seed": outcome.seed,
        "relaxed_value": format_fraction(outcome.relaxed_value),
        "calibration": format_fraction(outcome.calibration),
        "distribution": distribution_rows(outcome.distribution),
        "expected_payments": [format_fraction(p)
                              for p in outcome.expected_payments],
        "realized": list(outcome.realized.bitmasks()),
        "winners": list(outcome.realized.winners()),
    }


def report_to_obj(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "cases": report.cases,
        "checks": [{
            "name": c.name,
            "passed": c.passed,
            "cases": c.cases,
            "domain": c.domain,
            "witnesses": [{
                "profile": w.profile,
                "bidder": w.bidder,
                "misreport": w.misreport,
                "lhs": format_fraction(w.lhs),
                "rhs": format_fraction(w.rhs),
            } for w in c.witnesses],
        } for c in report.checks],
    }


CSV_COLUMNS = ("check", "profile_id", "bidder", "misreport", "lhs", "rhs",
               "pass")


def report_csv_rows(report: VerificationReport) -> list[tuple]:
    """One row per witness on failure, one summary row per passing check."""
    rows: list[tuple] = []
    for c in report.checks:
        if c.passed:
            rows.append((c.name, f"{c.cases} cases", "", "", "", "", "pass"))
        else:
            for w in c.witnesses:
                rows.append((c.name, w.profile,
                             "" if w.bidder is None else w.bidder,
                             w.misreport, format_fraction(w.lhs),
                             format_fraction(w.rhs), "fail"))
    return rows


def write_report_files(report: VerificationReport, outdir: str | Path,
                       formats: str = "both",
                       stem: str = "report") -> list[Path]:
    """Write report.json / report.csv; returns the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if formats in ("json", "both"):
        path = outdir / f"{stem}.json"
        path.write_text(json.dumps(report_to_obj(report), indent=2) + "\n",
                        encoding="utf-8")
        written.append(path)
    if formats in ("csv", "both"):
        path = outdir / f"{stem}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(report_csv_rows(report))
        written.append(path)
    return written


def write_witness_file(report: VerificationReport,
                       outdir: str | Path) -> Path | None:
    """Dump only the failing rows; None when everything passed."""
    if report.passed:
        return None
    failing = VerificationReport(tuple(c for c in report.checks
                                       if not c.passed))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "witness.json"
    path.write_text(json.dumps(report_to_obj(failing), indent=2) + "\n",
                    encoding="utf-8")
    return path

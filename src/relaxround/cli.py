"""Batch experiment runner.

Loads an instance file, runs the mechanism or one of the verification
suites, writes machine-readable reports and prints a one-line summary per
check.  Exit codes: 0 all passed, 1 a verification failed (witness file
written), 2 input errors, 3 internal errors (the program is at fault, not
the document).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import io as rio
from . import mechanism, verify
from .lp import UnboundedError
from .model import Instance, InvariantError, ValuationProfile, ONE
from .relaxation import build_relaxation, solve_relaxation
from .rounding import DecompositionInfeasibleError, convex_decompose
from .verify import CheckResult, VerificationReport

MODES = ("run", "verify-truthfulness", "verify-ratio", "verify-no-money",
         "decompose")
#: Program faults, not bad input: a broken internal guarantee, and, once a
#: document has loaded, an infeasible decomposition (its construction audits
#: rule one out) or an unbounded LP (packing bounds rule one out).
INTERNAL_ERRORS = (InvariantError, DecompositionInfeasibleError,
                   UnboundedError)


@dataclass(frozen=True)
class ExperimentConfig:
    instance_path: Path
    mode: str
    grid: tuple[Fraction, ...]
    seed: int
    outdir: Path
    formats: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode.startswith("verify-") and not self.grid:
            raise ValueError(f"mode {self.mode!r} requires a nonempty --grid")


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    if not text:
        return ()
    try:
        return tuple(rio.parse_fraction(part.strip(), "--grid")
                     for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed --grid {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxround",
        description="Run or verify relax-and-round mechanisms on an "
                    "instance file.")
    parser.add_argument("--instance", required=True, help="instance JSON file")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--grid", default="",
                        help="comma-separated rationals, e.g. '0,1,2,3'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", default="both",
                        choices=("json", "csv", "both"))
    return parser


def _summary_line(check: CheckResult) -> str:
    verdict = "PASS" if check.passed else "FAIL"
    domain = f" [{check.domain}]" if check.domain else ""
    return f"{check.name}: {verdict} ({check.cases} cases){domain}"


def _emit_report(report: VerificationReport, config: ExperimentConfig) -> int:
    rio.write_report_files(report, config.outdir, config.formats)
    for check in report.checks:
        print(_summary_line(check))
    if not report.passed:
        witness = rio.write_witness_file(report, config.outdir)
        print(f"witness written to {witness}")
        return 1
    return 0


def _mode_run(config: ExperimentConfig, instance: Instance,
              profile: ValuationProfile) -> int:
    if not instance.family.money:
        x, dist = mechanism.run_without_money(instance, profile)
        from .rounding import sample
        realized = sample(dist, config.seed)
        obj = {
            "seed": config.seed,
            "fractional_point": [rio.format_fraction(c) for c in x.coords],
            "distribution": rio.distribution_rows(dist),
            "expected_payments": [rio.format_fraction(Fraction(0))
                                  for _ in range(instance.n)],
            "realized": list(realized.bitmasks()),
            "winners": list(realized.winners()),
        }
    else:
        outcome = mechanism.run(instance, profile, config.seed)
        obj = rio.outcome_to_obj(outcome)
    config.outdir.mkdir(parents=True, exist_ok=True)
    path = config.outdir / "outcome.json"
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    print(f"run: winners={obj['winners']} "
          f"payments={obj['expected_payments']} -> {path}")
    return 0


def _mode_verify_truthfulness(config: ExperimentConfig, instance: Instance,
                              payment_rule_name: str) -> int:
    rule = (verify.first_price_payments
            if payment_rule_name == "first-price" else None)
    report = verify.check_truthfulness(instance, config.grid, config.grid,
                                       payment_rule=rule)
    return _emit_report(report, config)


def _mode_verify_ratio(config: ExperimentConfig, instance: Instance,
                       profile: ValuationProfile) -> int:
    verify.require_budget(len(config.grid) ** instance.n + 1)
    witnesses = []
    cases = 0
    worst = None
    sweep = verify.grid_profiles(instance, config.grid) + [profile]
    for candidate in sweep:
        cases += 1
        ratio, ok = verify.check_approximation(instance, candidate)
        worst = ratio if worst is None else min(worst, ratio)
        if not ok:
            witnesses.append(verify.Witness(
                profile=verify.profile_signature(candidate), bidder=None,
                misreport="", lhs=ratio,
                rhs=instance.spec.alpha * instance.spec.beta))
    check = CheckResult(
        name="approximation-ratio", passed=not witnesses, cases=cases,
        domain=(f"grid={[str(g) for g in config.grid]} floor="
                f"{instance.spec.alpha * instance.spec.beta} "
                f"worst={worst}"),
        witnesses=tuple(witnesses))
    return _emit_report(VerificationReport((check,)), config)


def _mode_verify_no_money(config: ExperimentConfig, instance: Instance,
                          profile: ValuationProfile) -> int:
    if instance.family.money:
        raise ValueError("verify-no-money requires a without-money family")
    # The median sweep runs first so that its budget check comes before
    # any other work; the report keeps its order.
    median = (verify.check_median_no_improvement(instance, config.grid).checks
              if instance.family.shared else ())
    report = verify.check_without_money(instance, profile, ONE)
    return _emit_report(VerificationReport(report.checks + median), config)


def _mode_decompose(config: ExperimentConfig, instance: Instance,
                    profile: ValuationProfile) -> int:
    objective, poly = build_relaxation(instance, profile)
    optimum = solve_relaxation(objective, poly)
    decomposition = convex_decompose(
        optimum, instance.spec.decomposition_scale, instance)
    obj = {
        "fractional_point": [rio.format_fraction(c) for c in optimum.coords],
        "scale": rio.format_fraction(instance.spec.decomposition_scale),
        "terms": rio.decomposition_rows(decomposition),
    }
    config.outdir.mkdir(parents=True, exist_ok=True)
    path = config.outdir / "decomposition.json"
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    print(f"decompose: {decomposition.support_size} terms, "
          f"support bound {instance.num_vars + 1} -> {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig(instance_path=Path(args.instance),
                                  mode=args.mode,
                                  grid=_parse_grid(args.grid),
                                  seed=args.seed, outdir=Path(args.out),
                                  formats=args.format)
        text = config.instance_path.read_text(encoding="utf-8")
        document = json.loads(text)
        instance, profile, payment_rule = rio.load_instance_document(document)
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"input error: line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    try:
        if config.mode == "run":
            return _mode_run(config, instance, profile)
        if config.mode == "verify-truthfulness":
            return _mode_verify_truthfulness(config, instance, payment_rule)
        if config.mode == "verify-ratio":
            return _mode_verify_ratio(config, instance, profile)
        if config.mode == "verify-no-money":
            return _mode_verify_no_money(config, instance, profile)
        return _mode_decompose(config, instance, profile)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

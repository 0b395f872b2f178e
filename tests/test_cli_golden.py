"""CLI outputs on fixture instances, byte for byte against committed files.

``tests/golden/<family>.json`` holds one small instance per relaxation
family, with tied and zero bids.  ``tests/golden/<family>/<mode>-<format>/``
holds what the CLI printed (``stdout.txt``) and every file it wrote.  Any
change to a distribution, payment, seeded draw, verification witness or
output format shows up here as a diff.  ``single-minded-ca-first-price``
plays the first-price negative control, whose truthfulness report fails.
"""

from pathlib import Path

import pytest

from relaxround.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FAMILIES = ("single-item", "case-b", "single-minded-ca", "gap-toy")
MODES = ("run", "decompose", "verify-ratio", "verify-truthfulness")
FORMATS = ("json", "csv")
SEED = "11"
GRID = "0,1,5/2"
STDOUT = "stdout.txt"
FIRST_PRICE = "single-minded-ca-first-price"


def cli_outputs(family: str, mode: str, fmt: str, workdir: Path,
                capsys, code: int = 0) -> dict[str, str]:
    """Run the CLI inside ``workdir``; return its stdout and written files.

    The output directory is given relative to ``workdir`` so the paths the
    CLI prints do not depend on where the test runs.
    """
    assert main(["--instance", str(GOLDEN / f"{family}.json"),
                 "--mode", mode, "--seed", SEED, "--grid", GRID,
                 "--out", "out", "--format", fmt]) == code
    outputs = {STDOUT: capsys.readouterr().out}
    for path in sorted((workdir / "out").iterdir()):
        outputs[path.name] = path.read_text(encoding="utf-8")
    return outputs


def expected_outputs(family: str, mode: str, fmt: str) -> dict[str, str]:
    folder = GOLDEN / family / f"{mode}-{fmt}"
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(folder.iterdir())}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_cli_output_matches_golden_files(family, mode, fmt, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_outputs(family, mode, fmt, tmp_path, capsys) == \
        expected_outputs(family, mode, fmt)


def test_failing_truthfulness_report_matches_golden_files(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    """First-price payments fail, with exit code 1 and the same witnesses."""
    monkeypatch.chdir(tmp_path)
    mode = "verify-truthfulness"
    assert cli_outputs(FIRST_PRICE, mode, "json", tmp_path, capsys,
                       code=1) == expected_outputs(FIRST_PRICE, mode, "json")

"""Internal guards raise InvariantError, which `python -O` does not strip.

Each test reaches one guard through a hand-built object or a monkeypatch;
no valid instance built by a family constructor can trip them.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from relaxround import (FamilySpec, FractionalPoint, Instance,
                        InvariantError, brute_force_opt, make_no_money,
                        make_single_item, profile_for)
from relaxround.model import bids
from relaxround import families, relaxation, verify
from relaxround.mechanism import keep_probabilities

ONE = F(1)


def test_brute_force_opt_with_an_empty_feasible_set(monkeypatch):
    instance = make_single_item(2)
    monkeypatch.setattr(verify, "enumerate_feasible", lambda inst: [])
    with pytest.raises(InvariantError, match="feasible set is empty"):
        brute_force_opt(instance, profile_for(instance, [F(5), F(3)]))


def test_bids_of_an_ownerless_variable():
    instance = make_no_money(2, "single_peaked", positions=3)
    profile = profile_for(instance, [F(0), F(2)])
    with pytest.raises(InvariantError, match="owner is None"):
        bids(instance, profile)


def test_curve_ratio_keep_with_an_ownerless_variable():
    spec = FamilySpec(alpha=ONE, curve=families.unit_gap_curve(2))
    variables = tuple((None, frozenset({p})) for p in range(2))
    instance = Instance(families.SINGLE_PEAKED, 2, 2, variables, spec)
    with pytest.raises(InvariantError, match="owner"):
        keep_probabilities(instance, FractionalPoint((ONE, ONE)))


def family_name_uses(package):
    """Lines outside families.py that compare a family against a family
    name, or hold family names in a tuple, list, set or dict's keys."""
    names = set(families.FAMILIES)

    def named(node):
        return isinstance(node, ast.Constant) and node.value in names

    def reads_family(node):
        return any(isinstance(n, ast.Name) and n.id == "family"
                   or isinstance(n, ast.Attribute) and n.attr == "family"
                   for n in ast.walk(node))

    found = set()
    for path in sorted(package.rglob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                hit = (any(named(side) for side in sides)
                       and any(reads_family(side) for side in sides))
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                hit = any(named(element) for element in node.elts)
            elif isinstance(node, ast.Dict):
                hit = any(named(key) for key in node.keys)
            else:
                continue
            if hit:
                found.add(f"{path.relative_to(package)}:{node.lineno}")
    return sorted(found)


def test_only_families_py_names_a_family():
    """Each family is one record; the rest of the package reads it."""
    assert family_name_uses(Path(relaxation.__file__).parent) == []


def test_a_family_name_comparison_is_found(tmp_path):
    (tmp_path / "planted.py").write_text(
        'def f(instance):\n    return instance.family == "gap-toy"\n')
    (tmp_path / "families.py").write_text('NAMES = ("gap-toy",)\n')
    assert family_name_uses(tmp_path) == ["planted.py:2"]


def public_defaults(package):
    """Every defaulted parameter of a public function or method, and every
    defaulted field of a public class, as module.name.parameter."""
    found = []

    def parameters(fn, prefix):
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        found.extend(f"{prefix}.{a.arg}" for a in defaulted)

    def is_default(value):
        # field(...) sets a default only through default or
        # default_factory, and init=False makes it no argument at all.
        if not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"):
            return value is not None
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        return (("default" in keywords or "default_factory" in keywords)
                and not (isinstance(init, ast.Constant)
                         and init.value is False))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, functions):
                parameters(node, f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                prefix = f"{module}.{node.name}"
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)
                            and is_default(item.value)):
                        found.append(f"{prefix}.{item.target.id}")
                    elif isinstance(item, functions) and (
                            not item.name.startswith("_")
                            or item.name == "__init__"):
                        parameters(item, f"{prefix}.{item.name}")
    return sorted(found)


#: Each public default and why it stays: its second caller or the document
#: field it serves.  A default that only one value reaches outside the
#: tests becomes a constant or goes.
PUBLIC_DEFAULTS = {
    "cli.main.argv": "None reads sys.argv; the tests pass argument lists",
    "families.make_gap_toy.segments": "the gap-toy document's segments",
    "families.make_no_money.positions":
        "the single-peaked document's m; the lottery passes none",
    "families.make_single_minded_ca.alpha":
        "the single-minded document's alpha; with_desires passes its own",
    "io.dump_instance_document.payment_rule": "the document's payment_rule",
    "io.parse_fraction.fieldname":
        "a bare rational names 'value'; document fields name themselves",
    "io.write_instance.payment_rule": "the document's payment_rule",
    "io.write_report_files.stem":
        "report files; write_witness_file writes the witness stem",
    "model.Family.extra": "the families whose documents carry extra fields",
    "model.Family.m": "the families with a fixed item count",
    "model.Family.max_n": "the families with a bidder cap",
    "model.Family.max_m": "the families with an item cap",
    "model.Family.max_segments": "gap-toy's segments cap",
    "model.FamilySpec.beta": "the case-b document's beta; others keep 1",
    "model.FamilySpec.curve": "gap-toy's curve; linear families have none",
    "relaxation.AlphaAudit.counterexample": "None on a passing audit",
    "verify.check_obliviousness.rounder":
        "the negative controls pass adversarial_rounder",
    "verify.check_truthfulness.include_bundle_misreports":
        "bench/tests/test_ops.py turns bundle misreports off",
    "verify.check_truthfulness.payment_rule":
        "the CLI passes first_price_payments for first-price documents",
}


def test_every_public_default_has_a_listed_reason():
    """No unlisted default and no stale entry: a new knob needs a second
    caller, and a removed one leaves the list."""
    found = set(public_defaults(Path(relaxation.__file__).parent))
    listed = set(PUBLIC_DEFAULTS)
    assert (sorted(found - listed), sorted(listed - found)) == ([], [])


def test_a_planted_knob_is_found(tmp_path):
    (tmp_path / "planted.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "def f(x, knob=1):\n    return x\n\n"
        "def _private(x, knob=1):\n    return x\n\n"
        "@dataclass\nclass Record:\n    kept: int\n    knob: int = 0\n"
        "    memo: dict = field(default_factory=dict, init=False)\n"
        "    made: list = field(default_factory=list)\n"
        "    load: int = field(compare=False)\n\n"
        "    def method(self, *, flag=None):\n        return flag\n")
    assert public_defaults(tmp_path) == [
        "planted.Record.knob", "planted.Record.made",
        "planted.Record.method.flag", "planted.f.knob"]


def assert_statements(package):
    """Every ``assert`` statement in the package's modules, as file:line."""
    return [f"{path.relative_to(package)}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)]


def test_no_guard_under_src_is_a_bare_assert():
    """``python -O`` strips assert statements, so guards must raise."""
    assert assert_statements(Path(relaxation.__file__).parent) == []


def test_a_planted_assert_is_found(tmp_path):
    (tmp_path / "planted.py").write_text(
        'def f(x):\n    if x:\n        assert x > 0, "positive"\n')
    assert assert_statements(tmp_path) == ["planted.py:3"]

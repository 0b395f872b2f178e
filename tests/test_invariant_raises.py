"""Internal guards raise InvariantError, which `python -O` does not strip.

Each test reaches one guard through a hand-built object or a monkeypatch;
no valid instance built by a family constructor can trip them.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from relaxround import (FamilySpec, FractionalPoint, Instance,
                        InvariantError, brute_force_opt, build_relaxation,
                        make_gap_toy, make_no_money, make_single_item,
                        profile_for)
from relaxround import families, relaxation, verify
from relaxround.mechanism import keep_probabilities

ONE = F(1)


def curved_objective():
    instance = make_gap_toy(2, 1)
    objective, _ = build_relaxation(instance, profile_for(instance,
                                                          [F(3), F(2)]))
    return objective


def without_curves(objective):
    # Frozen dataclass: strip the curves behind the constructor's back.
    object.__setattr__(objective, "curves", None)
    return objective


def test_brute_force_opt_with_an_empty_feasible_set(monkeypatch):
    instance = make_single_item(2)
    monkeypatch.setattr(verify, "enumerate_feasible", lambda inst: [])
    with pytest.raises(InvariantError, match="feasible set is empty"):
        brute_force_opt(instance, profile_for(instance, [F(5), F(3)]))


def test_evaluate_on_a_curved_objective_without_curves():
    objective = without_curves(curved_objective())
    with pytest.raises(InvariantError, match="carry curves"):
        objective.evaluate((ONE, ONE))


def test_bundle_value_of_an_ownerless_variable():
    instance = make_no_money(2, "single_peaked", positions=3)
    profile = profile_for(instance, [F(0), F(2)])
    with pytest.raises(InvariantError, match="no owner"):
        relaxation._bundle_value(profile, instance, 0)


def test_segment_columns_of_a_linear_objective():
    instance = make_single_item(2)
    objective, _ = build_relaxation(instance, profile_for(instance,
                                                          [F(5), F(3)]))
    with pytest.raises(InvariantError, match="curved objective"):
        relaxation._segment_columns(objective)


def test_residual_objective_of_a_curved_objective_without_curves():
    objective = without_curves(curved_objective())
    with pytest.raises(InvariantError, match="carry curves"):
        relaxation.residual_objective(objective, 0)


def test_curve_ratio_keep_with_an_ownerless_variable():
    spec = FamilySpec(alpha=ONE, decomposition_scale=ONE, rounding_case="c",
                      curve=families.unit_gap_curve(2))
    variables = tuple((None, frozenset({p})) for p in range(2))
    instance = Instance(families.SINGLE_PEAKED, 2, 2, variables, spec)
    with pytest.raises(InvariantError, match="owner"):
        keep_probabilities(instance, FractionalPoint((ONE, ONE)))


def test_no_guard_under_src_is_a_bare_assert():
    """``python -O`` strips assert statements, so guards must raise."""
    package = Path(relaxation.__file__).parent
    found = [f"{path.relative_to(package)}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


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

"""Internal guards raise InvariantError, which `python -O` does not strip.

Each test reaches one guard through a hand-built object or a monkeypatch;
no valid instance built by a family constructor can trip them.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from relaxround import (Allocation, AllocationDistribution, FamilySpec,
                        Instance, InvariantError, brute_force_opt,
                        build_relaxation, distributional_range, make_gap_toy,
                        make_no_money, make_single_item, profile_for,
                        range_contains)
from relaxround import families, relaxation, verify

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


def curveless_gap_toy():
    spec = FamilySpec(tag="gap-toy", alpha=ONE, decomposition_scale=ONE,
                      rounding_case="c")
    variables = tuple((i, frozenset({0})) for i in range(2))
    return Instance("gap-toy", 2, 1, variables, spec)


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


def test_build_relaxation_for_a_curved_family_without_a_curve():
    instance = curveless_gap_toy()
    with pytest.raises(InvariantError, match="declares no curve"):
        build_relaxation(instance, profile_for(instance, [F(3), F(2)]))


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


def test_curve_ratio_keep_without_a_curve():
    with pytest.raises(InvariantError, match="needs a curve"):
        families._curve_ratio_keep(curveless_gap_toy(), (ONE, ONE))


def test_curve_ratio_keep_with_an_ownerless_variable():
    spec = FamilySpec(tag="single-peaked", alpha=ONE, decomposition_scale=ONE,
                      rounding_case="c",
                      curve=families.unit_gap_curve(2).points)
    variables = tuple((None, frozenset({p})) for p in range(2))
    instance = Instance("single-peaked", 2, 2, variables, spec)
    with pytest.raises(InvariantError, match="owner"):
        families._curve_ratio_keep(instance, (ONE, ONE))


def test_range_contains_case_a_without_a_curve():
    descriptor = distributional_range(make_gap_toy(2, 1))
    instance = curveless_gap_toy()
    dist = AllocationDistribution.from_pairs([(Allocation.empty(2), ONE)])
    with pytest.raises(InvariantError, match="curve"):
        range_contains(descriptor, instance, dist)


def test_no_guard_under_src_is_a_bare_assert():
    """``python -O`` strips assert statements, so guards must raise."""
    package = Path(relaxation.__file__).parent
    found = [f"{path.relative_to(package)}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

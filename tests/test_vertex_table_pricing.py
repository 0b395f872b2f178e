"""Clarke pivots priced from the audited vertex table.

A single-minded constructor audits every vertex of the packing polytope P
and keeps them in ``Instance.vertex_lotteries``.  A linear L peaks at a
vertex, so ``residual_maxima`` takes max L^{-k} as the best vertex of that
table instead of solving an LP.  Properties, on random single-minded
instances with at most four items and four bidders:

- the table's max L^{-k} equals a cold solve of ``residual_objective``;
- a refill of P (``relaxation._maximize``, water-filled or by the
  simplex) is never entered.

The pricing reads only L, x* and L(x*), so an x* taken from the table
itself, with no simplex run, is priced the same way.

Two negative controls: removing the optimal vertex from the table makes
the scan's re-check of max L against the recorded value raise, and an
optimal x* that is not a vertex is refused.  An instance without a table
refills P instead; ``tests/test_vertex_lotteries.py`` compares ``run`` on
both.
"""

from dataclasses import replace
from fractions import Fraction as F
from functools import cache
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import (InvariantError, RelaxedOptimum, build_relaxation,
                        make_single_minded_ca, profile_for, residual_maxima,
                        residual_objective, solve_relaxation)
from relaxround import relaxation

EXAMPLES = settings(max_examples=100, deadline=2000, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@cache
def shape(m, masks):
    return make_single_minded_ca(
        m, [{j for j in range(m) if mask >> j & 1} for mask in masks])


@st.composite
def markets(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    instance = shape(m, tuple(draw(st.integers(1, 2 ** m - 1))
                              for _ in range(n)))
    bids = [F(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
            for _ in range(n)]
    return instance, profile_for(instance, bids)


def cold_maximum(objective, poly, k):
    residual = residual_objective(objective, k)
    return residual.evaluate(solve_relaxation(residual, poly).coords)


def no_refill(costs, scale, layout, unique=True):
    raise AssertionError("a tabled instance entered a refill of P")


@EXAMPLES
@given(markets())
def test_table_maximum_equals_a_cold_residual_solve(market):
    instance, profile = market
    objective, poly = build_relaxation(instance, profile)
    final = solve_relaxation(objective, poly)
    cold = tuple(cold_maximum(objective, poly, k) for k in range(instance.n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relaxation, "_maximize", no_refill)
        assert residual_maxima(instance, final) == cold


@EXAMPLES
@given(markets())
def test_a_table_argmax_is_priced_without_a_tableau(market):
    instance, profile = market
    objective, poly = build_relaxation(instance, profile)
    x = max(instance.vertex_lotteries, key=objective.evaluate)
    optimum = RelaxedOptimum(objective, x, objective.evaluate(x))
    cold = tuple(cold_maximum(objective, poly, k) for k in range(instance.n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relaxation, "_maximize", no_refill)
        assert residual_maxima(instance, optimum) == cold


def test_an_optimal_point_off_the_vertices_is_refused():
    """Two bidders tie for one item, so (1/2, 1/2) is optimal, and the
    table's max L equals its value; only the vertex check can refuse it."""
    instance = make_single_minded_ca(1, [{0}, {0}])
    objective, _ = build_relaxation(instance,
                                    profile_for(instance, [F(2), F(2)]))
    half = (F(1, 2), F(1, 2))
    optimum = RelaxedOptimum(objective, half, objective.evaluate(half))
    assert optimum.value == 2
    with pytest.raises(InvariantError, match="is not a vertex"):
        residual_maxima(instance, optimum)


@pytest.fixture
def market():
    """x* = (1, 0, 0) is the unique optimum, L = 3; the next best vertex,
    (1/2, 1/2, 1/2), gives 5/2."""
    instance = make_single_minded_ca(3, [{0, 1}, {1, 2}, {0, 2}])
    objective, poly = build_relaxation(
        instance, profile_for(instance, [F(3), F(2), F(0)]))
    final = solve_relaxation(objective, poly)
    assert final.coords == (1, 0, 0) and final.value == 3
    return instance, objective, poly, final


def with_table(instance, table):
    copy = replace(instance)
    copy.derived["vertex_lotteries"] = MappingProxyType(table)
    return copy


def test_rows_are_the_vertices_over_one_denominator(market):
    instance, objective, poly, final = market
    residual_maxima(instance, final)
    table = instance.derived["vertex_rows"]
    scale, rows = table
    assert [tuple(F(x, scale) for x in row) for row in rows] == \
        list(instance.vertex_lotteries)
    residual_maxima(instance, final)
    assert instance.derived["vertex_rows"] is table


def test_a_table_missing_the_optimal_vertex_raises(market):
    instance, objective, poly, final = market
    table = dict(instance.vertex_lotteries)
    full = with_table(instance, table)
    assert residual_maxima(full, final)[0] == cold_maximum(objective, poly, 0)
    del table[final.coords]
    pruned = with_table(instance, table)
    with pytest.raises(InvariantError, match="vertex table's max L is 5/2"):
        residual_maxima(pruned, final)


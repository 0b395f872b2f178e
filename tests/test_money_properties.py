"""The mechanism's guarantees on random small instances of every money family.

Single-item, case-b, single-minded and gap-toy instances of at most three
bidders, with random bids.  Each instance shape is built once, so the
examples pay for runs, not for construction audits.  Properties:

- calibration: E[f(X')] = g * L(x*), where g is the relax-and-round
  factor: a linear L decomposes alpha * x* and keeps each bidder with
  probability beta, so g = alpha * beta; a concave L decomposes x* and
  thins onto L, so g = 1;
- the utility identity E[u_k] = g * (L(x*) - max L^{-k}), the residual
  maximum from a cold solve;
- every entry of ``residual_maxima``, a loser's included, equals that cold
  solve;
- individual rationality: 0 <= p_k <= E[v_k];
- the ratio floor E[f(X')] >= alpha * beta * OPT.

The negative controls show that first-price payments break the utility
identity, a decomposition at half the scale breaks the calibration, and
residual costs that zero nobody's columns, or the wrong bidder's, break
the residual maxima.
"""

from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import (FamilySpec, allocate, brute_force_opt,
                        build_relaxation, expected_value_per_bidder,
                        expected_welfare, first_price_payments,
                        make_case_b_family, make_gap_toy, make_single_item,
                        make_single_minded_ca, profile_for, residual_maxima,
                        residual_objective, run, solve_relaxation)
from relaxround import relaxation

ONE = F(1)

EXAMPLES = settings(max_examples=100, deadline=2000, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

CONSTRUCTORS = {
    "single-item": make_single_item,
    "case-b": make_case_b_family,
    "single-minded-ca": lambda m, masks: make_single_minded_ca(
        m, [{j for j in range(m) if mask >> j & 1} for mask in masks]),
    "gap-toy": make_gap_toy,
}


@cache
def shape(family, *args):
    return CONSTRUCTORS[family](*args)


@st.composite
def shapes(draw):
    family = draw(st.sampled_from(sorted(CONSTRUCTORS)))
    n = draw(st.integers(1, 3))
    if family == "single-item":
        return family, n
    if family == "case-b":
        return family, n, draw(st.sampled_from((F(1, 3), F(1, 2), ONE)))
    if family == "single-minded-ca":
        m = draw(st.integers(1, 3))
        return family, m, tuple(draw(st.integers(1, 2 ** m - 1))
                                for _ in range(n))
    # One machine puts every bidder in one block of P; n machines isolate
    # every bidder; in between, some bidders share a machine.
    machines = draw(st.integers(1, 3))
    return family, n, machines, draw(st.sampled_from((1, 2, 4)))


@st.composite
def markets(draw):
    instance = shape(*draw(shapes()))
    bids = [F(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
            for _ in range(instance.n)]
    return instance, profile_for(instance, bids)


def framework_calibration(spec):
    return ONE if spec.curve is not None else spec.alpha * spec.beta


def calibrated(instance, profile):
    outcome = run(instance, profile, seed=0)
    gamma = framework_calibration(instance.spec)
    return (expected_welfare(outcome.distribution, profile)
            == gamma * outcome.relaxed_value)


def cold_residual_maxima(instance, profile):
    """max L^{-k} for every bidder k, each from a cold solve."""
    objective, poly = build_relaxation(instance, profile)
    maxima = []
    for k in range(instance.n):
        residual = residual_objective(objective, k)
        maxima.append(residual.evaluate(
            solve_relaxation(residual, poly).coords))
    return tuple(maxima)


def utility_identity(instance, profile, payment_rule=None):
    """E[v_k] - p_k = g * (L(x*) - max L^{-k}) for every bidder k."""
    outcome = run(instance, profile, seed=0)
    dist = outcome.distribution
    pay = (outcome.expected_payments if payment_rule is None
           else payment_rule(instance, profile, dist))
    values = expected_value_per_bidder(dist, profile)
    gamma = framework_calibration(instance.spec)
    return all(value - paid == gamma * (outcome.relaxed_value - ceiling)
               for value, paid, ceiling in zip(
                   values, pay, cold_residual_maxima(instance, profile)))


@EXAMPLES
@given(markets())
def test_expected_welfare_is_the_calibrated_relaxed_value(market):
    instance, profile = market
    assert instance.spec.calibration == framework_calibration(instance.spec)
    assert calibrated(instance, profile)


@EXAMPLES
@given(markets())
def test_utility_identity_against_a_cold_residual_solve(market):
    assert utility_identity(*market)


@EXAMPLES
@given(markets())
def test_one_solve_prices_every_cold_residual_maximum(market):
    instance, profile = market
    final, _ = allocate(instance, profile)
    assert residual_maxima(instance, final) == cold_residual_maxima(
        instance, profile)


@EXAMPLES
@given(markets())
def test_payments_are_individually_rational(market):
    instance, profile = market
    outcome = run(instance, profile, seed=0)
    values = expected_value_per_bidder(outcome.distribution, profile)
    for pay, value in zip(outcome.expected_payments, values):
        assert 0 <= pay <= value


@EXAMPLES
@given(markets())
def test_expected_welfare_meets_the_ratio_floor(market):
    instance, profile = market
    outcome = run(instance, profile, seed=0)
    _, opt = brute_force_opt(instance, profile)
    spec = instance.spec
    assert (expected_welfare(outcome.distribution, profile)
            >= spec.alpha * spec.beta * opt)


#: One shape per family, with bids under which some bidder wins.
CONTROLS = [
    (("single-item", 2), [F(5), F(3)]),
    (("case-b", 2, F(1, 2)), [F(5), F(3)]),
    (("single-minded-ca", 2, (1, 3)), [F(3), F(5)]),
    (("gap-toy", 2, 1, 2), [F(4), F(3)]),
]


@pytest.mark.parametrize("key, bids", CONTROLS)
def test_first_price_payments_break_the_utility_identity(key, bids):
    instance = shape(*key)
    profile = profile_for(instance, bids)
    assert utility_identity(instance, profile)
    assert not utility_identity(instance, profile, first_price_payments)


@pytest.mark.parametrize("key, bids", CONTROLS)
def test_half_the_decomposition_scale_breaks_the_calibration(key, bids,
                                                             monkeypatch):
    assert calibrated(shape(*key), profile_for(shape(*key), bids))
    monkeypatch.setattr(FamilySpec, "decomposition_scale",
                        property(lambda spec: spec.alpha / 2))
    # A new instance, so its audits and vertex table use the halved scale.
    instance = CONSTRUCTORS[key[0]](*key[1:])
    assert not calibrated(instance, profile_for(instance, bids))


def zeroes_nobody(costs, owners, k):
    return list(costs)


def zeroes_the_next_bidder(costs, owners, k, zeroed=relaxation._zeroed):
    return zeroed(costs, owners, None if k is None
                  else (k + 1) % (max(owners) + 1))


@pytest.mark.parametrize("plant", [zeroes_nobody, zeroes_the_next_bidder])
@pytest.mark.parametrize("key, bids", [
    (("gap-toy", 3, 2, 16), [F(4), F(1), F(4)]),
    # Not (5, 5, 2): bidder 1's bid ties winner 0's, so max L^{-0} = L(x*)
    # = 5 whichever of bidders 1 and 2 keeps its columns, and neither
    # plant shows.
    (("single-item", 3), [F(5), F(3), F(2)]),
])
def test_residual_costs_that_zero_the_wrong_columns_break_the_maxima(
        key, bids, plant, monkeypatch):
    instance = shape(*key)
    profile = profile_for(instance, bids)
    final, _ = allocate(instance, profile)
    cold = cold_residual_maxima(instance, profile)
    assert residual_maxima(instance, final) == cold
    monkeypatch.setattr(relaxation, "_zeroed", plant)
    assert residual_maxima(instance, final) != cold

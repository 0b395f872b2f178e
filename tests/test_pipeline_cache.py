"""The verifier's memo cache solves each miss once and changes no outcome.

A miss records ``allocate``'s lottery and charges what ``run`` charges,
every Clarke pivot calibration * max L^{-k} priced from that miss's own
tableau.  On random single-minded instances every cached payment must
equal a cold ``allocate`` plus ``payments`` and what ``run`` charges.  A
bidder's misreport must leave that bidder's own pivot unchanged; the
sweep relies on no cache for it, it checks it.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import (allocate, check_truthfulness, make_single_minded_ca,
                        payments, profile_for, residual_maxima, run)
from relaxround import relaxation, verify
from relaxround.model import bids

EXAMPLES = settings(deadline=2000, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def single_minded(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    bundle = st.frozensets(st.integers(0, m - 1), min_size=1)
    instance = make_single_minded_ca(m, [draw(bundle) for _ in range(n)])
    bids = [F(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
            for _ in range(n)]
    return instance, profile_for(instance, bids)


@settings(EXAMPLES, max_examples=100)
@given(single_minded())
def test_cached_outcome_equals_the_cold_pipeline(case):
    instance, profile = case
    cache = verify._PipelineCache(None)
    _, dist = allocate(instance, profile)
    assert cache.outcome(instance, profile).dist == dist
    assert cache.outcome(instance, profile).charged == payments(
        instance, profile, dist)
    outcome = run(instance, profile, seed=0)
    assert cache.outcome(instance, profile).dist == outcome.distribution
    assert cache.outcome(instance, profile).charged == (
        outcome.expected_payments)


@settings(EXAMPLES, max_examples=400)
@given(single_minded(), st.data())
def test_a_misreport_leaves_the_bidders_own_pivot_unchanged(case, data):
    instance, profile = case
    k = data.draw(st.integers(0, instance.n - 1))
    bundle = data.draw(st.one_of(st.none(), st.frozensets(
        st.integers(0, instance.m - 1), min_size=1)))
    value = F(data.draw(st.integers(0, 12)), data.draw(st.integers(1, 4)))
    scalars = bids(instance, profile)
    rep_instance, rep_profile = verify._reported(
        instance, profile, scalars, k, verify._Misreport(value, bundle), {},
        {})
    truth, _ = allocate(instance, profile)
    lied, _ = allocate(rep_instance, rep_profile)
    assert (residual_maxima(instance, truth)[k]
            == residual_maxima(rep_instance, lied)[k])


def test_a_miss_solves_one_lp_and_a_hit_none(monkeypatch):
    instance = make_single_minded_ca(3, [{0, 1}, {1, 2}, {2}])
    profile = profile_for(instance, [F(3), F(2), F(5, 2)])
    solves = []
    cold = relaxation.maximize_linear

    def counting(*args, **kwargs):
        solves.append(args)
        return cold(*args, **kwargs)

    monkeypatch.setattr(relaxation, "maximize_linear", counting)
    cache = verify._PipelineCache(None)
    first = cache.outcome(instance, profile)
    assert len(solves) == 1
    assert cache.outcome(instance, profile) is first
    assert len(solves) == 1


def test_the_instance_itself_serves_its_own_desires(monkeypatch):
    """Only misreported packages other than the true ones are rebuilt."""
    instance = make_single_minded_ca(3, [{0, 1}, {1, 2}])
    own = tuple(b for _, b in instance.variable_index)
    rebuilt = []

    def counting(inst, desires):
        rebuilt.append(tuple(desires))
        return make_single_minded_ca(inst.m, desires, inst.spec.alpha)

    monkeypatch.setattr(verify, "with_desires", counting)
    grid = [F(0), F(1), F(2)]
    report = check_truthfulness(instance, grid, grid)
    assert report.passed and report.cases == 9 * 2 * 21
    assert own not in rebuilt
    # Seven packages per bidder, one of them its own: 2 * 6 rebuilds.
    assert len(rebuilt) == len(set(rebuilt)) == 12

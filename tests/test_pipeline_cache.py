"""The verifier's memo cache solves each miss once and changes no outcome.

A miss records ``allocate``'s optimal tableau, and each Clarke pivot
calibration * max L^{-k} is priced from it once per bidder and the others'
reports.  On random single-minded instances every cached payment must
equal a cold ``allocate`` plus ``payments`` and what ``run`` charges, also
when the pivot was priced on another report of the same bidder.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import (allocate, build_relaxation, check_truthfulness,
                        make_single_minded_ca, payments, profile_for,
                        residual_objective, run, solve_relaxation)
from relaxround import relaxation, verify

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


def cached_payments(cache, instance, profile):
    return tuple(cache.payment(instance, profile, k)
                 for k in range(instance.n))


@settings(EXAMPLES, max_examples=100)
@given(single_minded())
def test_cached_outcome_equals_the_cold_pipeline(case):
    instance, profile = case
    cache = verify._PipelineCache(None)
    _, dist = allocate(instance, profile)
    assert cache.outcome(instance, profile).dist == dist
    assert cached_payments(cache, instance, profile) == payments(
        instance, profile, dist)
    outcome = run(instance, profile, seed=0)
    assert cache.outcome(instance, profile).dist == outcome.distribution
    assert cached_payments(cache, instance, profile) == (
        outcome.expected_payments)


def cold_pivot(instance, profile, k):
    """calibration * max L^{-k} from a cold solve of the residual LP."""
    objective, poly = build_relaxation(instance, profile)
    residual = residual_objective(objective, k)
    best = solve_relaxation(residual, poly)
    return instance.spec.calibration * residual.evaluate(best.coords)


@settings(EXAMPLES, max_examples=400)
@given(single_minded(), st.data())
def test_a_pivot_priced_at_the_truth_serves_a_misreport(case, data):
    instance, profile = case
    k = data.draw(st.integers(0, instance.n - 1))
    bundle = data.draw(st.frozensets(st.integers(0, instance.m - 1),
                                     min_size=1))
    value = F(data.draw(st.integers(0, 12)), data.draw(st.integers(1, 4)))
    rep_instance, rep_profile = verify._reported(
        instance, profile, k, verify._Misreport(value, bundle), {})
    cache = verify._PipelineCache(None)
    cache.payment(instance, profile, k)
    _, dist = allocate(rep_instance, rep_profile)
    assert cache.payment(rep_instance, rep_profile, k) == payments(
        rep_instance, rep_profile, dist)[k]
    assert len(cache._pivots) == 1
    assert cold_pivot(instance, profile, k) == cold_pivot(
        rep_instance, rep_profile, k)


class ByBidderOnly(verify._PipelineCache):
    """Negative control: a pivot keyed by the bidder alone goes stale."""

    def _pivot_key(self, instance, profile, k):
        return k


def test_a_pivot_keyed_by_the_bidder_alone_disagrees_with_the_cold_pipeline():
    instance = make_single_minded_ca(2, [{0}, {0, 1}])
    first, second = (profile_for(instance, [F(3), bid])
                     for bid in (F(2), F(5)))
    for cache_type, agrees in ((verify._PipelineCache, True),
                               (ByBidderOnly, False)):
        cache = cache_type(None)
        cache.payment(instance, first, 0)
        _, dist = allocate(instance, second)
        cold = payments(instance, second, dist)[0]
        assert (cache.payment(instance, second, 0) == cold) is agrees


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

"""The water-fill: one-row blocks maximized by a certified greedy.

``lp.water_fill`` fills each one-row block of a polytope by falling cost,
and ``lp.certify_fill`` checks the fill with one dual price per block.
``relaxation._maximize`` takes the fill's x* only on a strict certificate,
which proves it the vertex Bland's rule ends on: the only optimum on each
block, or zero on a block whose costs are all zero; a refill of P for a
Clarke pivot takes the value on any certificate.  Here:

- which polytopes are one row, read from their rows alone;
- equivalence with the simplex on seeded profiles of every money family
  whose polytope is one row, each showing acceptances and fallbacks where
  bids can tie, on seeded profiles with many zero bids, and on random
  one-row LPs;
- negative controls: a greedy that breaks a marginal tie the other way is
  never taken for x*, a wrong fill raises, and a refill at a marginal
  tie is taken for its value;
- the guards the greedy relies on, each with a test that fails without
  it.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from functools import cache

import pytest

from relaxround import (InvariantError, LPInputError, PiecewiseCurve,
                        Polytope, build_polytope, build_relaxation,
                        convex_decompose, make_case_b_family, make_gap_toy,
                        make_single_item, make_single_minded_ca,
                        profile_for, residual_maxima, residual_objective,
                        solve_relaxation)
from relaxround import lp, relaxation
from relaxround.lp import FractionalPoint

ZERO = F(0)
ONE = F(1)


@cache
def run_ca_market():
    """bench/workloads.py's run-ca market: 4 items, 6 single-minded
    bidders."""
    return make_single_minded_ca(4, [{0}, {1, 2}, {0, 3}, {2, 3}, {1}, {3}])


def simplex(objective, poly):
    """A cold ``maximize_linear`` of L's Fraction costs on its layout."""
    costs = list(objective.coeffs) if objective.is_linear else [
        coeff * slope for coeff, curve in zip(objective.coeffs,
                                              objective.curves)
        for _, slope in curve.segments()]
    return lp.maximize_linear(costs, poly,
                              relaxation._layout(objective, poly).columns)


def certified(objective, poly):
    """The water-fill of (L, P) and its certificate's verdict."""
    costs, _ = relaxation._integer_costs(objective)
    layout = relaxation._layout(objective, poly)
    fill = lp.water_fill(costs, layout)
    return fill, lp.certify_fill(costs, layout, fill)


def refill_costs(objective, poly, k):
    """L^{-k}'s integer costs as ``residual_maxima`` hands them to
    ``_maximize``: L's, with bidder k's columns zeroed."""
    costs, _ = relaxation._integer_costs(objective)
    var, _ = relaxation._layout(objective, poly).columns
    return relaxation._zeroed(costs, [objective.owners[v] for v in var], k)


class TestOneRow:
    @pytest.mark.parametrize("build", [
        lambda: make_gap_toy(2, 1),
        lambda: make_gap_toy(3, 2),
        lambda: make_gap_toy(4, 2),
        lambda: make_gap_toy(4, 64, 32),
        lambda: make_single_item(3),
        lambda: make_case_b_family(3, F(1, 2)),
        lambda: make_single_minded_ca(3, [{0, 1}, {1, 2}]),
        lambda: make_single_minded_ca(2, [{0}, {1}]),
    ])
    def test_family_polytopes_that_are_one_row(self, build):
        assert build_polytope(build())._one_row is not None

    def test_the_run_ca_market_is_not(self):
        instance = run_ca_market()
        assert build_polytope(instance)._one_row is None

    @pytest.mark.parametrize("rows, bounds", [
        # x0 + x1 <= 1 implies x0 <= 1 and x1 <= 2.
        ([((ONE, ONE), ONE), ((ONE, ZERO), ONE), ((ZERO, ONE), F(2))],
         (ONE,)),
        # Two covering rows: the smaller bound is R's.
        ([((ONE, ONE), F(3)), ((ONE, ONE), F(2))], (F(2),)),
        # Two blocks, one row each.
        ([((ONE, ZERO), F(1, 2)), ((ZERO, ONE), F(3))], (F(1, 2), F(3))),
        # A row below R's bound is not implied by R.
        ([((ONE, ONE), ONE), ((ONE, ZERO), F(1, 2))], None),
        # Nor is a row with a coefficient other than 1.
        ([((ONE, ONE), ONE), ((F(2), ZERO), F(5))], None),
        ([((F(2), F(2)), ONE)], None),
        # No row covers the block.
        ([((ONE, ONE, ZERO), ONE), ((ZERO, ONE, ONE), ONE)], None),
        # A variable in no row is unbounded.
        ([((ONE, ZERO), ONE)], None),
    ])
    def test_read_from_the_rows_alone(self, rows, bounds):
        assert Polytope(len(rows[0][0]), tuple(rows))._one_row == bounds

    def test_every_run_ca_solve_reaches_the_simplex(self, monkeypatch):
        instance = run_ca_market()
        shipped, solved = relaxation.maximize_linear, []

        def counting(*args):
            solved.append(args)
            return shipped(*args)

        monkeypatch.setattr(relaxation, "maximize_linear", counting)
        rng = random.Random(5)
        for count in range(1, 21):
            bids = [F(rng.randint(0, 20), rng.randint(1, 6))
                    for _ in range(6)]
            solve_relaxation(*build_relaxation(instance,
                                               profile_for(instance, bids)))
            assert len(solved) == count


#: (instance, bid choices): small choices, so that ties and zero bids
#: come up in every family.
FAMILIES = {
    "gap-toy 2x1": (lambda: make_gap_toy(2, 1),
                    [ZERO, ONE, F(3), F(11, 7), F(5, 2)]),
    "gap-toy 3x2": (lambda: make_gap_toy(3, 2),
                    [ZERO, ONE, F(3), F(11, 7)]),
    "gap-toy 4x2": (lambda: make_gap_toy(4, 2),
                    [ZERO, ONE, F(3), F(11, 7), F(5, 2)]),
    "gap-toy 4x64, 32 segments": (lambda: make_gap_toy(4, 64, 32),
                                  [ZERO, ONE, F(7, 3), F(5, 2)]),
    "single-item n=3": (lambda: make_single_item(3),
                        [ZERO, ONE, F(2), F(5, 2)]),
    "case-b n=3": (lambda: make_case_b_family(3, F(1, 2)),
                   [ZERO, ONE, F(2), F(5, 2)]),
    "single-minded n=2": (lambda: make_single_minded_ca(3, [{0, 1}, {1, 2}]),
                          [ZERO, ONE, F(2), F(5, 2)]),
}
#: Every bidder is alone on its machine, so no two positive costs share a
#: block and no fill ties: every certificate is strict, a block of zero
#: bids pinned at zero.
ALONE = {"gap-toy 4x64, 32 segments"}


@pytest.mark.parametrize("family", FAMILIES)
def test_certified_fills_equal_the_simplex(family):
    """Every strictly certified x* is the simplex's folded vertex; every
    winner's refill of P, ties included, is worth a cold solve of
    residual_objective(L, k); and solve_relaxation and residual_maxima
    agree with the cold solves whichever path they take."""
    build, choices = FAMILIES[family]
    instance = build()
    rng = random.Random(family)
    verdicts = {True: 0, False: 0}
    for _ in range(24):
        profile = profile_for(instance, [rng.choice(choices)
                                         for _ in range(instance.n)])
        objective, poly = build_relaxation(instance, profile)
        fill, strict = certified(objective, poly)
        cold = simplex(objective, poly)
        assert strict is not None
        verdicts[strict] += 1
        if strict:
            assert fill.coords == cold.coords
        scale = relaxation._integer_costs(objective)[1]
        assert fill.value / scale == cold.value
        optimum = solve_relaxation(objective, poly)
        assert optimum.coords == cold.coords
        assert optimum.value == cold.value
        layout = relaxation._layout(objective, poly)
        for k in {objective.owners[v] for v, x in enumerate(optimum.coords)
                  if x}:
            refill = relaxation._maximize(refill_costs(objective, poly, k),
                                          scale, layout, False)
            assert refill[1] == simplex(residual_objective(objective, k),
                                        poly).value
        assert residual_maxima(instance, optimum) == tuple(
            residual.evaluate(simplex(residual, poly).coords)
            for residual in (residual_objective(objective, k)
                             for k in range(instance.n)))
    if family in ALONE:
        assert not verdicts[False], verdicts
    else:
        assert verdicts[True] and verdicts[False], verdicts


#: Polytopes of one row, each with blocks that zero bids leave all zero.
ZERO_BID_FAMILIES = {
    "gap-toy 2x1": lambda: make_gap_toy(2, 1),
    "gap-toy 3x1": lambda: make_gap_toy(3, 1),
    "gap-toy 3x2": lambda: make_gap_toy(3, 2),
    "gap-toy 4x2": lambda: make_gap_toy(4, 2),
    "single-item n=3": lambda: make_single_item(3),
    "case-b n=3": lambda: make_case_b_family(3, F(1, 2)),
    "single-minded, overlapping": lambda: make_single_minded_ca(
        3, [{0, 1}, {1, 2}]),
    "single-minded, disjoint": lambda: make_single_minded_ca(2, [{0}, {1}]),
}


@pytest.mark.parametrize("family", ZERO_BID_FAMILIES)
def test_strict_fills_with_zero_bids_are_the_simplex_optimum(family):
    """About a quarter of the bids are 0.  Every strict fill, those with a
    block whose costs are all zero among them, is the simplex's folded x*
    with its value."""
    instance = ZERO_BID_FAMILIES[family]()
    rng = random.Random(family)
    pinned = 0
    for _ in range(200):
        bids = [ZERO if rng.random() < 0.25
                else F(rng.randint(1, 12), rng.randint(1, 4))
                for _ in range(instance.n)]
        objective, poly = build_relaxation(instance,
                                           profile_for(instance, bids))
        fill, strict = certified(objective, poly)
        assert strict is not None
        if not strict:
            continue
        costs, scale = relaxation._integer_costs(objective)
        cold = simplex(objective, poly)
        assert fill.coords == cold.coords
        assert fill.value / scale == cold.value
        pinned += any(not any(costs[c] for c in group) for _, group in
                      relaxation._layout(objective, poly).blocks)
    assert pinned, family


#: One block, x0 + x1 <= 1, with three LP columns: two of x0 capped at
#: 1/2 and one of x1 capped at 1.  Values are in units of 1/4.
ROW = Polytope(2, (((ONE, ONE), ONE),))
COLUMNS = ([0, 0, 1], [F(1, 2), F(1, 2), ONE])
LAYOUT = lp.column_layout(ROW, COLUMNS)


class TestCertificate:
    @pytest.mark.parametrize("costs, units, verdict", [
        # The greedy's fill: lam = 2, and every other column is pinned.
        ([3, 1, 2], (2, 0, 2), True),
        # A column at cap, or one at zero, with the partial column's cost.
        ([2, 1, 2], (2, 0, 2), False),
        ([3, 2, 2], (2, 0, 2), False),
        # Two columns strictly between at one cost, and at two costs.
        ([2, 1, 2], (1, 0, 3), False),
        ([3, 1, 2], (1, 0, 3), None),
        # A slack row: lam = 0, so no column between is pinned, and a
        # column at zero with a positive cost is left out.
        ([-1, -1, 0], (0, 0, 2), False),
        ([3, 1, 2], (2, 0, 0), None),
        # A column between while the row is slack, and a negative price.
        ([3, 1, 2], (2, 0, 1), None),
        ([0, -1, -1], (2, 0, 2), None),
        # A column at zero dearer than the partial one, and one at cap
        # cheaper.
        ([3, 2, 2], (0, 2, 2), None),
        ([1, 0, 2], (2, 0, 2), None),
        # Infeasible: past the row, past a cap, below zero.
        ([0, 0, 0], (2, 2, 2), None),
        ([1, 1, 1], (3, 0, 1), None),
        ([2, 2, 2], (2, -1, 3), None),
        # Tight with no column between: lam lies midway between the
        # costs at zero (and 0) and those at cap.
        ([2, 1, 0], (2, 2, 0), True),
        ([1, 2, 0], (2, 2, 0), True),
        ([1, 0, 0], (2, 2, 0), False),
        ([3, 0, 4], (2, 2, 0), None),
        ([1, 1, -4], (2, 2, 0), True),
        # A block whose costs are all zero is pinned at zero, and only
        # there: with a unit set it only holds, and positive costs at
        # zero fail.
        ([0, 0, 0], (0, 0, 0), True),
        ([0, 0, 0], (0, 0, 2), False),
        ([3, 1, 2], (0, 0, 0), None),
    ])
    def test_verdicts(self, costs, units, verdict):
        fill = lp.Fill(units, 4, (), ZERO)
        assert lp.certify_fill(costs, LAYOUT, fill) is verdict

    def test_a_column_capped_at_zero_is_fixed(self):
        fill = lp.Fill((0, 4), 4, (), ZERO)
        layout = lp.column_layout(ROW, ([0, 1], [ZERO, ONE]))
        assert lp.certify_fill([5, 1], layout, fill) is True

    def test_a_polytope_that_is_not_one_row_is_refused(self):
        layout = lp.column_layout(Polytope(2, (((ONE, ZERO), ONE),)), None)
        with pytest.raises(LPInputError, match="not one row"):
            lp.water_fill([1, 1], layout)
        with pytest.raises(LPInputError, match="not one row"):
            lp.certify_fill([1, 1], layout, lp.Fill((0, 0), 1, (), ZERO))

    def test_a_fill_needs_one_value_per_column(self):
        with pytest.raises(LPInputError, match="one value per LP column"):
            lp.certify_fill([3, 1, 2], LAYOUT, lp.Fill((0, 0), 4, (), ZERO))
        with pytest.raises(LPInputError, match="one cost per LP column"):
            lp.water_fill([3, 1], LAYOUT)

    def test_a_row_fixed_at_zero_is_strict(self):
        layout = lp.column_layout(Polytope(2, (((ONE, ONE), ZERO),)),
                                  COLUMNS)
        fill = lp.water_fill([3, 1, 2], layout)
        assert fill.units == (0, 0, 0)
        assert lp.certify_fill([3, 1, 2], layout, fill) is True

    def test_the_greedy_fill_is_the_strict_one(self):
        fill = lp.water_fill([3, 1, 2], LAYOUT)
        assert (fill.units, fill.scale) == ((1, 0, 1), 2)
        assert fill.coords == (F(1, 2), F(1, 2))
        assert fill.value == F(5, 2)


def random_one_row_lp(rng):
    """A random one-row polytope with capped and uncapped LP columns whose
    costs tie often, some of them zero or negative."""
    n = rng.randint(1, 5)
    order = list(range(n))
    rng.shuffle(order)
    rows = []
    while order:
        block = order[:rng.randint(1, len(order))]
        del order[:len(block)]
        bound = F(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2]))
        support = [block] + [rng.sample(block, rng.randint(1, len(block)))
                             for _ in range(rng.randint(0, 2))]
        for i, part in enumerate(support):
            rows.append((tuple(ONE if v in part else ZERO for v in range(n)),
                         bound if i == 0 else bound + rng.randint(0, 1)))
    rng.shuffle(rows)
    var = [v for v in range(n) for _ in range(rng.randint(1, 3))]
    cap = [rng.choice([None, F(1, 2), F(1, 3), ONE, F(3, 2)]) for _ in var]
    costs = [rng.choice([-1, 0, 1, 2, 2, 3, 5]) for _ in var]
    return Polytope(n, tuple(rows)), costs, (var, cap)


def test_random_one_row_lps_agree_with_the_simplex():
    """The fill is always certified and optimal; where the certificate is
    strict it is the simplex's point, column by column."""
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        poly, costs, columns = random_one_row_lp(rng)
        assert poly._one_row is not None
        layout = lp.column_layout(poly, columns)
        fill = lp.water_fill(costs, layout)
        strict = lp.certify_fill(costs, layout, fill)
        cold = lp.maximize_linear([F(c) for c in costs], poly, columns)
        assert strict is not None
        verdicts[strict] += 1
        assert fill.value == cold.value
        if strict:
            assert fill.coords == cold.coords
            assert [F(y, fill.scale) for y in fill.units] == \
                list(cold.values)
    assert min(verdicts.values()) > 50, verdicts


def higher_index_first(costs, layout):
    """A greedy that breaks cost ties toward the higher LP column."""
    var, cap = layout.columns
    fill = lp.water_fill(costs[::-1], lp.column_layout(
        layout.poly, (list(var)[::-1], list(cap)[::-1])))
    return replace(fill, units=fill.units[::-1])


class TestNegativeControls:
    @pytest.mark.parametrize("instance, bids", [
        # 3 * slope 11 of the unit curve equals 11/7 * slope 2 at the
        # margin: the fill runs out between the two.
        (make_gap_toy(2, 1), [F(3), F(11, 7)]),
        (make_single_item(3), [F(2), F(2), ONE]),
    ])
    def test_a_tie_broken_the_other_way_is_never_taken(self, instance, bids,
                                                       monkeypatch):
        objective, poly = build_relaxation(instance,
                                           profile_for(instance, bids))
        bland = simplex(objective, poly).coords
        costs, _ = relaxation._integer_costs(objective)
        layout = relaxation._layout(objective, poly)
        planted = higher_index_first(costs, layout)
        assert planted.coords != bland
        assert lp.certify_fill(costs, layout, planted) is False
        monkeypatch.setattr(relaxation, "water_fill", higher_index_first)
        assert solve_relaxation(objective, poly).coords == bland

    def test_a_wrong_fill_raises(self, monkeypatch):
        """1/16 moved from the dearest filled segment to the cheapest
        empty one: feasible, the same row total, and not optimal."""
        instance = make_gap_toy(2, 1)
        objective, poly = build_relaxation(
            instance, profile_for(instance, [F(4), ONE]))
        shipped = relaxation.water_fill

        def moved(costs, layout):
            fill = shipped(costs, layout)
            units = list(fill.units)
            high = max((c for c, y in enumerate(units) if y),
                       key=costs.__getitem__)
            low = min((c for c, y in enumerate(units) if not y),
                      key=costs.__getitem__)
            assert costs[high] > costs[low] and fill.scale == 16
            units[high] -= 1
            units[low] += 1
            return replace(fill, units=tuple(units))

        monkeypatch.setattr(relaxation, "water_fill", moved)
        with pytest.raises(InvariantError, match="certificate"):
            solve_relaxation(objective, poly)

    def test_a_refill_at_a_marginal_tie_is_taken_for_its_value(
            self, monkeypatch):
        """Bidder 0's refill of P on gap-toy 3x1 leaves bidders 1 and 2
        under one machine row, where the bids 3 and 11/7 tie at the
        margin."""
        instance = make_gap_toy(3, 1)
        objective, poly = build_relaxation(
            instance, profile_for(instance, [F(5), F(3), F(11, 7)]))
        optimum = solve_relaxation(objective, poly)
        assert optimum.coords[0]
        refill = refill_costs(objective, poly, 0)
        layout = relaxation._layout(objective, poly)
        fill = lp.water_fill(refill, layout)
        assert lp.certify_fill(refill, layout, fill) is False
        cold = simplex(residual_objective(objective, 0), poly).value
        want = tuple(residual.evaluate(simplex(residual, poly).coords)
                     for residual in (residual_objective(objective, k)
                                      for k in range(3)))
        scale = relaxation._integer_costs(objective)[1]
        monkeypatch.setattr(relaxation, "maximize_linear", None)
        assert relaxation._maximize(refill, scale, layout, False)[1] == cold
        assert residual_maxima(instance, optimum) == want


class TestGuards:
    """Guards the greedy relies on; each test fails without its raise."""

    def test_a_curve_with_a_negative_slope_is_refused(self):
        # Concave, so only the slope's sign is wrong: the greedy stops at
        # the first cost <= 0, which is right only for nondecreasing L.
        with pytest.raises(ValueError, match="nondecreasing"):
            PiecewiseCurve(((ZERO, ZERO), (ONE, ONE), (F(2), F(1, 2))))

    @pytest.mark.parametrize("n", [1, 3])
    def test_dimensions_are_checked_before_either_path(self, n):
        # gap-toy 2x1's L over a polytope of n variables, one row each
        # way: the water-fill would take the LP columns as they stand.
        instance = make_gap_toy(2, 1)
        objective, _ = build_relaxation(instance,
                                        profile_for(instance, [F(4), ONE]))
        poly = Polytope(n, ((tuple(ONE for _ in range(n)), ONE),))
        assert poly._one_row is not None
        with pytest.raises(LPInputError, match="dimensions differ"):
            solve_relaxation(objective, poly)

    def test_a_point_outside_the_polytope_is_not_decomposed(self):
        # Bidders 0 and 2 share machine 0.
        instance = make_gap_toy(3, 2)
        with pytest.raises(ValueError, match="outside the family polytope"):
            convex_decompose(FractionalPoint((ONE, ZERO, ONE)), ONE,
                             instance)

"""Exact simplex: optima, membership, feasibility, vertex-enumeration oracle."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import lp
from relaxround import (FractionalPoint, LPInputError, Polytope,
                        UnboundedError, build_relaxation, contains,
                        enumerate_vertices, make_gap_toy,
                        make_single_minded_ca, maximize_linear, phase_one,
                        profile_for, residual_maxima, solve_relaxation)
from relaxround.relaxation import _integer_costs, _layout, _zeroed

ZERO = F(0)
ONE = F(1)


def box(n):
    rows = []
    for i in range(n):
        rows.append((tuple(ONE if j == i else ZERO for j in range(n)), ONE))
    return Polytope(n, tuple(rows))


class TestMaximizeLinear:
    def test_box_maximum(self):
        final = maximize_linear([F(1), F(2)], box(2), None)
        assert final.coords == (F(1), F(1))
        assert final.value == 3

    def test_single_item_lp_highest_coefficient_wins(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        final = maximize_linear([F(5), F(3)], poly, None)
        assert final.coords == (F(1), F(0))
        assert final.value == 5

    def test_zero_objective_stays_at_origin(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        final = maximize_linear([ZERO, ZERO], poly, None)
        assert final.coords == (ZERO, ZERO)
        assert final.value == 0

    def test_tie_breaks_to_lowest_index(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        assert maximize_linear([F(4), F(4)], poly, None).coords == (F(1), F(0))

    def test_unbounded_direction_raises(self):
        poly = Polytope(2, (((ONE, ZERO), ONE),))  # x2 unconstrained
        with pytest.raises(UnboundedError):
            maximize_linear([ZERO, ONE], poly, None)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LPInputError):
            maximize_linear([ONE], box(2), None)

    def test_deterministic_bit_identical(self):
        poly = Polytope(3, (((ONE, ONE, ZERO), ONE), ((ZERO, ONE, ONE), ONE)))
        first, second = (maximize_linear([F(2), F(3), F(2)], poly, None)
                         for _ in range(2))
        assert ((first.rows, first.basis, first.prices)
                == (second.rows, second.basis, second.prices))

    def test_optimum_matches_vertex_enumeration_oracle(self):
        """Exhaustive oracle: the simplex optimum equals the vertex maximum."""
        rng = random.Random(2024)
        for trial in range(25):
            n = rng.randint(2, 4)
            rows = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(0, 3)) for _ in range(n))
                if all(c == 0 for c in coeffs):
                    coeffs = tuple(ONE for _ in range(n))
                rows.append((coeffs, F(rng.randint(1, 5))))
            for i in range(n):  # keep every direction bounded
                rows.append((tuple(ONE if j == i else ZERO for j in range(n)),
                             F(rng.randint(1, 3))))
            poly = Polytope(n, tuple(rows))
            objective = [F(rng.randint(0, 6)) for _ in range(n)]
            final = maximize_linear(objective, poly, None)
            assert contains(poly, FractionalPoint(final.coords))
            oracle = max(sum((c * v for c, v in zip(objective, vert.coords)), ZERO)
                         for vert in enumerate_vertices(poly))
            assert final.value == oracle


class TestColumnMaps:
    def test_capped_columns_share_a_variable(self):
        # Two pieces of one variable, slopes 3 and 1 with caps 1/2 and 1,
        # under x0 <= 1: the steep piece fills first, then the flat one.
        poly = Polytope(1, (((ONE,), ONE),))
        final = maximize_linear([F(3), ONE], poly, ([0, 0], [F(1, 2), ONE]))
        assert final.values == (F(1, 2), F(1, 2))
        assert final.coords == (ONE,)
        assert final.value == F(2)

    @pytest.mark.parametrize("columns", [
        ([0, 2], [ONE, ONE]),          # no variable 2
        ([0, 1], [ONE, F(-1)]),        # negative cap
        ([0, 1], [ONE]),               # a cap missing
    ])
    def test_malformed_column_maps_raise(self, columns):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        with pytest.raises(LPInputError):
            maximize_linear([ONE, ONE], poly, columns)


class TestFreshRows:
    """Pivots and bound flips change a solve's rows in place, which is safe
    only while every solve builds rows of its own."""

    POLY = Polytope(2, (((ONE, ONE), ONE), ((F(2), ONE), F(3, 2))))
    COLUMNS = ([0, 0, 1, 1], [F(1, 3), None, F(1, 4), None])

    def test_solves_share_no_row_and_leave_the_polytope_alone(self):
        constraints = [(list(coeffs), b) for coeffs, b in
                       self.POLY.constraints]
        first = maximize_linear([F(3), ONE, F(2), ONE], self.POLY,
                                self.COLUMNS)
        rows, prices = [list(row) for row in first.rows], list(first.prices)
        second = maximize_linear([ONE, ONE, F(5), F(2)], self.POLY,
                                 self.COLUMNS)
        # Both solves left the slack basis, so both pivoted.
        assert first.basis != [4, 5] and second.basis != [4, 5]
        assert first.rows is not second.rows
        assert first.prices is not second.prices
        assert not ({id(row) for row in first.rows}
                    & {id(row) for row in second.rows})
        assert [(list(coeffs), b) for coeffs, b in
                self.POLY.constraints] == constraints
        # The first tableau, read only after the second solve ran.
        assert first.rows == rows and first.prices == prices
        assert first.values == (F(1, 3), F(1, 6), F(1, 4), F(1, 4))
        assert first.value == F(23, 12)
        assert second.value == F(11, 4)


class TestOneFlipAStep:
    """Every step is one pivot or one bound flip, and the pivots are those
    of Bland's rule on the explicit-cap-row LP."""

    @staticmethod
    def counting(monkeypatch):
        """Patch lp's start, step and pivot; returns ([rows, moving steps]
        per solve, in order, and pivots)."""
        solves, pivots = [], []
        start, step, pivot = lp._slack_start, lp._step, lp._pivot

        def counted_start(width, rows, *args):
            solves.append([rows, 0])
            return start(width, rows, *args)

        def counted_step(t):
            moved = step(t)
            if moved:
                solves[-1][1] += 1
            return moved

        def counted_pivot(*args):
            pivots.append(args[2:4])  # (row, col)
            pivot(*args)

        monkeypatch.setattr(lp, "_slack_start", counted_start)
        monkeypatch.setattr(lp, "_step", counted_step)
        monkeypatch.setattr(lp, "_pivot", counted_pivot)
        return solves, pivots

    def test_a_refill_of_p_flips_one_cap_a_step(self, monkeypatch):
        # Bidders 0 and 2 share machine 0 and both win, so each is priced
        # by a refill of P with its own columns zeroed: the other's 16
        # segments of 1/16 under machine 0's row, and bidder 1's under
        # machine 1's.  ``residual_maxima`` water-fills it; the simplex on
        # the same LP flips fifteen caps under the ratio 1 on each
        # machine, one a step, and the last cap ties it and loses to the
        # row's slack, so it enters by a pivot: 16 steps per machine.
        instance = make_gap_toy(3, 2)
        objective, poly = build_relaxation(
            instance, profile_for(instance, [F(5), F(3), F(4)]))
        final = solve_relaxation(objective, poly)
        assert final.coords[0] and final.coords[2]
        maxima = residual_maxima(instance, final)
        costs, scale = _integer_costs(objective)
        layout = _layout(objective, poly)
        owners = [objective.owners[v] for v in layout.columns[0]]
        solves, pivots = self.counting(monkeypatch)
        for k in (0, 2):
            refill = maximize_linear(_zeroed(costs, owners, k), poly,
                                     layout.columns)
            assert refill.value / scale == maxima[k]
        # 32 steps for each of two solves, both over P's rows.
        assert solves == [[poly.constraints, 32], [poly.constraints, 32]]
        assert len(pivots) == 4

    def test_main_solves_pivot_as_often_as_one_flip_a_step(self,
                                                          monkeypatch):
        # 300 seeded gap-toy 3x2 profiles: Bland's rule pivots 8913 times
        # over them, and its bound flips are steps but no pivots.
        instance = make_gap_toy(3, 2)
        rng = random.Random(19)
        relaxations = [build_relaxation(instance, profile_for(
            instance, [F(rng.randint(0, 20), rng.randint(1, 6))
                       for _ in range(3)])) for _ in range(300)]
        _, pivots = self.counting(monkeypatch)
        for objective, poly in relaxations:
            costs, _ = _integer_costs(objective)
            maximize_linear(costs, poly, _layout(objective, poly).columns)
        assert len(pivots) == 8913


class TestIntegerCosts:
    """``relaxation._maximize`` hands the simplex L's integer costs
    (``_integer_costs``): the Fraction costs times one positive scale.
    Entering reads only the signs of reduced costs and ratios do not read
    costs, so Bland's rule takes the same path and the value is scaled."""

    @staticmethod
    def path(monkeypatch, costs, poly, columns):
        states, step = [], lp._step

        def recording(t):
            moved = step(t)
            states.append((tuple(t.basis), tuple(t.at_cap)))
            return moved

        monkeypatch.setattr(lp, "_step", recording)
        final = maximize_linear(costs, poly, columns)
        monkeypatch.setattr(lp, "_step", step)
        return final, states

    @pytest.mark.parametrize("build", [
        lambda: make_gap_toy(3, 2),
        lambda: make_gap_toy(4, 2),
        lambda: make_single_minded_ca(4, [{0}, {1, 2}, {0, 3}, {2, 3},
                                          {1}, {3}]),
    ])
    def test_the_same_path_as_fraction_costs(self, build, monkeypatch):
        instance = build()
        rng = random.Random(29)
        moves = 0
        for _ in range(200):
            objective, poly = build_relaxation(instance, profile_for(
                instance, [F(rng.randint(0, 20), rng.randint(1, 6))
                           for _ in range(instance.n)]))
            fractions = list(objective.coeffs) if objective.is_linear else [
                coeff * slope for coeff, curve in zip(objective.coeffs,
                                                      objective.curves)
                for _, slope in curve.segments()]
            costs, scale = _integer_costs(objective)
            columns = _layout(objective, poly).columns
            want, want_path = self.path(monkeypatch, fractions, poly,
                                        columns)
            got, got_path = self.path(monkeypatch, costs, poly, columns)
            assert got_path == want_path
            assert got.coords == want.coords
            assert got.value / scale == want.value
            moves += len(got_path)
        assert moves > 1000


class TestContains:
    def test_boundary_membership(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        assert contains(poly, FractionalPoint((F(1, 2), F(1, 2))))

    def test_outside(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        assert not contains(poly, FractionalPoint((F(3, 5), F(1, 2))))

    def test_origin_always_inside(self):
        poly = Polytope(3, (((ONE, ONE, ONE), F(2)), ((ZERO, ONE, ONE), ONE)))
        assert contains(poly, FractionalPoint((ZERO, ZERO, ZERO)))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LPInputError):
            contains(box(2), FractionalPoint((ONE,)))


def dense_contains(poly, coords):
    """The membership formula over every coefficient, zeros included."""
    return all(sum((c * v for c, v in zip(coeffs, coords)), ZERO) <= bound
               for coeffs, bound in poly.constraints)


rationals = st.builds(F, st.integers(0, 6), st.integers(1, 4))


@st.composite
def polytope_and_point(draw):
    n = draw(st.integers(1, 5))
    coeff = st.builds(F, st.integers(0, 3), st.integers(1, 3))
    rows = draw(st.lists(st.tuples(st.tuples(*[coeff] * n), rationals),
                         max_size=5))
    point = draw(st.tuples(*[rationals] * n))
    return Polytope(n, tuple(rows)), point, draw(st.integers(1, 9))


@settings(max_examples=300, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polytope_and_point())
def test_contains_matches_the_dense_formula(case):
    """Random points, then the point scaled onto P's boundary along its
    ray (accepted) and that point moved 1/q outward (rejected)."""
    poly, coords, q = case
    assert contains(poly, FractionalPoint(coords)) == dense_contains(poly,
                                                                     coords)
    reach = [(bound / a, coeffs) for coeffs, bound in poly.constraints
             for a in [sum((c * v for c, v in zip(coeffs, coords)), ZERO)]
             if a > 0]
    if not reach:
        return
    t, coeffs = min(reach, key=lambda pair: pair[0])
    on_facet = tuple(t * v for v in coords)
    assert contains(poly, FractionalPoint(on_facet))
    assert dense_contains(poly, on_facet)
    j = next(j for j, c in enumerate(coeffs) if c > 0 and coords[j] > 0)
    nudged = tuple(v + F(1, q) if i == j else v
                   for i, v in enumerate(on_facet))
    assert not contains(poly, FractionalPoint(nudged))
    assert not dense_contains(poly, nudged)


class TestPolytopeValidation:
    def test_negative_bound_rejected(self):
        with pytest.raises(LPInputError):
            Polytope(1, (((ONE,), F(-1)),))

    def test_packing_requires_nonnegative_coefficients(self):
        with pytest.raises(LPInputError):
            Polytope(2, (((ONE, F(-1)), ONE),))
        Polytope(2, (((ONE, ZERO), ONE),))


class TestSolveFeasibility:
    def test_symmetric_system(self):
        rows = [((ONE, ONE), ONE), ((ONE, -ONE), ZERO)]
        assert phase_one(rows, 2)[0] == (F(1, 2), F(1, 2))

    def test_infeasible_system(self):
        rows = [((ONE, ONE), ONE), ((ONE, ZERO), F(2))]
        assert phase_one(rows, 2)[0] is None

    def test_single_equation(self):
        assert phase_one([((ONE,), ONE)], 1)[0] == (ONE,)

    def test_negative_rhs_is_normalized(self):
        rows = [((-ONE, ZERO), F(-2)), ((ZERO, ONE), F(3))]
        assert phase_one(rows, 2)[0] == (F(2), F(3))

    def test_solution_is_basic(self):
        # 2 rows -> at most 2 nonzero entries in the returned solution
        rows = [((ONE, ONE, ONE, ONE), ONE), ((ONE, ZERO, ONE, ZERO), F(1, 2))]
        solution, _ = phase_one(rows, 4)
        assert solution is not None
        assert sum(1 for v in solution if v != 0) <= 2


class TestEnumerateVertices:
    def test_triangle(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        verts = {v.coords for v in enumerate_vertices(poly)}
        assert verts == {(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)}

    def test_guard_on_large_dimension(self, monkeypatch):
        with pytest.raises(LPInputError, match="limited to 8 variables"):
            enumerate_vertices(box(9))
        monkeypatch.setattr(lp, "MAX_VERTEX_VARS", 2)
        assert len(enumerate_vertices(box(2))) == 4
        with pytest.raises(LPInputError, match="limited to 2 variables"):
            enumerate_vertices(box(3))

    def test_zero_and_repeated_planes_leave_the_vertices_alone(self):
        """Seeded packing polytopes, then the same with spare rows added."""
        rng = random.Random(606)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [(tuple(F(rng.randint(0, 3)) for _ in range(n)),
                     F(rng.randint(0, 4))) for _ in range(rng.randint(1, 4))]
            rows.append((tuple(ONE for _ in range(n)), F(rng.randint(1, 3))))
            # Repeats, zero rows and looser parallel rows (another plane,
            # the same polytope).
            spares = rows + [((ZERO,) * n, F(rng.randint(0, 2)))] + [
                (coeffs, bound + 1) for coeffs, bound in rows]
            padded = list(rows)
            for _ in range(rng.randint(1, 4)):
                padded.insert(rng.randint(0, len(padded)), rng.choice(spares))
            plain = Polytope(n, tuple(rows))
            spare = Polytope(n, tuple(padded))
            assert enumerate_vertices(spare) == enumerate_vertices(plain)
            assert enumerate_vertices(spare) == every_plane_vertices(spare)

    def test_system_cap_counts_distinct_nonzero_planes(self, monkeypatch):
        # 3 copies of x0 + x1 <= 1 and a zero row: 6 planes with the two
        # nonnegativity planes, C(6, 2) = 15 systems, but only 3 distinct
        # nonzero planes, C(3, 2) = 3.
        row = ((ONE, ONE), ONE)
        poly = Polytope(2, (row, row, ((ZERO, ZERO), ONE), row))
        monkeypatch.setattr(lp, "MAX_VERTEX_SYSTEMS", 3)
        assert len(enumerate_vertices(poly)) == 3
        monkeypatch.setattr(lp, "MAX_VERTEX_SYSTEMS", 2)
        with pytest.raises(LPInputError, match="too many"):
            enumerate_vertices(poly)


def every_plane_vertices(poly):
    """Vertex enumeration over every choice of planes, spare ones too."""
    n = poly.num_vars
    planes = list(poly.constraints) + [
        (tuple(ONE if i == j else ZERO for i in range(n)), ZERO)
        for j in range(n)]
    found = set()
    for chosen in combinations(planes, n):
        sol = lp._solve_square([list(c) for c, _ in chosen],
                               [b for _, b in chosen])
        if sol is not None and all(v >= 0 for v in sol):
            point = FractionalPoint(tuple(sol))
            if contains(poly, point):
                found.add(point.coords)
    return [FractionalPoint(c) for c in sorted(found)]

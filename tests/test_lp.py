"""Exact simplex: optima, membership, feasibility, vertex-enumeration oracle."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from relaxround import lp
from relaxround import (FinalTableau, FractionalPoint, LPInputError,
                        Polytope, UnboundedError, contains,
                        enumerate_vertices, maximize_linear, phase_one)

ZERO = F(0)
ONE = F(1)


def box(n):
    rows = []
    for i in range(n):
        rows.append((tuple(ONE if j == i else ZERO for j in range(n)), ONE))
    return Polytope(n, tuple(rows))


class TestMaximizeLinear:
    def test_box_maximum(self):
        point, value = maximize_linear([F(1), F(2)], box(2))
        assert point.coords == (F(1), F(1))
        assert value == 3

    def test_single_item_lp_highest_coefficient_wins(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        point, value = maximize_linear([F(5), F(3)], poly)
        assert point.coords == (F(1), F(0))
        assert value == 5

    def test_zero_objective_stays_at_origin(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        point, value = maximize_linear([ZERO, ZERO], poly)
        assert point.coords == (ZERO, ZERO)
        assert value == 0

    def test_tie_breaks_to_lowest_index(self):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        point, _ = maximize_linear([F(4), F(4)], poly)
        assert point.coords == (F(1), F(0))

    def test_unbounded_direction_raises(self):
        poly = Polytope(2, (((ONE, ZERO), ONE),))  # x2 unconstrained
        with pytest.raises(UnboundedError):
            maximize_linear([ZERO, ONE], poly)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LPInputError):
            maximize_linear([ONE], box(2))

    def test_deterministic_bit_identical(self):
        poly = Polytope(3, (((ONE, ONE, ZERO), ONE), ((ZERO, ONE, ONE), ONE)))
        first = maximize_linear([F(2), F(3), F(2)], poly)
        second = maximize_linear([F(2), F(3), F(2)], poly)
        assert first == second

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
            point, value = maximize_linear(objective, poly)
            assert contains(poly, point)
            oracle = max(sum((c * v for c, v in zip(objective, vert.coords)), ZERO)
                         for vert in enumerate_vertices(poly))
            assert value == oracle


class TestColumnMaps:
    def test_capped_columns_share_a_variable(self):
        # Two pieces of one variable, slopes 3 and 1 with caps 1/2 and 1,
        # under x0 <= 1: the steep piece fills first, then the flat one.
        poly = Polytope(1, (((ONE,), ONE),))
        point, value = maximize_linear([F(3), ONE], poly, None,
                                       ([0, 0], [F(1, 2), ONE]))
        assert point.coords == (F(1, 2), F(1, 2))
        assert value == F(2)

    @pytest.mark.parametrize("columns", [
        ([0, 2], [ONE, ONE]),          # no variable 2
        ([0, 1], [ONE, F(-1)]),        # negative cap
        ([0, 1], [ONE]),               # a cap missing
    ])
    def test_malformed_column_maps_raise(self, columns):
        poly = Polytope(2, (((ONE, ONE), ONE),))
        with pytest.raises(LPInputError):
            maximize_linear([ONE, ONE], poly, None, columns)


class TestFinalTableau:
    def test_reoptimized_values_match_cold_solves(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = tuple((tuple(F(rng.randint(0, 3)) for _ in range(n)),
                          F(rng.randint(0, 4), rng.randint(1, 3)))
                         for _ in range(rng.randint(1, 4)))
            poly = Polytope(n, rows + box(n).constraints)
            main = [F(rng.randint(-2, 6), rng.randint(1, 4)) for _ in range(n)]
            final = FinalTableau()
            _, top = maximize_linear(main, poly, final)
            # Zeroing each entry of the main costs, as the payment LPs do,
            # then fresh cost rows with negative entries as well.
            others = [[ZERO if j == k else c for j, c in enumerate(main)]
                      for k in range(n)]
            others += [[F(rng.randint(-3, 5), rng.randint(1, 3))
                        for _ in range(n)] for _ in range(3)]
            for cost in others:
                assert final.maximum(cost) == maximize_linear(cost, poly)[1]
            # The recorded tableau is left as it was.
            assert final.maximum(main) == top

    def test_nothing_recorded_raises(self):
        with pytest.raises(LPInputError):
            FinalTableau().maximum([ONE])

    def test_cost_length_mismatch_raises(self):
        final = FinalTableau()
        maximize_linear([ONE, ONE], box(2), final)
        with pytest.raises(LPInputError):
            final.maximum([ONE])


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


class TestPolytopeValidation:
    def test_negative_bound_rejected(self):
        with pytest.raises(LPInputError):
            Polytope(1, (((ONE,), F(-1)),))

    def test_packing_requires_nonnegative_coefficients(self):
        with pytest.raises(LPInputError):
            Polytope(2, (((ONE, F(-1)), ONE),))
        Polytope(2, (((ONE, F(-1)), ONE),), packing=False)


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

    def test_guard_on_large_dimension(self):
        with pytest.raises(LPInputError):
            enumerate_vertices(box(9))

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

    def test_system_cap_counts_distinct_nonzero_planes(self):
        # 3 copies of x0 + x1 <= 1 and a zero row: 6 planes with the two
        # nonnegativity planes, C(6, 2) = 15 systems, but only 3 distinct
        # nonzero planes, C(3, 2) = 3.
        row = ((ONE, ONE), ONE)
        poly = Polytope(2, (row, row, ((ZERO, ZERO), ONE), row))
        assert len(enumerate_vertices(poly, max_systems=3)) == 3
        with pytest.raises(LPInputError):
            enumerate_vertices(poly, max_systems=2)


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

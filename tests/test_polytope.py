"""Exact geometry of the two-column splitting polytope."""

from fractions import Fraction
from random import Random

import pytest

from binomial_fpt import (
    Point2,
    SplittingMatrix,
    build,
    contains_lower_interior,
    maximal_point,
    segment_meets_lower_interior,
    truncate,
    vertices,
)

from conftest import (
    SMALL_PRIMES,
    contains,
    random_axis_biased_matrix,
    random_core_matrix,
    ray_max_delta,
)

FIG1 = build((1, 4, 7), (9, 8, 4))
COMP = build((7, 2), (5, 6))


def frac_point(n1, d1, n2, d2) -> Point2:
    return Point2(Fraction(n1, d1), Fraction(n2, d2))


def pairwise_vertices(matrix: SplittingMatrix) -> tuple[Point2, ...]:
    """Reference: every feasible intersection of two of the m + 2 lines.

    Line (a, b, c) is a*s1 + b*s2 = c; a meeting point is kept as the
    integers (x, y) over det > 0 so the feasibility test stays exact.
    """
    lines = [(a, b, 1) for a, b in matrix.rows] + [(1, 0, 0), (0, 1, 0)]
    found: set[Point2] = set()
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1 :]:
            det = a1 * b2 - a2 * b1
            sign = 1 if det > 0 else -1
            x, y, det = sign * (c1 * b2 - c2 * b1), sign * (a1 * c2 - a2 * c1), sign * det
            if det and x >= 0 and y >= 0 and all(a * x + b * y <= det for a, b in matrix.rows):
                found.add(Point2(Fraction(x, det), Fraction(y, det)))
    return tuple(sorted(found))


def pairwise_maximal_point(matrix: SplittingMatrix) -> tuple[Point2, Fraction] | None:
    verts = pairwise_vertices(matrix)
    best = max(v.s1 + v.s2 for v in verts)
    argmax = [v for v in verts if v.s1 + v.s2 == best]
    return (argmax[0], best) if len(argmax) == 1 else None


def matches_pairwise_reference(matrix: SplittingMatrix) -> bool:
    """Assert vertices and maximal_point agree with the reference;
    True when the maximal point is unique."""
    assert vertices(matrix) == pairwise_vertices(matrix)
    mp = maximal_point(matrix)
    assert (None if mp is None else (mp.point, mp.sum)) == pairwise_maximal_point(matrix)
    return mp is not None


def random_bounded_rows(rng: Random) -> tuple[tuple[int, int], ...]:
    """Rows with a = 0, b = 0, a = b and repeats, bounding P."""
    while True:
        rows: list[tuple[int, int]] = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.random()
            k = rng.randint(1, 9)
            if kind < 0.15:
                rows.append((0, k))
            elif kind < 0.3:
                rows.append((k, 0))
            elif kind < 0.45:
                rows.append((k, k))
            elif kind < 0.6 and rows:
                rows.append(rng.choice(rows))
            else:
                rows.append((rng.randint(1, 9), rng.randint(1, 9)))
        if any(a for a, _ in rows) and any(b for _, b in rows):
            return tuple(rows)


def random_feasible_point(rng: Random, matrix: SplittingMatrix) -> Point2:
    """A random point of P: a convex combination of two vertices."""
    verts = vertices(matrix)
    v, w = rng.choice(verts), rng.choice(verts)
    t = Fraction(rng.randint(0, 16), 16)
    return Point2(v.s1 * t + w.s1 * (1 - t), v.s2 * t + w.s2 * (1 - t))


class TestBuild:
    def test_figure_matrix(self):
        assert FIG1.rows == ((1, 9), (4, 8), (7, 4))

    def test_comp_matrix(self):
        assert COMP.rows == ((7, 5), (2, 6))

    def test_equal_columns_rejected(self):
        with pytest.raises(ValueError, match="monomials not distinct"):
            build((1, 0), (1, 0))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="variable appears in neither monomial"):
            build((1, 0), (2, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build((1, 2), (3,)), "exponent vectors must have equal positive length"),
        (lambda: build((), ()), "exponent vectors must have equal positive length"),
        (
            lambda: segment_meets_lower_interior(COMP, Fraction(-1), Fraction(0)),
            "coordinate sum must be nonnegative",
        ),
    ],
    ids=["unequal-lengths", "no-variables", "negative-total"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as raised:
        call()
    assert type(raised.value) is ValueError


def test_lower_interior_edge_inputs():
    # (-1/100, 0) meets both rows strictly: only its coordinate keeps it out
    assert not contains_lower_interior(COMP, Point2(Fraction(-1, 100), Fraction(0)))
    assert not contains_lower_interior(COMP, Point2(Fraction(0), Fraction(-1, 100)))
    # a row with a = b bounds the coordinate sum alone: 1 * total < 1
    equal_row = build((1, 2), (1, 3))
    assert not segment_meets_lower_interior(equal_row, Fraction(1), Fraction(0))
    assert segment_meets_lower_interior(equal_row, Fraction(1, 4), Fraction(0))


class TestMembership:
    def test_eta_on_boundary(self):
        assert contains(COMP, frac_point(1, 32, 5, 32))

    def test_origin_always_feasible(self):
        for matrix in (FIG1, COMP):
            assert contains(matrix, Point2(Fraction(0), Fraction(0)))

    def test_past_vertex_infeasible(self):
        assert not contains(FIG1, Point2(Fraction(1, 7) + 1, Fraction(0)))

    def test_negative_coordinates_rejected(self):
        assert not contains(COMP, Point2(Fraction(-1, 100), Fraction(0)))

    def test_lower_interior_strict(self):
        assert contains_lower_interior(COMP, frac_point(43, 1369, 213, 1369))
        assert not contains_lower_interior(COMP, frac_point(1, 32, 5, 32))
        assert not contains_lower_interior(COMP, frac_point(2, 43, 6, 43))

    def test_lower_interior_allows_tight_coordinates(self):
        assert contains_lower_interior(COMP, Point2(Fraction(0), Fraction(0)))


class TestVertices:
    def test_figure_vertex_set(self):
        assert set(vertices(FIG1)) == {
            frac_point(0, 1, 0, 1),
            frac_point(0, 1, 1, 9),
            frac_point(1, 28, 3, 28),
            frac_point(1, 10, 3, 40),
            frac_point(1, 7, 0, 1),
        }

    def test_simplex(self):
        simplex = SplittingMatrix(((1, 1),))
        assert set(vertices(simplex)) == {
            frac_point(0, 1, 0, 1),
            frac_point(1, 1, 0, 1),
            frac_point(0, 1, 1, 1),
        }

    def test_comp_has_eta_as_vertex(self):
        assert frac_point(1, 32, 5, 32) in vertices(COMP)

    def test_vertices_sorted(self):
        verts = vertices(FIG1)
        assert list(verts) == sorted(verts)

    def test_vertices_feasible_on_two_lines(self):
        rng = Random(201)
        for _ in range(150):
            matrix = random_core_matrix(rng)
            for v in vertices(matrix):
                assert contains(matrix, v)
                tight = sum(1 for a, b in matrix.rows if a * v.s1 + b * v.s2 == 1)
                tight += (v.s1 == 0) + (v.s2 == 0)
                assert tight >= 2

    def test_hull_walk_matches_pairwise_reference(self):
        rng = Random(209)
        matrices = [SplittingMatrix(random_bounded_rows(rng)) for _ in range(2500)]
        unique = sum(matches_pairwise_reference(matrix) for matrix in matrices)
        assert 500 < unique < 2000

    @pytest.mark.parametrize(
        "rows",
        [((1, 3), (2, 2), (3, 1)), ((3, 0), (1, 1)), ((0, 3), (1, 1))],
        ids=["collinear-hull-rows", "vertical-edge", "horizontal-edge"],
    )
    def test_hull_walk_hand_cases(self, rows):
        matches_pairwise_reference(SplittingMatrix(rows))

    @pytest.mark.parametrize("rows", [((1, 0),), ((0, 2), (0, 1))])
    def test_unbounded_rejected(self, rows):
        for function in (vertices, maximal_point):
            with pytest.raises(ValueError, match="^splitting polytope is unbounded$"):
                function(SplittingMatrix(rows))


class TestMaximalPoint:
    def test_figure(self):
        mp = maximal_point(FIG1)
        assert mp.point == frac_point(1, 10, 3, 40)
        assert mp.sum == Fraction(7, 40)

    def test_comp(self):
        mp = maximal_point(COMP)
        assert mp.point == frac_point(1, 32, 5, 32)
        assert mp.sum == Fraction(3, 16)

    def test_constant_row_tie(self):
        assert maximal_point(SplittingMatrix(((2, 2),))) is None

    def test_unique_without_constant_rows(self):
        rng = Random(202)
        for _ in range(200):
            matrix = random_core_matrix(rng)
            assert maximal_point(matrix) is not None

    def test_dominates_feasible_points(self):
        rng = Random(203)
        checked = 0
        while checked < 1000:
            matrix = random_core_matrix(rng)
            mp = maximal_point(matrix)
            for _ in range(5):
                s = random_feasible_point(rng, matrix)
                assert s.s1 + s.s2 <= mp.sum
                checked += 1


class TestRayMaxDelta:
    def test_epsilon_ray(self):
        assert ray_max_delta(COMP, frac_point(43, 1369, 213, 1369), 1) == Fraction(3, 6845)

    def test_from_origin(self):
        assert ray_max_delta(COMP, Point2(Fraction(0), Fraction(0)), 1) == Fraction(1, 6)

    def test_infeasible_base(self):
        assert ray_max_delta(COMP, Point2(Fraction(1), Fraction(1)), 1) is None

    def test_endpoint_is_extremal(self):
        rng = Random(205)
        for _ in range(200):
            matrix = random_core_matrix(rng)
            base = random_feasible_point(rng, matrix)
            coord = rng.choice((0, 1))
            delta = ray_max_delta(matrix, base, coord)
            assert delta is not None and delta >= 0
            step = Point2(base.s1 + delta, base.s2) if coord == 0 else Point2(base.s1, base.s2 + delta)
            beyond = (
                Point2(step.s1 + Fraction(1, 10**6), step.s2)
                if coord == 0
                else Point2(step.s1, step.s2 + Fraction(1, 10**6))
            )
            assert contains(matrix, step)
            assert not contains(matrix, beyond)


class TestSegmentMeetsLowerInterior:
    def test_comp_p43_candidate_fails(self):
        assert not segment_meets_lower_interior(COMP, Fraction(8, 43), Fraction(7, 43))

    def test_comp_p37_candidate_succeeds(self):
        assert segment_meets_lower_interior(COMP, Fraction(256, 1369), Fraction(214, 1369))

    def test_empty_segment(self):
        assert not segment_meets_lower_interior(COMP, Fraction(0), Fraction(1))


class TestUpperLeftLemmas:
    def test_strictness_reduces_to_steep_rows(self):
        # in the region s2 >= eta2, only rows with b > a can fail strictness
        rng = Random(206)
        hits = 0
        for _ in range(400):
            matrix = random_core_matrix(rng)
            eta = maximal_point(matrix).point
            s = random_feasible_point(rng, matrix)
            if s.s2 < eta.s2 or s == eta:
                continue
            hits += 1
            steep_ok = all(a * s.s1 + b * s.s2 < 1 for a, b in matrix.rows if b > a)
            assert contains_lower_interior(matrix, s) == steep_ok
        assert hits > 100

    def test_segment_test_reduces_to_endpoint(self):
        # a point with coordinate sum T and second coordinate >= min_s2
        # exists in the lower interior iff the extreme point
        # (T - min_s2, min_s2) itself lies there
        rng = Random(207)
        hits = 0
        for _ in range(500):
            matrix = random_core_matrix(rng)
            eta = maximal_point(matrix).point
            p = rng.choice(SMALL_PRIMES)
            d = rng.randint(1, 3)
            delta = rng.choice((Fraction(0), Fraction(1, p ** (d + 2)), Fraction(1, p**d), Fraction(1, 2)))
            lam = Point2(
                truncate(min(eta.s1, Fraction(1)), p, d) + delta,
                truncate(min(eta.s2, Fraction(1)), p, d) + Fraction(1, p**d),
            )
            hits += 1
            assert segment_meets_lower_interior(
                matrix, lam.s1 + lam.s2, lam.s2
            ) == contains_lower_interior(matrix, lam)
        assert hits == 500

    def test_sum_above_one_forces_axis_rows(self):
        rng = Random(208)
        hits = 0
        for _ in range(600):
            matrix = random_axis_biased_matrix(rng)
            mp = maximal_point(matrix)
            if mp is None or mp.sum <= 1:
                continue
            hits += 1
            rows = set(matrix.rows)
            straight = (1, 0) in rows and any(a == 0 and b >= 1 for a, b in rows)
            swapped = (0, 1) in rows and any(b == 0 and a >= 1 for a, b in rows)
            assert straight or swapped
        assert hits > 150

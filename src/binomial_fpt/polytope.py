"""The splitting polytope of a pair of exponent vectors.

For exponent vectors a, b over the same m variables, the splitting
matrix E has rows (a_i, b_i) and the splitting polytope is

    P = { s in R^2 : s >= 0 and E s <= 1 }.

Everything here is exact: points are pairs of Fractions, vertices come
from an upper-hull walk over the integer rows, and all comparisons are
rational.
The "lower interior" of P requires every row constraint to hold
strictly; the coordinate inequalities s1, s2 >= 0 may be tight.  The
axis rays that give the threshold's correction are clipped in the
engine's carry step, on integers, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class Point2(NamedTuple):
    s1: Fraction
    s2: Fraction


@dataclass(frozen=True)
class SplittingMatrix:
    rows: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MaximalPoint:
    """The unique point of P maximizing s1 + s2, with its coordinate sum."""

    point: Point2
    sum: Fraction


def build(a: tuple[int, ...], b: tuple[int, ...]) -> SplittingMatrix:
    """Splitting matrix for exponent vectors a and b."""
    if len(a) != len(b) or not a:
        raise ValueError("exponent vectors must have equal positive length")
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise ValueError("exponents must be nonnegative")
    if a == b:
        raise ValueError("monomials not distinct")
    rows = tuple(zip(a, b))
    if any(row == (0, 0) for row in rows):
        raise ValueError("variable appears in neither monomial")
    return SplittingMatrix(rows)


def contains_lower_interior(matrix: SplittingMatrix, s: Point2) -> bool:
    """Membership with every row constraint strict; s >= 0 may be tight."""
    if s.s1 < 0 or s.s2 < 0:
        return False
    return all(a * s.s1 + b * s.s2 < 1 for a, b in matrix.rows)


def vertices(matrix: SplittingMatrix) -> tuple[Point2, ...]:
    """All vertices of P, sorted by s1 then s2.

    The rows that bound P are the upper convex hull of the row points
    (a_i, b_i), walked from the last row with the largest b to the row
    with the largest a; each pair of consecutive hull rows meets at a
    vertex, and the axes add (0, 0), (0, 1/max b) and (1/max a, 0).
    Cross products are on integers, so the walk is O(m log m).
    """
    hull: list[tuple[int, int]] = []
    for row in sorted(matrix.rows):
        while len(hull) >= 2:
            (a0, b0), (a1, b1) = hull[-2], hull[-1]
            if (a1 - a0) * (row[1] - b0) < (b1 - b0) * (row[0] - a0):
                break
            hull.pop()
        hull.append(row)
    top = max(range(len(hull)), key=lambda i: (hull[i][1], i), default=None)
    if top is None or hull[-1][0] == 0 or hull[top][1] == 0:
        raise ValueError("splitting polytope is unbounded")
    chain = hull[top:]
    zero = Fraction(0)
    found = [Point2(zero, zero), Point2(zero, Fraction(1, chain[0][1]))]
    found.append(Point2(Fraction(1, chain[-1][0]), zero))
    for (a1, b1), (a2, b2) in zip(chain, chain[1:]):
        det = a1 * b2 - a2 * b1
        found.append(Point2(Fraction(b2 - b1, det), Fraction(a1 - a2, det)))
    return tuple(sorted(found))


def maximal_point(matrix: SplittingMatrix) -> MaximalPoint | None:
    """The unique maximizer of s1 + s2 over P, or None when the
    maximal face is an edge rather than a single point.

    A row with a_i = b_i makes the objective constant along that
    constraint, which is the only way uniqueness can fail.
    """
    verts = vertices(matrix)
    best = max(v.s1 + v.s2 for v in verts)
    argmax = [v for v in verts if v.s1 + v.s2 == best]
    if len(argmax) != 1:
        return None
    return MaximalPoint(argmax[0], best)


def segment_meets_lower_interior(
    matrix: SplittingMatrix, total: Fraction, min_s2: Fraction
) -> bool:
    """Does some point with coordinate sum `total` and second
    coordinate at least `min_s2` lie in the lower interior of P?

    Parametrizing by t = s2, the point (total - t, t) must satisfy
    t >= max(min_s2, 0), t <= total, and each row strictly.  Rows with
    b > a give strict upper bounds on t, rows with b < a strict lower
    bounds, and rows with a = b are independent of t.  Over the
    rationals the mixed open/closed interval is nonempty iff every
    lower bound sits properly below every upper bound.
    """
    if total < 0:
        raise ValueError("coordinate sum must be nonnegative")
    lo_closed = max(min_s2, Fraction(0))
    hi_closed = total
    lo_open: Fraction | None = None
    hi_open: Fraction | None = None
    for a, b in matrix.rows:
        if a == b:
            if a * total >= 1:
                return False
            continue
        bound = Fraction(1 - a * total, b - a)
        if b > a:
            hi_open = bound if hi_open is None else min(hi_open, bound)
        else:
            lo_open = bound if lo_open is None else max(lo_open, bound)
    if lo_closed > hi_closed:
        return False
    if hi_open is not None and lo_closed >= hi_open:
        return False
    if lo_open is not None and lo_open >= hi_closed:
        return False
    if lo_open is not None and hi_open is not None and lo_open >= hi_open:
        return False
    return True

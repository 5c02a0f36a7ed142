"""Shared deterministic generators for the randomized suites.

Each test builds its own random.Random with a fixed seed, so every
failure reproduces exactly; the helpers here only know how to draw
well-formed inputs.
"""

from fractions import Fraction
from random import Random

from binomial_fpt import Binomial, Point2, SplittingMatrix, build

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

VARIABLE_NAMES = ("x", "y", "z", "w")


def random_unit_fraction(rng: Random, max_den: int = 60) -> Fraction:
    """A rational in (0, 1] with denominator at most max_den."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(1, den), den)


def random_binomial(rng: Random, max_vars: int = 3, max_exp: int = 6) -> Binomial:
    """A valid binomial vanishing at the origin.

    Both exponent vectors are nonzero, the monomials are distinct, and
    every variable appears in at least one of them.
    """
    while True:
        n = rng.randint(1, max_vars)
        a = tuple(rng.randint(0, max_exp) for _ in range(n))
        b = tuple(rng.randint(0, max_exp) for _ in range(n))
        if a == b or not any(a) or not any(b):
            continue
        if any(ai == 0 and bi == 0 for ai, bi in zip(a, b)):
            continue
        return Binomial(variables=VARIABLE_NAMES[:n], a=a, b=b)


def random_core_matrix(rng: Random, max_rows: int = 4, max_exp: int = 9) -> SplittingMatrix:
    """A splitting matrix with no constant rows and a bounded polytope.

    No constant rows means the maximal point is a single vertex; both
    columns being nonzero somewhere keeps the polytope bounded.
    """
    while True:
        n = rng.randint(1, max_rows)
        rows = [(rng.randint(0, max_exp), rng.randint(0, max_exp)) for _ in range(n)]
        if any(a == b for a, b in rows):
            continue
        if not any(a for a, _ in rows) or not any(b for _, b in rows):
            continue
        return build(tuple(a for a, _ in rows), tuple(b for _, b in rows))


def random_axis_biased_matrix(rng: Random, max_exp: int = 9) -> SplittingMatrix:
    """Core matrices that often put the maximal coordinate sum above 1.

    Mixes plain random matrices with ones seeded by the axis rows
    (1, 0) and (0, n), which are exactly the shapes whose maximal
    point can exceed coordinate sum 1.
    """
    if rng.random() < 0.6:
        rows = [(1, 0), (0, rng.randint(1, max_exp))]
        if rng.random() < 0.5:
            rows = [(b, a) for a, b in rows]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(0, max_exp), rng.randint(0, max_exp)
            if a != b and (a, b) != (0, 0):
                rows.append((a, b))
        if not any(a for a, _ in rows) or not any(b for _, b in rows):
            return random_axis_biased_matrix(rng, max_exp)
        return build(tuple(a for a, _ in rows), tuple(b for _, b in rows))
    return random_core_matrix(rng, max_rows=3, max_exp=max_exp)


def contains(matrix: SplittingMatrix, s: Point2) -> bool:
    """Reference membership in P, every constraint weak."""
    if s.s1 < 0 or s.s2 < 0:
        return False
    return all(a * s.s1 + b * s.s2 <= 1 for a, b in matrix.rows)


def ray_max_delta(matrix: SplittingMatrix, base: Point2, coord: int) -> Fraction | None:
    """Reference ray reach: the largest delta >= 0 with base plus delta
    along coordinate coord (0 for s1, 1 for s2) still in P.

    None when the base itself lies outside P; constraint rows only grow
    along an axis direction, so no positive delta can recover
    feasibility.
    """
    if not contains(matrix, base):
        return None
    bounds = []
    for row in matrix.rows:
        if row[coord] > 0:
            slack = 1 - row[0] * base.s1 - row[1] * base.s2
            bounds.append(Fraction(slack, row[coord]))
    if not bounds:
        raise ValueError("ray is unbounded inside the polytope")
    return min(bounds)


def _fmt(x: Fraction | int | float) -> str:
    return f"{float(x):.12g}"


class FractionPanel:
    """Reference figure panel: every map, window test and clip in exact
    `Fraction` arithmetic, as `svg._Panel` (with `svg._fmt`) did before
    its integer kernel.  Only the geometry is kept; the drawing methods
    are unchanged there."""

    def __init__(self, x0, y0, span, px, py, size):
        self.x0, self.y0 = Fraction(x0), Fraction(y0)
        self.x1, self.y1 = self.x0 + span, self.y0 + span
        self.scale = size / Fraction(span)
        self.px, self.py, self.size = px, py, size

    def x(self, wx: Fraction) -> str:
        return _fmt(self.px + (wx - self.x0) * self.scale)

    def y(self, wy: Fraction) -> str:
        return _fmt(self.py + self.size - (wy - self.y0) * self.scale)

    def inside(self, pt: Point2) -> bool:
        return self.x0 <= pt.s1 <= self.x1 and self.y0 <= pt.s2 <= self.y1

    def clip_line(self, a: int, b: int, c: int = 1) -> tuple[Point2, Point2] | None:
        """Segment of a*x + b*y = c inside the window, if any."""
        hits: set[Point2] = set()
        if b != 0:
            hits.update(Point2(wx, Fraction(c - a * wx, b)) for wx in (self.x0, self.x1))
        if a != 0:
            hits.update(Point2(Fraction(c - b * wy, a), wy) for wy in (self.y0, self.y1))
        ordered = sorted(pt for pt in hits if self.inside(pt))
        if len(ordered) < 2:
            return None
        return ordered[0], ordered[-1]

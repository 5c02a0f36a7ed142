"""The polytope figure draws what the engine derives."""

import hashlib
import re
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from binomial_fpt import Binomial, Point2, fpt, maximal_point, parse, truncate, vertices
from binomial_fpt.svg import _Panel, polytope_figure

from conftest import (
    FractionPanel,
    VARIABLE_NAMES,
    random_binomial,
    random_core_matrix,
)

LEGEND_LINE = re.compile(r'<text x="70" y="\d+" font-size="11" font-family="monospace">(.*)</text>')


def legend(svg: str) -> list[str]:
    return LEGEND_LINE.findall(svg)


def binomial_with_shared_variable(rng: Random, shared: bool) -> Binomial:
    """A 2-4 variable binomial; with `shared`, one variable has equal exponents."""
    while True:
        n = rng.randint(2, 4)
        a = [rng.randint(0, 6) for _ in range(n)]
        b = [rng.randint(0, 6) for _ in range(n)]
        if shared:
            i = rng.randrange(n)
            a[i] = b[i] = rng.randint(1, 6)
        if a == b or not any(a) or not any(b):
            continue
        if any(ai == 0 and bi == 0 for ai, bi in zip(a, b)):
            continue
        return Binomial(VARIABLE_NAMES[:n], tuple(a), tuple(b))


def test_legend_carry_data_matches_the_engine():
    rng = Random(20260)
    drawn = with_epsilon = 0
    for i in range(60):
        g = binomial_with_shared_variable(rng, shared=i % 2 == 0)
        for p in (2, 3, 5, 7, 37):
            result = fpt(g, p)
            lines = legend(polytope_figure(g, p))
            carry = [line for line in lines if line.startswith("L = ")]
            if not carry:
                continue
            drawn += 1
            assert carry == [f"L = {result.L}, d = {result.d}"], (g, p)
            epsilon = [line for line in lines if line.startswith("epsilon = ")]
            expected = [] if result.epsilon is None else [f"epsilon = {result.epsilon}"]
            assert epsilon == expected, (g, p)
            with_epsilon += bool(epsilon)
    assert drawn >= 50 and with_epsilon >= 10


@pytest.mark.parametrize(
    "poly, prime, level, digest",
    [
        (
            "x^7*y^2 + x^5*y^6",
            37,
            2,
            "05390e14602f60475c769fce2e77138571c352bc138e79acbe51726a565d1dca",
        ),
        (
            # Not a core: the constant row (1, 1) stays in the figure's matrix.
            "x*y^3*z + x^3*y*z",
            2,
            None,
            "792618543fb14211968dfe2169293fbbd75b26c189a1f5446cc0288a9d2522a4",
        ),
        (
            # Only the upper candidate is inside: its ray along s1 is drawn.
            "x*y^3 + x^2",
            3,
            None,
            "44f0e994c54645a83abff7a1fe5c6ed621ea6d24bac308c229dd5e0b54b7622c",
        ),
        (
            # TRUNCATED, no candidate inside: the dots, but no ray.
            "x^2 + y^3",
            5,
            None,
            "8919de018546084cef2555f5cfae199d6d7e2de61ffdcaaa327058cd51a4f5f4",
        ),
        (
            # Both reaches equal epsilon: the tie goes to the right candidate.
            "x*y^2 + x^2*y",
            3,
            None,
            "3795229253e6f57e575f6d8fae6fcce5bbe88458c9cbefb8d2e843474177bafe",
        ),
    ],
)
def test_golden_figure(poly, prime, level, digest):
    svg = polytope_figure(parse(poly), prime, level)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


FIGURE_CORPUS_DIGEST = "b5204abbfdcbceca8b959d3d65111aace7f09939a7c6bc6ddc70f46033915ca8"


def figure_corpus():
    """300 seeded small binomials and one 64-row core, across primes and levels."""
    rng = Random(20261018)
    primes = (None, 2, 3, 37, 101, 10007)
    levels = (None, 1, 3)
    for i in range(300):
        g = random_binomial(rng, max_vars=4, max_exp=7)
        prime = primes[i % len(primes)]
        yield g, prime, None if prime is None else levels[i // len(primes) % len(levels)]
    a = [rng.randint(0, 40) for _ in range(64)]
    b = [rng.choice([y for y in range(41) if y != x]) for x in a]
    core = Binomial(tuple(f"x{i}" for i in range(1, 65)), tuple(a), tuple(b))
    for prime in (2, 37, 10007):
        for level in levels:
            yield core, prime, level


def test_figure_corpus_golden():
    digest = hashlib.sha256()
    for g, prime, level in figure_corpus():
        digest.update(polytope_figure(g, prime, level).encode())
    assert digest.hexdigest() == FIGURE_CORPUS_DIGEST


WIDE_FIGURES_DIGEST = "5d06ea3661a97e39afa5f472d54ce23a968c9e9ac83b540a6005f42c7f84e8be"


def test_golden_wide_core_figures():
    """A 128-row core (exponents <= 40, drawn like the benchmark's wide
    core) at p in {2, 37, 10^9 + 7}, with no level and at level 3, so
    insets whose denominators reach p^d are pinned too."""
    rng = Random(20261020)
    while True:
        a = [rng.randint(0, 40) for _ in range(128)]
        b = [rng.choice([y for y in range(41) if y != x]) for x in a]
        if any(a) and any(b):
            break
    core = Binomial(tuple(f"x{i}" for i in range(1, 129)), tuple(a), tuple(b))
    digest = hashlib.sha256()
    insets = 0
    for prime in (2, 37, 10**9 + 7):
        for level in (None, 3):
            svg = polytope_figure(core, prime, level)
            insets += 'width="1020"' in svg
            digest.update(svg.encode())
    assert insets >= 4
    assert digest.hexdigest() == WIDE_FIGURES_DIGEST


PANEL_PRIMES = (2, 3, 5, 37, 10007, 10**9 + 7)


def panel_windows(rng: Random):
    """Seeded windows of both kinds, each with its core matrix: main
    panels [0, 11/10 * the largest vertex coordinate]^2, and insets of
    width 3 p^-d starting half a step below <eta>_d, so below 0 where a
    coordinate of <eta>_d is 0."""
    for i in range(150):
        wide = i % 10 == 0
        matrix = random_core_matrix(rng, max_rows=40 if wide else 4, max_exp=40 if wide else 9)
        span = max(max(v) for v in vertices(matrix)) * Fraction(11, 10)
        yield matrix, (0, 0, span, 70, 50, 470)
        eta = maximal_point(matrix).point
        p, d = rng.choice(PANEL_PRIMES), rng.randint(1, 4)
        step = Fraction(1, p**d)
        x0, y0 = (truncate(v, p, d) - step / 2 for v in eta)
        yield matrix, (x0, y0, 3 * step, 640, 120, 330)


def world_points(rng: Random, ref: FractionPanel):
    """The window's corners, grid points on and around it, and points
    with random denominators near it."""
    span = ref.x1 - ref.x0
    for wx in (ref.x0, ref.x1):
        for wy in (ref.y0, ref.y1):
            yield Point2(wx, wy)
    for _ in range(20):
        fx, fy = (Fraction(rng.randint(-20, 120), 100) for _ in range(2))
        yield Point2(ref.x0 + fx * span, ref.y0 + fy * span)
        fx, fy = (Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(2))
        yield Point2(ref.x0 + fx * span, ref.y0 + fy * span)


def corner_lines(ref: FractionPanel):
    """(a, b, c, expect_segment) for integer lines through each window
    corner: ones that touch the window only there, and ones that go on
    into it, so that two edge crossings coincide at the corner."""
    for wx, wy, touch, enter in (
        (ref.x0, ref.y0, (1, 1), (2, -1)),
        (ref.x1, ref.y1, (1, 1), (1, -1)),
        (ref.x0, ref.y1, (1, -1), (1, 2)),
        (ref.x1, ref.y0, (1, -1), (2, 1)),
    ):
        w = lcm(wx.denominator, wy.denominator)
        for (a, b), expect in ((touch, False), (enter, True)):
            yield a * w, b * w, int((a * wx + b * wy) * w), expect


def test_panel_matches_fraction_reference():
    rng = Random(20261021)
    corner_segments = below_zero = 0
    for matrix, window in panel_windows(rng):
        panel, ref = _Panel(*window), FractionPanel(*window)
        below_zero += ref.x0 < 0 or ref.y0 < 0
        for pt in world_points(rng, ref):
            assert panel.x(pt.s1) == ref.x(pt.s1), (window, pt)
            assert panel.y(pt.s2) == ref.y(pt.s2), (window, pt)
            assert panel.inside(pt) == ref.inside(pt), (window, pt)
        total = maximal_point(matrix).sum
        lines = [(a, b, 1) for a, b in matrix.rows]
        lines.append((total.denominator, total.denominator, total.numerator))
        for _ in range(10):
            lines.append((0, rng.randint(-9, 9) or 1, rng.randint(-9, 9)))
            lines.append((rng.randint(-9, 9) or 1, 0, rng.randint(-9, 9)))
            lines.append((rng.randint(-9, 9), rng.randint(-9, 9) or 1, rng.randint(-9, 9)))
        for line in lines:
            assert panel.clip_line(*line) == ref.clip_line(*line), (window, line)
        for a, b, c, expect in corner_lines(ref):
            seg = panel.clip_line(a, b, c)
            assert seg == ref.clip_line(a, b, c), (window, a, b, c)
            assert (seg is not None) == expect, (window, a, b, c)
            corner_segments += expect
    assert corner_segments == 1200 and below_zero >= 50

"""The polytope figure draws what the engine derives."""

import hashlib
import re
from random import Random

import pytest

from binomial_fpt import Binomial, fpt, parse
from binomial_fpt.svg import polytope_figure

from conftest import VARIABLE_NAMES, random_binomial

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

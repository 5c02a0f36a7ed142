"""Seeded command generation for the three benchmark workloads.

Every workload draws from a fixed catalogue of CLI commands.  The
catalogue is generated from CATALOGUE_SEED, so it is the same in every
checkout, and the expected output of each catalogue command is recorded
in ``expected/<workload>.json`` (see ``record.py``).  The ``--seed`` of a
run only decides which catalogue blocks each round uses and in which
order the round's commands run; a seed never produces a command whose
output has not been recorded.

A *block* is a group of commands with a fixed composition (the same
strata of input properties in every block), so any seeded choice of
blocks gives a round with the same mix:

* ``scan``: one block holds a prime window at each of four magnitudes
  (10^3 .. 10^6) for each of five binomial kinds: the paper's
  ``x^7*y^2 + x^5*y^6``, ``x^97*y^3 + x^5*y^101`` (eta denominator
  4891), and seeded 2-4-variable cores with exponents up to 9, 30 and
  120.  Small exponents give small eta denominators D, large ones give D
  in the thousands.
* ``compute``: one block holds 48 cores whose row counts m follow
  COMPUTE_ROWS (2 to 128), each paired with a prime drawn log-uniformly
  from 10 to 10^9.  Each core is one ``compute --json`` followed by one
  ``polytope --svg``.  The 128-row core is the same in every block (with
  the block's own prime): its vertex enumeration takes half of a block's
  time, and its cost varies by about 15 % from one random core to the
  next, which would make throughput depend on the seed.  The rows are
  chosen so that the 95th latency percentile falls inside the group of
  32-row commands rather than on the gap between two groups.
* ``certify``: the whole catalogue is one block.  Per-binomial oracle
  cost spans a factor of about 60 (0.13 s to 8 s at the seed commit), so
  a seeded subset would make throughput depend on the seed; every round
  certifies every catalogue binomial instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from random import Random

CATALOGUE_SEED = 11122427
WORKLOADS = ("scan", "compute", "certify")

PAPER = "x^7*y^2 + x^5*y^6"
WIDE_D = "x^97*y^3 + x^5*y^101"

SCAN_MAGNITUDES = (10**3, 10**4, 10**5, 10**6)
SCAN_EXPONENT_CAPS = (9, 30, 120)
SCAN_ROWS_PER_WINDOW = 40
SCAN_BLOCKS = 48
SCAN_BLOCKS_PER_ROUND = 3

COMPUTE_ROWS = (2,) * 8 + (3,) * 8 + (4,) * 8 + (6,) * 6 + (8,) * 6 + (12,) * 4 + (16,) * 4 + (32,) * 3
COMPUTE_WIDE_ROWS = 128
COMPUTE_BLOCKS = 12

CERTIFY_BINOMIALS = 8
CERTIFY_PRIMES = (2, 3, 5, 7, 11)
SEMIGROUP_BUDGET = 2**14
NAIVE_BUDGET = 256

# Catalogue commands that write a figure name this placeholder; the
# runner substitutes a path inside its output directory.
SVG_PLACEHOLDER = "{svg}"


@dataclass(frozen=True)
class Command:
    """One CLI invocation with the input properties the traffic record uses."""

    argv: tuple[str, ...]
    m: int  # core rows: variables whose two exponents differ
    poly: str


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _log_uniform_prime(rng: Random) -> int:
    """A prime drawn about log-uniformly from 10 to 10^9 (integer draws only,
    so the catalogue is the same on every platform)."""
    k = rng.randint(1, 8)
    return _next_prime(rng.randrange(10**k, 10 ** (k + 1)))


def _monomial(names: list[str], exps: list[int]) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def binomial_text(a: list[int], b: list[int]) -> str:
    names = ["x", "y", "z", "w"] if len(a) <= 4 else [f"x{i}" for i in range(1, len(a) + 1)]
    return f"{_monomial(names, a)} + {_monomial(names, b)}"


def core_rows(a: list[int], b: list[int]) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def random_core(rng: Random, n: int, cap: int) -> tuple[list[int], list[int]]:
    """Exponent vectors of an n-variable core: a_i != b_i in every row,
    and both monomials non-constant, so the polytope is bounded and its
    maximal point is unique."""
    while True:
        a = [rng.randint(0, cap) for _ in range(n)]
        b = [rng.choice([y for y in range(cap + 1) if y != x]) for x in a]
        if any(a) and any(b):
            return a, b


def random_small_binomial(rng: Random, max_vars: int = 3, max_exp: int = 6):
    """Same draw as the test suite's random_binomial: up to 3 variables,
    exponents up to 6, equal exponents allowed (a monomial factor)."""
    while True:
        n = rng.randint(1, max_vars)
        a = [rng.randint(0, max_exp) for _ in range(n)]
        b = [rng.randint(0, max_exp) for _ in range(n)]
        if a == b or not any(a) or not any(b):
            continue
        if any(x == 0 and y == 0 for x, y in zip(a, b)):
            continue
        return a, b


def _scan_window(rng: Random, magnitude: int) -> str:
    """LO..HI holding about SCAN_ROWS_PER_WINDOW primes (width ~ rows * ln LO)."""
    lo = rng.randrange(magnitude, 2 * magnitude)
    hi = lo + SCAN_ROWS_PER_WINDOW * lo.bit_length() * 693 // 1000
    return f"{lo}..{hi}"


def _scan_blocks() -> list[list[Command]]:
    rng = Random(CATALOGUE_SEED)
    blocks = []
    for _ in range(SCAN_BLOCKS):
        block = []
        for magnitude in SCAN_MAGNITUDES:
            polys = [(PAPER, 2), (WIDE_D, 2)]
            for cap in SCAN_EXPONENT_CAPS:
                a, b = random_core(rng, rng.randint(2, 4), cap)
                polys.append((binomial_text(a, b), len(a)))
            for poly, m in polys:
                argv = ("scan", poly, "--primes", _scan_window(rng, magnitude), "--json")
                block.append(Command(argv, m, poly))
        blocks.append(block)
    return blocks


def _compute_blocks() -> list[list[Command]]:
    rng = Random(CATALOGUE_SEED + 1)
    wide = random_core(rng, COMPUTE_WIDE_ROWS, 40)
    blocks = []
    for _ in range(COMPUTE_BLOCKS):
        block = []
        cores = [random_core(rng, m, 9 if m <= 8 else 40) for m in COMPUTE_ROWS] + [wide]
        for a, b in cores:
            poly, m = binomial_text(a, b), len(a)
            p = str(_log_uniform_prime(rng))
            block.append(Command(("compute", poly, "--prime", p, "--json"), m, poly))
            block.append(
                Command(("polytope", poly, "--prime", p, "--svg", SVG_PLACEHOLDER), m, poly)
            )
        blocks.append(block)
    return blocks


def certify_levels(p: int) -> list[int]:
    """Every level E with p^E within the default semigroup budget."""
    levels, e = [], 1
    while p**e <= SEMIGROUP_BUDGET:
        levels.append(e)
        e += 1
    return levels


def _certify_blocks() -> list[list[Command]]:
    rng = Random(CATALOGUE_SEED + 2)
    binomials = [([7, 5], [2, 6])]  # the paper's x^7*y^2 + x^5*y^6
    while len(binomials) < CERTIFY_BINOMIALS + 1:
        a, b = random_small_binomial(rng)
        if (a, b) not in binomials:
            binomials.append((a, b))
    block = []
    for a, b in binomials:
        poly, m = binomial_text(a, b), core_rows(a, b)
        for p in CERTIFY_PRIMES:
            for e in certify_levels(p):
                argv = ("compute", poly, "--prime", str(p), "--verify", str(e), "--json")
                block.append(Command(argv, m, poly))
                if p**e <= NAIVE_BUDGET:
                    argv = ("oracle", poly, "--prime", str(p), "--level", str(e),
                            "--method", "both", "--json")
                    block.append(Command(argv, m, poly))
    return [block]


_BLOCKS = {"scan": _scan_blocks, "compute": _compute_blocks, "certify": _certify_blocks}
_BLOCKS_PER_ROUND = {"scan": SCAN_BLOCKS_PER_ROUND, "compute": 1, "certify": 1}


def catalogue(workload: str) -> list[list[Command]]:
    """The workload's catalogue as a list of blocks."""
    return _BLOCKS[workload]()


def catalogue_digest(blocks: list[list[Command]]) -> str:
    """Fingerprint of every catalogue argv, to detect generator drift."""
    text = json.dumps([c.argv for block in blocks for c in block])
    return hashlib.sha256(text.encode()).hexdigest()


def rounds(workload: str, blocks: list[list[Command]], seed: int):
    """Endless seeded sequence of rounds, each a list of catalogue indices.

    Blocks are dealt from a seeded shuffle without replacement and
    reshuffled when the catalogue runs out; within a round the order of
    the commands is shuffled too.
    """
    rng = Random(seed)
    starts, offset = [], 0
    for block in blocks:
        starts.append(offset)
        offset += len(block)
    per_round = _BLOCKS_PER_ROUND[workload]
    deck: list[int] = []
    while True:
        chosen = []
        for _ in range(per_round):
            if not deck:
                deck = list(range(len(blocks)))
                rng.shuffle(deck)
            chosen.append(deck.pop())
        indices = [starts[b] + i for b in chosen for i in range(len(blocks[b]))]
        rng.shuffle(indices)
        yield indices

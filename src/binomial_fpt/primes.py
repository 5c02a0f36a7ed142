"""Prime utilities: an exact primality test and a windowed prime list."""

from __future__ import annotations

from math import isqrt

# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

# (bound, k): the first k bases are exact below bound, each bound being
# the least strong pseudoprime to those bases (Jaeschke, 1993; Jiang and
# Deng, 2014; Sorenson and Webster, 2015).
_BASE_TABLE = (
    (2047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9), (318_665_857_834_031_151_167_461, 12),
    (_EXACT_BELOW, 13),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError beyond its exact range."""
    if n >= _EXACT_BELOW:
        raise ValueError(f"{n} is too large for the primality test")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next(k for bound, k in _BASE_TABLE if n < bound)
    for a in _BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in the inclusive range [lo, hi], ascending.

    A segmented sieve: the primes up to sqrt(hi) strike their multiples
    inside the window only, so memory is O(sqrt(hi) + hi - lo).  When
    sqrt(hi) exceeds 2^20, or sixteen times the window's width, that
    base would dwarf the window, so each number is tested with is_prime
    instead; ValueError beyond its range.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    if hi >= _EXACT_BELOW:
        raise ValueError(f"{hi} is too large for the primality test")
    root = isqrt(hi)
    if root > 2**20 or root > 16 * (hi - lo + 1):
        return [n for n in range(lo, hi + 1) if is_prime(n)]
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for f in range(2, root + 1):
        if base[f]:
            base[f * f :: f] = bytes(len(range(f * f, root + 1, f)))
            start = max(f * f, -(-lo // f) * f) - lo
            window[start::f] = bytes(len(range(start, len(window), f)))
    return [lo + i for i, flag in enumerate(window) if flag]

"""Prime utilities: an exact primality test and a windowed sieve."""

from __future__ import annotations

from math import isqrt

# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


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
    for a in _BASES:
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
    inside the window only, so memory is O(sqrt(hi) + hi - lo).
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for f in range(2, root + 1):
        if base[f]:
            base[f * f :: f] = bytes(len(range(f * f, root + 1, f)))
            start = max(f * f, -(-lo // f) * f) - lo
            window[start::f] = bytes(len(range(start, len(window), f)))
    return [lo + i for i, flag in enumerate(window) if flag]

"""Primality test and windowed sieve."""

import time
import tracemalloc

import pytest

from binomial_fpt.primes import is_prime, primes_between


def reference_sieve(n: int) -> list[bool]:
    flags = [True] * n
    flags[0] = flags[1] = False
    for f in range(2, int(n**0.5) + 1):
        if flags[f]:
            for k in range(f * f, n, f):
                flags[k] = False
    return flags


FLAGS = reference_sieve(10**5)


def test_is_prime_agrees_with_the_sieve():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n, f in enumerate(FLAGS) if f]


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 10**24 + 7])
def test_large_primes_accepted_quickly(n):
    start = time.perf_counter()
    assert is_prime(n)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("n", [3_317_044_064_679_887_385_961_981, 2**89 - 1])
def test_beyond_the_exact_range_rejected(n):
    with pytest.raises(ValueError):
        is_prime(n)


@pytest.mark.parametrize("lo, hi", [(0, 1), (2, 2), (-5, 30), (90, 97), (1000, 999), (49, 10**5 - 1)])
def test_primes_between_small_windows(lo, hi):
    expected = [n for n in range(max(lo, 0), hi + 1) if FLAGS[n]]
    assert primes_between(lo, hi) == expected


def test_primes_between_memory_follows_the_window():
    lo, hi = 10**10, 10**10 + 1000
    tracemalloc.start()
    try:
        found = primes_between(lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert peak < 2**20

"""Primality test and windowed sieve."""

import time
import tracemalloc

import pytest

from binomial_fpt import primes
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


def test_base_table_agrees_with_the_sieve_below_two_million():
    n = 2 * 10**6
    flags = bytearray(n)
    for q in primes_between(1, n - 1):
        flags[q] = 1
    assert [m for m in range(n) if is_prime(m) != flags[m]] == []


# The least strong pseudoprime to each prefix of the bases: the first
# number a table row no longer vouches for.
@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])
def test_threshold_pseudoprimes_rejected(n):
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


def test_primes_between_sieve_memory_follows_the_window_at_large_lo(monkeypatch):
    # wide enough to sieve: is_prime must not be called
    lo, hi = 10**10, 10**10 + 30000

    def unexpected(n):
        raise AssertionError("the window was tested number by number")

    monkeypatch.setattr(primes, "is_prime", unexpected)
    tracemalloc.start()
    try:
        found = primes_between(lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert found == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert peak < 2**20


def test_primes_between_tests_windows_past_the_sieve_base():
    lo, hi = 10**16, 10**16 + 100
    start = time.perf_counter()
    found = primes_between(lo, hi)
    assert time.perf_counter() - start < 0.5
    assert found == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert len(found) == 4


@pytest.mark.parametrize("lo", [10**12, 2**39])
def test_primes_between_tests_narrow_windows_below_the_sieve_cutover(lo):
    # sqrt(hi) is under 2^20 but far wider than the window
    hi = lo + 100
    start = time.perf_counter()
    found = primes_between(lo, hi)
    assert time.perf_counter() - start < 0.05
    assert found == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_primes_between_rejects_windows_beyond_the_exact_range():
    with pytest.raises(ValueError, match="too large for the primality test"):
        primes_between(3_317_044_064_679_887_385_961_981, 3_317_044_064_679_887_385_961_999)

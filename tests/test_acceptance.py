"""Acceptance gate.

Seven end-to-end criteria, one printed pass/fail line each, exact
arithmetic throughout (zero tolerance everywhere; the only pinned
numbers besides exact rationals are wall-clock budgets).  Run with

    pytest -v -s tests/test_acceptance.py

to see the report lines as they print.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import pytest

from binomial_fpt import (
    Binomial,
    FptCase,
    NuQuery,
    Point2,
    build,
    carry_profile,
    contains_lower_interior,
    digit,
    expand,
    fpt,
    fpt_limit,
    fpt_truncation,
    maximal_point,
    multinomial_nonzero,
    nu_naive,
    nu_semigroup,
    prepare,
    render_positional,
    scaled_truncation,
    segment_meets_lower_interior,
    tail,
    truncate,
    vertices,
)
from binomial_fpt.primes import primes_between

from conftest import random_axis_biased_matrix, random_binomial

COMP = Binomial(("x", "y"), (7, 2), (5, 6))

PRIMES_UNDER_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")


def random_unit(rng: Random, max_den: int = 60) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(1, den), den)


@dataclass
class SweepData:
    instances: int
    semigroup_checked: int
    naive_checked: int
    mismatches: list
    epsilon_cases: list
    elapsed: float


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    """Criterion 4 workload, shared with the epsilon law of criterion 5.

    200 random binomials, primes {2,3,5,7,11}, levels {1,2}; the
    semigroup oracle must equal p^e times the predicted truncation on
    every instance, and the naive oracle must agree for three distinct
    coefficient pairs whenever p^e is at most 125.
    """
    rng = Random(20260822)
    start = time.perf_counter()
    binomials = [random_binomial(rng) for _ in range(200)]
    mismatches = []
    epsilon_cases = []
    semigroup_checked = naive_checked = instances = 0
    for g in binomials:
        for p in (2, 3, 5, 7, 11):
            result = fpt(g, p)
            if result.epsilon is not None:
                epsilon_cases.append((g, p, result))
            for e in (1, 2):
                instances += 1
                predicted = int(p**e * fpt_truncation(result, p, e))
                semigroup = nu_semigroup(NuQuery(g, p, e))
                semigroup_checked += 1
                if predicted != semigroup:
                    mismatches.append((g, p, e, "semigroup", predicted, semigroup))
                    continue
                if p**e <= 125:
                    pairs = {(1, 1), (1, p - 1), (p - 1, p - 1)}
                    for c1, c2 in sorted(pairs):
                        colored = Binomial(g.variables, g.a, g.b, c1, c2)
                        naive = nu_naive(NuQuery(colored, p, e))
                        naive_checked += 1
                        if naive != predicted:
                            mismatches.append((g, p, e, (c1, c2), predicted, naive))
    return SweepData(
        instances,
        semigroup_checked,
        naive_checked,
        mismatches,
        epsilon_cases,
        time.perf_counter() - start,
    )


def test_criterion_1_golden_values():
    cases = [
        (47, Fraction(3, 16), FptCase.CARRY_FREE, None, None, None),
        (97, Fraction(3, 16), FptCase.CARRY_FREE, None, None, None),
        (43, Fraction(8, 43), FptCase.TRUNCATED, 1, 1, None),
        (37, Fraction(1283, 6845), FptCase.TRUNCATED_PLUS_EPSILON, 2, 2, Fraction(3, 6845)),
    ]
    problems = []
    worst = 0.0
    for p, value, case, L, d, epsilon in cases:
        begin = time.perf_counter()
        result = fpt(COMP, p)
        elapsed = time.perf_counter() - begin
        worst = max(worst, elapsed)
        if result.value != value or result.case is not case:
            problems.append(f"p={p}: got {result.value} {result.case.value}")
        if (result.L, result.d) != (L, d) or result.epsilon != epsilon:
            problems.append(f"p={p}: diagnostics L={result.L} d={result.d} eps={result.epsilon}")
        if elapsed >= 1.0:
            problems.append(f"p={p}: took {elapsed:.2f}s")
    ok = not problems
    report(
        1,
        "golden values",
        ok,
        f"p in {{47,97,43,37}} exact, slowest {worst * 1000:.1f} ms"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_2_polytope_figure():
    matrix = build((1, 4, 7), (9, 8, 4))
    expected = {
        Point2(Fraction(0), Fraction(0)),
        Point2(Fraction(0), Fraction(1, 9)),
        Point2(Fraction(1, 28), Fraction(3, 28)),
        Point2(Fraction(1, 10), Fraction(3, 40)),
        Point2(Fraction(1, 7), Fraction(0)),
    }
    verts = set(vertices(matrix))
    mp = maximal_point(matrix)
    ok = (
        verts == expected
        and mp.point == Point2(Fraction(1, 10), Fraction(3, 40))
        and mp.sum == Fraction(7, 40)
    )
    report(
        2,
        "splitting polytope",
        ok,
        "5 vertices, eta = (1/10, 3/40), |eta| = 7/40"
        if ok
        else f"vertices {sorted(verts)}, eta {mp}",
    )
    assert ok


def test_criterion_3_base_p_renderings():
    got43 = render_positional(fpt(COMP, 43).value, 43)
    got37 = render_positional(fpt(COMP, 37).value, 37)
    ok = got43 == ".8 (base 43)" and got37 == ".6 34 (22 7 14 29)~ (base 37)"
    report(
        3,
        "base-p renderings",
        ok,
        "p=43 and p=37 strings exact" if ok else f"got {got43!r} and {got37!r}",
    )
    assert ok, (got43, got37)


def test_criterion_4_oracle_equivalence(sweep):
    ok = not sweep.mismatches and sweep.elapsed < 300
    detail = (
        f"{sweep.instances} instances, {sweep.semigroup_checked} semigroup + "
        f"{sweep.naive_checked} naive checks, 0 mismatches, {sweep.elapsed:.1f}s"
        if ok
        else f"mismatches {sweep.mismatches[:3]}, elapsed {sweep.elapsed:.1f}s"
    )
    report(4, "oracle equivalence sweep", ok, detail)
    assert ok, sweep.mismatches


def _suite_truncation(rng: Random) -> int:
    count = 0
    for _ in range(1000):
        p = rng.choice(PRIMES_UNDER_50[:6])
        e = rng.randint(1, 8)
        alpha = random_unit(rng)
        beta = random_unit(rng)
        tr = truncate(alpha, p, e)
        assert (tr * p**e).denominator == 1 and tr < alpha
        tl = tail(alpha, p, e)
        assert 0 < tl <= Fraction(1, p**e)
        assert (tl == Fraction(1, p**e)) == ((alpha * p**e).denominator == 1)
        lo, hi = min(alpha, beta), max(alpha, beta)
        for level in range(1, 9):
            assert truncate(lo, p, level) <= truncate(hi, p, level)
        lattice = Fraction(rng.randint(0, p**e), p**e)
        if alpha > lattice:
            assert truncate(alpha, p, e) >= lattice
        count += 1
    return count


def _suite_expand(rng: Random) -> int:
    count = 0
    for _ in range(1000):
        den = rng.randint(1, 200)
        alpha = Fraction(rng.randint(0, den), den)
        p = rng.choice(PRIMES_UNDER_50)
        assert expand(alpha, p).value() == alpha
        count += 1
    return count


def _suite_constant_digits(rng: Random) -> int:
    count = 0
    for _ in range(1000):
        p = rng.choice(PRIMES_UNDER_50[1:])
        alpha = Fraction(rng.randint(0, p - 1), p - 1)
        beta = Fraction(rng.randint(0, p - 1), p - 1)
        if alpha > 0:
            assert digit(alpha, p, rng.randint(1, 9)) == (p - 1) * alpha
        profile = carry_profile(alpha, beta, p)
        assert (profile.L is None) == (alpha + beta <= 1)
        count += 1
    return count


def _suite_carrying(rng: Random) -> int:
    hits = 0
    attempts = 0
    while hits < 1000:
        attempts += 1
        assert attempts < 100000, "carry cases too rare"
        alpha = random_unit(rng)
        beta = random_unit(rng)
        if alpha + beta > 1:
            continue
        p = rng.choice(PRIMES_UNDER_50[:6])
        profile = carry_profile(alpha, beta, p)
        if profile.L is None or profile.L < 1:
            continue
        L = profile.L
        assert truncate(alpha, p, L) + truncate(beta, p, L) + Fraction(1, p**L) == truncate(
            alpha + beta, p, L
        )
        hits += 1
    return hits


def _suite_lucas() -> int:
    count = 0
    for p in (2, 3, 5, 7, 11, 13):
        for total in range(0, 301):
            for k1 in range(0, total + 1):
                assert multinomial_nonzero(k1, total - k1, p) == (
                    math.comb(total, k1) % p != 0
                )
                count += 1
    return count


def _upper_left_point(rng: Random, matrix, eta) -> Point2:
    ext2 = min(Fraction(1, b) for _, b in matrix.rows if b > 0)
    t = Fraction(rng.randint(0, 24), 24)
    s2 = eta.s2 + t * (ext2 - eta.s2)
    bounds = [Fraction(1 - b * s2, a) for a, b in matrix.rows if a > 0]
    s1_max = min(bounds)
    u = Fraction(rng.randint(0, 24), 24)
    return Point2(u * s1_max, s2)


def _suite_upper_left(rng: Random) -> int:
    hits = 0
    attempts = 0
    while hits < 1000:
        attempts += 1
        assert attempts < 100000, "upper-left samples too rare"
        matrix = random_axis_biased_matrix(rng)
        eta = maximal_point(matrix).point
        s = _upper_left_point(rng, matrix, eta)
        if s == eta or s.s2 < eta.s2:
            continue
        steep_ok = all(a * s.s1 + b * s.s2 < 1 for a, b in matrix.rows if b > a)
        assert contains_lower_interior(matrix, s) == steep_ok
        hits += 1
    return hits


def _suite_segment(rng: Random) -> int:
    count = 0
    for _ in range(1000):
        matrix = random_axis_biased_matrix(rng)
        eta = maximal_point(matrix).point
        p = rng.choice(PRIMES_UNDER_50[:6])
        d = rng.randint(1, 3)
        delta = rng.choice(
            (Fraction(0), Fraction(1, p ** (d + 2)), Fraction(1, p**d), Fraction(1, 3))
        )
        lam = Point2(
            truncate(min(eta.s1, Fraction(1)), p, d) + delta,
            truncate(min(eta.s2, Fraction(1)), p, d) + Fraction(1, p**d),
        )
        assert segment_meets_lower_interior(
            matrix, lam.s1 + lam.s2, lam.s2
        ) == contains_lower_interior(matrix, lam)
        count += 1
    return count


def _suite_axis_rows(rng: Random) -> int:
    hits = 0
    attempts = 0
    while hits < 1000:
        attempts += 1
        assert attempts < 100000, "sum above one too rare"
        matrix = random_axis_biased_matrix(rng)
        mp = maximal_point(matrix)
        if mp is None or mp.sum <= 1:
            continue
        rows = set(matrix.rows)
        straight = (1, 0) in rows and any(a == 0 and b >= 1 for a, b in rows)
        swapped = (0, 1) in rows and any(b == 0 and a >= 1 for a, b in rows)
        assert straight or swapped
        hits += 1
    return hits


def _lattice_condition(matrix, eta: Point2, p: int, d: int) -> bool:
    """The epsilon equality law's condition at carry level d.

    epsilon attains its cap tail(|eta|, p, L) exactly when a candidate
    one step of p^-d right of or above the truncation of eta lies in the
    lower interior and the matching eta coordinate lies on the p^-d
    lattice.
    """
    step = Fraction(1, p**d)
    t1 = truncate(eta.s1, p, d)
    t2 = truncate(eta.s2, p, d)
    in_right = contains_lower_interior(matrix, Point2(t1 + step, t2))
    in_up = contains_lower_interior(matrix, Point2(t1, t2 + step))
    return (in_right and (eta.s1 * p**d).denominator == 1) or (
        in_up and (eta.s2 * p**d).denominator == 1
    )


def _suite_epsilon_law(epsilon_cases) -> int:
    assert epsilon_cases, "sweep produced no epsilon corrections"
    for g, p, result in epsilon_cases:
        cap = tail(result.eta_sum, p, result.L)
        assert 0 < result.epsilon <= cap
        matrix = prepare(g).core[0]
        lattice = _lattice_condition(matrix, result.eta, p, result.d)
        assert (result.epsilon == cap) == lattice
    return len(epsilon_cases)


def test_criterion_5_property_suites(sweep):
    rng = Random(55)
    counts = {
        "truncation": _suite_truncation(rng),
        "expand": _suite_expand(rng),
        "constant-digits": _suite_constant_digits(rng),
        "carrying": _suite_carrying(rng),
        "lucas": _suite_lucas(),
        "upper-left-membership": _suite_upper_left(rng),
        "segment-reduction": _suite_segment(rng),
        "axis-rows": _suite_axis_rows(rng),
        "epsilon-law": _suite_epsilon_law(sweep.epsilon_cases),
    }
    ok = all(n >= 1000 for name, n in counts.items() if name != "epsilon-law")
    summary = ", ".join(f"{name}={n}" for name, n in counts.items())
    report(5, "property suites", ok, summary)
    assert ok, counts


def test_criterion_6_scan_reproduction():
    begin = time.perf_counter()
    rows = [(p, fpt(COMP, p)) for p in primes_between(2, 499)]
    elapsed = time.perf_counter() - begin
    limit = fpt_limit(COMP)
    golden = {47, 97, 193, 257, 353, 449}
    # value = limit exactly when the digits of eta add without carrying or
    # epsilon attains its cap tail(|eta|, p, L); both sides of the law are
    # derived here from the geometry, never from the result's epsilon
    matrix = build(COMP.a, COMP.b)
    eta = maximal_point(matrix).point
    problems = []
    carrying_hits = []
    for p, r in rows:
        profile = carry_profile(eta.s1, eta.s2, p)
        law = profile.carry_free or _lattice_condition(matrix, eta, p, profile.d)
        hit = r.value == limit
        if r.value > limit:
            problems.append(f"p={p}: {r.value} above the limit")
        if p in golden and not hit:
            problems.append(f"p={p}: golden prime misses the limit")
        if hit and not law:
            problems.append(f"p={p}: reaches the limit with carrying, off the lattice")
        if law and not hit:
            kind = "carry-free" if profile.carry_free else "lattice"
            problems.append(f"p={p}: {kind} prime misses the limit")
        if hit and not profile.carry_free:
            carrying_hits.append(p)
    if carrying_hits != [2]:
        problems.append(f"limit reached with carrying at {carrying_hits}, expected [2]")
    # brute force, not the engine, backs the exception: nu_e = 2^e*<3/16>_e
    oracle_misses = [
        e
        for e in range(1, 15)
        if nu_semigroup(NuQuery(COMP, 2, e)) != scaled_truncation(Fraction(3, 16), 2, e)
    ]
    if oracle_misses:
        problems.append(f"p=2: nu_semigroup differs from 2^e*<3/16>_e at e={oracle_misses}")
    if elapsed >= 10:
        problems.append(f"scan took {elapsed:.1f}s")
    ok = not problems
    detail = (
        f"{len(rows)} primes in {elapsed:.1f}s, limit hit at all golden primes; "
        "with carrying only at p=2, where epsilon attains its cap, "
        "and nu_semigroup agrees for e <= 14"
        if ok
        else f"{len(rows)} primes in {elapsed:.1f}s; " + "; ".join(problems)
    )
    report(6, "prime scan", ok, detail)
    assert ok, detail


def test_criterion_7_min_rule():
    g = Binomial(("x", "y", "z"), (3, 0, 4), (0, 3, 4))
    problems = []
    for p in (5, 7, 13):
        result = fpt(g, p)
        core = result.core_fpt
        if result.value != min(Fraction(1, 4), core):
            problems.append(f"p={p}: {result.value} != min(1/4, {core})")
        predicted = int(p**2 * fpt_truncation(result, p, 2))
        semigroup = nu_semigroup(NuQuery(g, p, 2))
        if predicted != semigroup:
            problems.append(f"p={p}: nu {predicted} != {semigroup}")
    ok = not problems
    report(
        7,
        "min rule with factoring",
        ok,
        "fpt(z^4(x^3+y^3)) = 1/4 at p in {5,7,13}, nu verified at e=2"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems

"""Brute-force Frobenius-power oracles."""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from binomial_fpt import (
    Binomial,
    BudgetExceeded,
    FptCase,
    NuQuery,
    adds_without_carrying,
    fpt,
    fpt_limit,
    jsonio,
    nu_monomial,
    nu_naive,
    nu_semigroup,
    oracle,
    prepare,
    scaled_truncation,
    verify,
)

from conftest import VARIABLE_NAMES, random_binomial

COMP = Binomial(("x", "y"), (7, 2), (5, 6))


def countdown_carry_free(bound: int, k1: int, p: int) -> int:
    """Reference: the largest k2 <= bound adding to k1 without carrying,
    found by testing bound, bound - 1, ... in turn."""
    return next(k2 for k2 in range(bound, -1, -1) if adds_without_carrying(k1, k2, p))


def countdown_nu_semigroup(query: NuQuery) -> int:
    """Reference: the semigroup oracle that counts each k1's k2 down from
    its row bound, testing every value for a carry-free addition."""
    p, q, g = query.prime, query.prime**query.level, query.binomial
    rows = list(zip(g.a, g.b))
    k1_max = min((q - 1) // a for a, _ in rows if a > 0)
    b_rows = [(a, b) for a, b in rows if b > 0]
    best = 0
    for k1 in range(k1_max + 1):
        k2_max = min((q - 1 - a * k1) // b for a, b in b_rows)
        for k2 in range(k2_max, max(best - k1, -1), -1):
            if adds_without_carrying(k1, k2, p):
                best = k1 + k2
                break
    return best


def seeded_oracle_binomials(rng: Random) -> list[Binomial]:
    """Three each of x^a + x^b, a 3- or 4-row core, and a 2-row core
    times a monomial factor z^c (a row with a_i = b_i)."""

    def core_rows(n: int) -> list[tuple[int, int]]:
        while True:
            rows = [tuple(rng.sample(range(8), 2)) for _ in range(n)]
            if any(a for a, _ in rows) and any(b for _, b in rows):
                return rows

    shapes = []
    for _ in range(3):
        c = rng.randint(1, 5)
        shapes += [core_rows(1), core_rows(rng.randint(3, 4)), core_rows(2) + [(c, c)]]
    return [Binomial(VARIABLE_NAMES[: len(rows)], *zip(*rows)) for rows in shapes]


class TestNuSemigroup:
    def test_comp_p43_level1(self):
        # fpt = 8/43 terminates in one digit, so the non-terminating
        # truncation ladder runs 7, 343, ... (never 8: f^8 needs
        # 40 + 2*k1 <= 42 and 48 - 4*k1 <= 42 at once)
        assert nu_semigroup(NuQuery(COMP, 43, 1)) == 7
        assert nu_semigroup(NuQuery(COMP, 43, 2)) == 343

    def test_linear_factor_reaches_cap(self):
        g = Binomial(("x", "y"), (1, 0), (0, 2))
        assert nu_semigroup(NuQuery(g, 3, 2)) == 8

    def test_squares_p3(self):
        g = Binomial(("x", "y"), (2, 0), (0, 2))
        assert nu_semigroup(NuQuery(g, 3, 1)) == 2

    def test_budget(self, monkeypatch):
        with pytest.raises(BudgetExceeded, match="16384"):
            nu_semigroup(NuQuery(COMP, 131, 2))
        monkeypatch.setattr(oracle, "SEMIGROUP_BUDGET", 131**2)
        assert nu_semigroup(NuQuery(COMP, 131, 2)) >= 0

    def test_budget_message_names_the_power(self):
        # 11^1000000 has over a million digits, so the message must not print it
        with pytest.raises(BudgetExceeded) as info:
            nu_semigroup(NuQuery(COMP, 11, 10**6))
        assert str(info.value) == "p^e = 11^1000000 exceeds the semigroup budget 16384"

    @pytest.mark.parametrize("p, e", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_digit_walk_matches_countdown_exhaustively(self, p, e):
        q = p**e
        for k1 in range(q):
            for bound in range(q):
                assert oracle._largest_carry_free(bound, k1, p) == countdown_carry_free(bound, k1, p)

    def test_matches_countdown_oracle(self):
        rng = Random(1010)
        levels = [(p, e) for p in (2, 3, 5, 7, 11, 13, 37) for e in range(1, 13) if p**e <= 2**12]
        for p, e in levels:
            for g in seeded_oracle_binomials(rng):
                query = NuQuery(g, p, e)
                assert nu_semigroup(query) == countdown_nu_semigroup(query), query

    def test_one_variable_runs_in_wall_clock_budget(self):
        # counting k2 down from each k1's row bound takes seconds here
        query = NuQuery(Binomial(("x",), (1,), (4,)), 5, 6)
        start = time.perf_counter()
        nu_semigroup(query)
        assert time.perf_counter() - start < 0.5

    def test_comp_p2_to_level_20(self, monkeypatch):
        # past criterion 6's e <= 14: nu(e) = 2^e <3/16>_e up to e = 20
        monkeypatch.setattr(oracle, "SEMIGROUP_BUDGET", 2**20)
        for e in range(15, 21):
            assert nu_semigroup(NuQuery(COMP, 2, e)) == scaled_truncation(Fraction(3, 16), 2, e)


class TestNuNaive:
    def test_squares_p3(self):
        g = Binomial(("x", "y"), (2, 0), (0, 2))
        assert nu_naive(NuQuery(g, 3, 1)) == 2

    def test_cross_oracle_p2(self):
        q = NuQuery(COMP, 2, 2)
        assert nu_naive(q) == nu_semigroup(q)

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match="naive budget"):
            nu_naive(NuQuery(COMP, 7, 4))

    def test_coefficients_cannot_cancel(self):
        rng = Random(401)
        for _ in range(40):
            g = random_binomial(rng, max_vars=2, max_exp=4)
            p = rng.choice((3, 5, 7))
            base = nu_naive(NuQuery(g, p, 1))
            for c1, c2 in ((1, p - 1), (p - 1, p - 1), (2 % p or 1, 1)):
                colored = Binomial(g.variables, g.a, g.b, c1, c2)
                assert nu_naive(NuQuery(colored, p, 1)) == base


class TestNuMonomial:
    def test_single_variable(self):
        assert nu_monomial((1,), 5, 1) == 4
        assert nu_monomial((1,), 5, 2) == 24

    def test_min_over_exponents(self):
        # x^3 y^5: the y budget binds first
        assert nu_monomial((3, 5), 7, 1) == (7 - 1) // 5

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            nu_monomial((0, 0), 5, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: NuQuery(Binomial(("x",), (1,), (0,)), 3, 1),
            "input does not vanish at the origin",
        ),
        (
            lambda: nu_naive(NuQuery(Binomial(("x", "y"), (1, 0), (0, 1), coeff1=6), 3, 1)),
            "zero coefficient mod p",
        ),
        # over F_3 this is y^3, whose nu(1) is 0; its binomial answer would be 1
        (
            lambda: nu_semigroup(NuQuery(Binomial(("x", "y"), (2, 0), (0, 3), coeff1=3), 3, 1)),
            "zero coefficient mod p",
        ),
        (lambda: nu_monomial((1, 2), 4, 1), "p must be prime"),
        (lambda: nu_monomial((1, 2), 3, 0), "level must be at least 1"),
    ],
    ids=[
        "constant-term", "naive-zero-coefficient", "semigroup-zero-coefficient",
        "monomial-composite", "monomial-level-0",
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as raised:
        call()
    assert type(raised.value) is ValueError


class TestVerify:
    def test_comp_p43(self):
        report = verify(NuQuery(COMP, 43, 1), fpt(COMP, 43))
        assert report.predicted_nu == report.semigroup_nu == report.naive_nu == 7
        assert report.match

    def test_comp_p47(self):
        report = verify(NuQuery(COMP, 47, 1), fpt(COMP, 47))
        assert report.predicted_nu == report.semigroup_nu == report.naive_nu == 8
        assert report.match

    def test_monomial_times_unit(self):
        g = Binomial(("x", "y"), (2, 0), (2, 1))
        report = verify(NuQuery(g, 3, 2), fpt(g, 3))
        assert report.predicted_nu == report.semigroup_nu == report.naive_nu == 4
        assert report.match

    def test_naive_skipped_past_budget(self):
        report = verify(NuQuery(COMP, 43, 2), fpt(COMP, 43))
        assert report.naive_nu is None
        assert report.semigroup_nu == report.predicted_nu == 343
        assert report.match

    def test_json_shape(self):
        result = fpt(COMP, 47)
        report = verify(NuQuery(COMP, 47, 1), result)
        data = jsonio.result_to_json(COMP, 47, result, fpt_limit(COMP), report)
        assert data["verification"] == {
            "predicted_nu": 8,
            "semigroup_nu": 8,
            "naive_nu": 8,
            "match": True,
        }


class TestOracleAgreement:
    def test_cross_oracle_equality(self):
        rng = Random(402)
        for _ in range(60):
            g = random_binomial(rng, max_vars=2, max_exp=5)
            p = rng.choice((2, 3, 5, 7, 11))
            e = 1 if p > 5 else rng.choice((1, 2))
            if p**e > 125:
                e = 1
            q = NuQuery(g, p, e)
            assert nu_semigroup(q) == nu_naive(q)

    def test_level_monotonicity(self):
        rng = Random(403)
        for _ in range(60):
            g = random_binomial(rng)
            p = rng.choice((2, 3, 5, 7))
            lower = nu_semigroup(NuQuery(g, p, 1))
            upper = nu_semigroup(NuQuery(g, p, 2))
            assert upper >= p * lower

    def test_invalid_queries_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            NuQuery(COMP, 6, 1)
        with pytest.raises(ValueError, match="level"):
            NuQuery(COMP, 5, 0)


def test_theorem_on_the_whole_small_box():
    """The predicted nu equals the semigroup oracle's on every binomial in
    x, y with exponents <= 4, at every p <= 13 and level e with p^e <= 2^8."""
    vectors = [v for v in product(range(5), repeat=2) if any(v)]
    levels = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 9) if p**e <= 2**8]
    cases = Counter()
    for a, b in combinations(vectors, 2):
        if not all(ai or bi for ai, bi in zip(a, b)):
            continue
        g = Binomial(("x", "y"), a, b)
        plan = prepare(g)
        for p, e in levels:
            result = plan.at(p)
            cases[result.case] += 1
            predicted = scaled_truncation(result.value, p, e)
            assert predicted == nu_semigroup(NuQuery(g, p, e)), (g, p, e)
    assert sum(cases.values()) == 5808
    assert set(cases) == set(FptCase)

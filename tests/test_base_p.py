"""Non-terminating base-p expansions: digits, truncations, carries, Lucas."""

import math
from fractions import Fraction
from random import Random

import pytest

from binomial_fpt import (
    CarryProfile,
    DigitExpansion,
    adds_without_carrying,
    carry_profile,
    digit,
    expand,
    multinomial_nonzero,
    render_positional,
    scaled_truncation,
    tail,
    truncate,
)
from binomial_fpt.base_p import positional_digits

from conftest import SMALL_PRIMES, random_unit_fraction


def expansion_depth(alpha: Fraction, beta: Fraction, p: int) -> int:
    """Positions that provably see one full combined period of the pair."""
    ea, eb = expand(alpha, p), expand(beta, p)
    pre = max(len(ea.preperiod), len(eb.preperiod))
    return pre + math.lcm(len(ea.period), len(eb.period))


def check_profile_against_digits(alpha: Fraction, beta: Fraction, p: int) -> bool:
    """Check carry_profile(alpha, beta, p) against digit() sums, position
    by position; True when the pair carries."""
    profile = carry_profile(alpha, beta, p)

    def digit_sum(e: int) -> int:
        return digit(alpha, p, e) + digit(beta, p, e)

    if profile.L is None:
        depth = expansion_depth(alpha, beta, p)
        assert profile.certificate_depth == depth
        assert all(digit_sum(e) <= p - 1 for e in range(1, depth + 1))
        return False
    # the walk stops at the first carry
    assert profile.certificate_depth == profile.L + 1
    assert all(digit_sum(e) <= p - 1 for e in range(1, profile.L + 1))
    assert digit_sum(profile.L + 1) >= p
    if profile.d is not None:
        assert 1 <= profile.d <= profile.L
        assert digit_sum(profile.d) <= p - 2
        assert all(digit_sum(e) == p - 1 for e in range(profile.d + 1, profile.L + 1))
    return True


class TestDigit:
    def test_comp_p43_second_digit(self):
        assert digit(Fraction(1, 32), 43, 2) == 14

    def test_one_is_all_top_digits(self):
        for p in (2, 5, 43):
            for e in (1, 2, 7):
                assert digit(Fraction(1), p, e) == p - 1

    def test_constant_expansion_of_one_half_base_five(self):
        assert all(digit(Fraction(1, 2), 5, e) == 2 for e in range(1, 12))

    def test_zero_has_zero_digits(self):
        assert all(digit(Fraction(0), 7, e) == 0 for e in range(1, 6))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digit(Fraction(3, 2), 5, 1)
        with pytest.raises(ValueError):
            digit(Fraction(-1, 2), 5, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: scaled_truncation(Fraction(1, 3), 5, -1), "negative truncation level"),
        (lambda: digit(Fraction(1, 3), 5, 0), "digit positions start at 1"),
        (lambda: adds_without_carrying(-1, 2, 5), "expected nonnegative integers"),
        (lambda: adds_without_carrying(2, -1, 5), "expected nonnegative integers"),
    ],
    ids=["negative-level", "digit-position-0", "negative-k1", "negative-k2"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message) as raised:
        call()
    assert type(raised.value) is ValueError


class TestExpand:
    def test_comp_p47(self):
        exp = expand(Fraction(1, 32), 47)
        assert exp.preperiod == ()
        assert exp.period == (1, 22)

    def test_comp_p37(self):
        exp = expand(Fraction(5, 32), 37)
        assert exp.preperiod == ()
        assert exp.period == (5, 28, 33, 19, 24, 10, 15, 1)

    def test_terminating_value_gets_repeating_top_digit(self):
        exp = expand(Fraction(1, 2), 2)
        assert exp.preperiod == (0,)
        assert exp.period == (1,)

    def test_zero_convention(self):
        exp = expand(Fraction(0), 5)
        assert exp.preperiod == ()
        assert exp.period == (0,)

    def test_digit_bounds_and_nonzero_period(self):
        rng = Random(101)
        for _ in range(200):
            alpha = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            exp = expand(alpha, p)
            assert all(0 <= dg <= p - 1 for dg in exp.preperiod + exp.period)
            assert any(exp.period), "period of a nonzero value is never all zero"

    def test_reconstruction(self):
        rng = Random(102)
        for _ in range(300):
            den = rng.randint(1, 200)
            alpha = Fraction(rng.randint(0, den), den)
            p = rng.choice((2, 3, 5, 7, 11, 13, 37, 43, 47))
            assert expand(alpha, p).value() == alpha

    def test_expansion_agrees_with_digit_function(self):
        rng = Random(103)
        for _ in range(150):
            alpha = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            exp = expand(alpha, p)
            digits = exp.preperiod + 2 * exp.period
            for e, dg in enumerate(digits, start=1):
                assert dg == digit(alpha, p, e)


class TestTruncateAndTail:
    def test_comp_p43(self):
        assert truncate(Fraction(3, 16), 43, 1) == Fraction(8, 43)
        assert tail(Fraction(3, 16), 43, 1) == Fraction(1, 688)

    def test_level_zero_convention(self):
        assert truncate(Fraction(5, 7), 11, 0) == 0

    def test_comp_p37_level2(self):
        assert truncate(Fraction(1, 32), 37, 2) == Fraction(42, 1369)

    def test_zero_tail(self):
        assert tail(Fraction(0), 5, 3) == 0

    def test_tail_equality_case(self):
        # 1/4 = .00111... in base 2, so the level-2 truncation is 0
        assert tail(Fraction(1, 4), 2, 2) == Fraction(1, 4)

    def test_truncation_lemma_part_one(self):
        rng = Random(104)
        for _ in range(300):
            alpha = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            e = rng.randint(1, 8)
            tr = truncate(alpha, p, e)
            assert (tr * p**e).denominator == 1
            assert tr < alpha

    def test_truncation_lemma_part_two(self):
        rng = Random(105)
        for _ in range(300):
            alpha = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            e = rng.randint(1, 8)
            tl = tail(alpha, p, e)
            assert 0 < tl <= Fraction(1, p**e)
            assert (tl == Fraction(1, p**e)) == ((alpha * p**e).denominator == 1)

    def test_truncation_lemma_part_three(self):
        rng = Random(106)
        for _ in range(200):
            alpha = random_unit_fraction(rng)
            beta = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            if alpha > beta:
                alpha, beta = beta, alpha
            depth = expansion_depth(alpha, beta, p)
            assert all(truncate(alpha, p, e) <= truncate(beta, p, e) for e in range(1, depth + 1))
            if alpha < beta:
                # the converse: some level separates strictly
                assert any(truncate(alpha, p, e) < truncate(beta, p, e) for e in range(1, depth + 1))

    def test_truncation_lemma_part_four(self):
        rng = Random(107)
        for _ in range(300):
            p = rng.choice(SMALL_PRIMES)
            e = rng.randint(1, 5)
            beta = Fraction(rng.randint(0, p**e), p**e)
            alpha = random_unit_fraction(rng)
            if alpha > beta:
                assert truncate(alpha, p, e) >= beta

    def test_truncations_refine_upward(self):
        rng = Random(108)
        for _ in range(100):
            alpha = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            values = [truncate(alpha, p, e) for e in range(0, 10)]
            assert values == sorted(values)


class TestCarryProfile:
    def test_comp_p47_never_carries(self):
        profile = carry_profile(Fraction(1, 32), Fraction(5, 32), 47)
        assert profile.L is None
        assert profile.carry_free

    def test_comp_p43(self):
        profile = carry_profile(Fraction(1, 32), Fraction(5, 32), 43)
        assert (profile.L, profile.d) == (1, 1)

    def test_comp_p37(self):
        profile = carry_profile(Fraction(1, 32), Fraction(5, 32), 37)
        assert (profile.L, profile.d) == (2, 2)

    def test_mixed_periods_base_five(self):
        profile = carry_profile(Fraction(19, 62), Fraction(37, 124), 5)
        assert (profile.L, profile.d) == (2, 1)

    @pytest.mark.parametrize("zero_first", [False, True])
    def test_zero_coordinate_is_carry_free_at_once(self, zero_first):
        # the all-zero expansion of 0 never carries, so the period of
        # 1/(10^9 + 7), up to 10^9 + 6 digits long, is never walked
        pair = (Fraction(1, 10**9 + 7), Fraction(0))
        alpha, beta = pair[::-1] if zero_first else pair
        for p in (2, 3, 5, 7):
            assert carry_profile(alpha, beta, p) == CarryProfile(None, None, 0)

    def test_finite_profile_matches_digit_sums(self):
        rng = Random(109)
        seen_finite = 0
        for _ in range(300):
            alpha = random_unit_fraction(rng)
            beta = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            seen_finite += check_profile_against_digits(alpha, beta, p)
        assert seen_finite > 50

    def test_large_primes_against_digit_sums(self):
        # eta of x^97*y^3 + x^5*y^101: periods up to 792 digits near 10^6
        alpha, beta = Fraction(48, 4891), Fraction(47, 4891)
        for p in (999983, 1000003, 1000033):
            check_profile_against_digits(alpha, beta, p)

    def test_constant_digit_law(self):
        # values with (p-1)*alpha integral have constant expansions, so
        # the pair carries somewhere exactly when the sum exceeds 1
        rng = Random(110)
        for _ in range(300):
            p = rng.choice(SMALL_PRIMES)
            alpha = Fraction(rng.randint(0, p - 1), p - 1) if p > 2 else Fraction(rng.randint(0, 1))
            beta = Fraction(rng.randint(0, p - 1), p - 1) if p > 2 else Fraction(rng.randint(0, 1))
            if alpha > 0:
                assert digit(alpha, p, rng.randint(1, 9)) == (p - 1) * alpha
            profile = carry_profile(alpha, beta, p)
            assert (profile.L is None) == (alpha + beta <= 1)

    def test_carrying_identity(self):
        rng = Random(111)
        hits = 0
        for _ in range(600):
            alpha = random_unit_fraction(rng)
            beta = random_unit_fraction(rng)
            if alpha + beta > 1:
                continue
            p = rng.choice(SMALL_PRIMES)
            profile = carry_profile(alpha, beta, p)
            if profile.L is None or profile.L < 1:
                continue
            hits += 1
            L = profile.L
            assert truncate(alpha, p, L) + truncate(beta, p, L) + Fraction(1, p**L) == truncate(
                alpha + beta, p, L
            )
        assert hits > 40

    def test_integer_truncations_carry_like_the_rationals(self):
        rng = Random(112)
        for _ in range(200):
            alpha = random_unit_fraction(rng)
            beta = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            profile = carry_profile(alpha, beta, p)
            depth = expansion_depth(alpha, beta, p)
            pairwise = all(
                adds_without_carrying(
                    int(truncate(alpha, p, e) * p**e), int(truncate(beta, p, e) * p**e), p
                )
                for e in range(1, depth + 1)
            )
            assert pairwise == (profile.L is None)


class TestLucas:
    def test_frozen_examples(self):
        assert multinomial_nonzero(3, 3, 2) is False
        assert multinomial_nonzero(2, 2, 5) is True
        for k in (0, 1, 17):
            assert multinomial_nonzero(0, k, 7) is True

    def test_against_factorials(self):
        for p in SMALL_PRIMES:
            for total in range(0, 121):
                for k1 in range(0, total + 1):
                    expected = math.comb(total, k1) % p != 0
                    assert multinomial_nonzero(k1, total - k1, p) == expected


class TestRendering:
    def test_terminating_display(self):
        assert render_positional(Fraction(8, 43), 43) == ".8 (base 43)"

    def test_mixed_display(self):
        assert render_positional(Fraction(1283, 6845), 37) == ".6 34 (22 7 14 29)~ (base 37)"

    def test_one_and_zero(self):
        assert render_positional(Fraction(1), 5) == "1 (base 5)"
        assert render_positional(Fraction(0), 5) == ".0 (base 5)"

    def test_positional_digits_prefer_terminating(self):
        assert positional_digits(Fraction(8, 43), 43) == ([8], [])
        assert positional_digits(Fraction(1283, 6845), 37) == ([6, 34], [22, 7, 14, 29])

    def test_positional_digits_reconstruct(self):
        rng = Random(113)
        for _ in range(200):
            alpha = random_unit_fraction(rng)
            p = rng.choice(SMALL_PRIMES)
            pre, per = positional_digits(alpha, p)
            value = sum(Fraction(dg, p ** (i + 1)) for i, dg in enumerate(pre))
            if per:
                block = sum(Fraction(dg, p ** (i + 1)) for i, dg in enumerate(per))
                value += block * Fraction(1, p ** len(pre)) * Fraction(p ** len(per), p ** len(per) - 1)
            if not pre and not per:
                value = Fraction(1)
            assert value == alpha


class TestPositionalDigits:
    PRIMES = (2, 3, 37, 10007)

    def test_p_power_denominators_terminate(self):
        rng = Random(131)
        for p in self.PRIMES:
            for j in range(1, 7):
                for _ in range(6):
                    k = rng.randrange(1, p**j)
                    while k % p == 0:
                        k = rng.randrange(1, p**j)
                    pre, per = positional_digits(Fraction(k, p**j), p)
                    assert per == []
                    assert len(pre) == j and pre[-1] != 0
                    assert all(0 <= dg < p for dg in pre)
                    assert sum(dg * p ** (j - 1 - i) for i, dg in enumerate(pre)) == k

    def test_other_denominators_have_minimal_period(self):
        # for den = p^v * c with gcd(c, p) = 1 and c > 1, the minimal
        # preperiod has v digits and the minimal period ord_c(p)
        rng = Random(137)
        for p in self.PRIMES:
            for _ in range(40):
                c = rng.randint(2, 60)
                if c % p == 0:
                    continue
                v = rng.randint(0, 3)
                den = p**v * c
                k = rng.randrange(1, den)
                while math.gcd(k, den) != 1:
                    k = rng.randrange(1, den)
                alpha = Fraction(k, den)
                pre, per = positional_digits(alpha, p)
                order = next(t for t in range(1, c) if pow(p, t, c) == 1)
                assert (len(pre), len(per)) == (v, order)
                assert DigitExpansion(p, tuple(pre), tuple(per)).value() == alpha

    def test_base_checked_before_shortcuts(self):
        with pytest.raises(ValueError, match="base"):
            positional_digits(Fraction(0), 1)
        with pytest.raises(ValueError, match="base"):
            positional_digits(Fraction(1), 1)

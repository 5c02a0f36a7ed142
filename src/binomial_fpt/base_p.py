"""Base-p digits, truncations, and carry analysis for rationals in [0, 1].

Every alpha in (0, 1] has a unique base-p expansion that does not
terminate: values with a p-power denominator are written with a tail of
repeating (p - 1) digits instead of trailing zeros.  All digit queries
in this module refer to that non-terminating expansion; alpha = 0 is
the convention all-zero expansion.

The e-th truncation <alpha>_e keeps the first e digits, so the tail
alpha - <alpha>_e always lies in (0, 1/p^e] for positive alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _check_unit_interval(alpha: Fraction) -> None:
    # compared as integers, which is several times cheaper than as Fractions
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise ValueError("value must lie in [0, 1]")


def _check_base(p: int) -> None:
    if p < 2:
        raise ValueError("base must be at least 2")


def scaled_truncation(alpha: Fraction, p: int, e: int) -> int:
    """p**e * <alpha>_e as an integer, for alpha in [0, 1].

    Closed form: ceil(p^e alpha) - 1, which for alpha = n/D is
    (n p^e - 1) // D on integers; 0 for alpha = 0 regardless of e.
    """
    _check_unit_interval(alpha)
    _check_base(p)
    if e < 0:
        raise ValueError("negative truncation level")
    n = alpha.numerator
    return (n * p**e - 1) // alpha.denominator if n else 0


def truncate(alpha: Fraction, p: int, e: int) -> Fraction:
    """<alpha>_e: the first e digits of alpha, as a rational."""
    return Fraction(scaled_truncation(alpha, p, e), p**e)


def tail(alpha: Fraction, p: int, e: int) -> Fraction:
    """alpha - <alpha>_e; lies in (0, 1/p^e] when alpha > 0."""
    return alpha - truncate(alpha, p, e)


def digit(alpha: Fraction, p: int, e: int) -> int:
    """The e-th digit (1-based) of the non-terminating expansion."""
    if e < 1:
        raise ValueError("digit positions start at 1")
    return scaled_truncation(alpha, p, e) - p * scaled_truncation(alpha, p, e - 1)


@dataclass(frozen=True)
class DigitExpansion:
    """Eventually periodic digit string of some alpha in [0, 1].

    The period is never empty.  A repeating block of a single 0 is only
    produced for alpha = 0; every positive value ends in a genuinely
    repeating nonzero pattern (possibly the all-(p-1) tail).
    """

    prime: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def value(self) -> Fraction:
        """Exact rational reconstruction of the expansion."""
        p = self.prime
        pre_len, per_len = len(self.preperiod), len(self.period)
        pre_int = 0
        for dg in self.preperiod:
            pre_int = pre_int * p + dg
        per_int = 0
        for dg in self.period:
            per_int = per_int * p + dg
        return Fraction(pre_int, p**pre_len) + Fraction(
            per_int, p**pre_len * (p**per_len - 1)
        )


def expand(alpha: Fraction, p: int) -> DigitExpansion:
    """Non-terminating base-p expansion of alpha in [0, 1].

    Runs the long-division state machine on scaled tails: with
    t = num/den in (0, 1], the next digit is (p*num - 1) // den and the
    next state is p*num - digit*den.  States repeat within den steps,
    which pins down the minimal preperiod and period exactly.
    """
    _check_unit_interval(alpha)
    _check_base(p)
    if alpha == 0:
        return DigitExpansion(p, (), (0,))
    den = alpha.denominator
    num = alpha.numerator
    digits: list[int] = []
    seen: dict[int, int] = {}
    while num not in seen:
        seen[num] = len(digits)
        dg = (p * num - 1) // den
        digits.append(dg)
        num = p * num - dg * den
    start = seen[num]
    return DigitExpansion(p, tuple(digits[:start]), tuple(digits[start:]))


def positional_digits(alpha: Fraction, p: int) -> tuple[list[int], list[int]]:
    """Display digits of alpha: (leading digits, repeating block).

    Read off expand(): values with a p-power denominator end in the
    period (p - 1,), which folds into the last leading digit to give
    their terminating form, with an empty repeating block.
    """
    _check_unit_interval(alpha)
    _check_base(p)
    if alpha == 0:
        return [0], []
    if alpha == 1:
        return [], []  # no fractional digits; callers render the integer part
    digits = expand(alpha, p)
    head, block = list(digits.preperiod), list(digits.period)
    if block == [p - 1]:
        # alpha < 1 leaves a preperiod; minimality keeps its last digit below p - 1
        head[-1] += 1
        return head, []
    return head, block


def render_positional(alpha: Fraction, p: int) -> str:
    """Human rendering of a value in [0, 1], terminating form preferred."""
    if alpha == 1:
        return f"1 (base {p})"
    head, block = positional_digits(alpha, p)
    parts = " ".join(str(d) for d in head)
    if block:
        tail_part = "(" + " ".join(str(d) for d in block) + ")~"
        parts = f"{parts} {tail_part}" if parts else tail_part
    return f".{parts} (base {p})"


@dataclass(frozen=True)
class CarryProfile:
    """Carry analysis for a pair of digit expansions.

    L is the last position before the first carry when adding the two
    expansions digit by digit (None when no carry ever occurs).  d is
    the last position at or before L whose digit sum is at most p - 2
    (None when no such position exists).  certificate_depth is the
    number of positions inspected: L + 1 when a carry occurs, 0 when
    either value is 0 (its all-zero expansion never carries), and
    otherwise the combined preperiod plus one full combined period,
    which certifies the carry-free case.
    """

    L: int | None
    d: int | None
    certificate_depth: int

    @property
    def carry_free(self) -> bool:
        return self.L is None


def carry_profile(alpha: Fraction, beta: Fraction, p: int) -> CarryProfile:
    """Locate the first carry when adding alpha and beta digit by digit.

    Runs the long divisions of expand() for both values in lockstep and
    stops at the first carry, or when the pair of division states
    repeats: the digit pairs cycle from there on, so none carries.
    """
    _check_unit_interval(alpha)
    _check_unit_interval(beta)
    _check_base(p)
    n1, den1 = alpha.numerator, alpha.denominator
    n2, den2 = beta.numerator, beta.denominator
    if not n1 or not n2:
        return CarryProfile(None, None, 0)
    seen: set[tuple[int, int]] = set()
    last_small: int | None = None
    e = 0
    while (n1, n2) not in seen:
        seen.add((n1, n2))
        e += 1
        d1 = (p * n1 - 1) // den1
        d2 = (p * n2 - 1) // den2
        if d1 + d2 >= p:
            return CarryProfile(e - 1, last_small, e)
        if d1 + d2 <= p - 2:
            last_small = e
        n1, n2 = p * n1 - d1 * den1, p * n2 - d2 * den2
    return CarryProfile(None, None, e)


def adds_without_carrying(k1: int, k2: int, p: int) -> bool:
    """True when the base-p additions of k1 and k2 involve no carry."""
    if k1 < 0 or k2 < 0:
        raise ValueError("expected nonnegative integers")
    _check_base(p)
    while k1 or k2:
        if k1 % p + k2 % p >= p:
            return False
        k1 //= p
        k2 //= p
    return True


# Whether binom(k1 + k2, k1) is nonzero mod the prime p: by Lucas' rule,
# exactly when k1 and k2 add without carrying in base p.
multinomial_nonzero = adds_without_carrying

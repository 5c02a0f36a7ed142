"""Brute-force Frobenius oracles.

nu(e) is the largest l such that f^l stays outside the ideal generated
by the p^e-th powers of the variables.  The engine predicts it as
p^e times the e-th truncation of the threshold; the two oracles below
recompute it independently:

  * nu_semigroup maximizes k1 + k2 over carry-free (in base p) lattice
    pairs with a_i k1 + b_i k2 <= p^e - 1 on every row, taking for each
    k1 the largest such k2 by one digit walk;
  * nu_naive raises f to successive powers with genuine sparse
    polynomial arithmetic over F_p, discarding monomials with any
    exponent >= p^e.

Both are exponential-in-e desk tools, so each refuses p^e past its
budget, SEMIGROUP_BUDGET or NAIVE_BUDGET, read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_p import scaled_truncation
from .engine import Binomial, FptResult
from .primes import is_prime

SEMIGROUP_BUDGET = 2**14
NAIVE_BUDGET = 256


class BudgetExceeded(Exception):
    """p^e is past an oracle's budget."""


def _check_budget(p: int, e: int, budget: int, name: str) -> None:
    """Raise BudgetExceeded unless p^e <= budget.

    Since p >= 2, every e >= budget.bit_length() is past the budget, so
    a huge level fails before p^e is built.
    """
    if e >= budget.bit_length() or p**e > budget:
        raise BudgetExceeded(f"p^e = {p}^{e} exceeds the {name} {budget}")


@dataclass(frozen=True)
class NuQuery:
    binomial: Binomial
    prime: int
    level: int

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError("p must be prime")
        if self.level < 1:
            raise ValueError("level must be at least 1")
        if not self.binomial.vanishes_at_origin():
            raise ValueError("input does not vanish at the origin")
        coefficients = (self.binomial.coeff1, self.binomial.coeff2)
        if any(c is not None and c % self.prime == 0 for c in coefficients):
            raise ValueError("zero coefficient mod p")


@dataclass(frozen=True)
class VerificationReport:
    predicted_nu: int
    semigroup_nu: int
    naive_nu: int | None
    match: bool


def _largest_carry_free(bound: int, k1: int, p: int) -> int:
    """Largest k2 <= bound whose base-p digits add to k1's without carrying.

    Walk bound's digits from the top, copying each that fits in the room
    p - 1 - (k1's digit).  At the first misfit, with top = p^(its place + 1),
    put the room there and below: k1's complement top - 1 - k1 % top.  That
    is exact, as 0 always fits and a copied digit beats any lower one.  At
    p = 2 the misfit is the top bit of bound & k1.
    """
    if p == 2:
        top = 1 << (bound & k1).bit_length()
    else:
        place = 1
        while place * p <= bound:
            place *= p
        while place and bound // place % p + k1 // place % p < p:
            place //= p
        top = place * p or 1
    return bound - bound % top + top - 1 - k1 % top


def nu_semigroup(query: NuQuery) -> int:
    """max{k1 + k2 : E(k1,k2) <= p^e - 1 rowwise, carry-free addition}.

    Each k1 takes the largest carry-free k2 under its row bound by a digit walk.
    """
    p, e = query.prime, query.level
    _check_budget(p, e, SEMIGROUP_BUDGET, "semigroup budget")
    q = p**e
    g = query.binomial
    rows = list(zip(g.a, g.b))
    cap = q - 1
    k1_max = min(cap // a for a, _ in rows if a > 0)
    b_rows = [(a, b) for a, b in rows if b > 0]
    best = 0
    for k1 in range(k1_max + 1):
        k2_max = min((cap - a * k1) // b for a, b in b_rows)
        if k1 + k2_max <= best:
            continue
        best = max(best, k1 + _largest_carry_free(k2_max, k1, p))
    return best


def nu_naive(query: NuQuery) -> int:
    """Largest l with f^l nonzero after discarding exponents >= p^e.

    Powers are built incrementally in the quotient ring, as dictionaries
    mapping exponent tuples to nonzero residues mod p.  Once a power
    reduces to zero every later power does too, so the loop stops at the
    first zero.  Uses the supplied coefficients (defaults 1, 1).
    """
    p, e = query.prime, query.level
    _check_budget(p, e, NAIVE_BUDGET, "naive budget")
    q = p**e
    g = query.binomial
    c1 = 1 if g.coeff1 is None else g.coeff1 % p
    c2 = 1 if g.coeff2 is None else g.coeff2 % p
    terms = ((g.a, c1), (g.b, c2))
    power: dict[tuple[int, ...], int] = {(0,) * len(g.variables): 1}
    hard_cap = len(g.variables) * (q - 1) + 1
    for level in range(1, hard_cap + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for mono, coef in power.items():
            for exps, c in terms:
                prod = tuple(x + y for x, y in zip(mono, exps))
                if any(x >= q for x in prod):
                    continue
                val = (nxt.get(prod, 0) + coef * c) % p
                if val:
                    nxt[prod] = val
                elif prod in nxt:
                    del nxt[prod]
        if not nxt:
            return level - 1
        power = nxt
    raise RuntimeError("power iteration failed to terminate")


def nu_monomial(exponents: tuple[int, ...], prime: int, level: int) -> int:
    """Largest l with (x^a)^l outside the Frobenius power, by powering.

    The degenerate one-term case: no binomial coefficients arise, so
    the semigroup and naive methods coincide.  Kept as real iteration
    rather than a closed form so it stays an independent check.
    """
    if not is_prime(prime):
        raise ValueError("p must be prime")
    if level < 1:
        raise ValueError("level must be at least 1")
    if not any(exponents) or any(x < 0 for x in exponents):
        raise ValueError("monomial must be nonconstant with nonnegative exponents")
    _check_budget(prime, level, SEMIGROUP_BUDGET, "budget")
    q = prime**level
    power = tuple(0 for _ in exponents)
    count = 0
    while True:
        power = tuple(x + y for x, y in zip(power, exponents))
        if any(x >= q for x in power):
            return count
        count += 1


def verify(query: NuQuery, predicted: FptResult) -> VerificationReport:
    """Compare the engine's predicted nu(e) against both oracles.

    The naive oracle is skipped (reported as None) when p^e is past its
    budget; the semigroup oracle always runs, and first, so its budget
    still applies before the prediction builds p^e.
    """
    semigroup = nu_semigroup(query)
    predicted_nu = scaled_truncation(predicted.value, query.prime, query.level)
    try:
        naive: int | None = nu_naive(query)
    except BudgetExceeded:
        naive = None
    match = predicted_nu == semigroup and (naive is None or naive == predicted_nu)
    return VerificationReport(predicted_nu, semigroup, naive, match)

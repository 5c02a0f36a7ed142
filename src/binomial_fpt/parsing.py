"""Text form of binomials.

Grammar: two '+'-separated terms; a term is an optional integer
coefficient followed by '*'-separated factors; a factor is a variable
name with an optional '^' exponent in 1..EXPONENT_MAX.  Examples:

    x^7*y^2 + x^5*y^6
    3*u*v + u^4
    x + y^2

Variables are ordered by first appearance, repeated factors multiply
out, and a coefficient of one is normalized away so that parsing and
serializing are mutually inverse on canonical text.
"""

from __future__ import annotations

import re

from .engine import Binomial

_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^([0-9]+))?$")
_COEFF = re.compile(r"^[+-]?[0-9]+$")
# the carry step walks eta's leading zero digits on integers as long as its
# denominator: at p = 2 a prime takes 0.07 ms with exponents near 10^18, 0.47 ms
# near 10^100 and 26 ms near 10^1000 (Xeon, Python 3.11)
EXPONENT_MAX = 10**18


class ParseError(ValueError):
    pass


def _parse_term(term: str, position: int) -> tuple[int | None, dict[str, int]]:
    tokens = [tok.strip() for tok in term.split("*")]
    if any(not tok for tok in tokens):
        raise ParseError(f"empty factor in term {position}")
    coeff: int | None = None
    if _COEFF.match(tokens[0]):
        coeff = int(tokens[0])
        if coeff == 0:
            raise ParseError("zero coefficient")
        tokens = tokens[1:]
    if not tokens:
        raise ParseError(f"term {position} has no variables")
    exponents: dict[str, int] = {}
    for tok in tokens:
        m = _FACTOR.match(tok)
        if not m:
            raise ParseError(f"malformed factor {tok!r}")
        var, exp_text = m.group(1), m.group(2)
        if exp_text is not None:
            exp = int(exp_text)
            if exp < 1:
                raise ParseError(f"malformed exponent in {tok!r}")
        else:
            exp = 1
        exponents[var] = exponents.get(var, 0) + exp
        if exponents[var] > EXPONENT_MAX:
            raise ParseError(f"exponent of {var} exceeds {EXPONENT_MAX}")
    return coeff, exponents


def _reduce(coeff: int | None, prime: int | None) -> int | None:
    """The coefficient rule: reduce mod the prime when given, reject a
    coefficient that vanishes there, and normalize one away to None."""
    if coeff is not None and prime is not None:
        coeff %= prime
        if coeff == 0:
            raise ParseError("zero coefficient mod p")
    return None if coeff == 1 else coeff


def parse(text: str, prime: int | None = None) -> Binomial:
    """Parse binomial text; with a prime, reduce coefficients mod p.

    Raises ParseError when the text does not have exactly two terms,
    the two monomials coincide, a coefficient vanishes (mod p when
    given), a factor is malformed or an exponent exceeds EXPONENT_MAX.
    """
    terms = [t.strip() for t in text.split("+")]
    if len(terms) != 2:
        raise ParseError("expected exactly two terms")
    (c1, m1), (c2, m2) = (_parse_term(t, i + 1) for i, t in enumerate(terms))
    if m1 == m2:
        raise ParseError("repeated monomial")
    variables = tuple(dict.fromkeys([*m1, *m2]))
    a = tuple(m1.get(v, 0) for v in variables)
    b = tuple(m2.get(v, 0) for v in variables)
    return Binomial(variables, a, b, _reduce(c1, prime), _reduce(c2, prime))


def parse_monomial(text: str, prime: int | None = None) -> tuple[str, tuple[int, ...]]:
    """Parse a single nonconstant monomial into its canonical text, by the
    term and coefficient rules of parse, and its exponents.

    Degenerate input for the brute-force oracles, which also answer
    nu queries for one-term polynomials; the threshold pipeline proper
    accepts only binomials.
    """
    coeff, exponents = _parse_term(text.strip(), 1)
    exps = tuple(exponents.values())
    return _term_text(_reduce(coeff, prime), tuple(exponents), exps), exps


def _term_text(coeff: int | None, variables: tuple[str, ...], exps: tuple[int, ...]) -> str:
    factors = []
    if coeff is not None:
        factors.append(str(coeff))
    for var, exp in zip(variables, exps):
        if exp == 1:
            factors.append(var)
        elif exp > 1:
            factors.append(f"{var}^{exp}")
    return "*".join(factors)


def binomial_to_text(g: Binomial) -> str:
    """Canonical text form; parse() of the result reproduces g."""
    first = _term_text(g.coeff1, g.variables, g.a)
    second = _term_text(g.coeff2, g.variables, g.b)
    return f"{first} + {second}"

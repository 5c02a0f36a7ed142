"""Polynomial text grammar."""

import time
from random import Random

import pytest

from binomial_fpt import ParseError, binomial_to_text, parse, parse_monomial
from binomial_fpt.parsing import EXPONENT_MAX

from conftest import random_binomial


class TestParse:
    def test_comp_polynomial(self):
        g = parse("x^7*y^2 + x^5*y^6")
        assert g.variables == ("x", "y")
        assert g.a == (7, 2)
        assert g.b == (5, 6)
        assert g.coeff1 is None and g.coeff2 is None

    def test_figure_polynomial(self):
        g = parse("x*y^4*z^7 + x^9*y^8*z^4")
        assert g.variables == ("x", "y", "z")
        assert g.a == (1, 4, 7)
        assert g.b == (9, 8, 4)

    def test_variables_ordered_by_first_appearance(self):
        g = parse("y^2*x + z*y")
        assert g.variables == ("y", "x", "z")
        assert g.a == (2, 1, 0)
        assert g.b == (1, 0, 1)

    def test_many_variables_parse_in_linear_time(self):
        """20 000 variables parse in about 0.1 s; a quadratic ordering takes seconds."""
        n = 20000
        text = "*".join(f"v{i}" for i in range(n)) + " + " + "*".join(f"v{i}^2" for i in range(n))
        start = time.perf_counter()
        g = parse(text)
        assert time.perf_counter() - start < 1.0
        assert g.variables == tuple(f"v{i}" for i in range(n))

    def test_repeated_factors_accumulate(self):
        g = parse("x*x^2 + y")
        assert g.a == (3, 0)

    def test_coefficients(self):
        g = parse("3*x + 2*y", prime=5)
        assert (g.coeff1, g.coeff2) == (3, 2)

    def test_coefficient_one_normalized(self):
        g = parse("1*x + y")
        assert g.coeff1 is None

    def test_coefficient_reduced_mod_p(self):
        g = parse("8*x + y", prime=5)
        assert g.coeff1 == 3

    def test_not_two_terms(self):
        with pytest.raises(ParseError, match="exactly two terms"):
            parse("x")
        with pytest.raises(ParseError, match="exactly two terms"):
            parse("x + y + z")

    def test_repeated_monomial(self):
        with pytest.raises(ParseError, match="repeated monomial"):
            parse("x^2 + x^2")
        with pytest.raises(ParseError, match="repeated monomial"):
            parse("2*x*y + 3*y*x")

    def test_zero_coefficient(self):
        with pytest.raises(ParseError, match="zero coefficient"):
            parse("0*x + y")
        with pytest.raises(ParseError, match="zero coefficient mod p"):
            parse("5*x + y", prime=5)

    def test_malformed_exponent(self):
        with pytest.raises(ParseError, match="malformed"):
            parse("x^ + y")
        with pytest.raises(ParseError, match="malformed exponent"):
            parse("x^0 + y")
        with pytest.raises(ParseError, match="malformed"):
            parse("x^-2 + y")

    def test_empty_factor(self):
        with pytest.raises(ParseError, match="empty factor"):
            parse("x* + y")

    def test_exponent_bound(self):
        assert parse(f"x^{EXPONENT_MAX} + y").a == (EXPONENT_MAX, 0)
        assert parse_monomial(f"x^{EXPONENT_MAX}") == (f"x^{EXPONENT_MAX}", (EXPONENT_MAX,))
        message = f"exponent of x exceeds {EXPONENT_MAX}"
        for text in (f"x^{EXPONENT_MAX + 1} + y", f"y + x^{EXPONENT_MAX}*x"):
            with pytest.raises(ParseError, match=message):
                parse(text)
        with pytest.raises(ParseError, match=message):
            parse_monomial(f"x^{EXPONENT_MAX + 1}")


class TestMonomial:
    def test_single_variable(self):
        assert parse_monomial("x") == ("x", (1,))

    def test_product(self):
        assert parse_monomial("x^3*y") == ("x^3*y", (3, 1))

    def test_constant_rejected(self):
        with pytest.raises(ParseError):
            parse_monomial("7")

    def test_coefficient_checked_mod_p(self):
        with pytest.raises(ParseError, match="zero coefficient mod p"):
            parse_monomial("5*x", 5)
        assert parse_monomial("5*x", 7) == ("5*x", (1,))


class TestRoundTrip:
    def test_canonical_examples(self):
        for text in ("x^7*y^2 + x^5*y^6", "x + y^2", "3*u*v + u^4"):
            g = parse(text)
            assert binomial_to_text(g) == text
            assert parse(binomial_to_text(g)) == g

    def test_random_round_trip(self):
        # canonical form orders variables by first appearance, so one
        # parse pass canonicalizes and the cycle is then the identity
        rng = Random(501)
        for _ in range(200):
            canonical = parse(binomial_to_text(random_binomial(rng)))
            assert parse(binomial_to_text(canonical)) == canonical

"""End-to-end threshold computation: factoring, min rule, case dispatch."""

import time
from dataclasses import replace
from fractions import Fraction
from math import lcm
from random import Random

import pytest

import binomial_fpt.engine as engine
from binomial_fpt import (
    Binomial,
    CarryProfile,
    FptCase,
    NuQuery,
    Point2,
    build,
    carry_profile,
    contains_lower_interior,
    fpt,
    fpt_limit,
    fpt_truncation,
    nu_naive,
    nu_semigroup,
    prepare,
    scaled_truncation,
    tail,
    truncate,
)
from binomial_fpt.primes import primes_between

from conftest import random_binomial, ray_max_delta

COMP = Binomial(("x", "y"), (7, 2), (5, 6))


class TestBinomialChecks:
    @pytest.mark.parametrize(
        "variables, a, b, message",
        [
            (("x", "y"), (-1, 1), (1, 0), "exponents must be nonnegative"),
            (("x", "y"), (1, 2), (1, 2), "monomials not distinct"),
            (("x", "y"), (1, 0), (2, 0), "variable appears in neither monomial"),
            (("x", "y"), (1,), (0, 1), "exponent vectors must match the variable list"),
            (("x", "x"), (1, 0), (0, 1), "repeated variable name"),
            # the negative exponent fires before the equal monomials
            (("x",), (-1,), (-1,), "exponents must be nonnegative"),
        ],
        ids=["negative", "equal", "neither", "length", "repeated-name", "order"],
    )
    def test_malformed_binomial_message(self, variables, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Binomial(variables, a, b)


class TestFactor:
    """prepare splits g: equal exponents leave for the monomial part."""

    def test_shared_variable_factored(self):
        plan = prepare(Binomial(("x", "y", "z"), (3, 0, 4), (0, 3, 4)))
        assert plan.monomial_fpt == Fraction(1, 4)
        matrix, mp = plan.core
        assert matrix == build((3, 0), (0, 3))
        assert mp.sum == Fraction(2, 3)
        assert plan.limit == Fraction(1, 4)

    def test_nothing_shared(self):
        plan = prepare(COMP)
        assert plan.monomial_fpt is None
        assert plan.core[0] == build(COMP.a, COMP.b)

    def test_unit_core(self):
        plan = prepare(Binomial(("x", "y"), (2, 0), (2, 1)))
        assert plan.monomial_fpt == Fraction(1, 2)
        assert plan.core is None
        assert plan.limit == Fraction(1, 2)


class TestMonomialFpt:
    def test_examples(self):
        """The monomial part's threshold is 1/(largest shared exponent)."""
        cases = [
            (Binomial(("x", "y", "z"), (3, 5, 1), (3, 5, 0)), Fraction(1, 5)),
            (Binomial(("x", "y", "z"), (1, 1, 0), (1, 0, 1)), Fraction(1)),
            (Binomial(("x", "y", "z"), (2, 1, 0), (2, 0, 1)), Fraction(1, 2)),
            (COMP, None),
        ]
        for g, expected in cases:
            assert prepare(g).monomial_fpt == expected


class TestCoreCases:
    def test_carry_free_p47(self):
        result = fpt(COMP, 47)
        assert result.value == Fraction(3, 16)
        assert result.case is FptCase.CARRY_FREE
        assert result.eta == (Fraction(1, 32), Fraction(5, 32))
        assert result.eta_sum == Fraction(3, 16)
        assert result.carry_free

    def test_truncated_p43(self):
        result = fpt(COMP, 43)
        assert result.value == Fraction(8, 43)
        assert result.case is FptCase.TRUNCATED
        assert (result.L, result.d) == (1, 1)
        assert result.epsilon is None

    def test_truncated_plus_epsilon_p37(self):
        result = fpt(COMP, 37)
        assert result.value == Fraction(1283, 6845)
        assert result.case is FptCase.TRUNCATED_PLUS_EPSILON
        assert (result.L, result.d) == (2, 2)
        assert result.epsilon == Fraction(3, 6845)
        assert result.value == Fraction(256, 1369) + Fraction(3, 6845)

    def test_standard_above_one(self):
        g = Binomial(("x", "y"), (1, 0), (0, 2))
        for p in (2, 5, 11):
            result = fpt(g, p)
            assert result.value == 1
            assert result.case is FptCase.STANDARD_GT1
            assert result.eta_sum == Fraction(3, 2)
        # a linear factor pins nu at p^e - 1
        assert nu_semigroup(NuQuery(g, 3, 2)) == 8

    def test_divisible_monomial_lands_carry_free(self):
        g = Binomial(("x",), (2,), (5,))
        for p in (2, 3, 7):
            result = fpt(g, p)
            assert result.case is FptCase.CARRY_FREE
            assert result.value == Fraction(1, 2)
            assert result.eta == (Fraction(1, 2), Fraction(0))


class TestMinRule:
    def test_monomial_wins(self):
        g = Binomial(("x", "y", "z"), (3, 0, 4), (0, 3, 4))
        for p in (5, 7, 13):
            result = fpt(g, p)
            assert result.value == Fraction(1, 4)
            assert result.case is FptCase.MIN_COMBINED
            assert result.monomial_fpt == Fraction(1, 4)
        # the core x^3 + y^3 is carry-free exactly when p = 1 mod 3
        assert fpt(g, 7).core_fpt == Fraction(2, 3)
        assert fpt(g, 13).core_fpt == Fraction(2, 3)
        assert fpt(g, 5).core_fpt == Fraction(3, 5)

    def test_unit_core_drops_out(self):
        result = fpt(Binomial(("x", "y"), (2, 0), (2, 1)), 5)
        assert result.value == Fraction(1, 2)
        assert result.case is FptCase.MONOMIAL_ONLY
        assert result.core_fpt is None

    def test_comp_p97(self):
        result = fpt(COMP, 97)
        assert result.value == Fraction(3, 16)
        assert result.case is FptCase.CARRY_FREE

    def test_non_vanishing_rejected(self):
        with pytest.raises(ValueError, match="does not vanish at the origin"):
            fpt(Binomial(("y",), (0,), (1,)), 5)


class TestPlan:
    def test_plan_agrees_with_fpt_and_limit(self):
        rng = Random(306)
        for _ in range(40):
            g = random_binomial(rng)
            plan = prepare(g)
            assert plan.limit == fpt_limit(g)
            for p in (2, 3, 5, 7, 11):
                assert plan.at(p) == fpt(g, p)

    def test_maximal_point_on_an_axis_is_carry_free_at_once(self):
        # x^N + x^(N+1)*y has eta = (1/N, 0): its zero coordinate never
        # carries, so no prime walks the period of 1/N
        n = 10**9 + 7
        plan = prepare(Binomial(("x", "y"), (n, 0), (n + 1, 1)))
        for p in (2, 3, 5, 7, 10007):
            start = time.perf_counter()
            result = plan.at(p)
            assert time.perf_counter() - start < 0.5
            assert (result.case, result.value) == (FptCase.CARRY_FREE, Fraction(1, n))

    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError, match="p must be prime"):
            prepare(COMP).at(4)

    def test_non_vanishing_rejected(self):
        with pytest.raises(ValueError, match="does not vanish at the origin"):
            prepare(Binomial(("y",), (0,), (1,)))


class TestLargeCore:
    def test_512_row_core_runs_in_wall_clock_budget(self):
        # the vertex walk is O(m log m); a cubic one takes seconds here
        rng = Random(307)
        rows = []
        while len(rows) < 512:
            a, b = rng.randint(1, 1000), rng.randint(1, 1000)
            if a != b:
                rows.append((a, b))
        names = tuple(f"x{i}" for i in range(512))
        g = Binomial(names, tuple(a for a, _ in rows), tuple(b for _, b in rows))
        for p in (2, 10007):
            start = time.perf_counter()
            fpt(g, p)
            assert time.perf_counter() - start < 0.5


class TestCarryStepGuards:
    """Each invariant carry_step and prepare check raises when forced to
    fail; a raise, unlike an assert, holds under python -O (test_run_mode.py)."""

    def test_carry_profile_out_of_range(self, monkeypatch):
        monkeypatch.setattr(engine, "carry_profile", lambda a, b, p: CarryProfile(1, 2, 2))
        with pytest.raises(RuntimeError, match="out of range"):
            fpt(COMP, 37)

    def test_digit_carry_identity(self, monkeypatch):
        # the true profile at p = 37 is L = d = 2
        monkeypatch.setattr(engine, "carry_profile", lambda a, b, p: CarryProfile(2, 1, 3))
        with pytest.raises(RuntimeError, match="digit-carry identity"):
            fpt(COMP, 37)

    def test_epsilon_bounds(self, monkeypatch):
        monkeypatch.setattr(engine, "tail", lambda alpha, p, e: Fraction(0))
        with pytest.raises(RuntimeError, match="epsilon outside"):
            fpt(COMP, 37)

    def test_epsilon_equality_law(self, monkeypatch):
        # epsilon = 3/6845 at p = 37 sits strictly below the tail, and
        # no candidate coordinate lies on the 37^-2 lattice
        monkeypatch.setattr(engine, "tail", lambda alpha, p, e: Fraction(3, 6845))
        with pytest.raises(RuntimeError, match="equality criterion"):
            fpt(COMP, 37)

    def test_no_small_digit_before_the_carry(self, monkeypatch):
        monkeypatch.setattr(engine, "carry_profile", lambda a, b, p: CarryProfile(2, None, 3))
        with pytest.raises(RuntimeError, match="no digit position with sum <= p - 2"):
            fpt(COMP, 37)

    def test_constant_row_reaching_the_core(self, monkeypatch):
        # the rows with a = b, the only ones that make the maximal face an
        # edge, go to the monomial part, so only a forced None gets here
        monkeypatch.setattr(engine, "maximal_point", lambda matrix: None)
        with pytest.raises(RuntimeError, match="constant row reached core"):
            prepare(COMP)


class TestTruncationAndLimit:
    def test_cross_prime_truncation(self):
        result_3_16 = fpt(COMP, 47)
        assert fpt_truncation(result_3_16, 43, 1) == Fraction(8, 43)

    def test_truncation_of_one(self):
        result = fpt(Binomial(("x", "y"), (1, 0), (0, 2)), 7)
        assert fpt_truncation(result, 7, 3) == Fraction(7**3 - 1, 7**3)

    def test_p37_level_two(self):
        result = fpt(COMP, 37)
        assert fpt_truncation(result, 37, 2) == Fraction(256, 1369)

    def test_limits(self):
        assert fpt_limit(COMP) == Fraction(3, 16)
        assert fpt_limit(Binomial(("x", "y"), (1, 0), (0, 2))) == 1
        assert fpt_limit(Binomial(("x", "y", "z"), (3, 0, 4), (0, 3, 4))) == Fraction(1, 4)

    def test_truncations_increase_and_converge(self):
        rng = Random(301)
        for _ in range(60):
            g = random_binomial(rng)
            p = rng.choice((2, 3, 5, 7, 11))
            result = fpt(g, p)
            last = Fraction(0)
            for e in range(1, 9):
                tr = fpt_truncation(result, p, e)
                assert tr >= last
                assert 0 < result.value - tr <= Fraction(1, p**e)
                last = tr


class TestPowerOfTwo:
    def test_power_of_two_prime_reaches_limit_with_carrying(self):
        # At p = 2 the eta digits carry at position 6, yet the epsilon
        # correction attains its upper bound (1/32 is a lattice point at
        # level d = 5), so the threshold still reaches 3/16 exactly.
        result = fpt(COMP, 2)
        assert result.value == Fraction(3, 16)
        assert result.case is FptCase.TRUNCATED_PLUS_EPSILON
        assert (result.L, result.d) == (5, 5)
        assert result.epsilon == Fraction(1, 32)
        assert result.epsilon == tail(result.eta_sum, 2, 5)
        assert not result.carry_free

        expected = [0, 0, 1, 2, 5, 11, 23, 47]
        for e, nu in enumerate(expected, start=1):
            assert scaled_truncation(result.value, 2, e) == nu
            assert nu_semigroup(NuQuery(COMP, 2, e)) == nu
            assert nu_naive(NuQuery(COMP, 2, e)) == nu


class TestResultShape:
    def test_value_range_and_diagnostics(self):
        rng = Random(302)
        for _ in range(150):
            g = random_binomial(rng)
            p = rng.choice((2, 3, 5, 7, 11, 13))
            result = fpt(g, p)
            assert 0 < result.value <= 1
            if result.eta is not None:
                assert result.eta_sum == result.eta.s1 + result.eta.s2
            if result.case is FptCase.CARRY_FREE:
                assert result.value == min(result.eta_sum, result.monomial_fpt or 1)
            if result.case is FptCase.TRUNCATED_PLUS_EPSILON:
                assert result.epsilon is not None and result.epsilon > 0

    def test_epsilon_bounds_and_equality_law(self):
        rng = Random(303)
        seen = 0
        for _ in range(400):
            g = random_binomial(rng)
            p = rng.choice((2, 3, 5, 7, 11))
            result = fpt(g, p)
            if result.case is not FptCase.TRUNCATED_PLUS_EPSILON or result.monomial_fpt is not None:
                continue
            seen += 1
            cap = tail(result.eta_sum, p, result.L)
            assert 0 < result.epsilon <= cap
            # the correction attains the tail exactly when the lattice
            # coordinate belongs to a candidate that is itself in the
            # lower interior (the ray through the other candidate may
            # run inside a face and must not count)
            matrix = build(g.a, g.b)
            step = Fraction(1, p**result.d)
            t1 = truncate(result.eta.s1, p, result.d)
            t2 = truncate(result.eta.s2, p, result.d)
            in_right = contains_lower_interior(matrix, Point2(t1 + step, t2))
            in_up = contains_lower_interior(matrix, Point2(t1, t2 + step))
            lattice = (
                in_right and (result.eta.s1 * p**result.d).denominator == 1
            ) or (in_up and (result.eta.s2 * p**result.d).denominator == 1)
            assert (result.epsilon == cap) == lattice
        assert seen > 20

    def test_symmetry(self):
        rng = Random(304)
        for _ in range(80):
            g = random_binomial(rng)
            p = rng.choice((3, 5, 7))
            base = fpt(g, p).value
            swapped = Binomial(g.variables, g.b, g.a)
            assert fpt(swapped, p).value == base
            order = list(range(len(g.variables)))
            rng.shuffle(order)
            permuted = Binomial(
                tuple(g.variables[i] for i in order),
                tuple(g.a[i] for i in order),
                tuple(g.b[i] for i in order),
            )
            assert fpt(permuted, p).value == base

    def test_master_property_sample(self):
        rng = Random(305)
        for _ in range(40):
            g = random_binomial(rng)
            p = rng.choice((2, 3, 5, 7))
            e = rng.choice((1, 2))
            result = fpt(g, p)
            predicted = p**e * fpt_truncation(result, p, e)
            assert predicted == nu_semigroup(NuQuery(g, p, e))


def reference_carry_step(matrix, mp, p):
    """The carry step on Fractions, as it stood before it moved to
    integers: a test-only reference for the engine's integer one."""
    eta, eta_sum = mp.point, mp.sum
    if eta_sum > 1:
        return engine.FptResult(Fraction(1), FptCase.STANDARD_GT1, eta=eta, eta_sum=eta_sum)
    profile = carry_profile(eta.s1, eta.s2, p)
    if profile.carry_free:
        return engine.FptResult(
            eta_sum, FptCase.CARRY_FREE, eta=eta, eta_sum=eta_sum, carry_free=True
        )
    L, d = profile.L, profile.d
    step = Fraction(1, p**d)
    t1, t2 = truncate(eta.s1, p, d), truncate(eta.s2, p, d)
    trunc_sum = truncate(eta_sum, p, L)
    assert t1 + t2 + step == trunc_sum

    def reach(point, coord):
        inside = contains_lower_interior(matrix, point)
        return ray_max_delta(matrix, point, coord) if inside else None

    # the right candidate's ray runs along s2, the upper one's along s1
    deltas = (reach(Point2(t1 + step, t2), 1), reach(Point2(t1, t2 + step), 0))
    truncated = engine.FptResult(
        trunc_sum, FptCase.TRUNCATED, eta=eta, eta_sum=eta_sum, carry_free=False,
        L=L, d=d, deltas=deltas,
    )
    if deltas == (None, None):
        return truncated
    epsilon = max(delta for delta in deltas if delta is not None)
    assert 0 < epsilon <= tail(eta_sum, p, L)
    return replace(
        truncated, value=trunc_sum + epsilon,
        case=FptCase.TRUNCATED_PLUS_EPSILON, epsilon=epsilon,
    )


def reference_at(plan, p):
    """Plan.at with the reference carry step and the old min rule."""
    mono = plan.monomial_fpt
    if plan.core is None:
        return engine.FptResult(mono, FptCase.MONOMIAL_ONLY, monomial_fpt=mono)
    core = reference_carry_step(*plan.core, p)
    if mono is None:
        return replace(core, core_fpt=core.value)
    return replace(
        core, value=min(mono, core.value), case=FptCase.MIN_COMBINED,
        monomial_fpt=mono, core_fpt=core.value,
    )


def prime_power_base(n):
    """The prime p when n is a power of p, else None."""
    for f in range(2, n + 1):
        if n % f == 0:
            while n % f == 0:
                n //= f
            return f if n == 1 else None
    return None


class TestIntegerCarryStep:
    def test_matches_the_fraction_reference(self):
        """Whole results, the candidates' ray reaches included, agree with
        the Fraction carry step on seeded binomials x primes."""
        rng = Random(306)
        small = primes_between(2, 200)
        near_million = primes_between(10**6 - 200, 10**6 + 200)
        names = tuple(f"x{i}" for i in range(6))
        draws = [COMP]
        while len(draws) < 300:
            # half the draws: a 3-4 row core times a monomial factor
            core_rows = rng.randint(3, 4) if len(draws) % 2 else rng.randint(1, 4)
            top = rng.choice((4, 8, 16, 32))
            rows = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(core_rows)]
            if len(draws) % 2:
                rows += [(e, e) for e in rng.sample(range(1, 9), rng.randint(1, 2))]
            a, b = tuple(x for x, _ in rows), tuple(y for _, y in rows)
            if a == b or not any(a) or not any(b) or (0, 0) in rows:
                continue
            draws.append(Binomial(names[: len(rows)], a, b))
        cases = set()
        capped = 0
        for i, g in enumerate(draws):
            try:
                plan = prepare(g)
            except (ValueError, RuntimeError):
                continue
            primes = {2, 3, small[i % len(small)], near_million[i % len(near_million)]}
            if plan.core is not None:
                # a p-power denominator puts eta on the p-adic lattice
                eta = plan.core[1].point
                base = prime_power_base(lcm(eta.s1.denominator, eta.s2.denominator))
                if base is not None:
                    primes.add(base)
            for p in sorted(primes):
                result = plan.at(p)
                assert result == reference_at(plan, p), (g, p)
                cases.add(result.case)
                capped += result.epsilon is not None and result.epsilon == tail(
                    result.eta_sum, p, result.L
                )
        assert cases == set(FptCase)
        assert capped > 0

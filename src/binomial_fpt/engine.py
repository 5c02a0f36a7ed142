"""F-pure threshold engine for binomials over a prime field.

A binomial u1 x^a + u2 x^b vanishing at the origin factors as a
monomial times a core in which no variable has equal exponents.  The
threshold of the monomial part is the classical minimum of reciprocal
exponents; the threshold of the core comes from the unique maximal
point eta of its splitting polytope:

  * |eta| > 1: the core threshold is 1;
  * eta1 and eta2 add without carrying in base p: it is |eta|;
  * otherwise it is the L-th truncation of |eta|, plus a rational
    correction epsilon exactly when one of two lattice candidate
    points lies in the lower interior of the polytope.  epsilon is
    the longest axis ray from such a candidate that stays in the
    polytope; the carry step is the one place that derives these two
    ray reaches, and a result keeps only them.
    With carrying, the threshold still equals |eta| when epsilon
    reaches its cap tail(|eta|, p, L).

The threshold of the product is the minimum of the two parts.  Only
the digits of eta depend on p, so prepare(g) splits g and derives
the geometry and the limit once and Plan.at(p) does the rest.  That
carry step runs on integers: eta1, eta2 and |eta| are each read as
their own reduced fraction, so a truncation is one integer division.
The step checks the digit-carry identity and the epsilon bounds it
relies on, so a violated expectation raises RuntimeError instead of a
wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .base_p import carry_profile, tail, truncate
from .polytope import MaximalPoint, Point2, SplittingMatrix, build, maximal_point
from .primes import is_prime

ONE = Fraction(1)


@dataclass(frozen=True)
class Binomial:
    """u1 x^a + u2 x^b with distinct exponent vectors.

    Coefficients are optional integers (None meaning 1) and only
    matter to the brute-force oracles; the threshold itself is
    coefficient independent.  Every retained variable appears in at
    least one of the two monomials.
    """

    variables: tuple[str, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    coeff1: int | None = None
    coeff2: int | None = None

    def __post_init__(self) -> None:
        n = len(self.variables)
        if len(self.a) != n or len(self.b) != n or n == 0:
            raise ValueError("exponent vectors must match the variable list")
        if len(set(self.variables)) != n:
            raise ValueError("repeated variable name")
        build(self.a, self.b)  # the exponent checks, stated once there

    def vanishes_at_origin(self) -> bool:
        return any(self.a) and any(self.b)


class FptCase(Enum):
    MONOMIAL_ONLY = "MONOMIAL_ONLY"
    STANDARD_GT1 = "STANDARD_GT1"
    CARRY_FREE = "CARRY_FREE"
    TRUNCATED = "TRUNCATED"
    TRUNCATED_PLUS_EPSILON = "TRUNCATED_PLUS_EPSILON"
    MIN_COMBINED = "MIN_COMBINED"


@dataclass(frozen=True)
class FptResult:
    """Threshold value plus the diagnostics that produced it.

    carry_free is None when no carry analysis ran (monomial-only
    results and cores with |eta| > 1).  L, d and deltas are only set
    for finite carry analyses; epsilon only in the corrected case.
    deltas holds the ray reach of each lattice candidate one step p^-d
    past the truncation of eta at level d: the right one along s2,
    then the upper one along s1, None for a candidate outside the
    lower interior.
    """

    value: Fraction
    case: FptCase
    eta: Point2 | None = None
    eta_sum: Fraction | None = None
    carry_free: bool | None = None
    L: int | None = None
    d: int | None = None
    epsilon: Fraction | None = None
    monomial_fpt: Fraction | None = None
    core_fpt: Fraction | None = None
    deltas: tuple[Fraction | None, ...] = ()


def carry_step(matrix: SplittingMatrix, mp: MaximalPoint, p: int) -> FptResult:
    """Threshold read off the maximal point mp of the polytope of matrix.

    This is the one place epsilon is derived: the engine calls it on a
    core's matrix and the figure on its own.  mp is given, so no
    vertices are enumerated here.  Every point it tests is (X, Y) / p^d,
    so it builds Fractions only for the fields it records.
    """
    eta, eta_sum = mp.point, mp.sum
    if eta_sum > 1:
        return FptResult(
            ONE, FptCase.STANDARD_GT1, eta=eta, eta_sum=eta_sum, core_fpt=ONE
        )
    profile = carry_profile(eta.s1, eta.s2, p)
    if profile.carry_free:
        return FptResult(
            eta_sum, FptCase.CARRY_FREE, eta=eta, eta_sum=eta_sum, carry_free=True,
            core_fpt=eta_sum,
        )
    L, d = profile.L, profile.d
    if d is None:
        raise RuntimeError("no digit position with sum <= p - 2 before the carry")
    if not 1 <= d <= L:
        raise RuntimeError(f"carry profile out of range: L={L}, d={d}")
    # p^k <n/den>_k is ceil(n p^k / den) - 1, as in base_p.scaled_truncation
    (n1, den1), (n2, den2) = eta.s1.as_integer_ratio(), eta.s2.as_integer_ratio()
    q = p**d
    t1 = (n1 * q - 1) // den1
    t2 = (n2 * q - 1) // den2
    s = (eta_sum.numerator * p**L - 1) // eta_sum.denominator
    if (t1 + t2 + 1) * p ** (L - d) != s:
        raise RuntimeError("digit-carry identity violated")
    # Only rays whose own base candidate lies in the lower interior
    # count: a base sitting on a polytope face parallel to its ray
    # direction never enters the open region, so clipping that ray
    # against the closed polytope would overstate the correction (the
    # brute-force nu ladder comes out one short of such a value).
    deltas = []
    for x, y, coord in ((t1 + 1, t2, 1), (t1, t2 + 1, 0)):
        slacks = [(q - a * x - b * y, (a, b)[coord]) for a, b in matrix.rows]
        delta = None
        if all(slack > 0 for slack, _ in slacks):
            # the ray's reach: the least slack / c over the rows it climbs
            least = None
            for slack, c in slacks:
                if c > 0 and (least is None or slack * least[1] < least[0] * c):
                    least = (slack, c)
            delta = Fraction(least[0], least[1] * q)
        deltas.append(delta)
    right, up = deltas
    value, case, epsilon = Fraction(s, p**L), FptCase.TRUNCATED, None
    if right is not None or up is not None:
        epsilon = max(delta for delta in deltas if delta is not None)
        sum_tail = tail(eta_sum, p, L)
        if not 0 < epsilon <= sum_tail:
            raise RuntimeError("epsilon outside its proven bounds")
        on_lattice = (right is not None and q % den1 == 0) or (up is not None and q % den2 == 0)
        if (epsilon == sum_tail) != on_lattice:
            raise RuntimeError("epsilon equality criterion violated")
        value, case = value + epsilon, FptCase.TRUNCATED_PLUS_EPSILON
    return FptResult(
        value, case, eta=eta, eta_sum=eta_sum, carry_free=False, L=L, d=d,
        epsilon=epsilon, core_fpt=value, deltas=(right, up),
    )


@dataclass(frozen=True)
class Plan:
    """The part of the threshold that depends on g alone.

    core holds the core's splitting matrix and maximal point (None when
    the core is a unit), monomial_fpt the monomial part's threshold
    (None without one), and limit the large-p limit of the threshold,
    the log canonical threshold min(monomial_fpt, 1, |eta|).
    """

    monomial_fpt: Fraction | None
    core: tuple[SplittingMatrix, MaximalPoint] | None
    limit: Fraction

    def at(self, p: int) -> FptResult:
        """Threshold at the prime p: the carry step, then the min rule."""
        if not is_prime(p):
            raise ValueError("p must be prime")
        mono = self.monomial_fpt
        if self.core is None:
            return FptResult(mono, FptCase.MONOMIAL_ONLY, monomial_fpt=mono)
        core = carry_step(*self.core, p)
        if mono is None:
            return core
        return replace(
            core, value=min(mono, core.value), case=FptCase.MIN_COMBINED, monomial_fpt=mono
        )


def prepare(g: Binomial) -> Plan:
    """Split g into monomial part and core, and derive the core's geometry.

    The variables with a_i = b_i form the monomial part, whose threshold
    is 1/max a_i (each such a_i is at least 1: build rejects a (0, 0)
    row); the others are the core's rows.  The core is a unit, with a
    nonzero constant term, unless both of its columns are nonzero.
    """
    if not g.vanishes_at_origin():
        raise ValueError("input does not vanish at the origin")
    shared = [ai for ai, bi in zip(g.a, g.b) if ai == bi]
    mono = Fraction(1, max(shared)) if shared else None
    # nonempty: g's two monomials are distinct
    core_a, core_b = zip(*((ai, bi) for ai, bi in zip(g.a, g.b) if ai != bi))
    if not (any(core_a) and any(core_b)):
        return Plan(mono, None, mono)
    matrix = build(core_a, core_b)
    mp = maximal_point(matrix)
    if mp is None:
        raise RuntimeError("constant row reached core")
    limit = min(ONE, mp.sum) if mono is None else min(mono, ONE, mp.sum)
    return Plan(mono, (matrix, mp), limit)


def fpt(g: Binomial, p: int) -> FptResult:
    """F-pure threshold of a binomial vanishing at the origin."""
    return prepare(g).at(p)


def fpt_truncation(result: FptResult, p: int, e: int) -> Fraction:
    """e-th base-p truncation of the computed threshold."""
    return truncate(result.value, p, e)


def fpt_limit(g: Binomial) -> Fraction:
    """Large-p limit of the threshold (the log canonical threshold)."""
    return prepare(g).limit

"""JSON forms of results.

Rationals are emitted as exact integer pairs {"num": ..., "den": ...},
never as decimals.  The schemas at the bottom are published as part of
the package so consumers (and the test suite) can validate outputs.
"""

from __future__ import annotations

from dataclasses import asdict
from fractions import Fraction

from .base_p import positional_digits
from .engine import Binomial, FptCase, FptResult
from .oracle import VerificationReport
from .parsing import binomial_to_text
from .polytope import MaximalPoint, Point2, SplittingMatrix


def rational_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _rational_or_null(x: Fraction | None) -> dict | None:
    return None if x is None else rational_to_json(x)


def result_to_json(
    g: Binomial,
    p: int,
    result: FptResult,
    limit: Fraction,
    verification: VerificationReport | None = None,
) -> dict:
    head, block = positional_digits(result.value, p)
    data = {
        "input": binomial_to_text(g),
        "prime": p,
        "case": result.case.value,
        "value": rational_to_json(result.value),
        "value_base_p": {"preperiod": head, "period": block},
        "eta": None
        if result.eta is None
        else [rational_to_json(result.eta.s1), rational_to_json(result.eta.s2)],
        "eta_sum": _rational_or_null(result.eta_sum),
        "L": "inf" if result.carry_free else result.L,
        "d": result.d,
        "epsilon": _rational_or_null(result.epsilon),
        "monomial_part": _rational_or_null(result.monomial_fpt),
        "notes": [f"characteristic-zero limit (log canonical threshold) = {limit}"],
    }
    if verification is not None:
        data["verification"] = asdict(verification)
    return data


def scan_to_json(
    g: Binomial,
    lo: int,
    hi: int,
    congruence: tuple[int, int] | None,
    limit: Fraction,
    rows: list[tuple[int, FptResult]],
) -> dict:
    return {
        "input": binomial_to_text(g),
        "prime_range": [lo, hi],
        "filter": None if congruence is None else {"mod": congruence[0], "residue": congruence[1]},
        "limit": rational_to_json(limit),
        "rows": [
            {"p": p, "value": rational_to_json(r.value), "case": r.case.value}
            for p, r in rows
        ],
        "limit_match_count": sum(1 for _, r in rows if r.value == limit),
    }


def oracle_to_json(
    text: str, p: int, e: int, semigroup: int | None, naive: int | None
) -> dict:
    """The oracle command's document; its match is the one verdict, None
    unless both methods ran."""
    return {
        "input": text,
        "prime": p,
        "level": e,
        "semigroup_nu": semigroup,
        "naive_nu": naive,
        "match": None if semigroup is None or naive is None else semigroup == naive,
    }


def polytope_to_json(
    matrix: SplittingMatrix, verts: tuple[Point2, ...], mp: MaximalPoint | None
) -> dict:
    """Polytope data; points are pairs of rational strings such as "1/10"."""

    def point(pt: Point2) -> list[str]:
        return [str(pt.s1), str(pt.s2)]

    return {
        "rows": [[a, b] for a, b in matrix.rows],
        "vertices": [point(v) for v in verts],
        "maximal_point": None if mp is None else point(mp.point),
        "eta_sum": None if mp is None else str(mp.sum),
    }


def _closed(**properties: dict) -> dict:
    """An object schema that requires every listed property and no other."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def _pair(items: dict, nullable: bool = False) -> dict:
    """An array schema of exactly two items, null allowed when nullable."""
    kind = ["array", "null"] if nullable else "array"
    return {"type": kind, "items": items, "minItems": 2, "maxItems": 2}


_RATIONAL = _closed(num={"type": "integer"}, den={"type": "integer", "minimum": 1})

_DIGITS = {"type": "array", "items": {"type": "integer", "minimum": 0}}

_NULLABLE_RATIONAL = {"oneOf": [_RATIONAL, {"type": "null"}]}

VERIFICATION_SCHEMA = _closed(
    predicted_nu={"type": "integer", "minimum": 0},
    semigroup_nu={"type": "integer", "minimum": 0},
    naive_nu={"type": ["integer", "null"], "minimum": 0},
    match={"type": "boolean"},
)

COMPUTE_SCHEMA = _closed(
    input={"type": "string"},
    prime={"type": "integer", "minimum": 2},
    case={"enum": [c.value for c in FptCase]},
    value=_RATIONAL,
    value_base_p=_closed(preperiod=_DIGITS, period=_DIGITS),
    eta=_pair(_RATIONAL, nullable=True),
    eta_sum=_NULLABLE_RATIONAL,
    L={"oneOf": [{"type": "integer", "minimum": 0}, {"enum": ["inf", None]}]},
    d={"type": ["integer", "null"], "minimum": 1},
    epsilon=_NULLABLE_RATIONAL,
    monomial_part=_NULLABLE_RATIONAL,
    notes={"type": "array", "items": {"type": "string"}},
)
# Added after "required" is derived: only compute --verify emits it.
COMPUTE_SCHEMA["properties"]["verification"] = VERIFICATION_SCHEMA

SCAN_SCHEMA = _closed(
    input={"type": "string"},
    prime_range=_pair({"type": "integer"}),
    filter={
        **_closed(mod={"type": "integer"}, residue={"type": "integer"}),
        "type": ["object", "null"],
    },
    limit=_RATIONAL,
    rows={
        "type": "array",
        "items": _closed(
            p={"type": "integer", "minimum": 2}, value=_RATIONAL, case={"type": "string"}
        ),
    },
    limit_match_count={"type": "integer", "minimum": 0},
)

ORACLE_SCHEMA = _closed(
    input={"type": "string"},
    prime={"type": "integer", "minimum": 2},
    level={"type": "integer", "minimum": 1},
    semigroup_nu={"type": ["integer", "null"], "minimum": 0},
    naive_nu={"type": ["integer", "null"], "minimum": 0},
    match={"type": ["boolean", "null"]},
)

POLYTOPE_SCHEMA = _closed(
    rows={"type": "array", "items": _pair({"type": "integer", "minimum": 0}), "minItems": 1},
    vertices={"type": "array", "items": _pair({"type": "string"})},
    maximal_point=_pair({"type": "string"}, nullable=True),
    eta_sum={"type": ["string", "null"]},
)

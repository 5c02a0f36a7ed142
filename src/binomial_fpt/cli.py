"""Command line interface.

Subcommands: compute, scan, polytope, oracle.  Exit codes: 0 success,
1 bad input (polynomial or flags), 2 verification mismatch, 3 oracle
budget exceeded, 141 standard output closed by its reader.  Each command
builds its whole output, which main then writes in one write, so standard
output stays empty on exits 1 and 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

from . import jsonio
from .base_p import render_positional
from .engine import Binomial, FptResult, fpt, fpt_limit, prepare
from .oracle import BudgetExceeded, NuQuery, nu_monomial, nu_naive, nu_semigroup, verify
from .parsing import binomial_to_text, parse, parse_monomial
from .polytope import build, maximal_point, vertices
from .primes import is_prime, primes_between
from .svg import polytope_figure

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer

# p^-1000 is far below the figure's 12 significant digits at any prime
FIGURE_LEVEL_MAX = 1000
# scan keeps one byte per number and one row per prime: 2..10^6 takes
# 3.7 s and 99 MB, 2..10^7 takes 32 s and 709 MB
SCAN_WIDTH_MAX = 10**7
# compute prints fpt's whole base-p period, shorter than its denominator
# without factors p: 1/999983 at p = 1000003 prints 999 982 digits (0.95 s, 170 MB)
PERIOD_MAX = 10**6


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # no option starts with -<digit>: such a word is a value, e.g. "-2*x^2+y^3"
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):  # noqa: D102 - argparse hook
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="binomial-fpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="threshold of one binomial at one prime")
    p_compute.set_defaults(run=_cmd_compute)
    p_compute.add_argument("poly")
    p_compute.add_argument("--prime", type=int, required=True)
    p_compute.add_argument("--json", action="store_true")
    p_compute.add_argument(
        "--verify",
        type=int,
        metavar="E",
        help="cross-check nu at level E against the oracles",
    )

    p_scan = sub.add_parser("scan", help="threshold across a range of primes")
    p_scan.set_defaults(run=_cmd_scan)
    p_scan.add_argument("poly")
    p_scan.add_argument("--primes", required=True, metavar="LO..HI")
    p_scan.add_argument("--mod", type=int)
    p_scan.add_argument("--residue", type=int)
    p_scan.add_argument("--json", action="store_true")

    p_poly = sub.add_parser("polytope", help="splitting polytope data or figure")
    p_poly.set_defaults(run=_cmd_polytope)
    p_poly.add_argument("poly")
    p_poly.add_argument("--svg", metavar="PATH")
    p_poly.add_argument("--prime", type=int)
    p_poly.add_argument("--level", type=int)
    p_poly.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force nu computation")
    p_oracle.set_defaults(run=_cmd_oracle)
    p_oracle.add_argument("poly")
    p_oracle.add_argument("--prime", type=int, required=True)
    p_oracle.add_argument("--level", type=int, required=True)
    p_oracle.add_argument(
        "--method", choices=["semigroup", "naive", "both"], default="both"
    )
    p_oracle.add_argument("--json", action="store_true")
    return parser


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _require_coefficients(g: Binomial, primes: list[int]) -> None:
    """parse's coefficient rule at each of primes, for a g parsed without a prime."""
    product = (g.coeff1 or 1) * (g.coeff2 or 1)
    bad = next((p for p in primes if product % p == 0), None)
    if bad is not None:
        raise ValueError(f"zero coefficient mod {bad}")


def _result_lines(p: int, result: FptResult, limit: Fraction) -> list[str]:
    value = result.value
    lines = [f"fpt = {value}", f"    = {render_positional(value, p)}", f"case: {result.case.value}"]
    if result.eta is not None:
        lines.append(f"eta = ({result.eta.s1}, {result.eta.s2}), |eta| = {result.eta_sum}")
    if result.carry_free is not None:
        lines.append("L = inf" if result.carry_free else f"L = {result.L}, d = {result.d}")
    if result.epsilon is not None:
        lines.append(f"epsilon = {result.epsilon}")
    if result.monomial_fpt is not None:
        lines.append(f"monomial part: {result.monomial_fpt}")
    lines.append(f"characteristic-zero limit (log canonical threshold): {limit}")
    return lines


def _cmd_compute(args) -> tuple[int, list[str]]:
    _require_prime(args.prime)
    if args.verify is not None and args.verify < 1:
        raise ValueError("--verify level must be at least 1")
    g = parse(args.poly, args.prime)
    result = fpt(g, args.prime)
    rest = result.value.denominator
    while rest % args.prime == 0:
        rest //= args.prime
    if rest > PERIOD_MAX:
        raise ValueError(
            f"fpt = {result.value} is not printed: its base-{args.prime} period "
            f"may exceed {PERIOD_MAX} digits"
        )
    limit = fpt_limit(g)
    report = None if args.verify is None else verify(NuQuery(g, args.prime, args.verify), result)
    if args.json:
        lines = [json.dumps(jsonio.result_to_json(g, args.prime, result, limit, report))]
    else:
        lines = _result_lines(args.prime, result, limit)
        if report is not None:
            naive = "skipped" if report.naive_nu is None else str(report.naive_nu)
            lines.append(
                f"verify e={args.verify}: predicted nu = {report.predicted_nu}, "
                f"semigroup = {report.semigroup_nu}, naive = {naive} -> "
                + ("match" if report.match else "MISMATCH")
            )
    return (EXIT_MISMATCH if report is not None and not report.match else EXIT_OK), lines


def _cmd_scan(args) -> tuple[int, list[str]]:
    try:
        lo_text, hi_text = args.primes.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError("--primes expects LO..HI") from None
    if (args.mod is None) != (args.residue is None):
        raise ValueError("--mod and --residue go together")
    if args.mod is not None and args.mod < 1:
        raise ValueError("--mod must be positive")
    g = parse(args.poly)
    if hi - max(lo, 2) + 1 > SCAN_WIDTH_MAX:
        raise ValueError(f"--primes window must hold at most {SCAN_WIDTH_MAX} numbers")
    primes = primes_between(lo, hi)
    if args.mod is not None:
        primes = [p for p in primes if p % args.mod == args.residue % args.mod]
    if not primes:
        raise ValueError("empty prime range")
    _require_coefficients(g, primes)
    plan = prepare(g)
    rows = [(p, plan.at(p)) for p in primes]
    congruence = None if args.mod is None else (args.mod, args.residue)
    data = jsonio.scan_to_json(g, lo, hi, congruence, plan.limit, rows)
    if args.json:
        return EXIT_OK, [json.dumps(data)]
    width = max(len(str(p)) for p, _ in rows)
    lines = [f"p = {p:>{width}}  fpt = {result.value}  [{result.case.value}]" for p, result in rows]
    lines.append(
        f"limit {plan.limit} attained at {data['limit_match_count']} of {len(rows)} primes "
        f"(characteristic-zero limit / log canonical threshold)"
    )
    return EXIT_OK, lines


def _cmd_polytope(args) -> tuple[int, list[str]]:
    if args.level is not None and args.prime is None:
        raise ValueError("--level needs --prime")
    if args.level is not None and args.level < 0:
        raise ValueError("--level must be at least 0")
    if args.level is not None and args.level > FIGURE_LEVEL_MAX:
        raise ValueError(f"--level must be at most {FIGURE_LEVEL_MAX}")
    g = parse(args.poly)
    if args.prime is not None:
        _require_prime(args.prime)
        _require_coefficients(g, [args.prime])
    lines = [f"wrote {args.svg}"] if args.svg else []
    if args.json or not args.svg:
        matrix = build(g.a, g.b)
        data = jsonio.polytope_to_json(matrix, vertices(matrix), maximal_point(matrix))
        lines.append(json.dumps(data))
    if args.svg:
        figure = polytope_figure(g, args.prime, args.level)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(figure)
    return EXIT_OK, lines


def _cmd_oracle(args) -> tuple[int, list[str]]:
    _require_prime(args.prime)
    if args.level < 1:
        raise ValueError("--level must be at least 1")
    if len([t for t in args.poly.split("+") if t.strip()]) == 1:
        text, exponents = parse_monomial(args.poly, args.prime)
        nu = nu_monomial(exponents, args.prime, args.level)
        methods = {"semigroup": lambda: nu, "naive": lambda: nu}
    else:
        g = parse(args.poly, args.prime)
        text = binomial_to_text(g)
        query = NuQuery(g, args.prime, args.level)
        methods = {"semigroup": lambda: nu_semigroup(query), "naive": lambda: nu_naive(query)}
    nus = {
        name: method() if args.method in (name, "both") else None
        for name, method in methods.items()
    }
    data = jsonio.oracle_to_json(text, args.prime, args.level, nus["semigroup"], nus["naive"])
    if args.json:
        lines = [json.dumps(data)]
    else:
        lines = [f"{name} nu = {value}" for name, value in nus.items() if value is not None]
        if data["match"] is not None:
            lines.append("agreement" if data["match"] else "MISMATCH")
    return (EXIT_MISMATCH if data["match"] is False else EXIT_OK), lines


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, lines = args.run(args)
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return code
    except BrokenPipeError:
        # the reader is gone: nothing to report, and the exit flush writes to devnull
        with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main(None))

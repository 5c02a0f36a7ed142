"""Command line behaviour, exit codes, JSON schemas, SVG determinism."""

import hashlib
import json
import os
import shlex
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from binomial_fpt import FptCase, jsonio
from binomial_fpt.cli import (
    EXIT_BAD_INPUT,
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    PERIOD_MAX,
    main,
)
from binomial_fpt.oracle import VerificationReport
from binomial_fpt.parsing import EXPONENT_MAX

COMP = "x^7*y^2+x^5*y^6"

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchemas:
    # sha256 of json.dumps(schema, sort_keys=True), so any change to a
    # published schema shows up here
    PINNED = {
        "VERIFICATION_SCHEMA": "e39dc94f430e0bfb4a6a73932e1a5c648a5be82ce504b1c1c5dc5811f03657df",
        "COMPUTE_SCHEMA": "131e85c9d8e3b8d62c3dfaf46f4d14df2698079c05c839e12376094568782f14",
        "SCAN_SCHEMA": "ee61d1361104627f83ed0182b506c21541019ef4c464174bdbae170204e98b0e",
        "ORACLE_SCHEMA": "92c88fc468497b8374748a053b5f9891bf2158ca1f156938efdfbd8e52664350",
        "POLYTOPE_SCHEMA": "bf16a627276ab7c009828467f730833ca9c99be263186afe23d22282c41a94b1",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_published_schema_is_pinned(self, name):
        text = json.dumps(getattr(jsonio, name), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[name]

    def test_compute_case_enum_is_every_case(self):
        assert jsonio.COMPUTE_SCHEMA["properties"]["case"]["enum"] == [c.value for c in FptCase]


class TestCompute:
    def test_p43_human(self, capsys):
        code, out, _ = run(capsys, "compute", COMP, "--prime", "43")
        assert code == EXIT_OK
        assert "fpt = 8/43" in out
        assert ".8 (base 43)" in out
        assert "case: TRUNCATED" in out

    def test_p37_human(self, capsys):
        code, out, _ = run(capsys, "compute", COMP, "--prime", "37")
        assert code == EXIT_OK
        assert "fpt = 1283/6845" in out
        assert ".6 34 (22 7 14 29)~ (base 37)" in out
        assert "epsilon = 3/6845" in out

    def test_standard_case(self, capsys):
        code, out, _ = run(capsys, "compute", "x+y^2", "--prime", "5")
        assert code == EXIT_OK
        assert "fpt = 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "compute", COMP, "--prime", "37", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, jsonio.COMPUTE_SCHEMA)
        assert payload["value"] == {"num": 1283, "den": 6845}
        assert payload["value_base_p"] == {"preperiod": [6, 34], "period": [22, 7, 14, 29]}
        assert payload["L"] == 2 and payload["d"] == 2
        assert payload["epsilon"] == {"num": 3, "den": 6845}

    def test_verify_pass(self, capsys):
        code, out, _ = run(capsys, "compute", COMP, "--prime", "43", "--verify", "1")
        assert code == EXIT_OK
        assert "predicted nu = 7" in out
        assert "match" in out

    def test_verify_json_schema(self, capsys):
        code, out, _ = run(capsys, "compute", COMP, "--prime", "43", "--verify", "2", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, jsonio.COMPUTE_SCHEMA)
        assert payload["verification"] == {
            "predicted_nu": 343,
            "semigroup_nu": 343,
            "naive_nu": None,
            "match": True,
        }

    def test_verify_mismatch_exit_code(self, capsys, monkeypatch):
        # the wiring for a hypothetical disagreement, forced via a stub
        import binomial_fpt.cli as cli

        monkeypatch.setattr(
            cli, "verify", lambda q, r: VerificationReport(1, 2, None, False)
        )
        code, out, _ = run(capsys, "compute", COMP, "--prime", "43", "--verify", "1")
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "compute", "x^2 + x^2", "--prime", "5")
        assert code == EXIT_BAD_INPUT
        assert "repeated monomial" in err

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run(capsys, "compute", COMP, "--prime", "6")
        assert code == EXIT_BAD_INPUT
        assert "not prime" in err

    def test_large_prime(self, capsys):
        code, out, _ = run(capsys, "compute", COMP, "--prime", str(2**61 - 1))
        assert code == EXIT_OK
        assert "case: TRUNCATED_PLUS_EPSILON" in out

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "compute", COMP)
        assert code == EXIT_BAD_INPUT

    def test_one_compute_builds_three_matrices(self, capsys, monkeypatch):
        """parse checks g's rows once, and fpt and fpt_limit each build
        the core's matrix once; no core Binomial is built on the way."""
        import binomial_fpt.engine as engine

        calls = []
        build = engine.build
        monkeypatch.setattr(engine, "build", lambda a, b: calls.append(a) or build(a, b))
        code, out, _ = run(capsys, "compute", "x^7*y^2*z^3 + x^5*y^6*z^3", "--prime", "37")
        assert code == EXIT_OK
        assert "case: MIN_COMBINED\n" in out and "monomial part: 1/3\n" in out
        assert calls == [(7, 2, 3), (7, 2), (7, 2)]

    @pytest.mark.parametrize("output", [[], ["--json"], ["--verify", "1"]])
    def test_long_period_fails_before_any_digit(self, capsys, monkeypatch, output):
        # fpt = 1/(10^9 + 7): its base-3 period has up to 10^9 + 6 digits
        import binomial_fpt.cli as cli

        monkeypatch.setattr(cli, "verify", lambda *args: pytest.fail("the oracle ran"))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "compute", "x^1000000007 + x^1000000008*y", "--prime", "3", *output
        )
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == (
            "error: fpt = 1/1000000007 is not printed: its base-3 period "
            f"may exceed {PERIOD_MAX} digits\n"
        )

    @pytest.mark.parametrize(
        "n, code", [(PERIOD_MAX, EXIT_OK), (PERIOD_MAX + 1, EXIT_BAD_INPUT), (3**13, EXIT_OK)]
    )
    def test_period_bound_ignores_factors_p(self, capsys, n, code):
        """Only the denominator's part prime to p bounds the period: 1/3^13
        terminates in base 3 and prints although 3^13 > PERIOD_MAX."""
        poly = f"x^{n} + x^{n + 1}*y"
        assert run(capsys, "compute", poly, "--prime", "3", "--json")[0] == code

    def test_failing_line_leaves_stdout_empty(self, capsys, monkeypatch):
        """The positional line comes after fpt's; a failure there prints neither."""
        import binomial_fpt.cli as cli

        def fail(value, p):
            raise ValueError("no digits")

        monkeypatch.setattr(cli, "render_positional", fail)
        assert run(capsys, "compute", COMP, "--prime", "37") == (
            EXIT_BAD_INPUT, "", "error: no digits\n"
        )

    def test_closed_stdout_is_not_bad_input(self, capsys, monkeypatch):
        class ClosedStdout:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        code = main(["compute", COMP, "--prime", "37", "--json"])
        assert code == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""

    def test_closed_pipe_leaves_a_quiet_exit_flush(self, capsys, monkeypatch):
        """With a descriptor, stdout is pointed at devnull, so flushing
        what is left in its buffer raises nothing."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["compute", COMP, "--prime", "37"]) == EXIT_BROKEN_PIPE
            stdout.write("left in the buffer")
            monkeypatch.undo()
        assert capsys.readouterr().err == ""


class TestScan:
    def test_congruence_filter(self, capsys):
        code, out, _ = run(
            capsys, "scan", COMP, "--primes", "2..100", "--mod", "32", "--residue", "1"
        )
        assert code == EXIT_OK
        assert "p = 97  fpt = 3/16  [CARRY_FREE]" in out
        assert "attained at 1 of 1 primes" in out

    def test_golden_rows(self, capsys):
        code, out, _ = run(capsys, "scan", COMP, "--primes", "37..47")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert any("37" in ln and "1283/6845" in ln for ln in lines)
        assert any("43" in ln and "8/43" in ln for ln in lines)
        assert any("47" in ln and "3/16" in ln for ln in lines)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "scan", COMP, "--primes", "37..47", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, jsonio.SCAN_SCHEMA)
        assert payload["limit"] == {"num": 3, "den": 16}
        assert [row["p"] for row in payload["rows"]] == [37, 41, 43, 47]

    def test_row_pinned_to_oracle(self, capsys):
        # the engine's value at one untabulated instance, against nu
        from fractions import Fraction

        from binomial_fpt import Binomial, NuQuery, nu_semigroup, truncate

        code, out, _ = run(capsys, "scan", "x^2+y^3", "--primes", "7..7", "--json")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        value = Fraction(row["value"]["num"], row["value"]["den"])
        nu = nu_semigroup(NuQuery(Binomial(("x", "y"), (2, 0), (0, 3)), 7, 2))
        assert 49 * truncate(value, 7, 2) == nu

    def test_geometry_derived_once(self, capsys, monkeypatch):
        import binomial_fpt.engine as engine

        calls = []
        maximal_point = engine.maximal_point
        monkeypatch.setattr(
            engine, "maximal_point", lambda m: calls.append(m) or maximal_point(m)
        )
        code, out, _ = run(capsys, "scan", "x^7*y^2 + x^5*y^6", "--primes", "2..500", "--json")
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 95
        assert len(calls) == 1

    def test_large_magnitude_window(self, capsys):
        from binomial_fpt import Binomial, prepare
        from binomial_fpt.primes import is_prime

        lo, hi = 10**16, 10**16 + 100
        start = time.perf_counter()
        code, out, _ = run(capsys, "scan", COMP, "--primes", f"{lo}..{hi}", "--json")
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK
        g = Binomial(("x", "y"), (7, 2), (5, 6))
        plan = prepare(g)
        rows = [(p, plan.at(p)) for p in range(lo, hi + 1) if is_prime(p)]
        assert json.loads(out) == jsonio.scan_to_json(g, lo, hi, None, plan.limit, rows)

    def test_window_beyond_the_primality_test(self, capsys):
        code, out, err = run(
            capsys, "scan", COMP, "--primes",
            "3317044064679887385961981..3317044064679887385961999",
        )
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.splitlines() == [
            "error: 3317044064679887385961999 is too large for the primality test"
        ]

    def test_empty_range(self, capsys):
        code, _, err = run(capsys, "scan", COMP, "--primes", "24..28")
        assert code == EXIT_BAD_INPUT
        assert "empty prime range" in err

    def test_malformed_range(self, capsys):
        code, _, err = run(capsys, "scan", COMP, "--primes", "10")
        assert code == EXIT_BAD_INPUT
        assert "LO..HI" in err

    def test_mod_requires_residue(self, capsys):
        code, _, err = run(capsys, "scan", COMP, "--primes", "2..50", "--mod", "4")
        assert code == EXIT_BAD_INPUT
        assert "go together" in err

    def test_mod_checked_before_sieving(self, capsys, monkeypatch):
        import binomial_fpt.cli as cli

        def sieve(lo, hi):
            raise AssertionError("the window was sieved before --mod was checked")

        monkeypatch.setattr(cli, "primes_between", sieve)
        code, _, err = run(capsys, "scan", COMP, "--primes", "2..50", "--mod", "0", "--residue", "1")
        assert code == EXIT_BAD_INPUT
        assert "--mod must be positive" in err

    def test_wide_window_fails_before_sieving(self, capsys, monkeypatch):
        import binomial_fpt.cli as cli

        def sieve(lo, hi):
            raise AssertionError("a window wider than SCAN_WIDTH_MAX was sieved")

        monkeypatch.setattr(cli, "primes_between", sieve)
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", COMP, "--primes", "2..100000000000")
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == f"error: --primes window must hold at most {cli.SCAN_WIDTH_MAX} numbers\n"

    @pytest.mark.parametrize("lo", [2, -10**12])
    def test_widest_window_reaches_the_sieve(self, capsys, monkeypatch, lo):
        # numbers below 2 hold no primes, so they do not count toward the width
        import binomial_fpt.cli as cli

        windows = []

        def sieve(lo, hi):
            windows.append((lo, hi))
            return []

        monkeypatch.setattr(cli, "primes_between", sieve)
        hi = 1 + cli.SCAN_WIDTH_MAX
        code, _, err = run(capsys, "scan", COMP, f"--primes={lo}..{hi}")
        assert code == EXIT_BAD_INPUT
        assert err == "error: empty prime range\n"
        assert windows == [(lo, hi)]


class TestPolytope:
    def test_figure_json(self, capsys):
        code, out, _ = run(capsys, "polytope", "x*y^4*z^7+x^9*y^8*z^4", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, jsonio.POLYTOPE_SCHEMA)
        assert payload == {
            "rows": [[1, 9], [4, 8], [7, 4]],
            "vertices": [
                ["0", "0"],
                ["0", "1/9"],
                ["1/28", "3/28"],
                ["1/10", "3/40"],
                ["1/7", "0"],
            ],
            "maximal_point": ["1/10", "3/40"],
            "eta_sum": "7/40",
        }

    def test_svg_labels(self, capsys, tmp_path):
        target = tmp_path / "fig1.svg"
        code, out, _ = run(capsys, "polytope", "x*y^4*z^7+x^9*y^8*z^4", "--svg", str(target))
        assert code == EXIT_OK
        assert f"wrote {target}" in out
        body = target.read_text()
        for label in ("(0, 1/9)", "(1/28, 3/28)", "(1/10, 3/40)", "(1/7, 0)"):
            assert f">{label}<" in body

    def test_svg_sum_line_annotation(self, capsys, tmp_path):
        target = tmp_path / "comp.svg"
        run(capsys, "polytope", COMP, "--svg", str(target))
        assert "s1 + s2 = 3/16" in target.read_text()

    def test_svg_epsilon_segment(self, capsys, tmp_path):
        target = tmp_path / "comp37.svg"
        run(capsys, "polytope", COMP, "--svg", str(target), "--prime", "37", "--level", "2")
        body = target.read_text()
        assert "epsilon = 3/6845" in body
        assert "candidate" in body

    def test_level_requires_prime(self, capsys, tmp_path):
        target = tmp_path / "comp.svg"
        code, _, err = run(capsys, "polytope", COMP, "--svg", str(target), "--level", "2")
        assert code == EXIT_BAD_INPUT
        assert "--level needs --prime" in err
        assert not target.exists()

    def test_huge_level_fails_fast(self, capsys, tmp_path):
        # truncating eta at level 3e6 would take seconds of Fraction gcds
        target = tmp_path / "comp.svg"
        start = time.perf_counter()
        code, out, err = run(
            capsys, "polytope", COMP, "--svg", str(target), "--prime", "37", "--level", "3000000"
        )
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: --level must be at most 1000\n"
        assert not target.exists()

    @pytest.mark.parametrize("output", ["--svg", "--json"])
    def test_negative_level_fails_at_the_flag(self, capsys, tmp_path, output):
        target = tmp_path / "comp.svg"
        argv = ["--svg", str(target)] if output == "--svg" else ["--json"]
        code, out, err = run(capsys, "polytope", COMP, *argv, "--prime", "37", "--level", "-1")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: --level must be at least 0\n"
        assert not target.exists()

    def test_failing_json_writes_no_figure(self, capsys, monkeypatch, tmp_path):
        def fail(*args):
            raise ValueError("no document")

        monkeypatch.setattr(jsonio, "polytope_to_json", fail)
        target = tmp_path / "comp.svg"
        argv = ("polytope", COMP, "--prime", "37", "--svg", str(target), "--json")
        assert run(capsys, *argv) == (EXIT_BAD_INPUT, "", "error: no document\n")
        assert not target.exists()

    def test_unwritable_svg_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f.svg"
        code, out, err = run(capsys, "polytope", COMP, "--svg", str(target))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_svg_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        run(capsys, "polytope", COMP, "--svg", str(first), "--prime", "37", "--level", "2")
        run(capsys, "polytope", COMP, "--svg", str(second), "--prime", "37", "--level", "2")
        assert first.read_bytes() == second.read_bytes()


class TestOracleCommand:
    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "oracle", COMP, "--prime", "43", "--level", "1")
        assert code == EXIT_OK
        assert "semigroup nu = 7" in out
        assert "naive nu = 7" in out
        assert "agreement" in out

    def test_monomial_semigroup(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "x", "--prime", "5", "--level", "2", "--method", "semigroup"
        )
        assert code == EXIT_OK
        assert "semigroup nu = 24" in out

    def test_squares(self, capsys):
        code, out, _ = run(capsys, "oracle", "x^2+y^2", "--prime", "3", "--level", "1")
        assert code == EXIT_OK
        assert "semigroup nu = 2" in out
        assert "naive nu = 2" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "oracle", COMP, "--prime", "43", "--level", "1", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, jsonio.ORACLE_SCHEMA)
        assert payload == {
            "input": "x^7*y^2 + x^5*y^6",
            "prime": 43,
            "level": 1,
            "semigroup_nu": 7,
            "naive_nu": 7,
            "match": True,
        }

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "oracle", COMP, "--prime", "43", "--level", "4")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "x^2*y + x*y^3", "--prime", "11", "--level", "5000"),
            ("compute", "x^2*y + x*y^3", "--prime", "11", "--verify", "5000"),
            ("oracle", "x^3", "--prime", "11", "--level", "5000"),
        ],
        ids=["oracle", "verify", "monomial"],
    )
    def test_large_level_exits_on_budget(self, capsys, argv):
        # 11^5000 has more digits than Python converts to text by default
        code, _, err = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert err.count("\n") == 1 and len(err) < 80
        assert "p^e = 11^5000 exceeds" in err

    def test_oracle_mismatch_exit_code(self, capsys, monkeypatch):
        import binomial_fpt.cli as cli

        monkeypatch.setattr(cli, "nu_semigroup", lambda q, **kw: 5)
        code, out, _ = run(capsys, "oracle", COMP, "--prime", "43", "--level", "1")
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in out

    def test_oracle_mismatch_json(self, capsys, monkeypatch):
        import binomial_fpt.cli as cli

        monkeypatch.setattr(cli, "nu_semigroup", lambda q, **kw: 5)
        code, out, _ = run(
            capsys, "oracle", COMP, "--prime", "43", "--level", "1", "--json"
        )
        assert code == EXIT_MISMATCH
        payload = json.loads(out)
        assert (payload["semigroup_nu"], payload["naive_nu"]) == (5, 7)
        assert payload["match"] is False

    def test_monomial_both_methods_match(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "x^2*y", "--prime", "5", "--level", "2",
            "--method", "both", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, jsonio.ORACLE_SCHEMA)
        assert payload["input"] == "x^2*y"
        assert payload["semigroup_nu"] == payload["naive_nu"] == 12
        assert payload["match"] is True

    @pytest.mark.parametrize(
        "poly, prime, canonical",
        [("x^2*x", "3", "x^3"), (" 4*x^2*x ", "5", "4*x^3"), ("4*x^2*x", "3", "x^3")],
    )
    def test_monomial_input_is_canonical(self, capsys, poly, prime, canonical):
        # as a binomial's: repeated factors multiplied out, the
        # coefficient reduced mod p and a coefficient of one dropped
        code, out, _ = run(capsys, "oracle", poly, "--prime", prime, "--level", "1", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["input"] == canonical

    @pytest.mark.parametrize("output", [(), ("--json",)], ids=["text", "json"])
    def test_monomial_zero_coefficient_mod_p(self, capsys, output):
        # 3*x^2 is zero in F_3, just as a binomial's vanishing coefficient is
        code, out, err = run(
            capsys, "oracle", "3*x^2", "--prime", "3", "--level", "1", *output
        )
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: zero coefficient mod p\n"


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "solve", "x+y")
        assert code == EXIT_BAD_INPUT

    def test_bad_verify_level(self, capsys):
        code, _, err = run(capsys, "compute", COMP, "--prime", "43", "--verify", "0")
        assert code == EXIT_BAD_INPUT
        assert "at least 1" in err


class TestInputRules:
    """Each subcommand checks its flags and applies the coefficient rule
    at every prime it will use before it prints or writes anything."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("oracle", COMP, "--prime", "3", "--level", "0"), "--level must be at least 1"),
            (("scan", "2*x^2 + 3*y^3", "--primes", "2..7"), "zero coefficient mod 2"),
            (("scan", "2*x^2 + 3*y^3", "--primes", "3..7", "--json"), "zero coefficient mod 3"),
            (
                ("scan", "2*x^2 + 3*y^3", "--primes", "2..30", "--mod", "4", "--residue", "3"),
                "zero coefficient mod 3",
            ),
            (("scan", "-3*x*y+y^5", "--primes", "2..30"), "zero coefficient mod 3"),
            (("polytope", "2*x^2 + 3*y^3", "--prime", "2"), "zero coefficient mod 2"),
            (("polytope", "2*x^2 + 3*y^3", "--prime", "3", "--json"), "zero coefficient mod 3"),
            (
                ("compute", "x^1000000007 + x^1000000008*y", "--prime", "3", "--verify", "0"),
                "--verify level must be at least 1",
            ),
        ],
        ids=[
            "oracle-level-0", "scan-2", "scan-json-3", "scan-congruence-3", "scan-signed-3",
            "polytope-2", "polytope-json-3", "compute-verify-0-before-the-period",
        ],
    )
    def test_bad_input_prints_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_BAD_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", f"x^{EXPONENT_MAX + 1}*y^3 + x^5*y^2", "--prime", "2"),
            ("scan", f"x^7*y^2 + x^{EXPONENT_MAX + 1}*y^6", "--primes", "2..100", "--json"),
            ("oracle", f"x^{EXPONENT_MAX + 1}", "--prime", "2", "--level", "1"),
        ],
        ids=["compute", "scan", "oracle-monomial"],
    )
    def test_exponent_above_the_bound_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert result == (EXIT_BAD_INPUT, "", f"error: exponent of x exceeds {EXPONENT_MAX}\n")

    def test_exponent_at_the_bound_is_accepted(self, capsys):
        argv = ("oracle", f"x^{EXPONENT_MAX}", "--prime", "2", "--level", "1")
        assert run(capsys, *argv) == (EXIT_OK, "semigroup nu = 0\nnaive nu = 0\nagreement\n", "")

    def test_polytope_writes_no_figure(self, capsys, tmp_path):
        path = tmp_path / "f.svg"
        argv = ("polytope", "2*x^2 + 3*y^3", "--prime", "2", "--svg", str(path))
        assert run(capsys, *argv) == (EXIT_BAD_INPUT, "", "error: zero coefficient mod 2\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "2*x^2 + 3*y^3", "--primes", "5..7"),
            ("scan", "2*x^2 + 3*y^3", "--primes", "2..30", "--mod", "4", "--residue", "1"),
            ("polytope", "2*x^2 + 3*y^3", "--prime", "5"),
            ("polytope", "2*x^2 + 3*y^3"),
        ],
        ids=["scan-above-3", "scan-congruence-above-3", "polytope-5", "polytope-no-prime"],
    )
    def test_coefficients_that_survive_are_accepted(self, capsys, argv):
        assert run(capsys, *argv)[0] == EXIT_OK


class TestSignedLeadingCoefficient:
    """A polynomial word starting with -<digit> is the polynomial, as
    its spaced twin is; no option starts that way."""

    @pytest.mark.parametrize(
        "unspaced, spaced, flags",
        [
            ("-2*x^2+y^3", "-2*x^2 + y^3", ("compute", "--prime", "7")),
            ("-2*x^2+y^3", "-2*x^2 + y^3", ("compute", "--prime", "7", "--json")),
            ("-1*x", "-1 * x", ("oracle", "--prime", "3", "--level", "1")),
            ("-1*x", "-1 * x", ("oracle", "--prime", "3", "--level", "1", "--json")),
            ("-3*x*y+y^5", "-3*x*y + y^5", ("scan", "--primes", "5..30")),
            ("-3*x*y+y^5", "-3*x*y + y^5", ("polytope",)),
        ],
    )
    def test_prints_what_the_spaced_twin_prints(self, capsys, unspaced, spaced, flags):
        command, *rest = flags
        twin = run(capsys, command, spaced, *rest)
        assert twin[0] == EXIT_OK
        assert run(capsys, command, unspaced, *rest) == twin

    def test_unknown_option_still_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "-2*x^2+y^3", "--prime", "7", "--bogus")
        assert code == EXIT_BAD_INPUT
        assert "unrecognized arguments: --bogus" in err

    def test_negative_low_end_of_a_prime_window(self, capsys):
        # "-5..10" is read as the window's value: it holds the primes 2..10
        assert run(capsys, "scan", COMP, "--primes", "-5..10") == run(
            capsys, "scan", COMP, "--primes", "2..10"
        )


def test_calls_share_no_state(capsys):
    """Each main call builds its own parser and namespace, so a flag or a
    handler of one call never reaches the next."""
    verified = ("compute", COMP, "--prime", "43", "--verify", "1", "--json")
    plain = ("compute", COMP, "--prime", "43")
    scan = ("scan", COMP, "--primes", "2..50")
    first, second = run(capsys, *verified), run(capsys, *plain)
    assert first[0] == second[0] == EXIT_OK
    assert "verification" in json.loads(first[1])
    assert second[1].startswith("fpt = 8/43\n") and "verify" not in second[1]
    assert run(capsys, *scan)[0] == EXIT_OK
    assert run(capsys, *verified) == first
    assert run(capsys, *scan)[0] == EXIT_OK
    assert run(capsys, *plain) == second


def test_readme_examples(capsys, monkeypatch, tmp_path):
    """Each `$ binomial-fpt ...` example in README's "Examples:" block
    exits 0 and prints the output shown under it; run from tmp_path, so
    the figure it writes lands there."""
    block = README.read_text().split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = [chunk.split("\n", 1) for chunk in block.split("$ binomial-fpt ")[1:]]
    assert len(examples) == 5
    monkeypatch.chdir(tmp_path)
    for command, documented in examples:
        assert run(capsys, *shlex.split(command)) == (EXIT_OK, documented.rstrip("\n") + "\n", "")

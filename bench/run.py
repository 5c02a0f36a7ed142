"""Benchmark of the binomial-fpt command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload certify --seed 1 --repeat 10

Each workload (see workloads.py) is a seeded stream of CLI commands.
They run in-process, one after another from one single-threaded client
(a closed loop with no think time), through ``binomial_fpt.cli.main``,
the entry point the installed ``binomial-fpt`` script calls.  Commands
run in rounds.  Each round starts from a fresh import of the package, so
nothing the program might cache survives from one round to the next, and
rounds repeat until the commands have been busy for ``--seconds``.
Whole rounds are always finished, so every run has the same mix, and a
run ends early rather than overrun ``--seconds`` by half.
A command's latency is the median of its runs in the run (only
certify's rounds repeat commands).  Throughput is the median of the
rounds' rates, so a burst of load from elsewhere on the machine during
one round does not move it; latency percentiles pool every command.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
rounds with the layer tracer (tracer.py) for half of ``--seconds``,
runs each of them again untraced right after it to measure the tracing
overhead, and prints the per-layer metrics.  Every output is checked against the
expectations recorded from the seed commit (check.py), outside the
timed region.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is a report with provenance, sample counts, failures and the traffic
record (the measured mix of cases, core rows m, eta denominators D and
prime powers); it is also written to ``.bench_out/``, with the spans of
a traced run.  ``--repeat N`` runs N seeds in child processes and prints
each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import floor, log10
from pathlib import Path
from time import perf_counter

import check
import workloads
from tracer import LAYERS, PACKAGE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # before the first round; every round adds one more
MAX_SPANS = 2_000_000  # a traced pass ends after the round that reaches this

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

TRACED_FUNCTIONS = (
    "parsing.parse",
    "engine.fpt", "engine.core_fpt", "engine.factor", "engine.fpt_limit",
    "engine.monomial_fpt",
    "polytope.build", "polytope.maximal_point", "polytope.vertices", "polytope.contains",
    "polytope.contains_lower_interior", "polytope.ray_max_delta",
    "base_p.expand", "base_p.carry_profile", "base_p.truncate", "base_p.tail",
    "base_p.scaled_truncation", "base_p.positional_digits",
    "primes.is_prime", "primes.primes_between",
    "oracle.nu_semigroup", "oracle.nu_naive", "oracle.nu_monomial", "oracle.verify",
    "svg.polytope_figure",
)
CASES = ("STANDARD_GT1", "CARRY_FREE", "TRUNCATED", "TRUNCATED_PLUS_EPSILON",
         "MIN_COMBINED", "MONOMIAL_ONLY")
COUNTERS = (
    ("polytope.vertices.line_pairs", "count"),
    ("base_p.carry_profile.digits", "count"),
    ("primes.sieve_bytes", "bytes"),
    ("oracle.nu_semigroup.q_total", "count"),
    ("oracle.verify.naive_skipped", "count"),
)
PER_LAYER = (
    tuple((f"{f}.{k}", u) for f in TRACED_FUNCTIONS for k, u in (("calls", "count"), ("self_s", "s")))
    + (("cli.self_s", "s"), ("jsonio.self_s", "s"))
    + (("polytope.maximal_point.calls_per_input", "calls/input"),
       ("polytope.contains_lower_interior.inside_ratio", "ratio"))
    + COUNTERS
    + tuple((f"engine.case.{c}.share", "ratio") for c in CASES)
    + tuple((f"layer.{layer}.share", "ratio") for layer in LAYERS + ("other",))
    + (("trace.overhead_frac", "ratio"), ("trace.spans", "count"))
)

WARMUP = (
    ("compute", "x^2*y + x*y^3", "--prime", "5", "--json"),
    ("scan", "x^2*y + x*y^3", "--primes", "5..40", "--json"),
    ("oracle", "x^2*y + x*y^3", "--prime", "3", "--level", "2", "--json"),
    ("polytope", "x^2*y + x*y^3", "--json"),
)

_IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import binomial_fpt.cli"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import binomial_fpt.cli afresh from this checkout's src/ tree and
    return the module."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        cli = importlib.import_module(f"{PACKAGE}.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import {PACKAGE} from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_command(main, argv, svg_path: Path):
    """Run one command; returns (seconds, Outcome).  Only main() is timed."""
    argv = [str(svg_path) if a == workloads.SVG_PLACEHOLDER else a for a in argv]
    is_figure = argv[0] == "polytope" and "--svg" in argv
    if is_figure and svg_path.exists():
        svg_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - t0
    svg = svg_path.read_text(encoding="utf-8") if is_figure and svg_path.exists() else None
    return seconds, check.Outcome(code, out.getvalue(), svg)


class Workload:
    """A workload's catalogue, its expectations and a seeded round stream."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        blocks = workloads.catalogue(name)
        self.commands = [c for block in blocks for c in block]
        expected = check.load_expected(name)
        if expected["catalogue_digest"] != workloads.catalogue_digest(blocks):
            raise BenchError(f"expected/{name}.json does not match the generated catalogue")
        self.expected = expected["entries"]
        self.rounds = workloads.rounds(name, blocks, seed)


def setup(name: str, seed: int) -> float:
    """One set-up as a user and the benchmark pay it: the CLI's import in
    a fresh interpreter, then a fresh in-process import, the inputs and a
    warm-up command of each kind.  Returns its duration."""
    t0 = perf_counter()
    child = subprocess.run([sys.executable, "-c", _IMPORT_CLI, str(SRC)],
                           capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise BenchError(f"importing the CLI failed: {child.stderr.strip()[-300:]}")
    main = load_cli().main
    Workload(name, seed)
    for argv in WARMUP:
        _, outcome = run_command(main, argv, OUT / "warmup.svg")
        if outcome.exit != 0:
            raise BenchError(f"warm-up command {argv} exited {outcome.exit}")
    return perf_counter() - t0


class Tally:
    """What a pass measured, kept as summaries so memory stays flat."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.busy = 0.0  # seconds inside main()
        self.runs: dict[int, list[float]] = {}  # catalogue index -> latency of each run
        self.rows_of: dict[int, int] = {}  # catalogue index -> threshold rows printed
        self.rounds: list[list[int]] = []
        self.rows = 0
        self.cases: Counter = Counter()
        self.core_rows: Counter = Counter()
        self.denominators: Counter = Counter()
        self.prime_magnitudes: Counter = Counter()
        self.prime_powers: Counter = Counter()
        self.inputs: set[str] = set()
        self.setup_samples: list[float] = []
        self.span_ranges: list[tuple[int, int, int]] = []  # traced: (m, first, end) per command

    def add(self, index: int, command, expected, seconds, outcome) -> None:
        """Check one run's output and record its latency, and the traffic
        of a command not seen before."""
        kind = command.argv[0]
        self.attempted += 1
        self.busy += seconds
        reason = check.mismatch(kind, outcome, expected)
        if reason is not None:
            self.failures.append(f"{' '.join(command.argv)[:160]}: {reason}")
        if index in self.runs:
            self.runs[index].append(seconds)
            return
        self.runs[index] = [seconds]
        rows = check.threshold_rows(kind, check.parse_output(kind, outcome))
        self.rows_of[index] = len(rows)
        for p, _, case in rows:
            self.rows += 1
            self.cases[case] += 1
            self.prime_magnitudes[f"1e{floor(log10(p))}"] += 1
        self.core_rows[command.m] += 1
        self.denominators[_denominator_bucket(expected[2])] += 1
        self.inputs.add(command.poly)
        for flag in ("--verify", "--level"):
            if flag in command.argv:
                p = int(command.argv[command.argv.index("--prime") + 1])
                e = int(command.argv[command.argv.index(flag) + 1])
                self.prime_powers[p**e] += 1

    def rates(self) -> tuple[list[float], list[tuple[float, float]]]:
        """Each command's median latency, and each round's (commands/s,
        rows/s) computed from those latencies."""
        latency = {i: statistics.median(runs) for i, runs in self.runs.items()}
        rates = []
        for indices in self.rounds:
            seconds = sum(latency[i] for i in indices)
            rows = sum(self.rows_of[i] for i in indices)
            rates.append((len(indices) / seconds, rows / seconds))
        return list(latency.values()), rates

    def traffic(self) -> dict:
        def ordered(counter):
            return {str(k): v for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))}

        return {
            "commands": len(self.runs),
            "threshold_rows": self.rows,
            "distinct_inputs": len(self.inputs),
            "cases": ordered(self.cases),
            "core_rows_m": {str(k): v for k, v in sorted(self.core_rows.items())},
            "eta_denominator_D": ordered(self.denominators),
            "prime_magnitude": ordered(self.prime_magnitudes),
            "prime_power_p^e": {str(k): v for k, v in sorted(self.prime_powers.items())},
        }


def _denominator_bucket(d: int | None) -> str:
    if d is None:
        return "none"
    for limit, label in ((50, "a:<50"), (500, "b:50-499"), (5000, "c:500-4999")):
        if d < limit:
            return label
    return "d:>=5000"


def run_round(work: Workload, tally: Tally, indices, tracer=None) -> float:
    """One set-up sample, a fresh import, then the round's commands;
    returns the seconds they were busy."""
    tally.setup_samples.append(setup(work.name, work.seed))
    cli = load_cli()
    if tracer is not None:
        tracer.patch()
    main = cli.main  # read after patching, so the tracer sees it
    svg_path = OUT / f"{work.name}.svg"
    try:
        results = []
        for i in indices:
            first_span = 0 if tracer is None else len(tracer.start)
            results.append(run_command(main, work.commands[i].argv, svg_path))
            if tracer is not None:
                tally.span_ranges.append((work.commands[i].m, first_span, len(tracer.start)))
    finally:
        if tracer is not None:
            tracer.unpatch()
    for i, (seconds, outcome) in zip(indices, results):
        tally.add(i, work.commands[i], work.expected[i], seconds, outcome)
    tally.rounds.append(indices)
    return sum(seconds for seconds, _ in results)


def run_pass(work: Workload, tally: Tally, budget_s: float, tracer=None, shadow=None) -> None:
    """Run whole rounds until the commands were busy for budget_s seconds,
    ending early rather than overrunning it by half (certify's rounds are
    long).  With shadow, every round is run again untraced right after,
    into that tally, so that both see the same load on the machine."""
    last = 0.0
    while not tally.rounds or (
        tally.busy < budget_s and tally.busy + last <= 1.5 * budget_s
        and (tracer is None or len(tracer.start) < MAX_SPANS)
    ):
        indices = next(work.rounds)
        last = run_round(work, tally, indices, tracer)
        if shadow is not None:
            run_round(work, shadow, indices)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(tally: Tally) -> dict:
    latencies, rates = tally.rates()
    values = {
        "ops_per_s": statistics.median(ops for ops, _ in rates),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p95_ms": 1000 * percentile(latencies, 95),
        "rows_per_s": statistics.median(rows for _, rows in rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(tally.setup_samples),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer: Tracer, totals: dict, tally: Tally, untraced_busy: float) -> dict:
    wall = tally.busy
    values: dict[str, float] = {}
    for name in TRACED_FUNCTIONS:
        calls, own = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
    layer_self = {layer: sum(own for n, (_, own) in totals.items() if n.startswith(layer + "."))
                  for layer in LAYERS}
    values["cli.self_s"] = layer_self["cli"]
    values["jsonio.self_s"] = layer_self["jsonio"]
    mp_calls = totals.get("polytope.maximal_point", (0, 0.0))[0]
    values["polytope.maximal_point.calls_per_input"] = mp_calls / max(len(tally.inputs), 1)
    lower_calls = totals.get("polytope.contains_lower_interior", (0, 0.0))[0]
    inside = tracer.counters["polytope.contains_lower_interior.inside"]
    values["polytope.contains_lower_interior.inside_ratio"] = inside / lower_calls if lower_calls else 0.0
    for name, _ in COUNTERS:
        values[name] = tracer.counters[name]
    for case in CASES:
        values[f"engine.case.{case}.share"] = tally.cases[case] / tally.rows if tally.rows else 0.0
    for layer in LAYERS:
        values[f"layer.{layer}.share"] = layer_self[layer] / wall
    values["layer.other.share"] = 1 - sum(layer_self.values()) / wall
    values["trace.overhead_frac"] = wall / untraced_busy - 1
    values["trace.spans"] = len(tracer.start)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def by_core_rows(tracer: Tracer, own: list[float], span_ranges) -> dict:
    """Per core-row count m: commands, their traced wall time, and the four
    functions with the largest share of it (self time / wall)."""
    wall: dict[int, float] = Counter()
    commands: dict[int, int] = Counter()
    self_s: dict[int, Counter] = {}
    for m, first, end in span_ranges:
        if end == first:
            continue
        commands[m] += 1
        wall[m] += tracer.end[first] - tracer.start[first]
        names = self_s.setdefault(m, Counter())
        for k in range(first, end):
            names[tracer.names[tracer.name_of[k]]] += own[k]
    return {
        str(m): {
            "commands": commands[m],
            "wall_s": wall[m],
            "top_self_share": {n: s / wall[m] for n, s in self_s[m].most_common(4)},
        }
        for m in sorted(commands)
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def bench(args) -> int:
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    tally.setup_samples = [setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    work = Workload(args.workload, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
    }
    wall0 = perf_counter()
    if args.trace:
        tracer, untraced = Tracer(), Tally()
        run_pass(work, tally, args.seconds / 2, tracer=tracer, shadow=untraced)
        own = tracer.self_times()
        totals = tracer.totals(own)
        metrics = per_layer(tracer, totals, tally, untraced.busy)
        tally.failures += untraced.failures
        attempted = tally.attempted + untraced.attempted
        report["untraced_busy_s"] = untraced.busy
        report["hook_errors"] = tracer.hook_errors
        report["traced_functions"] = {
            name: {"calls": calls, "self_s": seconds}
            for name, (calls, seconds) in sorted(totals.items())
        }
        report["self_share_by_core_rows"] = by_core_rows(tracer, own, tally.span_ranges)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        run_pass(work, tally, args.seconds)
        metrics = end_to_end(tally)
        attempted = tally.attempted
    failed = len(tally.failures)
    report.update(
        setup_samples_s=tally.setup_samples,
        rounds=len(tally.rounds),
        samples=len(tally.runs),
        busy_s=tally.busy,
        wall_s=perf_counter() - wall0,
        failed_frac=failed / attempted,
        failures=tally.failures[:10],
        traffic=tally.traffic(),
    )
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def repeat(args) -> int:
    """Run --repeat seeds in child processes; print median and quartiles."""
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(json.dumps({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                          **{k: round(v["value"], 6) for k, v in result["metrics"].items()}}))
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "all_correct": all(r["correct"] for r in runs),
                      "provenance": provenance(), "metrics": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N seeds from --seed on in child processes and summarise")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return repeat(args) if args.repeat else bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

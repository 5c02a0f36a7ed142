"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    def first_rounds(seed):
        blocks = workloads.catalogue(name)
        flat = [c.argv for block in blocks for c in block]
        return [[flat[i] for i in r] for r in islice(workloads.rounds(name, blocks, seed), 3)]

    assert first_rounds(7) == first_rounds(7)
    assert first_rounds(7) != first_rounds(8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_expectations_cover_the_catalogue(name):
    blocks = workloads.catalogue(name)
    expected = check.load_expected(name)
    assert expected["catalogue_digest"] == workloads.catalogue_digest(blocks)
    assert len(expected["entries"]) == sum(len(b) for b in blocks)


def test_rounds_use_every_block_before_repeating_one():
    blocks = workloads.catalogue("scan")
    per_round = workloads.SCAN_BLOCKS_PER_ROUND
    n_rounds = len(blocks) // per_round
    seen = [i for r in islice(workloads.rounds("scan", blocks, 3), n_rounds) for i in r]
    assert sorted(seen) == list(range(sum(len(b) for b in blocks)))


def test_output_check_flags_a_wrong_expected_value():
    cli = run.load_cli()
    command = next(c for c in workloads.catalogue("certify")[0] if c.argv[0] == "compute")
    _, outcome = run.run_command(cli.main, command.argv, run.OUT / "test.svg")
    entry = check.load_expected("certify")["entries"][0]
    assert check.mismatch("compute", outcome, entry) is None

    data = json.loads(outcome.stdout)
    data["value"]["num"] += 1
    wrong = check.Outcome(0, json.dumps(data))
    assert "digest" in check.mismatch("compute", wrong, entry)
    assert "exit" in check.mismatch("compute", check.Outcome(1, outcome.stdout), entry)
    assert check.mismatch("compute", outcome, [entry[0][::-1], 0, None, 1]) is not None


def test_output_check_ignores_fields_added_later():
    data = {"input": "x + y^2", "prime": 3, "semigroup_nu": 4, "naive_nu": 4,
            "match": True, "level": 1}
    plain = check.Outcome(0, json.dumps(data))
    extended = check.Outcome(0, json.dumps({**data, "timings": {"total": 0.1}}))
    assert check.digest("oracle", plain) == check.digest("oracle", extended)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 5.0, 6.0]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_tracer_sees_calls_through_imported_names():
    cli = run.load_cli()
    tracer = Tracer()
    tracer.patch()
    try:
        assert cli.main(["compute", workloads.PAPER, "--prime", "7", "--json"]) == 0
    finally:
        tracer.unpatch()
    totals = tracer.totals(tracer.self_times())
    # engine imports maximal_point by name; fpt and fpt_limit each call it.
    assert totals["polytope.maximal_point"][0] == 2
    assert totals["engine.fpt"][0] == 1
    calls, own = totals["engine.fpt"]
    assert 0 < own
    assert sum(s for _, s in totals.values()) == pytest.approx(
        tracer.end[0] - tracer.start[0], rel=1e-9)
    assert not hasattr(cli.main, "__wrapped__")


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

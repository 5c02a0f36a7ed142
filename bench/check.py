"""Output check against expectations recorded from the seed commit.

Each catalogue command has one expected entry ``[digest, exit, D, rows]``:

* ``digest`` fingerprints the command's output: the JSON fields the seed
  commit printed (fields a later version adds are ignored), or the SVG
  text for ``polytope --svg``;
* ``exit`` is the expected exit code;
* ``D`` is the common denominator of the core's maximal point eta
  (None when there is no core), taken from the recorded output;
* ``rows`` is the number of threshold rows the command prints.

The check runs after a round, outside its timed region.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import lcm
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# The fields each command printed at the seed commit.
_FIELDS = {
    "compute": ("input", "prime", "case", "value", "value_base_p", "eta", "eta_sum",
                "L", "d", "epsilon", "monomial_part", "notes", "verification"),
    "scan": ("input", "prime_range", "filter", "limit", "rows", "limit_match_count"),
    "oracle": ("input", "prime", "level", "semigroup_nu", "naive_nu", "match"),
}
_SCAN_ROW_FIELDS = ("p", "value", "case")


@dataclass(frozen=True)
class Outcome:
    """What one command produced: exit code, stdout, and the figure if any."""

    exit: int | None  # None when the command raised
    stdout: str
    svg: str | None = None


def project(kind: str, data: dict) -> dict:
    """The seed commit's fields of a command's JSON output."""
    out = {k: data.get(k) for k in _FIELDS[kind]}
    if kind == "scan" and isinstance(out["rows"], list):
        out["rows"] = [{k: r.get(k) for k in _SCAN_ROW_FIELDS} for r in out["rows"]]
    return out


def parse_output(kind: str, outcome: Outcome) -> dict | None:
    """The JSON document a JSON-printing command wrote, or None."""
    if kind == "polytope" or not outcome.stdout.strip():
        return None
    try:
        return json.loads(outcome.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError:
        return None


def digest(kind: str, outcome: Outcome) -> str | None:
    """Fingerprint of a command's output, or None when it has none."""
    if kind == "polytope":
        text = outcome.svg
    else:
        data = parse_output(kind, outcome)
        text = None if data is None else json.dumps(project(kind, data), sort_keys=True)
    if text is None:
        return None
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def mismatch(kind: str, outcome: Outcome, expected: list) -> str | None:
    """Why the outcome differs from the expected entry, or None if it matches."""
    want_digest, want_exit = expected[0], expected[1]
    if outcome.exit != want_exit:
        return f"exit {outcome.exit}, expected {want_exit}"
    got = digest(kind, outcome)
    if got != want_digest:
        return f"output digest {got}, expected {want_digest}"
    return None


def eta_denominator(data: dict | None) -> int | None:
    """Common denominator of eta in a compute output."""
    if not data or not data.get("eta"):
        return None
    return lcm(*(coord["den"] for coord in data["eta"]))


def threshold_rows(kind: str, data: dict | None) -> list[tuple[int, dict, str]]:
    """(prime, value, case) for every threshold a command printed."""
    if not data:
        return []
    if kind == "scan":
        return [(r["p"], r["value"], r["case"]) for r in data.get("rows", [])]
    if kind == "compute":
        return [(data["prime"], data["value"], data["case"])]
    return []


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)

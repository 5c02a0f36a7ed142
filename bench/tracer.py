"""Layer tracer that lives outside the program.

It wraps every public function defined in the traced modules of
``binomial_fpt`` and records one span per call: name, start, end and
the span that was open when the call began (its parent).  Spans are kept
in memory in flat arrays and written out when the run ends.

Modules import layer functions by name (``from .polytope import
maximal_point``), so patching the defining module alone would miss
those calls.  ``Tracer.patch`` therefore replaces the function object
wherever any module of the package holds it.

A few wrapped functions also feed counters (``HOOKS``) measured where
the work happens, such as the number of line pairs ``vertices``
intersects.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter

PACKAGE = "binomial_fpt"
LAYERS = ("cli", "parsing", "engine", "polytope", "base_p", "primes", "oracle", "jsonio", "svg")

# Digit helpers the brute-force oracles call once per lattice point:
# millions of spans per run, each shorter than the span itself costs.
# Their time stays in the calling oracle's self time.
UNTRACED = frozenset({"base_p.adds_without_carrying", "base_p.multinomial_nonzero", "base_p.digit"})


def _vertices(counters, args, result):
    counters["polytope.vertices.line_pairs"] += comb(len(args[0].rows) + 2, 2)


def _lower_interior(counters, args, result):
    counters["polytope.contains_lower_interior.inside"] += bool(result)


def _carry_profile(counters, args, result):
    counters["base_p.carry_profile.digits"] += result.certificate_depth


def _primes_between(counters, args, result):
    counters["primes.sieve_bytes"] += max(args[1] + 1, 0)


def _nu_semigroup(counters, args, result):
    counters["oracle.nu_semigroup.q_total"] += args[0].prime ** args[0].level


def _verify(counters, args, result):
    counters["oracle.verify.naive_skipped"] += result.naive_nu is None


HOOKS = {
    "polytope.vertices": _vertices,
    "polytope.contains_lower_interior": _lower_interior,
    "base_p.carry_profile": _carry_profile,
    "primes.primes_between": _primes_between,
    "oracle.nu_semigroup": _nu_semigroup,
    "oracle.verify": _verify,
}


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.hook_errors = 0
        self._stack: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A stand-in for fn that records a span around each call."""
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                try:
                    hook(counters, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        """Wrap the public functions of every traced layer module, in
        every package module that holds them."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def totals(self, own: list[float]) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per traced function, given the
        spans' self times."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for nid, own in zip(self.name_of, own):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent``."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for nid, t0, t1, par in zip(self.name_of, self.start, self.end, self.parent):
                handle.write(f"{self.names[nid]}\t{t0!r}\t{t1!r}\t{par}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are merged, so the result never counts a moment twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, par in enumerate(parent):
        if par >= 0:
            children[par].append((max(start[i], start[par]), min(end[i], end[par])))
    out = []
    for i in range(len(start)):
        covered, reach = 0.0, start[i]
        for c0, c1 in sorted(children.get(i, ())):
            c0 = max(c0, reach)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end[i] - start[i] - covered)
    return out

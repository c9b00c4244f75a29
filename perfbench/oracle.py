"""Expected answers, computed once from a fresh, uncached in-memory
deployment, and the check every timed statement goes through.

Answers are compared in a canonical form: the structured ``WtResult.data``
(leads with their entry databases, instance descriptions, result rows,
values) plus the rendered text.  Two things are left out because a
metadata cache legitimately changes them: the discovery cost counters
(co-databases contacted, metadata calls, cache hits, the trace) and the
``-- consulted N co-database(s), M metadata calls`` footer line.

The oracle's answers come from the same program the benchmark measures,
so on their own they would only catch answers that change from run to
run.  Their digests are therefore pinned in ``answers.json``: an answer
whose digest differs from the pinned one fails every statement that
expects it.  ``python3 perfbench/run.py --pin-answers`` rewrites the
file, for a change that is meant to change answers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

from repro.apps.healthcare import topology as topo
from repro.core.discovery import DiscoveryResult
from repro.sql.result import ResultSet

from perfbench.workloads import WRITE_PAIRS, Stmt, build_deployment

FOOTER = "    -- consulted "
#: Digests of the expected answers, keyed by :func:`pin_key`.
PINS = Path(__file__).resolve().parent / "answers.json"


def plain(value: Any) -> Any:
    """*value* as nested tuples/dicts of primitives, comparable by ``==``."""
    if isinstance(value, DiscoveryResult):
        return ("discovery", value.query,
                tuple(plain(lead) for lead in value.leads),
                tuple(value.degraded.names()))
    if isinstance(value, ResultSet):
        return ("rows", tuple(value.columns), tuple(value.rows),
                value.rowcount)
    if hasattr(value, "to_wire"):
        return plain(value.to_wire())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                tuple((f.name, plain(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return tuple(sorted((str(key), plain(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(plain(item) for item in value)
    return value


def canonical(result) -> tuple:
    """The comparable form of one ``WtResult``."""
    text = "\n".join(line for line in result.text.splitlines()
                     if not line.startswith(FOOTER))
    return (result.kind, plain(result.data), text)


def pin_key(state: frozenset, text: str) -> str:
    """The key of one expected answer in :data:`PINS`."""
    return "+".join(sorted(state)) + " | " + text


def digest(answer: tuple) -> str:
    """SHA-256 of a canonical answer (nested tuples of primitives, so
    its ``repr`` is the same in every process)."""
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def pinned_mismatches(expected: dict, pins: dict) -> list[str]:
    """Keys of the answers in *expected* whose digest is not pinned."""
    return sorted(pin_key(state, text)
                  for (state, text), answer in expected.items()
                  if pins.get(pin_key(state, text)) != digest(answer))


def cycle_writes(browser) -> None:
    """Open and close every write pair once."""
    for pair in WRITE_PAIRS:
        browser.submit(pair.open)
        browser.submit(pair.close)


class Oracle:
    """Expected canonical answers keyed by (open write pairs, statement)."""

    def __init__(self, expected: dict):
        self.expected = expected
        #: Keys whose answer differs from its pinned digest.
        self.unpinned: list[str] = []

    @classmethod
    def build(cls, statements: Iterable[str]) -> "Oracle":
        """Answer every statement from a fresh, uncached, in-memory
        federation, in every combination of open write pairs, together
        with each write's own acknowledgement in each state.

        Each pair is cycled once first; :func:`cycle_writes` gives the
        measured deployment the same history, so that re-created links
        and re-joined members sit where the oracle has them.
        """
        browser = build_deployment().browser(topo.QUT)
        cycle_writes(browser)
        reads = sorted(set(statements))
        expected: dict = {}
        for mask in range(1 << len(WRITE_PAIRS)):
            opened = [pair for index, pair in enumerate(WRITE_PAIRS)
                      if mask >> index & 1]
            state = frozenset(pair.name for pair in opened)
            for pair in opened:
                browser.submit(pair.open)
            for text in reads:
                expected[(state, text)] = canonical(browser.submit(text))
            for pair in WRITE_PAIRS:
                first, second = ((pair.close, pair.open) if pair in opened
                                 else (pair.open, pair.close))
                expected[(state, first)] = canonical(browser.submit(first))
                browser.submit(second)
            for pair in reversed(opened):
                browser.submit(pair.close)
        return cls(expected)

    def pin(self) -> None:
        """Hold the answers to :data:`PINS`: each one whose digest
        differs is replaced by one no result equals."""
        self.unpinned = pinned_mismatches(self.expected,
                                          json.loads(PINS.read_text()))
        wrong = set(self.unpinned)
        for state, text in self.expected:
            if pin_key(state, text) in wrong:
                self.expected[(state, text)] = None

    def write_pins(self) -> None:
        """Record the digests of every answer in :data:`PINS`."""
        pins = {pin_key(state, text): digest(answer)
                for (state, text), answer in self.expected.items()}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    def check(self, stmt: Stmt, result) -> bool:
        """True when *result* equals the expected answer for *stmt*."""
        return self.expected.get((stmt.state, stmt.text)) == canonical(result)

"""The machine's momentary speed, so that closed-loop times do not drift
with it.

Shared virtual machines switch between speed states: for seconds at a
time the same statements take 1.4 to 1.8 times as long, in a pattern
that differs from one process to the next, so raw medians of two runs
of the same code can sit 30% apart.  The benchmark therefore times a
fixed reference workload, the *gauge*, between statements, and scales
each statement's time by ``REFERENCE_S`` over the gauge readings taken
around it: the result is the statement's time on a machine that runs
the gauge in ``REFERENCE_S``.

The gauge is pure-Python standard-library code and nothing of
``repro`` - e-mail parsing, text wrapping, URL splitting, dataclass
conversion, decimal arithmetic and the pure-Python JSON codec - because
code with a large, varied footprint like the program's slows down by
about as much as the program does when the machine does; a tight loop
slows down more.  A change to the program moves the statement times and
not the gauge, so the scaled figures still show it.
"""

from __future__ import annotations

import bisect
import dataclasses
import email
import json.decoder
import json.encoder
import json.scanner
import textwrap
import time
import urllib.parse
from array import array

import _pydecimal

#: Gauge time that scaled figures are expressed against: about what the
#: gauge takes between statements on a 2 GHz Xeon vCPU in its fast
#: state, so that scaled times read close to that state's times.
REFERENCE_S = 700e-6
#: Readings are at most this far apart while statements run.
GAUGE_EVERY_S = 0.020
#: A statement is scaled by the median of this many nearest readings.
WINDOW = 9
#: Runs of the workload in one reading: the first pays for whatever the
#: statement before it left in the caches, the second runs warm, so a
#: reading depends less on which statement came before it.
RUNS = 2

_MESSAGE = ("From: registry@qut.example\nTo: researcher@qut.example\n"
            "Subject: coalition update\n\nMedical Research gained a "
            "member.\nThe service link to Medical Insurance stands.\n")
_TEXT = "the medical research coalition holds databases of hospitals " * 3
_URL = "iiop://host.example:2809/webfindit/codb/Research?probe=1"


@dataclasses.dataclass
class _Record:
    name: str
    size: int
    tags: tuple


_DECODER = json.decoder.JSONDecoder()
_DECODER.scan_once = json.scanner.py_make_scanner(_DECODER)
_ENCODER = json.encoder.JSONEncoder()
_DOCUMENT = [{"row": index, "name": f"item{index}", "cells": [1, 2.5, None]}
             for index in range(6)]


def gauge_workload() -> int:
    """The fixed reference workload; returns a checksum of its output."""
    message = email.message_from_string(_MESSAGE)
    wrapped = textwrap.fill(_TEXT, 30)
    parts = urllib.parse.urlsplit(_URL)
    record = dataclasses.asdict(_Record("Research", 3, ("a", "b")))
    product = _pydecimal.Decimal("1.25") * _pydecimal.Decimal("3.5")
    encoded = "".join(_ENCODER.iterencode(_DOCUMENT))
    decoded = _DECODER.decode(encoded)
    return (len(message["Subject"]) + len(wrapped) + len(parts.path)
            + len(record) + int(product) + len(decoded))


class Gauge:
    """Gauge readings of one thread, and the scale they give."""

    def __init__(self) -> None:
        #: ``time.perf_counter()`` at each reading, and its duration.
        self.at = array("d")
        self.took = array("d")
        self._last = float("-inf")

    def read(self, times: int = 1) -> None:
        for __ in range(times):
            started = time.perf_counter()
            for __ in range(RUNS):
                gauge_workload()
            ended = time.perf_counter()
            self.at.append(started)
            self.took.append(ended - started)
            self._last = ended

    def tick(self) -> None:
        """Read the gauge if the last reading is :data:`GAUGE_EVERY_S`
        old; call between statements, outside their timing."""
        if time.perf_counter() - self._last >= GAUGE_EVERY_S:
            self.read()

    def factor(self, started: float, ended: float) -> float:
        """``REFERENCE_S`` over the median of the :data:`WINDOW`
        readings nearest the middle of ``[started, ended]``."""
        if not self.at:
            raise ValueError("no gauge readings")
        middle = (started + ended) / 2
        index = bisect.bisect(self.at, middle)
        high = min(len(self.at), max(index + WINDOW // 2 + 1, WINDOW))
        low = max(0, high - WINDOW)
        nearest = sorted(self.took[low:high])
        return REFERENCE_S / nearest[len(nearest) // 2]

    def median_s(self) -> float:
        """The median of every reading so far."""
        ordered = sorted(self.took)
        return ordered[len(ordered) // 2]

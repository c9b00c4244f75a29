"""Load generation: closed loop, bounded open loop and the rate ladder.

A *session* is any object with ``run(stmt) -> Sample``: it issues one
WebTassili statement, times the call alone and checks the answer.  The
functions here only decide *when* statements are issued:

* :func:`closed_loop` - one session sends its next statement as soon
  as the previous one returns, for a fixed time;
* :func:`open_loop` - statements are due on a Poisson schedule whether
  or not earlier ones have been answered, with at most one statement
  in flight per session.  Latency runs from the time a statement was
  *due*, so a stall is charged to every statement queued behind it,
  and the generator's lag (start minus due) is recorded;
* :class:`LadderSearch` - the highest rate of a fixed geometric ladder
  at which the open loop still meets the latency limit without a
  growing backlog.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

#: The interactive latency limit a user of the browser tolerates.
LATENCY_LIMIT_S = 0.100
#: How far ahead of the first arrival an open loop starts its clock.
LEAD_S = 0.02

#: Fixed geometric rate ladder (statements/second): 20/s upward in
#: steps of 2**(1/16), about 4.4% apart, to ~2.5k/s.
LADDER = tuple(20.0 * 2 ** (k / 16) for k in range(113))


@dataclass
class Sample:
    """One issued statement."""

    #: ``time.perf_counter()`` when the call started and returned.
    started: float
    ended: float
    #: Answered and equal to the oracle's answer.
    ok: bool
    #: A maintenance (write) statement rather than a read.
    write: bool = False
    #: ``time.perf_counter()`` at which an open loop had it due.
    due: Optional[float] = None
    #: Machine-speed factor (:mod:`perfbench.pace`); closed loops only.
    scale: float = 1.0

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or from call (closed loop)."""
        origin = self.started if self.due is None else self.due
        return self.ended - origin

    @property
    def scaled(self) -> float:
        """Latency at the gauge's reference speed."""
        return self.latency * self.scale

    @property
    def lag(self) -> float:
        """Seconds the generator started the statement late."""
        return 0.0 if self.due is None else max(0.0, self.started - self.due)


@dataclass
class Tail:
    """A tail percentile with the sample size that supports it."""

    value: float
    #: Percentile actually reported (99 when the sample allows it).
    percentile: float
    samples: int

    @property
    def beyond(self) -> int:
        """Samples strictly above the reported rank."""
        return self.samples - math.ceil(self.percentile / 100 * self.samples)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


#: A tail percentile is reported at most this high, and only with at
#: least this many samples beyond it.
TAIL_CEILING = 99.0
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Optional[Tail]:
    """The highest percentile up to :data:`TAIL_CEILING` that leaves at
    least :data:`TAIL_BEYOND` samples above it (nearest rank), or None
    when the sample is too small to leave that many beyond any
    percentile."""
    count = len(values)
    if count <= TAIL_BEYOND:
        return None
    percentile = min(TAIL_CEILING,
                     100.0 * (count - TAIL_BEYOND) / count)
    rank = math.ceil(percentile / 100 * count)
    ordered = sorted(values)
    return Tail(value=ordered[rank - 1], percentile=percentile,
                samples=count)


def closed_loop(session, statements: Iterator, seconds: float
                ) -> list[Sample]:
    """Run *session* back to back over *statements* for *seconds*."""
    samples: list[Sample] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(session.run(next(statements)))
    return samples


@dataclass
class OpenLoopRun:
    samples: list[Sample] = field(default_factory=list)
    #: Arrivals never issued because the run was abandoned as hopeless.
    abandoned: int = 0


def open_loop(sessions: Sequence[Any], plan: Sequence[tuple[float, Any]],
              abandon_lag: Optional[float] = None) -> OpenLoopRun:
    """Replay *plan* - ``(seconds after start, statement)`` pairs in due
    order - with one statement in flight per session at most.

    Each session takes the next arrival, sleeps until it is due and
    issues it.  When every session is busy an arrival waits, and its
    latency (from due) includes that wait.  With *abandon_lag* the run
    stops issuing once an arrival starts that much late: the backlog is
    already hopeless, and waiting it out only burns time.
    """
    run = OpenLoopRun()
    lock = threading.Lock()
    position = [0]
    stop = [False]
    start = time.perf_counter() + LEAD_S

    def worker(session) -> None:
        while True:
            with lock:
                if stop[0] or position[0] >= len(plan):
                    return
                offset, statement = plan[position[0]]
                position[0] += 1
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            elif abandon_lag is not None and -delay > abandon_lag:
                with lock:
                    stop[0] = True
                    run.abandoned += len(plan) - position[0] + 1
                return
            sample = session.run(statement)
            sample.due = due
            with lock:
                run.samples.append(sample)

    if len(sessions) == 1:
        worker(sessions[0])
    else:
        threads = [threading.Thread(target=worker, args=(session,),
                                    name=f"perfbench-session-{index}")
                   for index, session in enumerate(sessions)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    run.samples.sort(key=lambda sample: sample.due)
    return run


@dataclass
class Rung:
    """One open-loop probe of the ladder."""

    index: int
    rate: float
    passed: bool
    samples: int
    tail: Optional[Tail]
    #: Mean lag of the last quarter minus that of the first (seconds).
    lag_growth: float
    failed: int
    abandoned: int


def judge_rung(index: int, run: OpenLoopRun) -> Rung:
    """A rung passes when every statement was answered correctly, the
    tail latency (from due) meets :data:`LATENCY_LIMIT_S` and the lag
    did not grow by more than a quarter of that limit from the first
    quarter to the last."""
    reads = run.samples
    failed = sum(1 for sample in reads if not sample.ok)
    latencies = [sample.latency for sample in reads]
    rung_tail = tail(latencies)
    quarter = max(1, len(reads) // 4)
    growth = 0.0
    if len(reads) >= 4:
        first = [sample.lag for sample in reads[:quarter]]
        last = [sample.lag for sample in reads[-quarter:]]
        growth = sum(last) / len(last) - sum(first) / len(first)
    passed = (run.abandoned == 0 and failed == 0 and bool(reads)
              and (rung_tail.value if rung_tail is not None
                   else max(latencies)) <= LATENCY_LIMIT_S
              and growth <= LATENCY_LIMIT_S / 4)
    return Rung(index=index, rate=LADDER[index], passed=passed,
                samples=len(reads), tail=rung_tail, lag_growth=growth,
                failed=failed, abandoned=run.abandoned)


class LadderSearch:
    """Binary search of the ladder for the highest passing rung, one
    probe at a time so probes can be spread over a run.

    ``index`` is the rung to probe next; :meth:`record` takes its
    verdict.  A rung fails only when a second probe of it fails too, so
    one stall of the machine does not end the search.  When ``done``,
    ``best`` is the highest passing index (-1 when even the lowest rung
    failed).  The search assumes passing is monotone in the rate.
    """

    def __init__(self) -> None:
        self._low, self._high = -1, len(LADDER)
        self._doubted: Optional[int] = None
        self.rungs: list[Rung] = []

    @property
    def done(self) -> bool:
        return self._high - self._low <= 1

    @property
    def index(self) -> int:
        if self._doubted is not None:
            return self._doubted
        return (self._low + self._high) // 2

    @property
    def best(self) -> int:
        return self._low

    def record(self, rung: Rung) -> None:
        self.rungs.append(rung)
        if rung.passed:
            self._low = rung.index
            self._doubted = None
        elif self._doubted == rung.index:
            self._high = rung.index
            self._doubted = None
        else:
            self._doubted = rung.index

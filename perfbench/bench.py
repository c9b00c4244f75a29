"""One benchmark run: set-up, warm-up, the measured phases and the
metrics they yield."""

from __future__ import annotations

import cProfile
import gc
import itertools
import json
import pstats
import resource
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Optional

from repro.apps.healthcare import topology as topo
from repro.bench.workload import open_loop_plan

from perfbench import loadgen
from perfbench.loadgen import LADDER, LATENCY_LIMIT_S, Sample, median, tail
from perfbench.measure import (KEEP_STATEMENTS, BenchSession, SpanTotals,
                               layer_metrics, transport_delta)
from perfbench.oracle import Oracle, cycle_writes
from perfbench.pace import REFERENCE_S, Gauge
from perfbench.tracing import LAYERS, Tracer
from perfbench.workloads import (Stmt, Workload, resolved_config,
                                 statement_stream, write_probe_stream)

#: Every run is cut into this many rounds.  Each round builds more
#: deployments for the set-up figure and runs a slice of every phase, so
#: each metric samples the whole run.
ROUNDS = 9
#: Share of a round given to the write slice - maintenance statements
#: back to back, which on curate-mem add to the writes its main phase
#: interleaves, so the write tail rests on more samples - and to the
#: ladder probe (open-loop workloads); the main slice takes the rest.
WRITE_SHARE = 0.15
LADDER_SHARE = 0.45
#: ... and of a traced run: the untraced slice (the traced replay of
#: the same statements takes what it takes), then traced writes.
REFERENCE_SHARE = 0.40
#: The first statement a user submits once the federation is up.
FIRST_STATEMENT = "Find Coalitions With Information 'Medical Research'"
#: Open-loop arrivals that leave ten samples beyond the 99th percentile.
P99_SAMPLES = 1010
#: An open-loop probe that starts a statement this late has failed.
ABANDON_LAG_S = 0.5
#: Gauge readings taken just before and just after each timed build.
SETUP_READINGS = 3
#: Deployments built per round to time set-up.
SETUP_BUILDS = 3


def _close(deployment) -> None:
    close = getattr(deployment.system.transport, "close", None)
    if close is not None:
        close()


def _ms(seconds: float) -> float:
    return seconds * 1e3


class _Figures:
    """What an untraced run keeps of each round's samples: latencies
    at the gauge's reference speed (closed loop) or as measured (open
    loop)."""

    def __init__(self) -> None:
        self.reads = array("d")
        #: Read latencies as measured, for the notes.
        self.raw = array("d")
        self.writes = array("d")
        #: Closed loop: statements per second spent in Browser.submit.
        self.per_s: list[float] = []
        #: Open loop: reads answered correctly within the latency limit,
        #: and how late the generator started each read.
        self.good = 0
        self.lags = array("d")

    def add_main(self, samples: list[Sample]) -> None:
        reads = [s for s in samples if not s.write]
        self.reads.extend(s.scaled for s in reads)
        self.raw.extend(s.latency for s in reads)
        self.writes.extend(s.scaled for s in samples if s.write)
        self.per_s.append(len(samples) / sum(s.scaled for s in samples))
        self.good += sum(1 for s in reads
                         if s.ok and s.latency <= LATENCY_LIMIT_S)
        self.lags.extend(s.lag for s in reads)


class Bench:
    """Everything one invocation of ``run.py`` measures."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.mix = workload.mix()
        reads = [text for text, __ in self.mix] + [FIRST_STATEMENT]
        self.oracle = Oracle.build(reads)
        self.oracle.pin()
        # The oracle's federation is garbage now; free it before the
        # measured deployment is built.
        gc.collect()
        self.ids = itertools.count(1)
        self.sessions: list[BenchSession] = []
        self.deployment = None
        #: Threads closing deployments built only to time set-up.
        self.closers: list[threading.Thread] = []
        self.setup_times: list[float] = []
        self.search = loadgen.LadderSearch()
        #: Closed loops run on one thread, whose speed the gauge tracks.
        self.gauge = Gauge() if workload.fixed_rate is None else None
        self.unit_plan = None
        self.segments: list[list[float]] = []
        self.span_s = 0.0
        self.config: dict = {}
        #: Human-readable lines printed before the metrics.
        self.notes: list[str] = []
        self._setup_attempted = 0
        self._setup_failed = 0

    # -- accounting ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return self._setup_attempted + sum(s.attempted
                                           for s in self.sessions)

    @property
    def failed(self) -> int:
        return self._setup_failed + sum(s.failed for s in self.sessions)

    def errors(self) -> list[str]:
        return [f"{key!r}: oracle answer differs from its pinned digest"
                for key in self.oracle.unpinned] + [
            error for session in self.sessions for error in session.errors]

    # -- set-up ----------------------------------------------------------------

    def _build_once(self):
        """One deployment, timed from build to its first answer (at the
        gauge's reference speed on closed-loop workloads)."""
        first = Stmt(FIRST_STATEMENT)
        if self.gauge is not None:
            self.gauge.read(SETUP_READINGS)
        started = time.perf_counter()
        deployment = self.workload.build()
        result = deployment.browser(topo.QUT).submit(first.text)
        ended = time.perf_counter()
        scale = 1.0
        if self.gauge is not None:
            self.gauge.read(SETUP_READINGS)
            scale = self.gauge.factor(started, ended)
        self.setup_times.append((ended - started) * scale)
        self._setup_attempted += 1
        if not self.oracle.check(first, result):
            self._setup_failed += 1
        return deployment

    def setup(self) -> None:
        """Build the measured deployment and its sessions, give it the
        oracle's history, then run every statement once so stubs are
        resolved and lazy state is built before timing."""
        self.deployment = self._build_once()
        self.config = resolved_config(self.deployment)
        self.config["sessions"] = self.workload.sessions
        self.config["rounds"] = ROUNDS
        self.sessions = [
            BenchSession(self.deployment.browser(topo.QUT), self.oracle,
                         self.ids, gauge=self.gauge)
            for __ in range(self.workload.sessions)]
        cycle_writes(self.sessions[0].browser)
        for session in self.sessions:
            for text in sorted({text for text, __ in self.mix}):
                session.run(Stmt(text))

    def close(self) -> None:
        if self.deployment is not None:
            _close(self.deployment)
            self.deployment = None
        for closer in self.closers:
            closer.join()
        self.closers = []

    # -- slices ----------------------------------------------------------------

    def _stream(self, salt: int):
        return statement_stream(self.mix, self.seed * 1009 + salt,
                                self.workload.write_share)

    def _plan_segments(self, seconds: float) -> list[list[tuple]]:
        """The fixed-rate Poisson plan of the whole main phase, with at
        least :data:`P99_SAMPLES` arrivals, cut into one segment per
        round; offsets are re-based to each segment's start."""
        rate = self.workload.fixed_rate
        plan = open_loop_plan(rate, 2 * max(seconds, P99_SAMPLES / rate),
                              seed=self.seed)
        due = [arrival for arrival in plan if arrival.at < seconds]
        if len(due) < P99_SAMPLES:
            due = plan[:P99_SAMPLES]
        step = seconds / ROUNDS
        segments: list[list[tuple]] = [[] for __ in range(ROUNDS)]
        for arrival in due:
            index = min(ROUNDS - 1, int(arrival.at / step))
            segments[index].append(arrival.at - index * step)
        self.span_s = max(seconds, due[-1].at)
        return segments

    def main_slice(self, round_index: int, seconds: float,
                   replay: Optional[list] = None) -> tuple[list, list]:
        """One round's slice of the main phase: a closed loop on one
        session for *seconds*, or the round's segment of the fixed-rate
        plan on every session.  With *replay*, the same statements (and
        arrival offsets) a previous slice ran are run again instead.
        Returns ``(samples, what to replay)``."""
        if self.workload.fixed_rate is None:
            if replay is None:
                stream = self._stream(round_index)
                recorded: list[Stmt] = []

                def recording():
                    for stmt in stream:
                        recorded.append(stmt)
                        yield stmt

                samples = loadgen.closed_loop(self.sessions[0], recording(),
                                             seconds)
                replay = recorded
            else:
                samples = [self.sessions[0].run(stmt) for stmt in replay]
            self._scale(samples)
        else:
            if replay is None:
                stream = self._stream(round_index)
                replay = [(offset, next(stream))
                          for offset in self.segments[round_index]]
            samples = loadgen.open_loop(self.sessions, replay).samples
        self.sessions[0].restore()
        return samples, replay

    def ladder_probe(self, seconds: float) -> None:
        """The next probe of the rate ladder, open loop on the
        workload's sessions, if the search is not finished."""
        if self.search.done:
            return
        index = self.search.index
        rate = LADDER[index]
        # Every rung replays one unit-rate Poisson plan and one statement
        # stream, compressed to its rate, so rungs differ only in rate.
        if self.unit_plan is None:
            self.unit_plan = open_loop_plan(
                1.0, LADDER[-1] * seconds, seed=self.seed * 1009 + 100)
        stream = self._stream(100)
        run = loadgen.open_loop(
            self.sessions, [(arrival.at / rate, next(stream))
                            for arrival in self.unit_plan
                            if arrival.at < rate * seconds],
            abandon_lag=ABANDON_LAG_S)
        self.sessions[0].restore()
        run.samples = [sample for sample in run.samples if not sample.write]
        self.search.record(loadgen.judge_rung(index, run))

    def write_slice(self, round_index: int, seconds: float) -> list[Sample]:
        """Maintenance statements back to back on the first session."""
        stream = write_probe_stream(self.seed * 1009 + 200 + round_index)
        samples = loadgen.closed_loop(self.sessions[0], stream, seconds)
        self._scale(samples)
        self.sessions[0].restore()
        return samples

    def _scale(self, samples: list[Sample]) -> None:
        """Give closed-loop samples their machine-speed factor."""
        if self.gauge is None:
            return
        self.gauge.read()
        for sample in samples:
            sample.scale = self.gauge.factor(sample.started, sample.ended)

    # -- runs ------------------------------------------------------------------

    def _round_seconds(self) -> float:
        return self.seconds / ROUNDS

    def run_untraced(self) -> dict:
        """The end-to-end metrics."""
        self.setup()
        round_s = self._round_seconds()
        write_s = WRITE_SHARE * round_s
        open_loop = self.workload.fixed_rate is not None
        ladder_s = LADDER_SHARE * round_s if open_loop else 0.0
        main_s = round_s - write_s - ladder_s
        if open_loop:
            self.segments = self._plan_segments(main_s * ROUNDS)
        # Per round, only latencies are kept (as arrays of doubles), so
        # the benchmark's memory does not grow with the statements run.
        figures = _Figures()
        for round_index in range(ROUNDS):
            for __ in range(SETUP_BUILDS):
                self._spare(self._build_once())
            gc.collect()
            samples, __ = self.main_slice(round_index, main_s)
            figures.add_main(samples)
            if open_loop:
                self.ladder_probe(ladder_s)
            figures.writes.extend(
                s.scaled for s in self.write_slice(round_index, write_s))
        while open_loop and not self.search.done:
            self.ladder_probe(ladder_s)
        return self._end_to_end(figures)

    def _spare(self, deployment) -> None:
        """Retire a deployment built only to time set-up.  A TCP one is
        closed on a background thread: its servers take about a second
        to notice shutdown, and mostly sleep meanwhile."""
        if getattr(deployment.system.transport, "close", None) is None:
            return
        closer = threading.Thread(target=_close, args=(deployment,),
                                  name="perfbench-close")
        closer.start()
        self.closers.append(closer)

    def _end_to_end(self, figures: "_Figures") -> dict:
        metrics = {"setup_s": (median(self.setup_times), "s")}
        metrics.update(self._latencies("stmt", figures.reads))
        if self.gauge is not None:
            self.notes.append(
                f"times are scaled to the gauge's reference speed "
                f"({REFERENCE_S * 1e6:.0f} us; median reading "
                f"{self.gauge.median_s() * 1e6:.1f} us over "
                f"{len(self.gauge.took)} readings); read p50 as measured "
                f"{_ms(median(figures.raw)):.4f} ms")
        if self.workload.fixed_rate is None:
            per_s = median(figures.per_s)
            self.notes.append(
                "stmt_per_s: closed loop, median over rounds of "
                "statements per second spent in Browser.submit")
        else:
            per_s = figures.good / self.span_s
            self.notes.append(
                f"stmt_per_s: goodput, {figures.good} of "
                f"{len(figures.reads)} statements answered within "
                f"{_ms(LATENCY_LIMIT_S):.0f} ms over {self.span_s:.3f} s of "
                f"plan at {self.workload.fixed_rate:g}/s; generator lag p50 "
                f"{_ms(median(figures.lags)):.3f} ms")
        metrics["stmt_per_s"] = (per_s, "1/s")
        writes = self._latencies("write", figures.writes)
        metrics["write_p50_ms"] = writes["write_p50_ms"]
        # The write tail is printed but is not a result: on a shared
        # 2-vCPU virtual machine it follows noise that hits some
        # processes' sub-ms writes more than others' (IQR/median up to
        # 0.2 over ten runs).
        self.notes.append(f"write p99 (not a result) = "
                          f"{writes['write_p99_ms'][0]:.6g} ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        self.notes.append(
            "peak_rss_mb: peak resident set of this process: the "
            "interpreter, the measured deployment, the oracle's federation "
            "(freed before the measured one is built) and the federations "
            "built to time set-up (freed each round)")
        self.notes.append(f"error_rate = {self.failed / self.attempted:.6g}"
                          f" ({self.failed} of {self.attempted} statements)")
        if self.workload.fixed_rate is None:
            return metrics
        for rung in self.search.rungs:
            self.notes.append(
                f"ladder {rung.rate:8.1f}/s: "
                f"{'pass' if rung.passed else 'FAIL'} {rung.samples} "
                f"samples, tail "
                f"{_ms(rung.tail.value) if rung.tail else float('nan'):.2f}"
                f" ms, lag growth {_ms(rung.lag_growth):.2f} ms, "
                f"{rung.failed} failed, {rung.abandoned} abandoned")
        best = self.search.best
        metrics["max_rate_sps"] = (LADDER[best] if best >= 0 else 0.0,
                                   "1/s")
        return metrics

    def _latencies(self, name: str, latencies: array) -> dict:
        """p50 and the tail at the highest percentile that leaves ten
        samples beyond it."""
        high = tail(latencies)
        if high is None:
            raise RuntimeError(f"too few {name} samples ({len(latencies)}) "
                               f"for a tail percentile")
        self.notes.append(
            f"{name}: {len(latencies)} samples; tail is p"
            f"{high.percentile:.2f} ({high.beyond} beyond it)")
        return {f"{name}_p50_ms": (_ms(median(latencies)), "ms"),
                f"{name}_p99_ms": (_ms(high.value), "ms")}

    def run_traced(self, out_dir: Path) -> dict:
        """The per-layer metrics.  Each round runs a slice of the main
        phase twice over the same statements, untraced and with spans
        recorded, so the tracing overhead is a paired comparison."""
        self.setup()
        round_s = self._round_seconds()
        write_s = WRITE_SHARE * round_s
        reference_s = REFERENCE_SHARE * round_s
        if self.workload.fixed_rate is not None:
            self.segments = self._plan_segments(reference_s * ROUNDS)
        system = self.deployment.system
        tracer = Tracer()
        reads = SpanTotals(keep=KEEP_STATEMENTS)
        writes = SpanTotals(keep=KEEP_STATEMENTS)
        plain = list(self.sessions)
        # Traced sessions read the gauge too, so that both passes run
        # with the same interruptions.
        traced_sessions = [
            BenchSession(session.browser, self.oracle, self.ids,
                         tracer=tracer, reads=reads, writes=writes,
                         gauge=self.gauge)
            for session in plain]
        cache = system.metadata_cache
        transport_delta_total: Counter = Counter()
        cache_delta: Counter = Counter()
        overheads = []
        traced_reads: list[Sample] = []
        statements = 0
        for round_index in range(ROUNDS):
            # Alternate which pass goes first, so neither gains from
            # the other having just run the same statements.
            traced_first = round_index % 2 == 1
            replay = None
            if not traced_first:
                self.sessions = plain
                reference, replay = self.main_slice(round_index,
                                                    reference_s)
            self.sessions = traced_sessions
            cache_before = cache.stats() if cache is not None else {}
            before = system.transport.metrics.snapshot()
            tracer.install(type(system.transport))
            try:
                traced, replay = self.main_slice(round_index, reference_s,
                                                 replay)
                after = system.transport.metrics.snapshot()
                self.write_slice(round_index, write_s)
            finally:
                tracer.uninstall()
            if traced_first:
                self.sessions = plain
                reference, __ = self.main_slice(round_index, 0.0, replay)
            if cache is not None:
                cache_delta.update({key: value - cache_before.get(key, 0)
                                    for key, value in cache.stats().items()})
            transport_delta_total.update(transport_delta(before, after))
            statements += len(traced)
            traced_reads += [s for s in traced if not s.write]
            overheads.append(
                median([s.latency for s in traced if not s.write])
                / median([s.latency for s in reference if not s.write]))
        self.sessions = plain + traced_sessions
        finds = Counter()
        for session in traced_sessions:
            finds.update(session.finds)
        metrics = layer_metrics(reads, writes, finds,
                                dict(transport_delta_total),
                                after, dict(cache_delta), statements)
        shares = reads.layer_shares()
        for layer in LAYERS[:-1]:
            metrics[f"layer.{layer}_share"] = (shares.get(layer, 0.0),
                                               "ratio")
        metrics["bench.generator_lag_ms"] = (
            _ms(sum(s.lag for s in traced_reads) / len(traced_reads)), "ms")
        metrics["bench.trace_overhead"] = (median(overheads), "ratio")
        metrics["bench.error_rate"] = (self.failed / self.attempted,
                                       "ratio")
        self.notes.append(
            f"traced {reads.statements} reads and {writes.statements} "
            f"writes; {tracer.unattributed} spans outside any statement; "
            f"trace overhead is the median over rounds of traced p50 / "
            f"untraced p50 on the same statements")
        self._write_spans(out_dir, reads.kept + writes.kept)
        return metrics

    def _write_spans(self, out_dir: Path, spans) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans-{self.workload.name}-seed{self.seed}.jsonl"
        with path.open("w") as handle:
            for span in spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "layer": span.layer,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "stmt": span.stmt,
                    "note": span.note}) + "\n")
        self.notes.append(f"spans of the first {KEEP_STATEMENTS} traced "
                          f"statements of each kind: {path.name}")

    # -- profile cross-check ---------------------------------------------------

    def profile(self) -> None:
        """Run the main phase under cProfile and print self time grouped
        by ``repro`` subpackage and by layer, beside the layer shares
        the spans of a traced main phase give."""
        self.gauge = None   # its readings would show in the profile
        self.setup()
        seconds = self.seconds / 2
        if self.workload.fixed_rate is not None:
            self.segments = self._plan_segments(seconds * ROUNDS)
        profiler = cProfile.Profile()
        profiler.enable()
        __, replay = self.main_slice(0, seconds)
        profiler.disable()
        by_package: Counter = Counter()
        by_layer: Counter = Counter()
        for (filename, __, __), row in pstats.Stats(profiler).stats.items():
            own = row[2]
            by_package[_package(filename)] += own
            by_layer[_layer(filename)] += own
        tracer = Tracer()
        reads = SpanTotals()
        plain = self.sessions
        self.sessions = [BenchSession(session.browser, self.oracle,
                                      self.ids, tracer=tracer, reads=reads,
                                      writes=SpanTotals())
                         for session in plain]
        tracer.install(type(self.deployment.system.transport))
        try:
            self.main_slice(0, 0.0, replay)
        finally:
            tracer.uninstall()
        self.sessions += plain
        spans = reads.layer_shares()
        profiled = sum(by_package.values())
        print(f"{self.workload.name}: cProfile self time of the main "
              f"phase ({profiled:.2f} s, calling thread only) beside span "
              f"self time ({reads.statements} traced reads)")
        print(f"{'layer':<16}{'spans':>9}{'cProfile':>10}")
        for layer in (*LAYERS[:-1], "bench"):
            print(f"{layer:<16}{spans.get(layer, 0.0):>9.1%}"
                  f"{by_layer[layer] / profiled:>10.1%}")
        print("(spans: bench is time outside the wrapped entry points; "
              "cProfile: bench is time outside repro, builtins included)")
        print(f"{'package':<22}{'cProfile':>10}")
        for package, own in by_package.most_common():
            print(f"{package:<22}{own / profiled:>10.1%}")
        print(f"error_rate = {self.failed / self.attempted:.6g}")


#: Source files of the query layer outside ``repro.webtassili``.
_QUERY_FILES = ("query_processor.py", "browser.py")


def _package(filename: str) -> str:
    """``repro.<subpackage>`` of a profiled file, else where it lives."""
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        inner = parts[index + 1:]
        return "repro." + (inner[0].removesuffix(".py") if inner else "")
    if filename.startswith("~") or filename.startswith("<"):
        return "(builtins)"
    if "perfbench" in parts:
        return "(perfbench)"
    return "(stdlib)"


def _layer(filename: str) -> str:
    """The layer a profiled file belongs to (``bench`` outside repro)."""
    package = _package(filename)
    if package == "repro.webtassili" or (
            package == "repro.core" and filename.endswith(_QUERY_FILES)):
        return "query"
    if package == "repro.orb":
        return "communication"
    if package == "repro.core":
        return "metadata"
    if package in ("repro.wrappers", "repro.sql", "repro.oodb",
                   "repro.gateway"):
        return "data"
    return "bench"

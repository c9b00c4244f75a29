"""Sessions that issue checked statements, and the per-layer arithmetic
over the spans a traced session collects."""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Optional

from perfbench.loadgen import Sample
from perfbench.oracle import Oracle
from perfbench.pace import Gauge
from perfbench.tracing import Span, Tracer, outermost, self_times
from perfbench.workloads import Stmt, restoring_writes, state_after

#: Statements whose spans are kept verbatim for the trace file.
KEEP_STATEMENTS = 200


class SpanTotals:
    """Running per-statement sums over traced statements of one kind."""

    def __init__(self, keep: int = 0) -> None:
        self.statements = 0
        self.wall = 0.0
        #: Name -> summed duration of its outermost spans.
        self.inclusive: Counter = Counter()
        #: Name -> summed self time; layer -> summed self time.
        self.self_by_name: Counter = Counter()
        self.self_by_layer: Counter = Counter()
        #: Name -> number of spans.
        self.calls: Counter = Counter()
        self.sql_rows = 0
        self._keep = keep
        self.kept: list[Span] = []

    def add(self, spans: list[Span]) -> None:
        self.statements += 1
        mine = self_times(spans)
        for name in {span.name for span in spans}:
            self.inclusive[name] += sum(span.duration for span
                                        in outermost(spans, name))
        for span in spans:
            self.self_by_name[span.name] += mine[span.id]
            self.self_by_layer[span.layer] += mine[span.id]
            self.calls[span.name] += 1
            if span.name == "bench.statement":
                self.wall += span.duration
            elif span.name == "sql.execute" and span.note:
                self.sql_rows += span.note
        if self._keep:
            self._keep -= 1
            self.kept.extend(spans)

    def per_statement_us(self, name: str, own: bool = False) -> float:
        """Microseconds per statement in spans called *name* (their
        self time when *own*)."""
        if not self.statements:
            return 0.0
        source = self.self_by_name if own else self.inclusive
        return source[name] / self.statements * 1e6

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer as a share of statement wall time."""
        if not self.wall:
            return {}
        return {layer: total / self.wall
                for layer, total in self.self_by_layer.items()}


class BenchSession:
    """One browser session whose every statement is timed and checked.

    With a tracer, each statement runs under its own root span and its
    spans are folded into ``reads`` / ``writes`` totals as it ends.
    With a gauge, the gauge is read between statements when due.
    """

    def __init__(self, browser, oracle: Oracle, ids: itertools.count,
                 tracer: Optional[Tracer] = None,
                 reads: Optional[SpanTotals] = None,
                 writes: Optional[SpanTotals] = None,
                 gauge: Optional[Gauge] = None):
        self.browser = browser
        self.oracle = oracle
        self._ids = ids
        self.gauge = gauge
        self.tracer = tracer
        self.reads = reads
        self.writes = writes
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Find statements: count, co-databases, metadata calls, degraded.
        self.finds = Counter()
        #: Write pairs this session has left open.
        self.open_pairs: frozenset = frozenset()

    def run(self, stmt: Stmt) -> Sample:
        if self.gauge is not None:
            self.gauge.tick()
        stmt_id = next(self._ids)
        result = None
        error = None
        started = time.perf_counter()
        try:
            if self.tracer is None:
                result = self.browser.submit(stmt.text)
            else:
                with self.tracer.statement(stmt_id):
                    result = self.browser.submit(stmt.text)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            error = f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        # The benchmark keeps no history: the transcript would grow
        # with throughput and show up as memory.
        self.browser.transcript.clear()
        self.browser.session.history.clear()
        ok = error is None and self.oracle.check(stmt, result)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{stmt.text!r}: "
                                   f"{error or 'answer differs from oracle'}")
        if result is not None and result.kind == "coalitions":
            data = result.data
            self.finds["count"] += 1
            self.finds["codatabases"] += data.codatabases_contacted
            self.finds["calls"] += data.metadata_calls
            self.finds["degraded"] += 1 if data.degraded else 0
        if stmt.write:
            self.open_pairs = state_after(stmt)
        if self.tracer is not None:
            totals = self.writes if stmt.write else self.reads
            spans = self.tracer.take(stmt_id)
            if totals is not None:
                totals.add(spans)
        return Sample(started, ended, ok, stmt.write)

    def restore(self) -> None:
        """Close the write pairs left open (untimed, still checked)."""
        for stmt in restoring_writes(self.open_pairs):
            self.run(stmt)


def transport_delta(before: dict, after: dict) -> dict:
    """Counter increase between two ``TransportMetrics`` snapshots."""
    return {key: after[key] - before.get(key, 0) for key in after
            if isinstance(after[key], int)}


def layer_metrics(reads: SpanTotals, writes: SpanTotals, finds: Counter,
                  transport: dict, transport_total: dict, cache: dict,
                  statements: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced phase, ``name -> (value, unit)``.

    Times are microseconds per read statement (per write statement for
    the two write paths); *transport* and *cache* are counter deltas
    over the same statements (*statements* of them, reads and writes).
    """
    us = reads.per_statement_us
    marshal = reads.inclusive["giop.encode"] + reads.inclusive["giop.decode"]
    messages = transport.get("messages_sent", 0)
    opened = transport.get("connections_opened", 0)
    reused = transport.get("connections_reused", 0)
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    find_count = finds["count"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    invoke_self = (reads.self_by_name["orb.invoke"]
                   + reads.self_by_name["orb.locate"])
    invoke_all = (reads.inclusive["orb.invoke"]
                  + reads.inclusive["orb.locate"])
    return {
        "webtassili.parse_us": (us("webtassili.parse"), "us"),
        "query_processor.self_us": (us("query_processor.execute", True),
                                    "us"),
        "giop.encode_us": (us("giop.encode"), "us"),
        "giop.decode_us": (us("giop.decode"), "us"),
        "giop.marshal_share": (ratio(marshal, reads.wall), "ratio"),
        "giop.msgs_per_stmt": (ratio(messages, statements), "count"),
        "giop.bytes_per_stmt": (
            ratio(transport.get("bytes_sent", 0)
                  + transport.get("bytes_received", 0), statements),
            "bytes"),
        "orb.invoke_us": (ratio(invoke_all, reads.statements) * 1e6, "us"),
        "orb.invoke_self_us": (ratio(invoke_self, reads.statements) * 1e6,
                               "us"),
        "transport.send_us": (us("transport.send"), "us"),
        "transport.wait_us": (us("transport.send", True), "us"),
        "transport.conn_reuse_ratio": (ratio(reused, opened + reused),
                                       "ratio"),
        "transport.auto_promotions": (
            transport_total.get("auto_promotions", 0), "count"),
        "transport.pipelined_share": (
            ratio(transport.get("requests_pipelined", 0), messages),
            "ratio"),
        "transport.max_in_flight": (
            transport_total.get("max_in_flight", 0), "count"),
        "discovery.discover_us": (us("discovery.discover"), "us"),
        "discovery.codbs_per_find": (ratio(finds["codatabases"],
                                           find_count), "count"),
        "discovery.calls_per_find": (ratio(finds["calls"], find_count),
                                     "count"),
        "discovery.degraded_share": (ratio(finds["degraded"], find_count),
                                     "ratio"),
        "codatabase.servant_us": (us("codatabase.servant"), "us"),
        "metacache.hit_ratio": (ratio(cache.get("hits", 0), lookups),
                                "ratio"),
        "metacache.invalidations_per_write": (
            ratio(cache.get("invalidations", 0), writes.statements),
            "count"),
        "registry.write_us": (writes.per_statement_us("registry.write"),
                              "us"),
        "replication.write_us": (
            writes.per_statement_us("replication.write"), "us"),
        "wrappers.native_us": (us("wrappers.native"), "us"),
        "wrappers.invoke_us": (us("wrappers.invoke"), "us"),
        "sql.execute_us": (us("sql.execute"), "us"),
        "sql.rows_per_stmt": (ratio(reads.sql_rows, reads.statements),
                              "count"),
        "oodb.query_us": (us("oodb.query"), "us"),
    }

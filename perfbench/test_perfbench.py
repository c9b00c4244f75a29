"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from repro.apps.healthcare import topology as topo  # noqa: E402
from repro.bench.workload import open_loop_plan  # noqa: E402
from repro.orb.orb import Orb  # noqa: E402

from perfbench import loadgen  # noqa: E402
from perfbench.measure import BenchSession, SpanTotals  # noqa: E402
from perfbench.oracle import (PINS, Oracle, pin_key,  # noqa: E402
                              pinned_mismatches)
from perfbench.pace import REFERENCE_S, WINDOW, Gauge  # noqa: E402
from perfbench.tracing import Span, Tracer, outermost, self_times  # noqa: E402
from perfbench.workloads import (Stmt, browse_mix, build_deployment,  # noqa: E402
                                 fetch_mix, state_after, statement_stream)


def _take(stream, count):
    return [next(stream) for __ in range(count)]


# -- determinism ---------------------------------------------------------------


def test_same_seed_same_schedule_and_statements():
    mix = browse_mix()
    assert _take(statement_stream(mix, 5, 0.2), 300) == \
        _take(statement_stream(mix, 5, 0.2), 300)
    assert _take(statement_stream(mix, 5, 0.2), 300) != \
        _take(statement_stream(mix, 6, 0.2), 300)
    assert open_loop_plan(100.0, 3.0, seed=5) == \
        open_loop_plan(100.0, 3.0, seed=5)
    fetch = fetch_mix()
    assert _take(statement_stream(fetch, 5), 100) == \
        _take(statement_stream(fetch, 5), 100)


def test_stream_writes_come_in_restoring_pairs():
    stream = statement_stream(browse_mix(), 3, write_share=0.5)
    statements = _take(stream, 400)
    writes = [stmt for stmt in statements if stmt.write]
    assert writes and len(writes) < len(statements)
    open_pairs = frozenset()
    for stmt in statements:
        assert stmt.state == open_pairs
        if stmt.write:
            open_pairs = state_after(stmt)


# -- percentile rule -----------------------------------------------------------


def test_tail_is_p99_with_ten_beyond_at_one_thousand_samples():
    values = list(range(1, 1001))
    high = loadgen.tail(values)
    assert high.percentile == 99.0
    assert high.value == 990
    assert high.samples == 1000
    assert high.beyond == 10


def test_tail_falls_back_to_the_highest_supported_percentile():
    values = list(range(1, 201))
    high = loadgen.tail(values)
    assert high.percentile == pytest.approx(95.0)
    assert high.value == 190
    assert high.beyond == 10
    assert loadgen.tail(list(range(10))) is None
    assert loadgen.tail(list(range(11))).value == 0


def test_median():
    assert loadgen.median([3, 1, 2]) == 2
    assert loadgen.median([4, 1, 3, 2]) == 2.5


# -- self time -----------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(1, "bench.statement", "bench", 0.0, 10.0, None, 1),
        Span(2, "query_processor.execute", "query", 1.0, 9.0, 1, 1),
        # Two overlapping children (another thread), one running past
        # its parent's end: covered time is their clipped union.
        Span(3, "transport.send", "communication", 2.0, 5.0, 2, 1),
        Span(4, "giop.decode", "communication", 4.0, 6.0, 3, 1),
        Span(5, "codatabase.servant", "metadata", 4.5, 7.0, 3, 1),
        Span(6, "transport.send", "communication", 8.0, 10.0, 2, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)   # 10 - [1, 9]
    assert own[2] == pytest.approx(4.0)   # 8 - [2, 5] - [8, 9]
    assert own[3] == pytest.approx(2.0)   # 3 - union [4, 5] clipped
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(2.5)
    assert own[6] == pytest.approx(2.0)
    assert [span.id for span in outermost(spans, "transport.send")] == [3, 6]


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [Span(1, "registry.write", "metadata", 0.0, 4.0, None, 1),
             Span(2, "replication.write", "metadata", 1.0, 3.0, 1, 1),
             Span(3, "registry.write", "metadata", 1.5, 2.0, 2, 1)]
    assert [span.id for span in outermost(spans, "registry.write")] == [1]


# -- open loop -----------------------------------------------------------------


class _SlowSession:
    """Takes a fixed time per statement and tracks concurrency."""

    def __init__(self, delay: float, gauge: dict):
        self.delay = delay
        self.gauge = gauge

    def run(self, stmt) -> loadgen.Sample:
        with self.gauge["lock"]:
            self.gauge["now"] += 1
            self.gauge["max"] = max(self.gauge["max"], self.gauge["now"])
        started = time.perf_counter()
        time.sleep(self.delay)
        ended = time.perf_counter()
        with self.gauge["lock"]:
            self.gauge["now"] -= 1
        return loadgen.Sample(started, ended, True)


def test_open_loop_bounds_sessions_and_times_from_due():
    gauge = {"lock": threading.Lock(), "now": 0, "max": 0}
    sessions = [_SlowSession(0.02, gauge) for __ in range(2)]
    plan = [(0.0, Stmt("s")) for __ in range(6)]
    run = loadgen.open_loop(sessions, plan)
    assert len(run.samples) == 6
    assert gauge["max"] == 2
    latencies = sorted(sample.latency for sample in run.samples)
    # Six due at once on two sessions: three waves of 20 ms each, and
    # the wait before a wave counts.
    assert latencies[-1] >= 0.055
    assert max(sample.lag for sample in run.samples) >= 0.035


def _search(passes) -> loadgen.LadderSearch:
    search = loadgen.LadderSearch()
    while not search.done:
        index = search.index
        search.record(loadgen.Rung(index, loadgen.LADDER[index],
                                  passes(index), 1, None, 0.0, 0, 0))
    return search


def test_ladder_search_finds_the_highest_passing_rung():
    for highest in (-1, 0, 17, len(loadgen.LADDER) - 1):
        search = _search(lambda index: index <= highest)
        assert search.best == highest
        assert len(search.rungs) <= 14


def test_ladder_search_forgives_one_failed_probe_of_a_rung():
    probed = []

    def passes(index):
        probed.append(index)
        # The very first probe hits a stall of the machine.
        return len(probed) > 1 and index <= 70

    search = _search(passes)
    assert probed[0] == probed[1] <= 70
    assert search.best == 70


# -- oracle --------------------------------------------------------------------


MIX = [text for text, __ in browse_mix()]


@pytest.fixture(scope="module")
def oracle():
    return Oracle.build(MIX)


def test_oracle_accepts_true_answers_and_rejects_corrupted_ones(oracle):
    browser = build_deployment().browser(topo.QUT)
    find = Stmt("Find Coalitions With Information 'Medical Insurance'")
    result = browser.submit(find.text)
    assert oracle.check(find, result)
    # The cost footer may differ (a cache changes it) ...
    result.text = result.text.replace("consulted", "consulted 99 ")
    assert oracle.check(find, result)
    # ... the leads may not.
    result.data.leads[0].members.append("Somewhere Else")
    assert not oracle.check(find, result)

    fetch = Stmt(MIX[8])
    rows = browser.submit(fetch.text)
    assert oracle.check(fetch, rows)
    rows.data.rows[0] = rows.data.rows[0][:-1] + (0,)
    assert not oracle.check(fetch, rows)


def test_oracle_answers_match_their_pinned_digests(oracle):
    oracle.pin()
    assert oracle.unpinned == []


def test_a_changed_row_breaks_the_pinned_digest(oracle):
    fetch = Stmt(MIX[8])
    key = (fetch.state, fetch.text)
    kind, (tag, columns, rows, count), text = oracle.expected[key]
    corrupted = (kind, (tag, columns, (rows[0][:-1] + (0,),) + rows[1:],
                        count), text)
    pins = json.loads(PINS.read_text())
    assert pinned_mismatches({key: oracle.expected[key]}, pins) == []
    assert pinned_mismatches({key: corrupted}, pins) == [pin_key(*key)]
    # An oracle computing the corrupted answer fails the statement even
    # when the program returns exactly that answer.
    wrong = Oracle({key: corrupted})
    wrong.pin()
    assert wrong.unpinned == [pin_key(*key)]
    result = build_deployment().browser(topo.QUT).submit(fetch.text)
    result.data.rows[0] = result.data.rows[0][:-1] + (0,)
    assert not wrong.check(fetch, result)


def test_oracle_keys_answers_by_open_write_pairs(oracle):
    browser = build_deployment().browser(topo.QUT)
    instances = "Display Instances of Class Research"
    browser.submit("Leave Database 'Royal Brisbane Hospital' "
                   "From Coalition 'Research'")
    result = browser.submit(instances)
    assert oracle.check(Stmt(instances,
                             state=frozenset({"rbh-leaves-research"})),
                        result)
    assert not oracle.check(Stmt(instances), result)


# -- machine-speed gauge -------------------------------------------------------


def test_gauge_scales_by_the_median_of_the_nearest_readings():
    gauge = Gauge()
    # A fast spell, then the machine at half speed; one reading in each
    # spell is an outlier the median ignores.
    count = 4 * WINDOW
    gauge.at = array("d", range(count))
    gauge.took = array("d", [REFERENCE_S] * (2 * WINDOW)
                       + [2 * REFERENCE_S] * (2 * WINDOW))
    gauge.took[1] = gauge.took[count - 2] = 10 * REFERENCE_S
    assert gauge.factor(1.0, 2.0) == pytest.approx(1.0)
    assert gauge.factor(count - 2.5, count - 1.5) == pytest.approx(0.5)
    # Before the first reading and after the last, the nearest ones.
    assert gauge.factor(-3.0, -2.0) == pytest.approx(1.0)
    assert gauge.factor(count + 10.0, count + 11.0) == pytest.approx(0.5)
    gauge.read()
    assert len(gauge.took) == count + 1 and gauge.took[-1] > 0


# -- tracing -------------------------------------------------------------------


@pytest.mark.parametrize("cached", [False, True])
def test_traced_invokes_match_transport_messages(oracle, cached):
    deployment = build_deployment(replicas=3 if cached else 1,
                                  cached=cached)
    transport = deployment.system.transport
    tracer = Tracer()
    reads = SpanTotals()
    session = BenchSession(deployment.browser(topo.QUT), oracle,
                           iter(range(1, 10**6)), tracer=tracer,
                           reads=reads, writes=SpanTotals())
    before = transport.metrics.snapshot()["messages_sent"]
    tracer.install(type(transport))
    try:
        for stmt in _take(statement_stream(browse_mix(), 11), 60):
            assert session.run(stmt).ok
    finally:
        tracer.uninstall()
    sent = transport.metrics.snapshot()["messages_sent"] - before
    assert sent > 0
    assert reads.calls["orb.invoke"] + reads.calls["orb.locate"] == sent
    assert tracer.unattributed == 0
    # Every layer showed up, and the wrappers are gone again.
    assert {"query", "communication", "metadata", "data"} <= \
        set(reads.self_by_layer)
    assert not hasattr(Orb.invoke, "__wrapped__")

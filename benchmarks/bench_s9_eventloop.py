"""S9b — the event-loop transport under a client storm.

The ROADMAP's event-loop item, measured: the same hot-co-database
scenario as ``bench_s9_pipelining.py`` (every client fires a depth-0
discovery — three sequential metadata calls — at one endpoint the
moment the barrier drops, over a modelled one-way WAN latency), run
against the selector-loop transport whose entire server side is **one
loop thread plus a bounded worker pool**.

Three regimes:

* **low concurrency** (8 clients) — the loop's extra hops (submit ->
  loop -> worker -> loop -> flush) dominate when a handful of callers
  share the endpoint;
* **hot endpoint** (96 clients) — the loop parks delayed replies on
  its timer heap, so its six workers only ever do real dispatch work;
* **storm** (1000 clients) — completeness 1.00 with the server side
  bounded at <= 8 OS threads.

``BENCH_eventloop.json`` keeps the last measured comparison against
the thread-per-connection transport this loop replaced (the loop was
1.06x at 8 clients and 2.33x at 96).  That transport is gone, so this
bench prints its table and checks its gates without rewriting the file.
"""

import threading
import time

from repro.bench import print_table
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.orb import ORBIX, TcpTransport, create_orb

TOPIC = "astronomy catalogues"
HOT_DB = "sky_survey_main"
LATENCY = 0.005           # modelled one-way WAN delay, seconds
LOW_CLIENTS = 8
HOT_CLIENTS = 96
STORM_CLIENTS = 1000
STRIPES = 8
PIPELINE_DEPTH = 256
LOOP_WORKERS = 6          # 1 loop + 6 workers = 7 <= 8 thread bound
MAX_SERVER_THREADS = 8
TIMEOUT = 60.0            # generous: 3000 GIL-bound replies take a while


def _registry():
    registry = Registry()
    registry.create_coalition("Sky Survey", TOPIC)
    registry.add_source(SourceDescription(name=HOT_DB,
                                          information_type=TOPIC))
    registry.join(HOT_DB, "Sky Survey")
    return registry


def _run_config(transport, clients):
    """All *clients* fire one discovery at the hot co-database at
    once; returns (wall_clock_s, completeness, thread_peak, metrics)."""
    registry = _registry()
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        ior = orb.activate(CoDatabaseServant(registry.codatabase(HOT_DB)),
                           CODATABASE_INTERFACE, object_name="codb-hot")

        def resolver(name):
            return CoDatabaseClient.for_proxy(
                orb.proxy(ior, CODATABASE_INTERFACE), name)

        barrier = threading.Barrier(clients)
        complete = []
        failures = []
        thread_peak = [0]

        def client(index):
            engine = DiscoveryEngine(resolver)
            barrier.wait()
            try:
                result = engine.discover(TOPIC, HOT_DB)
                complete.append(
                    result.resolved
                    and any(lead.name == "Sky Survey"
                            for lead in result.leads))
            except Exception as exc:  # noqa: BLE001 - counted below
                failures.append(exc)
            if index == 0:
                thread_peak[0] = transport.server_thread_count()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        completeness = (sum(complete) / clients) if not failures else 0.0
        snapshot = transport.metrics.snapshot()
        return elapsed, completeness, thread_peak[0], snapshot
    finally:
        transport.close()


def _loop_transport():
    return TcpTransport(pipelined=True, stripes=STRIPES,
                        pipeline_depth=PIPELINE_DEPTH, latency=LATENCY,
                        timeout=TIMEOUT, loop_workers=LOOP_WORKERS)


def _point(clients):
    elapsed, complete, server_threads, metrics = _run_config(
        _loop_transport(), clients)
    return {
        "clients": clients,
        "calls": clients * 3,
        "eventloop_ms": round(elapsed * 1e3, 1),
        "eventloop_completeness": round(complete, 2),
        "eventloop_server_threads": server_threads,
        "eventloop_metrics": {key: metrics[key] for key in (
            "connections_opened", "requests_pipelined", "max_in_flight",
            "pipeline_stalls", "pipeline_overflows", "batch_flushes",
            "frames_batched")},
    }


def test_s9_eventloop_storm(benchmark):
    points = [_point(clients)
              for clients in (LOW_CLIENTS, HOT_CLIENTS, STORM_CLIENTS)]
    rows = [[point["clients"], point["calls"],
             f"{point['eventloop_ms']:.0f}",
             point["eventloop_server_threads"],
             f"{point['eventloop_completeness']:.2f}"]
            for point in points]
    print_table(
        f"S9b: event-loop transport under a client storm "
        f"(stripes={STRIPES}, latency={LATENCY * 1e3:.0f}ms one-way, "
        f"loop={LOOP_WORKERS} workers)",
        ["clients", "calls", "loop ms", "srv threads", "completeness"],
        rows)

    # Correctness everywhere: nobody lost or cross-wired a reply.
    for point in points:
        assert point["eventloop_completeness"] == 1.0
        assert point["eventloop_metrics"]["pipeline_stalls"] == 0

    # The architectural bound: a 1000-client storm is served by the
    # loop plus its worker pool — a fixed handful of OS threads.
    storm = points[-1]
    assert storm["eventloop_server_threads"] <= MAX_SERVER_THREADS

    benchmark(lambda: storm["eventloop_completeness"])

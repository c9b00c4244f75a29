"""S11 — overload robustness: no congestion collapse past saturation.

An open-loop Poisson workload (``repro.bench.workload.open_loop_plan``)
is replayed against one slow servant on the event-loop transport with a
deliberately tiny dispatch pool: two workers at ~10ms service time give
a hard capacity of ~200 requests/second.  The offered rate is swept
from well below saturation to 2x past it; every request carries a
0.3s deadline that travels to the server in the GIOP deadline-budget
service context.

Two server configurations face the identical plans:

* **shedding off** (the seed's behaviour) — the server FIFO-queues
  everything and burns its two workers answering requests whose
  callers hung up long ago.  Past saturation, goodput (replies that
  arrive *within deadline*) collapses toward zero: congestion collapse.
* **shedding on** — bounded admission queue, CoDel-shaped queue-age
  shedding, and deadline-aware early drop: requests that cannot make
  their remaining budget are refused in microseconds instead of
  serviced in vain, so the workers spend ~all their time on requests
  that still matter.

Gates: with shedding on, goodput at 2x saturation stays >= 70% of the
peak across the sweep and p99 latency of successful interactive
requests stays under the deadline; with shedding off, goodput at 2x
demonstrably collapses (< half of the shedding run's).  Transport-level
resends throughout are metered by a shared ``RetryBudget`` whose grant
count must respect ``ratio * attempts + burst``.

Results persist to ``BENCH_overload.json``.
"""

import json
import time
from pathlib import Path

from repro.bench import open_loop_plan, print_table, run_open_loop
from repro.bench.workload import percentile
from repro.deadline import Deadline, RetryBudget, call_policy
from repro.errors import CommFailure, DeadlineExceeded, ServerBusy
from repro.orb import ORBIX, VISIBROKER, InterfaceBuilder, TcpTransport, \
    create_orb
from repro.orb.overload import OverloadPolicy

LOOKUP = InterfaceBuilder("KvStore").operation("lookup", "key").build()

SERVICE_TIME = 0.010       # seconds each lookup occupies a worker
LOOP_WORKERS = 2           # capacity ~= workers / service = 200 req/s
CAPACITY = LOOP_WORKERS / SERVICE_TIME
RATES = (50, 100, 200, 400)   # offered sweep; last point is 2x capacity
DURATION = 2.5             # seconds of offered load per rate point
DEADLINE = 0.3             # per-request budget, seconds
KEYS = 16                  # zipfian key population
BACKGROUND_FRACTION = 0.1  # anti-entropy-style maintenance share
STRIPES = 8
PIPELINE_DEPTH = 256       # client never queues: 2048 >= any backlog
TIMEOUT = 10.0
RETRY_RATIO = 0.1
RETRY_BURST = 10.0
SEED = 1999

#: Gate: goodput at 2x saturation with shedding >= this share of peak.
GOODPUT_FLOOR = 0.70
#: Gate: shedding-off goodput at 2x must fall below this share of the
#: shedding run's (the collapse the layer exists to prevent).
COLLAPSE_CEILING = 0.5


class SlowServant:
    """A lookup that takes real worker time (sleep releases the GIL)."""

    def lookup(self, key):
        time.sleep(SERVICE_TIME)
        return {"key": key, "value": f"value-{key}"}


def _classify(exc):
    if isinstance(exc, ServerBusy):
        return "shed"
    if isinstance(exc, DeadlineExceeded):
        return "expired"
    if isinstance(exc, CommFailure):
        return "comm"
    return type(exc).__name__


def _run_rate(rate, shed, budget):
    """One (offered rate, shedding config) point; returns the row dict."""
    transport = TcpTransport(
        pipelined=True, stripes=STRIPES, pipeline_depth=PIPELINE_DEPTH,
        loop_workers=LOOP_WORKERS, timeout=TIMEOUT,
        overload=OverloadPolicy(shed=shed))
    try:
        server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        ior = server.activate(SlowServant(), LOOKUP, object_name="kv")
        proxy = client.proxy(ior, LOOKUP)
        plan = open_loop_plan(rate, DURATION, keys=KEYS,
                              background_fraction=BACKGROUND_FRACTION,
                              seed=SEED)

        def issue(arrival):
            with call_policy(deadline=Deadline(DEADLINE), idempotent=True,
                             traffic_class=arrival.traffic_class,
                             retry_budget=budget):
                proxy.lookup(arrival.key)

        result = run_open_loop(plan, issue, classify=_classify)
        interactive = [arrival for arrival in plan
                       if arrival.traffic_class == "interactive"]
        metrics = transport.metrics.snapshot()
        return {
            "rate": rate,
            "shedding": shed,
            "offered": result.offered,
            "interactive_offered": len(interactive),
            "completed": result.completed,
            "failures": dict(sorted(result.failures.items())),
            "goodput_rps": round(result.goodput(), 1),
            "elapsed_s": round(result.elapsed, 2),
            "p50_ms": _ms(result.latency_percentile(0.50)),
            "p99_ms": _ms(result.latency_percentile(0.99)),
            "server_shed": metrics["requests_shed"],
            "server_expired": metrics["requests_expired"],
        }
    finally:
        transport.close()


def _ms(seconds):
    return None if seconds is None else round(seconds * 1e3, 1)


def test_s11_overload(benchmark):
    budget = RetryBudget(ratio=RETRY_RATIO, burst=RETRY_BURST)
    shed_on = [_run_rate(rate, True, budget) for rate in RATES]
    shed_off = [_run_rate(rate, False, budget) for rate in RATES]

    rows = []
    for point in (*shed_on, *shed_off):
        rows.append([point["rate"], "on" if point["shedding"] else "off",
                     point["offered"], point["completed"],
                     f"{point['goodput_rps']:.0f}",
                     point["p99_ms"] if point["p99_ms"] is not None else "-",
                     point["server_shed"], point["server_expired"]])
    print_table(
        f"S11: open-loop overload sweep (capacity ~{CAPACITY:.0f} rps, "
        f"deadline {DEADLINE * 1e3:.0f}ms, {LOOP_WORKERS} workers)",
        ["rate", "shed", "offered", "ok", "goodput", "p99 ms",
         "srv shed", "srv expired"], rows)

    peak = max(point["goodput_rps"] for point in shed_on)
    overload_on = shed_on[-1]
    overload_off = shed_off[-1]

    # Sanity below saturation: both configurations serve ~everything.
    for point in (shed_on[0], shed_off[0]):
        assert point["completed"] >= 0.9 * point["offered"], point

    # Gate 1 — no congestion collapse: with shedding, goodput 2x past
    # saturation holds >= 70% of the sweep's peak.
    assert overload_on["goodput_rps"] >= GOODPUT_FLOOR * peak, \
        (f"shedding goodput {overload_on['goodput_rps']} rps at 2x "
         f"saturation fell below {GOODPUT_FLOOR:.0%} of peak {peak} rps")

    # Gate 2 — bounded latency: every successful reply beat its
    # deadline (p99 strictly under the budget, not just under timeout).
    assert overload_on["p99_ms"] is not None
    assert overload_on["p99_ms"] <= DEADLINE * 1e3, overload_on

    # Gate 3 — the baseline really collapses: without shedding the
    # same plan past saturation yields a fraction of the goodput.
    assert overload_off["goodput_rps"] <= \
        COLLAPSE_CEILING * overload_on["goodput_rps"], \
        (f"expected congestion collapse without shedding, got "
         f"{overload_off['goodput_rps']} rps vs "
         f"{overload_on['goodput_rps']} rps with")

    # Gate 4 — the shedding server actually shed (it wasn't just fast).
    assert overload_on["server_shed"] + overload_on["server_expired"] > 0

    # Gate 5 — transport-level resends never exceeded the retry budget.
    snapshot = budget.snapshot()
    assert snapshot["granted"] <= \
        RETRY_RATIO * snapshot["attempts"] + RETRY_BURST, snapshot

    out = {
        "benchmark": "S11 overload: open-loop sweep past saturation",
        "scenario": {
            "service_time_ms": SERVICE_TIME * 1e3,
            "loop_workers": LOOP_WORKERS,
            "capacity_rps": CAPACITY,
            "rates_rps": list(RATES),
            "duration_s": DURATION,
            "deadline_ms": DEADLINE * 1e3,
            "zipf_keys": KEYS,
            "background_fraction": BACKGROUND_FRACTION,
            "retry_budget": {"ratio": RETRY_RATIO, "burst": RETRY_BURST},
            "goodput_floor": GOODPUT_FLOOR,
            "collapse_ceiling": COLLAPSE_CEILING,
            "seed": SEED,
        },
        "shedding_on": shed_on,
        "shedding_off": shed_off,
        "peak_goodput_rps": peak,
        "retry_budget": snapshot,
        "notes": (
            "Goodput counts only replies that beat their 0.3s deadline. "
            "Without shedding the server FIFO-queues past saturation and "
            "services requests whose callers already gave up, so goodput "
            "collapses; with CoDel-shaped, deadline-aware admission the "
            "workers only run requests that can still make their budget "
            "and goodput stays pinned near capacity."),
    }
    path = Path(__file__).resolve().parents[1] / "BENCH_overload.json"
    path.write_text(json.dumps(out, indent=2) + "\n")

    benchmark(lambda: overload_on["goodput_rps"])

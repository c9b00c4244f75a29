"""End-to-end WebTassili benchmark with a per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload browse-mem --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload fetch-mem --seed 1 --seconds 24 --trace 1
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload browse-mem --seed 1 --seconds 10 --profile
    python3 perfbench/run.py --pin-answers

Workloads (``perfbench/workloads.py``): ``browse-mem``, ``fetch-mem``
and ``curate-mem`` over the in-memory network, and ``browse-tcp`` over
loopback TCP.  Every run builds the healthcare federation of Figure 1
through the public API, times WebTassili statements end to end through
``Browser.submit`` and checks every answer against an oracle computed
from a fresh, uncached in-memory federation, whose answers are in turn
held to digests pinned in ``perfbench/answers.json``.  A run is cut into
rounds; each round builds more federations (set-up time) and runs a
slice of every phase.  Closed-loop times are scaled to a reference
machine speed by a gauge read between statements
(``perfbench/pace.py``), so that they follow the program rather than the
speed states of a shared machine.  ``--workload all`` runs each workload
in a process of its own, so that each one's peak memory is its own.

``--trace 0`` reports the end-to-end metrics: set-up time, read and
write latency, throughput (goodput at the fixed rate on ``browse-tcp``,
which also reports the highest ladder rate meeting the 100 ms limit)
and peak memory.  ``--trace 1`` runs each round's statements twice,
untraced and with span-recording wrappers around each layer's entry
points, and reports the per-layer metrics and the tracing overhead;
spans of the first statements go to ``perfbench/out/``.  ``--profile``
runs the main phase under cProfile and prints self time grouped by
``repro`` subpackage beside the span-derived layer shares.
``--pin-answers`` rewrites ``perfbench/answers.json`` from the current
program's answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run_one(workload, args) -> tuple[dict, object]:
    from perfbench.bench import Bench
    bench = Bench(workload, args.seed, args.seconds)
    try:
        if args.profile:
            bench.profile()
            return {}, bench
        if args.trace:
            metrics = bench.run_traced(HERE / "out")
        else:
            metrics = bench.run_untraced()
    finally:
        bench.close()
    print(f"== {workload.name} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    print("config: " + json.dumps(bench.config, sort_keys=True))
    for line in bench.notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in bench.errors():
        print(f"FAILED {error}", file=sys.stderr)
    return metrics, bench


def _run_each(names: list[str], argv: list[str]) -> int:
    """Run each workload in a child process and merge their results,
    each metric prefixed with its workload's name."""
    results = {}
    attempted = failed = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *argv, "--workload",
             name], stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0:
            print(child.stdout, end="")
            return _fail(f"workload {name} exited with {child.returncode}")
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines.pop())
            attempted += result["attempted"]
            failed += result["failed"]
            results.update({f"{name}.{metric}": value for metric, value
                            in result["metrics"].items()})
        print("\n".join(lines))
    if results:
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the main phase and print self time "
                             "by repro subpackage beside span layer shares")
    parser.add_argument("--pin-answers", action="store_true",
                        help="rewrite perfbench/answers.json from the "
                             "current program's answers")
    args = parser.parse_args(argv)
    if args.workload is None and not args.pin_answers:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no source tree at {ROOT / 'src' / 'repro'}; run "
                     f"from a checkout of the repository")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    # Pin the transport modes: CI matrix variables must not change
    # what is measured.
    for variable in workloads.MODE_VARIABLES:
        os.environ.pop(variable, None)
    if args.pin_answers:
        from perfbench.bench import FIRST_STATEMENT
        from perfbench.oracle import PINS, Oracle
        reads = {FIRST_STATEMENT} | {
            text for workload in workloads.WORKLOADS.values()
            for text, __ in workload.mix()}
        oracle = Oracle.build(reads)
        oracle.write_pins()
        print(f"pinned {len(oracle.expected)} answers in {PINS.name}")
        return 0
    if args.workload == "all":
        argv = [f"--seed={args.seed}", f"--seconds={args.seconds}",
                f"--trace={args.trace}"] + ["--profile"] * args.profile
        return _run_each(list(workloads.WORKLOADS), argv)
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    print(f"environment: python {platform.python_version()}, "
          f"{platform.machine()}, {platform.system()}, "
          f"nproc {os.cpu_count()}")
    metrics, bench = _run_one(workloads.WORKLOADS[args.workload], args)
    if args.profile:
        return 0
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One measured process: import torsionlab from the checkout's `src`, run
the first op cold, then run a fixed number of ops in a closed loop and
check every output afterwards.

Writes one JSON line to stdout at the end: set-up times, per-op latencies
and the gate's verdicts.  Run from the checkout root through
`perfbench/run.py`, which sets the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, Record


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(tl, workload, stream, first: Record, count: int,
            tracer=None) -> dict:
    """Closed loop, one client: the next op starts when the previous one
    returns.  Runs `count` ops and checks every output afterwards, the cold
    first op's included; latencies cover the timed ops only."""
    records, latencies = [], []
    run = workload.run
    if tracer is not None:
        tracer.enabled = True
        run = lambda tl, op: tracer.call("op", None, workload.run, tl, op)  # noqa: E731
    clock = time.perf_counter
    for op in itertools.islice(stream, count):
        t0 = clock()
        try:
            output, raised = run(tl, op), False
        except Exception as exc:  # a failing op is counted, not fatal
            output, raised = repr(exc), True
        latencies.append(clock() - t0)
        records.append(Record(op, output, raised))
    if tracer is not None:
        tracer.enabled = False
    peak_rss_mb = _peak_rss_mb()
    first_bad, *bad = workload.failures(tl, [first] + records)
    return {
        "ops": len(records),
        "attempted": 1 + len(records),
        "failed": first_bad + sum(bad),
        "latencies": latencies,
        "bad": bad,
        "peak_rss_mb": peak_rss_mb,
        "failures": [repr(r.op)[:200] for r, b in zip([first] + records,
                                                       [first_bad] + bad) if b][:5],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from torsionlab's own import)
    t1 = time.perf_counter()
    import torsionlab as tl
    t2 = time.perf_counter()
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(tl.__file__).startswith(src + os.sep):
        print(f"torsionlab imported from {tl.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload](args.seed)

    t3 = time.perf_counter()
    sys.modules["torsionlab.stems"].default_table()
    t4 = time.perf_counter()
    stream = workload.ops()
    first_op = next(stream)
    first = Record(first_op, workload.run(tl, first_op), False)
    t5 = time.perf_counter()
    # CLOCK_MONOTONIC is shared by all processes, so this covers the
    # interpreter's own start-up as well.
    setup = {"setup_s": time.monotonic() - args.spawned_at,
             "import.numpy_s": t1 - t0, "import.torsionlab_s": t2 - t1,
             "setup.stems_table_s": t4 - t3, "setup.first_op_s": t5 - t4}

    result = measure(tl, workload, stream, first, args.ops, tracer)
    result.update(setup)
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.setrecursionlimit(10000)
    sys.exit(main())

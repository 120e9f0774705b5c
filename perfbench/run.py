"""torsionlab benchmark: one command, four workloads, end-to-end metrics or a
traced per-layer breakdown.

    python3 perfbench/run.py --workload referee --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every measured process is a fresh
interpreter that imports torsionlab from `src/`, and one op runs at a time
(a closed loop with one client).  With --trace 0 it prints the end-to-end
metrics: several processes replay the same ops of the seed, and each op's
latency is the best of its replays.  With --trace 1 plain and traced
processes alternate, and it prints per-layer metrics and the tracing
overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 without that line when the
torsionlab sources are missing or a measured process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROUND_S = 3.5  # nominal seconds per round of replays, start-up included
MIN_ROUNDS = 3
TIMED_SHARE = 0.7  # share of --seconds the timed ops take, nominally
TRACE_PROCESSES = 6  # traced processes run slower; leave them room
DEADLINE_S = 170.0
EXCLUSIONS = (
    "exotic verify --max-rank 3: the TR3 boolean matrix is estimated at about "
    "69 GB (estimate not verified), so it cannot finish",
    "exotic.general_linear(3): about 9.3 s per enumeration",
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.env = worker_env(root)
        self.deadline = time.monotonic() + DEADLINE_S

    def start(self, *extra: str, cpu: int | None = None) -> subprocess.Popen:
        """Spawn one worker, pinned to `cpu` when given."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra,
               "--spawned-at", repr(time.monotonic())]
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        return subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                preexec_fn=pin)

    def finish(self, procs: list[subprocess.Popen]) -> list[dict]:
        """Wait for every worker; kill them all if one fails or runs late."""
        try:
            outs = [proc.communicate(timeout=self._left()) for proc in procs]
        except subprocess.TimeoutExpired:
            self.kill(procs)
            raise BenchError("a worker exceeded the time limit")
        for proc, (out, err) in zip(procs, outs):
            if proc.returncode != 0 or not out.strip():
                self.kill(procs)
                raise BenchError(f"worker failed (exit {proc.returncode}):\n{err.strip()}")
        return [json.loads(out.strip().splitlines()[-1]) for out, _ in outs]

    def worker(self, *extra: str) -> dict:
        return self.finish([self.start(*extra)])[0]

    @staticmethod
    def kill(procs: list[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def environment(root: str) -> dict:
    import numpy  # only for its version; the workers import their own

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {name: "1" for name in THREAD_VARIABLES},
        "exclusions": list(EXCLUSIONS),
    }


def op_count(workload: str, seconds: float, processes: int) -> int:
    """Ops per process, so that `processes` processes fill about `seconds`
    on the reference machine; fixed by the arguments alone, never by how
    fast this run happens to go."""
    return max(1, round(WORKLOADS[workload].rate * seconds * TIMED_SHARE / processes))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Fresh processes replay the same ops of the seed, a pair at a time,
    one pinned to each of two CPUs.  Each op's latency is the best of its
    replays: on a shared host each CPU switches between a fast and a slow
    state every few seconds, independently of the other, so the replays of
    one op rarely all land in a slow spell.  Set-up and memory are medians
    over the processes."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_S))
    count = op_count(runner.workload, seconds, rounds)
    results = []
    for _ in range(rounds):
        results += runner.finish([runner.start("--ops", str(count), cpu=cpu)
                                  for cpu in cpus])
    best = [min(times) for times in zip(*(r["latencies"] for r in results))]
    # A failed op misses every latency limit.
    timed = sorted(float("inf") if any(bad) else t
                   for t, bad in zip(best, zip(*(r["bad"] for r in results))))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": count / sum(best),
        "op_p50_ms": percentile(timed, 50) * 1e3,
        "op_p90_ms": percentile(timed, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return metrics, merge(results, f"{count} timed ops (latency samples), "
                                   f"each the best of {len(results)} replays")


def merge(results: list[dict], samples: str) -> dict:
    """Counts of all processes of a run, for the correctness verdict."""
    return {
        "samples": samples,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]][:5],
        "spans": sum(r.get("spans", 0) for r in results),
    }


# Output measures reported per call, by span name.
PER_CALL = {
    "steenrod.adem_normalize": "terms_out",
    "steenrod.admissible_basis": "size_out",
    "modules.tensor": "dim_out",
    "modules.consistency_check": "violations_out",
    "modules.is_decomposable": "certified_ratio",
}


def per_layer(runner: Runner, seconds: float, out_dir: str,
              wanted: list[str]) -> tuple[dict, dict]:
    """Plain and traced processes alternate twice on the same ops; layer
    numbers come from the traced ones."""
    count = op_count(runner.workload, seconds, TRACE_PROCESSES)
    plain, traced = [], []
    for i in range(2):
        plain.append(runner.worker("--ops", str(count)))
        spans_out = os.path.join(out_dir, f"spans-{runner.workload}-{i}.jsonl")
        traced.append(runner.worker("--ops", str(count), "--trace",
                                    "--spans-out", spans_out))
    ops = sum(r["ops"] for r in traced)
    layers: dict[str, dict] = {}
    for r in traced:
        for key, row in r["layers"].items():
            acc = layers.setdefault(key, {"calls": 0, "self_s": 0.0, "out": 0})
            for field in acc:
                acc[field] += row[field]
    op_total = sum(row["self_s"] for row in layers.values())
    metrics = {name: traced[-1][name] for name in
               ("import.numpy_s", "import.torsionlab_s",
                "setup.stems_table_s", "setup.first_op_s")}
    metrics["trace.overhead_ratio"] = (
        sum(map(sum, (r["latencies"] for r in traced)))
        / sum(map(sum, (r["latencies"] for r in plain))))
    for name in wanted:
        if name in metrics:
            continue
        span, _, field = name.rpartition(".")
        if span == "share":
            prefix = "op" if field == "unwrapped" else field
            self_s = sum(row["self_s"] for key, row in layers.items()
                         if key == prefix or key.startswith(prefix + "."))
            metrics[name] = self_s / op_total
            continue
        row = layers.get(span, {"calls": 0, "self_s": 0.0, "out": 0})
        if field == "calls":
            metrics[name] = row["calls"] / ops
        elif field == "self_s":
            metrics[name] = row["self_s"] / ops
        elif PER_CALL.get(span) == field:
            metrics[name] = row["out"] / row["calls"] if row["calls"] else 0.0
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
    return metrics, merge(plain + traced, f"{ops} traced ops")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "torsionlab", "__init__.py")):
        print("src/torsionlab not found: run from the repository root", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            declared = spec["per_layer"]
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            values, result = per_layer(runner, args.seconds, out_dir,
                                       [m["name"] for m in declared])
        else:
            declared = spec["end_to_end"]
            values, result = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    env = environment(root)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {result['samples']}, "
          f"{attempted} attempted, fail_share {failed / attempted:.4f}")
    for failure in result["failures"]:
        print(f"  failed op: {failure}")
    if args.trace:
        print(f"  spans recorded: {result['spans']} -> perfbench/out/")
    for m in declared:
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

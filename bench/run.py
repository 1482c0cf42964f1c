"""The benchmark's one command.

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1`` runs one
workload in this process and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` it runs every workload, each in a fresh subprocess,
prints every metric by name with its unit and writes ``bench/out/results.json``;
``--traced`` adds the traced pass, ``--smoke`` shrinks inputs and times so all
five finish in well under half a minute with every correctness check on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Run as a script, sys.path[0] is bench/ — where trace.py would shadow the
# standard library's; import bench as a package from the checkout root instead.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))
# One BLAS thread per process, whatever the caller's environment says, set
# before numpy loads and inherited by every worker.  As found on the 2-CPU
# reference host (2 threads x 2 workers + parent) a 2-worker epoch takes
# anywhere from 1.5 to 8.4 s, which no regression bound survives; the as-found
# environment is kept for the fingerprint and for the one layer metric that is
# measured under it (backend.workers_speedup_blas_as_found).  See bench/README.md.
ENV_AS_FOUND = dict(os.environ)
BLAS_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_KEYS, "1"))

from bench.metrics import load_contract  # noqa: E402
from bench.stats import (cpu_jiffies, host_fingerprint, median, peak_rss_mb, steal_share,  # noqa: E402
                         stop_resource_tracker, tail)

CONTRACT = load_contract()
WORKLOAD_NAMES = [entry["name"] for entry in CONTRACT["workloads"]]

# A run is WINDOWS rounds of set-up, timed operations for seconds / WINDOWS, teardown.
# setup_s is the median of the set-ups, and the operations are spread over the
# whole run: the reference host's speed moves by a third in plateaus of 5 to 15 s,
# and one contiguous timed region at the end of the run lands in one or two of them.
WINDOWS = 5
SMOKE_SECONDS = 0.5


def timed_setup(cls, seed: int, smoke: bool):
    workload = cls(seed, OUT_DIR, smoke, ENV_AS_FOUND)
    start = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - start


def run_untraced(cls, seed: int, seconds: float, smoke: bool) -> dict:
    jiffies = cpu_jiffies()
    windows = 1 if smoke else WINDOWS
    setups, samples, attempted, failed, wall, first_output = [], [], 0, 0, 0.0, None
    for window in range(windows):
        workload, elapsed = timed_setup(cls, seed, smoke)
        setups.append(elapsed)
        try:
            # the independent reference is consulted once, on the last window; the others
            # must have produced the output it vouches for
            measured = workload.measure(seconds / windows, reference=window == windows - 1)
            items_per_op = workload.items_per_op
        finally:
            workload.teardown()
        workload = None  # free its arenas before the next set-up allocates its own
        first_output = first_output or measured.first_output
        samples += measured.samples
        attempted += measured.attempted
        failed += measured.failed if measured.first_output == first_output else measured.attempted
        wall += measured.wall
    tail_q, tail_s = tail(samples)
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(measured.parent_rss_kb),
        "items_per_s": cls.throughput(items_per_op, samples, attempted - failed, wall),
        "op_p50_ms": median(samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }
    print(f"[bench] {cls.name}: {len(setups)} set-ups, {len(samples)} operations, tail percentile "
          f"p{tail_q}, {steal_share(jiffies):.1f}% of the CPU time stolen by the hypervisor", file=sys.stderr)
    return result(attempted, failed, values, "end_to_end")


def run_traced(cls, seed: int, seconds: float, smoke: bool) -> dict:
    from bench.probes import run_probes
    from bench.trace import Tracer, layer_budget

    jiffies = cpu_jiffies()
    workload, _elapsed = timed_setup(cls, seed, smoke)
    tracer = Tracer(cls.name)
    try:
        plain = workload.measure(0.3 * seconds)
        traced = workload.measure(0.4 * seconds, tracer)
        extras = workload.layer_extras(0.2 * seconds)
    finally:
        workload.teardown()
    probes = run_probes(seed, OUT_DIR)
    budget, wall = layer_budget(tracer.spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{cls.name}.jsonl"))

    values = {entry["name"]: 0.0 for entry in CONTRACT["per_layer"]}
    for layer, seconds_busy in budget.items():
        key = "bench.harness_share" if layer == "bench" else f"{layer}.share"
        values[key] = 100.0 * seconds_busy / wall
    plain_op, traced_op = median(plain.samples), median(traced.samples)
    values["bench.trace_overhead_share"] = 100.0 * (traced_op - plain_op) / plain_op
    values["bench.traced_op_ms"] = traced_op * 1e3
    values["bench.spans"] = len(tracer.spans)
    values["bench.host_steal_share"] = steal_share(jiffies)
    for name, value in {**extras, **probes}.items():
        if name not in values:
            raise KeyError(f"{name} is not a per-layer metric of BENCHMARK.json")
        values[name] = value
    return result(plain.attempted + traced.attempted, plain.failed + traced.failed,
                  values, "per_layer")


def result(attempted: int, failed: int, values: dict, kind: str) -> dict:
    units = {entry["name"]: entry["unit"] for entry in CONTRACT[kind]}
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process; a table of every metric; results.json."""
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    passes = [0, 1] if args.traced else [0]
    results, failures = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in passes:
            command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                       str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            if done.returncode != 0:
                print(f"{name} (trace {trace}): exited with code {done.returncode}")
                failures += 1
                continue
            outcome = json.loads(done.stdout.strip().splitlines()[-1])
            results[f"{name}/trace{trace}"] = outcome
            failures += not outcome["correct"]
            print(f"{name} (trace {trace}): attempted {outcome['attempted']}, failed {outcome['failed']}")
            for metric, entry in outcome["metrics"].items():
                shown = f"{entry['value']:.6g}" if outcome["correct"] else "FAILED"
                print(f"  {metric:40s} {shown:>14s} {entry['unit']}")
    host = host_fingerprint({key: ENV_AS_FOUND.get(key) for key in BLAS_KEYS})
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as fh:
        json.dump({"host": host, "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
                   "results": results}, fh, indent=2)
        fh.write("\n")
    print(f"host: {json.dumps(host)}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true", help="all-workloads mode: add the traced pass")
    parser.add_argument("--smoke", action="store_true", help="small inputs, short run, checks on")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)

    try:
        from bench.workloads import WORKLOADS
    except ModuleNotFoundError as exc:  # a directory without the program: no result, not code 0
        print(f"bench: cannot import the program under src/ ({exc})", file=sys.stderr)
        return 2

    seconds = min(args.seconds, SMOKE_SECONDS) if args.smoke else args.seconds
    runner = run_traced if args.trace else run_untraced
    try:
        outcome = runner(WORKLOADS[args.workload], args.seed, seconds, args.smoke)
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}"), ignore_errors=True)
        stop_resource_tracker()
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Do two sets of runs of the same code agree within the benchmark's own bounds?

``python3 bench/check_repeat.py [--runs N]`` runs every workload N times per
set (each run with another seed), alternating the workload order between the
two sets, and prints for every end-to-end metric and workload the two medians,
how much worse the second is, and — from four runs up — each set's quartile
spread as a share of its median.  It exits non-zero when a second median is
worse than the first by more than the metric's ``BENCHMARK.json`` bound, or a
spread (``setup_s`` excepted) is wider than the bound.  ``--runs 10`` is what
the driver does before it accepts the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.metrics import ROOT, load_contract  # noqa: E402
from bench.stats import median, quartile_spread, worsening  # noqa: E402


def compare(first: list[float], second: list[float], better: str, bound: float,
            check_spread: bool) -> tuple[float, list[float], bool]:
    """``(worsening of the second median, [spread per set], within bound?)`` for one metric."""
    worse = worsening(median(first), median(second), better)
    spreads = [quartile_spread(values) for values in (first, second) if len(values) >= 4]
    ok = worse <= bound and not (check_spread and any(s > bound for s in spreads))
    return worse, spreads, ok


def run_set(contract: dict, workloads: list[str], seeds: range) -> dict:
    """``{workload: {metric: [value per run]}}`` for one set of runs."""
    values: dict = {name: {} for name in workloads}
    for name in workloads:
        for seed in seeds:
            command = contract["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                             str(contract["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            outcome = json.loads(done.stdout.strip().splitlines()[-1])
            if not outcome["correct"]:
                raise SystemExit(f"{name} seed {seed}: {outcome['failed']} of {outcome['attempted']} failed")
            for metric, entry in outcome["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"  {name} seed {seed} done", file=sys.stderr)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per workload per set")
    args = parser.parse_args(argv)
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    seeds = range(100, 100 + args.runs)
    first = run_set(contract, names, seeds)
    second = run_set(contract, names[::-1], seeds)

    failures = 0
    for name in names:
        for metric in contract["end_to_end"]:
            worse, spreads, ok = compare(first[name][metric["name"]], second[name][metric["name"]],
                                         metric["better"], metric["bound"],
                                         check_spread=metric["name"] != "setup_s")
            failures += not ok
            print(f"{name:14s} {metric['name']:12s} first {median(first[name][metric['name']]):10.4g} "
                  f"second {median(second[name][metric['name']]):10.4g} {metric['unit']:4s} "
                  f"worse by {100 * worse:+6.2f}% spread "
                  f"{' '.join(f'{100 * s:5.2f}%' for s in spreads) or '-':13s} "
                  f"bound {100 * metric['bound']:.0f}% {'ok' if ok else 'EXCEEDED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat bench/run.py over seeds and report each metric's run-to-run spread.

    python3 bench/repeat.py --workloads lc-orbits --seeds 0-4
    python3 bench/repeat.py --seeds 0-9
    python3 bench/repeat.py --seeds 0,1 --runs 5 --baseline bench/baselines.json

Runs are sequential, one process at a time. For every end-to-end metric it
prints the median, the quartiles and the spread (Q3 - Q1) / median over
all runs, next to the metric's bound from BENCHMARK.json; a spread is
marked ok when it is below a third of the bound. `--baseline` also writes,
per workload and seed, the median and quartiles of each metric (other
workloads already in the file are kept).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One run's end-to-end metrics and its environment record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} gave wrong answers:\n{proc.stdout}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return {name: m["value"] for name, m in result["metrics"].items()}, env


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--runs", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="write medians and quartiles here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline, env = {}, {}
    for workload in args.workloads.split(","):
        by_seed, elapsed = {}, []
        for seed in seeds:
            for _ in range(args.runs):
                start = time.monotonic()
                metrics, env = run(workload, seed, args.seconds)
                elapsed.append(time.monotonic() - start)
                by_seed.setdefault(seed, []).append(metrics)
        runs = [r for rs in by_seed.values() for r in rs]
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"{statistics.mean(elapsed):.1f} s per run (max {max(elapsed):.1f} s)",
              flush=True)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            s = summary(values)
            spread = quartile_spread(values)
            verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:.4f} bound {bound} {verdict}",
                  flush=True)
        if args.baseline:
            baseline[workload] = {
                str(seed): {name: summary([r[name] for r in rs]) for name in bounds}
                for seed, rs in by_seed.items()}

    if args.baseline:
        # Workloads not run this time keep their recorded baselines.
        keep = ("commit", "python", "numpy", "machine", "nproc", "threads", "seconds")
        record = (json.loads(args.baseline.read_text()) if args.baseline.exists()
                  else {"workloads": {}})
        record["workloads"].update(baseline)
        record.update(env={key: env[key] for key in keep}, runs_per_seed=args.runs)
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

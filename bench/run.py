"""graphent benchmark: seeded workloads, each a closed loop with one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run sets up the workload, then runs whole passes over its items, one
query at a time, until the next pass would end after --seconds. Every
answer is checked; a wrong answer or an exception counts as a failed item
and the run goes on. With --trace 0 the last stdout line reports the
end-to-end metrics, with --trace 1 the per-layer ones from spans around
graphent's public functions (see layers.json). `--workload all` runs each
workload of BENCHMARK.json in its own process and prints one table.

Every timing is reported corrected for the host's speed (see hostspeed.py):
`setup_s`, `wall_ref_s`, `item_p50_ref_ms` and `item_p90_ref_ms` are what
set-up, `wall_s`, `item_p50_ms` and `item_p90_ms` would read on a host
where the reference loop takes REF_LOOP_S. The raw figures are printed
beside them.

Set-up time is measured in fresh processes (`--setup-only`), each timed
from before it is spawned until it has imported graphent, built its inputs
and warmed up; the median of SETUP_REPEATS is reported, taken half before
and half after the measured passes so that a slow spell of the host does
not cover all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_LOOP_S, corrected, reference_loop
from stats import percentile, samples_needed
from tracing import Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
# Keeps a run, set-up included, well under three minutes.
MAX_MEASURE_S = 140.0
P90 = 0.9
# The keys of workloads.WORKLOADS, listed here so that argument parsing and
# thread pinning happen before numpy is imported. BENCHMARK.json lists the
# first three; rotated-states, the bypass check for changes to GEM on graph
# states, runs only when named, because four workloads do not fit the
# benchmark's time budget at a run length that keeps GEM timings steady.
WORKLOAD_NAMES = ("catalog-tables", "lc-orbits", "large-n")
EXTRA_WORKLOADS = ("rotated-states",)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "item_p50_ref_ms": "ms",
    "item_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}


def pin_threads() -> dict[str, str]:
    """Pin numpy's BLAS/OpenMP pools (default 1 thread); refuse more than nproc.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            sys.exit(f"error: {var}={value!r}; the benchmark runs with 1..{nproc} "
                     f"threads (nproc = {nproc})")
    return {var: os.environ[var] for var in THREAD_VARS}


def require_checkout() -> None:
    """Import graphent from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    for needed in (src / "graphent" / "__init__.py", ROOT / "catalog" / "index.json"):
        if not needed.is_file():
            sys.exit(f"error: {needed.relative_to(ROOT)} not found; run from a "
                     "graphent checkout")
    sys.path.insert(0, str(src))
    import graphent

    if not Path(graphent.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported graphent from {graphent.__file__}, not {src}")


def set_up(name: str, seed: int):
    """Import graphent, build the workload and its first pass, warm up."""
    import workloads

    catalog = workloads.load_catalog(ROOT)
    expected = json.loads((BENCH / "expected.json").read_text())
    workload = workloads.WORKLOADS[name](seed, catalog, expected)
    first = workload.make_pass(0)
    workload.warmup()
    return workload, first


def time_set_up(name: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh process until its set-up is done, raw
    and corrected for the host's speed.

    The fresh process times the reference loop itself, at its start and
    end: it may run on another CPU than this one, at another speed.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: set-up failed:\n{proc.stderr}")
    loop_before, loop_after, end = map(float, proc.stdout.split()[-3:])
    return end - start, corrected(end - start, loop_before, loop_after)


def run_pass(items, tracer=None, label=""):
    """Run one pass with the reference loop timed between items.

    Returns [(item id, seconds, corrected seconds, failure)].
    """
    timed = []
    loops = [reference_loop()]
    for item_id, query in items:
        if tracer is not None:
            tracer.item = f"{label}/{item_id}"
        t0 = time.perf_counter()
        failure = None
        try:
            query()
        except Exception as exc:  # any error is a failed item; the run goes on
            failure = f"{type(exc).__name__}: {exc}"
        timed.append((item_id, time.perf_counter() - t0, failure))
        loops.append(reference_loop())
    return [(item_id, seconds, corrected(seconds, loops[i], loops[i + 1]), failure)
            for i, (item_id, seconds, failure) in enumerate(timed)]


def measure(workload, first, seconds: float, tracer=None):
    """Closed loop over whole passes until the next would end after `seconds`.

    Untraced runs also go on until p90 has enough samples beyond it. With a
    tracer each pass runs twice on the same inputs, untraced then traced.
    A pass's time is the sum of its items' times, the reference loops left
    out. Returns (untraced pass seconds, the same corrected, traced pass
    seconds, item records).
    """
    plain, plain_ref, traced, records = [], [], [], []
    start = time.perf_counter()
    k, items = 0, first
    while True:
        recs = run_pass(items, label=f"p{k}")
        plain.append(sum(r[1] for r in recs))
        plain_ref.append(sum(r[2] for r in recs))
        records += [(k,) + r for r in recs]
        if tracer is not None:
            with tracer:
                recs = run_pass(workload.make_pass(k), tracer, f"p{k}")
            traced.append(sum(r[1] for r in recs))
            records += [(k,) + r for r in recs]
        k += 1
        elapsed = time.perf_counter() - start
        per_pass = (statistics.median(plain) + (statistics.median(traced) if traced else 0)
                    + REF_LOOP_S * (len(items) + 1) * (2 if traced else 1))
        short = tracer is None and len(records) < samples_needed(P90)
        if elapsed >= MAX_MEASURE_S or (elapsed + per_pass > seconds and not short):
            return plain, plain_ref, traced, records
        items = workload.make_pass(k)


def end_to_end(plain_ref, records, setup_times) -> dict[str, float]:
    latencies = [r[3] for r in records]
    return {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "wall_ref_s": statistics.median(plain_ref),
        "item_p50_ref_ms": percentile(latencies, 0.5) * 1e3,
        "item_p90_ref_ms": percentile(latencies, P90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_timings(plain, records, setup_times) -> dict[str, float]:
    """The uncorrected timings, for the reader."""
    latencies = [r[2] for r in records]
    return {
        "setup_s": statistics.median(raw for raw, _ in setup_times),
        "wall_s": statistics.median(plain),
        "item_p50_ms": percentile(latencies, 0.5) * 1e3,
        "item_p90_ms": percentile(latencies, P90) * 1e3,
    }


def layer_specs() -> list[dict]:
    return json.loads((BENCH / "layers.json").read_text())["layers"]


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in layer_specs():
        name = layer["function"]
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for counter in layer.get("counters", ()):
            units[f"{name}.{counter}"] = "ratio" if counter == "best_yield" else "count"
    units["trace.overhead_frac"] = "ratio"
    units["trace.wall_s"] = "s"
    return units


def per_layer(tracer, plain, traced) -> dict[str, float]:
    """Per traced pass: calls, self time and work counts of every layer."""
    passes = len(traced)
    totals = layer_totals(tracer.spans, tracer.layers)
    out = {}
    for layer in layer_specs():
        name = layer["function"]
        counts = tracer.counts[name]
        out[f"{name}.calls"] = totals[name]["calls"] / passes
        out[f"{name}.self_s"] = totals[name]["self_s"] / passes
        for counter in layer.get("counters", ()):
            if counter == "best_yield":  # share of restarts that reached the best
                used = counts["restarts_used"]
                out[f"{name}.{counter}"] = counts["restarts_at_best"] / used if used else 0.0
            else:
                out[f"{name}.{counter}"] = counts[counter] / passes
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    out["trace.wall_s"] = statistics.mean(traced)
    return out


def environment(args, threads: dict[str, str]) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit,
        "nproc": len(os.sched_getaffinity(0)), "threads": threads,
        "machine": platform.machine(),
    }


def run_one(args, threads) -> int:
    # The traced run reports no set-up time, so it does not measure one.
    repeats = 0 if args.trace else SETUP_REPEATS
    setup_times = [time_set_up(args.workload, args.seed) for _ in range(repeats // 2)]
    workload, first = set_up(args.workload, args.seed)
    tracer = Tracer(spec["function"] for spec in layer_specs()) if args.trace else None
    plain, plain_ref, traced, records = measure(workload, first, args.seconds, tracer)
    setup_times += [time_set_up(args.workload, args.seed)
                    for _ in range(repeats - repeats // 2)]

    failures = [(k, item, why) for k, item, _, _, why in records if why]
    attempted = len(records)
    raw = {}
    if tracer is None:
        values, units = end_to_end(plain_ref, records, setup_times), END_TO_END
        raw = raw_timings(plain, records, setup_times)
    else:
        values, units = per_layer(tracer, plain, traced), per_layer_units()
    correct = not failures
    env = environment(args, threads)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} passes, {attempted} items, {len(failures)} failed")
    for k, item, why in failures[:20]:
        print(f"  FAILED pass {k} item {item}: {why}")
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  {name:<34} {value:>14.6g} {'ms' if name.endswith('_ms') else 's'} (raw)")
    print(f"  {'error_rate':<34} {len(failures) / attempted:>14.6g} ratio")
    if tracer is not None:
        self_sum = sum(v for k, v in values.items()
                       if k.endswith(".self_s") and not k.startswith("trace."))
        within = self_sum <= values["trace.wall_s"]
        correct = correct and within
        print(f"  layer self time {self_sum:.6g} s per pass, traced pass "
              f"{values['trace.wall_s']:.6g} s: {'ok' if within else 'EXCEEDS'}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "env": env, "metrics": values, "setup_s_samples": setup_times,
        "raw": raw, "pass_s": plain, "pass_ref_s": plain_ref,
        "traced_pass_s": traced, "failures": failures,
        "items": [[k, item, round(seconds, 7), round(ref, 7)]
                  for k, item, seconds, ref, _ in records],
    }, indent=1))
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        (OUT / f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "spans": [[n, round(s - origin, 7), round(e - origin, 7), p, i]
                      for n, s, e, p, i in tracer.spans],
        }))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print()
    print(f"{'metric':<34}" + "".join(f"{w:>16}" for w in results))
    for metric in names + ["error_rate"]:
        cells = []
        for r in results.values():
            if metric == "error_rate":
                m = {"value": r["failed"] / r["attempted"], "unit": "ratio"}
            else:
                m = r["metrics"][metric]
            cells.append(f"{m['value']:>10.5g} {m['unit']:<5}")
        print(f"{metric:<34}" + "".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    loop_before = reference_loop() if args.setup_only else 0.0
    threads = pin_threads()
    require_checkout()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(repr(loop_before), repr(reference_loop()), repr(time.monotonic()))
        return 0
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())

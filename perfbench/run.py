"""padic-cf benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is loaded from ./src, so
nothing needs installing; the benchmark itself uses the standard library only.

Workloads (all closed loop, one client, one thread):
  sweep_grid      `sweep --primes 3,5,7 --max-num 100 --max-den 100`.  The
                  grid is fixed; the seed does not apply.
  large_height    random rationals of 20-300 digits sent to expand-browkin,
                  bound, expand-schneider and digits.
  constant_heads  head and expand-schneider on constant Schneider heads of
                  length 21-2001.
See workloads.py for how the inputs are drawn and why.

How a run measures.  The same inputs run in PASSES passes, each pass in a
fresh interpreter, so no state (such as browkin_bound's cache) carries from
one pass to the next and no input repeats within an interpreter.  An item is
one CLI call, or one CSV row of the sweep.  On a shared or virtualised CPU
the speed can swing by up to 2x over seconds, so each item's wall time is
scaled by PROBE_NOMINAL_S / (time of a fixed probe computation measured next
to it) and the item keeps the fastest of its passes.
--seconds sets the amount of work (query rounds), never a deadline, so every
run of every commit measures the same inputs.

--trace 0 prints the end-to-end metrics, on every workload: rows_per_s,
items answered per second of scaled busy time (CSV rows on sweep_grid,
queries elsewhere); latency_p50_ms and latency_p95_ms, nearest-rank
percentiles of the item times, a failed call counting as infinitely slow;
peak_rss_mb, the largest ru_maxrss of the passes; setup_s, the median of
SETUP_SAMPLES probe-scaled imports of padic_cf.cli in fresh interpreters.  --trace 1 alternates
untraced and traced passes (TRACE_PASSES of each) and prints the per-layer
metrics (calls and self time of each wrapped function, layer counters and
trace.overhead_share).  Every output is checked by the benchmark's own code;
a wrong output makes the run exit 1 after naming the input.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_EVERY_ROWS, probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
WORKLOADS = ("sweep_grid", "large_height", "constant_heads")
PASSES = 3
TRACE_PASSES = 2  # of each kind: enough for the layer split, and keeps a traced run short
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 100
PROBE_NOMINAL_S = 50e-6  # about the probe's time when the CPU runs undisturbed
PROBE_WINDOW = 2  # probes on each side of an item that set its speed
# Query rounds per pass: --seconds / (PASSES * ROUND_SECONDS), at least
# MIN_ROUNDS (240 queries, so p95 has 12 beyond it).  ROUND_SECONDS is about
# one round's wall time at the first benchmarked commit.
ROUND_SECONDS = {"large_height": 0.4, "constant_heads": 1.0}
MIN_ROUNDS = {"large_height": 5, "constant_heads": 2}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup() -> list[float]:
    """Wall time from a fresh interpreter to padic_cf.cli imported, one
    sample per interpreter, after one untimed import that fills __pycache__.
    Each sample is scaled like an item, by the probes timed around it."""
    argv = [sys.executable, "-c", "import padic_cf.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = [probe() for _ in range(PROBE_WINDOW)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = [probe() for _ in range(PROBE_WINDOW)]
        if proc.returncode != 0:
            raise BenchError(f"cannot import padic_cf.cli from {SRC}:\n{proc.stderr}")
        if i:
            samples.append(elapsed * PROBE_NOMINAL_S / statistics.median(before + after))
    return samples


def run_worker(config: dict) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)]
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: list[bool]) -> list[dict]:
    """One pass per entry of `traced` (True: with the tracer), each in a
    fresh interpreter, all over the same inputs."""
    WORK.mkdir(exist_ok=True)
    rounds = 0
    if workload in ROUND_SECONDS:
        rounds = max(MIN_ROUNDS[workload], round(seconds / PASSES / ROUND_SECONDS[workload]))
    config = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "spans": str(WORK / f"spans-{workload}.tsv.gz"),
    }
    return [run_worker({**config, "trace": trace}) for trace in traced]


def _scaled_times(result: dict, sweep: bool) -> list[float | None]:
    """Item times scaled to the nominal probe speed: each item is divided by
    the median of the probes around it (PROBE_WINDOW probes each side) and,
    for a query, of those timed during the call."""
    probes = result["probes"]
    scaled = []
    for i, t in enumerate(result["times"]):
        if t is None:
            scaled.append(None)
            continue
        # sweep: probe b follows CSV write PROBE_EVERY_ROWS*b; queries: probe i precedes query i
        after = (i - 1) // PROBE_EVERY_ROWS + 1 if sweep else i
        window = probes[max(0, after - PROBE_WINDOW):after + PROBE_WINDOW]
        if not sweep:
            window += result["in_call"][i]
        scaled.append(t * PROBE_NOMINAL_S / statistics.median(window))
    return scaled


def best_times(passes: list[dict], sweep: bool) -> list[float]:
    """Per item, the fastest of its scaled pass times; an item that failed
    in any pass counts as infinitely slow."""
    columns = [_scaled_times(p, sweep) for p in passes]
    if len({len(c) for c in columns}) != 1:
        raise BenchError("the passes timed different numbers of items")
    return [math.inf if None in ts else min(ts) for ts in zip(*columns)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, passes: list[dict], setup: list[float]) -> dict:
    sweep = workload == "sweep_grid"
    best = best_times(passes, sweep)
    # the sweep's lead-in and tail are not rows; a failed sweep has one item
    latencies = best[1:-1] if sweep and len(best) > 1 else best
    p50, p95 = percentile(latencies, 0.50), percentile(latencies, 0.95)
    if math.isinf(p95):
        failures = "\n".join(f for p in passes for f in p["failures"])
        raise BenchError(f"too many failed calls for a finite p95:\n{failures}")
    answered = sum(not math.isinf(t) for t in latencies)
    busy = math.fsum(t for t in best if not math.isinf(t))
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "rows_per_s": {"value": answered / busy, "unit": "1/s"},
        "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "latency_p95_ms": {"value": p95 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": max(p["peak_rss_kb"] for p in passes) / 1024, "unit": "MB"},
    }


_UNITS = {"calls": "count", "steps": "count", "self_s": "s", "cache_hits": "count"}


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    """Counts from the traced passes (identical in each) and, per metric,
    the smallest self time any traced pass measured."""
    metrics = {}
    for name in traced[0]["per_layer"]:
        value = min(p["per_layer"][name] for p in traced)
        metrics[name] = {"value": value, "unit": _UNITS.get(name.rsplit(".", 1)[1], "ratio")}
    sweep = workload == "sweep_grid"
    share = math.fsum(best_times(traced, sweep)) / math.fsum(best_times(untraced, sweep)) - 1
    metrics["trace.overhead_share"] = {"value": share, "unit": "ratio"}
    return metrics


def environment(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "seed": seed,
    }


def _git_commit() -> str:
    # read .git directly: the checkout may not be a repository at all
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padic_cf" / "cli.py").is_file():
        print(f"error: no padic_cf package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            # alternate untraced and traced passes, so both meet the same CPU speeds
            results = run_passes(args.workload, args.seed, args.seconds, [False, True] * TRACE_PASSES)
            metrics = per_layer(args.workload, results[0::2], results[1::2])
        else:
            setup = measure_setup()
            results = run_passes(args.workload, args.seed, args.seconds, [False] * PASSES)
            metrics = end_to_end(args.workload, results, setup)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    wrong = [w for r in results for w in r["wrong"]]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed)))
    print(f"calls: {attempted} attempted over {len(results)} passes, {len(failures)} failed"
          f" (failed_share {len(failures) / attempted:.4f})")
    walls = ", ".join(f"{math.fsum(t for t in r['times'] if t is not None):.2f}" for r in results)
    print(f"unscaled wall time of the timed items per pass: {walls} s")
    if "spans_written" in results[-1]:
        print(f"spans: {results[-1]['spans_written']} of the last pass written to {WORK.name}/")
    if results[0].get("bound_cache_hits") is not None:
        print(f"browkin_bound cache hits per pass: {results[0]['bound_cache_hits']}")
    for failure in failures:
        print(f"FAILED [{args.workload}] {failure}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    for message in wrong:
        print(f"WRONG OUTPUT [{args.workload}, seed {args.seed}] {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

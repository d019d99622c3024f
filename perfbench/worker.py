"""One pass of a workload in a fresh interpreter (started by run.py).

usage: worker.py CONFIG_JSON

CONFIG_JSON keys: workload, seed, rounds (query rounds to run), trace
(bool) and spans (where a traced pass writes its spans).  The package is
imported from the src directory on PYTHONPATH.  Each item is timed alone
and its output checked after the clock stops.  The result is one JSON
object on stdout:

  times     seconds per item, null where the call failed.  For queries an
            item is one CLI call.  For sweep_grid the items are the lead-in
            (start of the call to the CSV header), every CSV row (time since
            the previous row was written) and the tail (last row to return).
  probes    seconds taken by probe(): before every query, or every
            PROBE_EVERY_ROWS rows of the sweep, outside the timed items.
  in_call   per query, the probes timed during the call (see _InCallProbes).
  failures  one line per failed call (exit 1 or an exception).
  wrong     one line per output the benchmark's checks reject.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import signal
import sys
import time
from fractions import Fraction

import checks
import workloads

PROBE_EVERY_ROWS = 32


def probe() -> float:
    """Time a fixed piece of pure-Python work (small Fractions, no padic_cf).

    A shared or virtualised CPU can change speed by up to 2x over seconds;
    run.py scales every item by the probes timed next to it."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 24):
        acc += Fraction(i, 2 * i + 1)
    return time.perf_counter() - start


class _StampedSink:
    """Text sink that records when each write arrives and, every
    PROBE_EVERY_ROWS writes, times the probe; the CLI's CSV writer issues
    one write per row.  A row's time runs from the end of the previous
    write to the arrival of its own, so probes are not counted in rows."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.arrivals: list[float] = []
        self.resumes: list[float] = []
        self.probes: list[float] = []

    def write(self, text: str) -> int:
        self.arrivals.append(time.perf_counter())
        self.parts.append(text)
        if len(self.parts) % PROBE_EVERY_ROWS == 1:
            self.probes.append(probe())
        self.resumes.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


class _InCallProbes:
    """Times the probe every SAMPLE_S seconds while a call runs (on SIGALRM),
    so a long call's speed is measured during the call itself.  `spent` is
    the time the handler took, which is not the call's.  The sweep does not
    use it: it probes between rows instead (_StampedSink)."""

    SAMPLE_S = 0.02

    def __init__(self, active: bool) -> None:
        self.active = active
        self.probes: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - entered


def _call(main, argv, out, probe_in_call=True):
    """Run main(argv) with stdout sent to `out` and stderr captured.

    Returns (exit code, stderr, error message, start, end, in-call probes);
    end excludes the time spent probing.  An exception escaping main
    becomes exit code None with its message.
    """
    err = io.StringIO()
    error = None
    sampler = _InCallProbes(probe_in_call)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed call, never fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter() - sampler.spent
    return code, err.getvalue(), error, start, end, sampler.probes


def _run_sweep(main):
    sink = _StampedSink()
    code, stderr, error, start, end, _ = _call(main, list(workloads.SWEEP_ARGS), sink, False)
    result = {"attempted": 1, "times": [None], "probes": sink.probes, "failures": [], "wrong": []}
    if code != 0:
        _count_failure(result, " ".join(workloads.SWEEP_ARGS), code, stderr, error)
        return result
    starts = [start, *sink.resumes]
    ends = [*sink.arrivals, end]
    result["times"] = [b - a for a, b in zip(starts, ends)]
    try:
        checks.check_sweep("".join(sink.parts).encode(), stderr)
    except checks.WrongOutput as exc:
        result["wrong"].append(f"sweep: {exc}")
    return result


def _run_queries(main, config, tracer):
    result = {"attempted": 0, "times": [], "failures": [], "wrong": [], "probes": [], "in_call": []}
    stream = workloads.rounds(config["workload"], config["seed"])
    for batch in itertools.islice(stream, config["rounds"]):
        for query in batch:
            if tracer is not None:
                tracer.request = result["attempted"]
            result["attempted"] += 1
            result["probes"].append(probe())
            out = io.StringIO()
            code, stderr, error, start, end, in_call = _call(main, query.argv(), out)
            result["in_call"].append(in_call)
            if code == 2:
                raise SystemExit(f"usage error (exit 2) on a generated query: {query.describe()}\n{stderr}")
            if code != 0:
                _count_failure(result, query.describe(), code, stderr, error)
                result["times"].append(None)
                continue
            result["times"].append(end - start)
            try:
                checks.check_query(query, out.getvalue())
            except checks.WrongOutput as exc:
                result["wrong"].append(f"{query.describe()}: {exc}")
    return result


def _count_failure(result, what, code, stderr, error):
    message = error or stderr.strip() or f"exit code {code}"
    result["failures"].append(f"{what} -> exit {code}: {message}")


def main() -> int:
    config = json.loads(sys.argv[1])
    import padic_cf.cli  # timed as setup_s by run.py

    tracer = None
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = padic_cf.cli.main  # looked up after install: the traced main
    if config["workload"] == "sweep_grid":
        result = _run_sweep(cli_main)
    else:
        result = _run_queries(cli_main, config, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["spans_written"] = tracer.write_spans(config["spans"])
    else:
        cache_info = getattr(sys.modules["padic_cf.browkin"].browkin_bound, "cache_info", None)
        result["bound_cache_hits"] = cache_info().hits if cache_info else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

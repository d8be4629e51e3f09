"""monorev benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload certify-elliptic [--seed N] [--seconds S] [--trace 0|1]

Workloads: certify-elliptic, quotient-random, oracle-window (see
bench/workloads.py).  Run from anywhere; the package is imported from the
``src`` directory next to this one.

--trace 0 runs whole passes of the workload for about --seconds (and for at
least MIN_PASSES passes) and reports the end-to-end metrics.  Every pass
runs the same operations on fresh presentations, so each operation does the
same work in every pass, and the timing metrics take each operation's median
over its repeats.

The times are scaled to a fixed machine speed.  On a shared host the
processor's speed swings by a third, within a second and from one minute to
the next, as neighbours come and go.  So a fixed piece of pure-Python work
that does not touch monorev, the reference kernel of bench/reference.py, is
timed just before every operation and around every set-up, and each time is
multiplied by REFERENCE_S over the mean of the kernel's times on either side
of it: a time reads as it would on a machine where the kernel takes
REFERENCE_S.  The unscaled figures are printed beside the scaled ones.

--trace 1 runs the first pass twice, whatever --seconds says: once
plain and once with spans around every call into a monorev layer.  It
reports the per-layer metrics of the traced pass, whose counts depend on
the seed only.  Every result is checked against a reference; a mismatch is
counted in ``failed`` and makes the run exit with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from reference import REFERENCE_S, scaled, time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20260823
SETUP_RUNS = 10  # half before the timed passes, half after, so a slow spell skews fewer
MIN_PASSES = 5  # repeats of each operation, for its median time

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "decided_ratio": "ratio", "failed_ratio": "ratio", "peak_rss_mb": "MB",
}
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "decided_ratio",
              "peak_rss_mb")


def percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Record:
    """Latencies and result summaries of the operations one loop ran."""

    def __init__(self) -> None:
        self.ops: list = []
        self.summaries: list = []
        self.latencies: list[float] = []
        self.references: list[float] = []  # kernel times, one before each op and one at the end
        self.errors: list[str] = []
        self.wall = 0.0


def run_batches(workload, batches, deadline: float | None = None, min_passes: int = 0,
                tracer=None, calibrate: bool = False) -> Record:
    """Run whole passes.

    With a deadline, stop once another pass, taken to last as long as the
    one before, would end after it, but not before min_passes passes ran.
    With calibrate, time the reference kernel before each operation and
    once after the last.
    """
    execute = workload.execute if tracer is None else tracer.op(workload.execute)
    rec = Record()
    clock = time.perf_counter
    began = clock()
    for done, batch in enumerate(batches, 1):
        pass_began = clock()
        ctx = workload.new_pass()
        for op in batch:
            if calibrate:
                rec.references.append(time_reference())
            t0 = clock()
            try:
                raw = execute(op, ctx)
            except Exception:
                rec.latencies.append(clock() - t0)
                rec.errors.append(f"{op}: {traceback.format_exc()}")
                rec.ops.append(op)
                rec.summaries.append(None)
                continue
            rec.latencies.append(clock() - t0)
            rec.ops.append(op)
            rec.summaries.append(workload.summarize(op, raw))
        now = clock()
        last = now - pass_began
        if deadline is not None and done >= min_passes and now + last > deadline:
            break
    if calibrate:
        rec.references.append(time_reference())
    rec.wall = clock() - began
    return rec


def gate(workload, rec: Record) -> tuple[int, int, list[str], dict]:
    """Check every result: (decided, failed, messages, result counts)."""
    decided = failed = 0
    messages = list(rec.errors)
    counts: dict[str, int] = {}
    for op, summary in zip(rec.ops, rec.summaries):
        if summary is None:
            failed += 1
            continue
        decided += workload.decided(op, summary)
        for key, value in workload.counts(op, summary).items():
            counts[key] = counts.get(key, 0) + value
        problem = workload.check(op, summary)
        if problem is not None:
            failed += 1
            messages.append(problem)
    return decided, failed, messages, counts


def time_setup(workload, runs: int) -> list[tuple[float, float]]:
    """Times for a fresh interpreter to import monorev (CLI included) and build the inputs.

    The child times itself, from before the first monorev import to the end
    of the build, with the reference kernel timed on either side in the same
    process.  Each time is returned as measured and scaled.
    """
    code = (f"import sys, time; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            "from reference import time_reference; before = time_reference(); "
            "t0 = time.perf_counter(); import monorev.cli; "
            f"from monorev import catalog, presentation; {workload.setup}; "
            "seconds = time.perf_counter() - t0; "
            "print(seconds, before, time_reference())")
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                             capture_output=True, text=True, timeout=60).stdout
        seconds, before, after = map(float, out.split())
        times.append((seconds, scaled(seconds, before, after)))
    return times


def median_times(ops: list, times: list[float]) -> list[float]:
    """Each distinct operation's median over its repeats, sorted."""
    repeats: dict = {}
    for op, t in zip(ops, times):
        repeats.setdefault(op, []).append(t)
    return sorted(statistics.median(ts) for ts in repeats.values())


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup = time_setup(workload, SETUP_RUNS // 2)
    batches = workload.passes(seed)
    first = next(batches)
    # enough passes that ten samples lie beyond the tail percentile
    beyond = len(first) * (100 - workload.tail) / 100
    min_passes = max(MIN_PASSES, math.ceil(10 / beyond) if beyond else 0)
    rec = run_batches(workload, itertools.chain([first], batches),
                      time.perf_counter() + seconds, min_passes, calibrate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += time_setup(workload, SETUP_RUNS - SETUP_RUNS // 2)
    decided, failed, messages, counts = gate(workload, rec)
    n = len(rec.latencies)
    refs = rec.references
    raw = median_times(rec.ops, rec.latencies)
    times = median_times(rec.ops, [scaled(t, refs[i], refs[i + 1])
                                   for i, t in enumerate(rec.latencies)])
    print(f"{workload.name}: {len(times)} operations, each run {n // len(times)} times, "
          f"in {rec.wall:.2f} s; op_tail_ms is p{workload.tail} of their medians, with "
          f"{n * (100 - workload.tail) / 100:.0f} samples beyond it")
    print(f"reference kernel: median {statistics.median(refs) * 1e3:.4g} ms over {len(refs)} "
          f"calls, against REFERENCE_S {REFERENCE_S * 1e3:.4g} ms")
    print(f"unscaled: setup_s {statistics.median(s for s, _ in setup):.6g}, ops_per_s "
          f"{len(raw) / sum(raw):.6g}, op_p50_ms {percentile(raw, 50) * 1e3:.6g}, "
          f"op_tail_ms {percentile(raw, workload.tail) * 1e3:.6g}")
    print("result counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    metrics = {
        "setup_s": statistics.median(s for _, s in setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_tail_ms": percentile(times, workload.tail) * 1e3,
        "decided_ratio": decided / n,
        "failed_ratio": failed / n,
        "peak_rss_mb": peak_rss_mb,
    }
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {UNITS[name]}")
    return {k: metrics[k] for k in END_TO_END}, n, failed, messages


def per_layer(workload, seed: int) -> tuple[dict, int, int, list[str]]:
    batch = next(workload.passes(seed))
    plain = run_batches(workload, [batch])
    tracer = tracing.Tracer()
    with tracer:
        traced = run_batches(workload, [batch], tracer=tracer)
    layer, absent = tracer.metrics(traced.wall, plain.wall)
    attempted = failed = 0
    messages: list[str] = []
    counts = []
    for rec in (plain, traced):
        _, bad, msgs, rec_counts = gate(workload, rec)
        attempted += len(rec.ops)
        failed += bad
        messages += msgs
        counts.append(rec_counts)
    # The plain pass counts from results what the wrappers count from calls.
    for key, value in counts[0].items():
        if key in layer and layer[key] != value:
            failed += 1
            messages.append(f"{key}: traced {layer[key]} but untraced {value}")
        if counts[1].get(key) != value:
            failed += 1
            messages.append(f"{key}: the two passes differ, {value} and {counts[1].get(key)}")
    print(f"{workload.name}: traced pass of {len(traced.ops)} ops, {traced.wall:.2f} s "
          f"against {plain.wall:.2f} s untraced; {len(tracer.start)} spans")
    if tracer.missing:
        print("hooks not found: " + ", ".join(tracer.missing))
    if absent:
        print("absent metrics: " + ", ".join(absent))
    for name, value in layer.items():
        print(f"  {name} {value:.6g} {tracing.UNITS[name]}")
    return layer, attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monorev" / "__init__.py").is_file():
        print(f"bench: no monorev package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        metrics, attempted, failed, messages = per_layer(workload, args.seed)
        units = tracing.UNITS
    else:
        metrics, attempted, failed, messages = end_to_end(workload, args.seed, args.seconds)
        units = UNITS
    for message in messages[:20]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

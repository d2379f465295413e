"""fppgeo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload forest2d --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first times
untraced ops for half the seconds, then traced ops for the other half, and
prints the per-layer metrics with the tracing overhead.  ``--workload all``
runs every workload, each in its own process.  The last line of standard
output is one JSON object; the lines above it are the readable report.
See perfbench/README.md for the workloads, metrics and known limits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("forest2d", "shape3d", "modify2d")
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description="fppgeo benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _prepare_process():
    """Pin thread pools to the visible cores and put the sources on the path."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = cores
    os.environ["FPPGEO_JOBS"] = "1"
    if not (ROOT / "src" / "fppgeo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fppgeo sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def measure_setup(workload, seed, scratch):
    """Median seconds of SETUP_REPEATS cold starts, and all of them."""
    values = []
    for i in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), repr(t0), workload, str(seed),
             str(scratch / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values), values


def run_ops(wl, inputs, seconds, check, recorder=None):
    """Closed loop, one op at a time, until the ops have taken ``seconds``.

    ``check(inp, result)`` returns (errors, counts) for one op.  Returns (op
    wall times, failed op count, summed counts).
    """
    times, failed, counts = [], 0, Counter()
    while not times or sum(times) < seconds:
        k = len(times)
        inp = inputs[k % len(inputs)]
        if recorder is not None:
            recorder.begin(k)
        start = time.perf_counter()
        try:
            result = wl.run(inp)
        except Exception:
            result = None
            errors = [traceback.format_exc()]
        end = time.perf_counter()
        if recorder is not None:
            recorder.end(k, start, end)
        times.append(end - start)
        if result is not None:
            errors, op_counts = check(inp, result)
            counts.update(op_counts)
        if errors:
            failed += 1
            print(f"perfbench: {wl.name} op {k} (seed {inp.seed}) failed:", *errors[:3],
                  sep="\n  ", file=sys.stderr)
    return times, failed, counts


def _fmt_tail(report, times):
    tail = report.tail_percentile(times)
    if tail is None:
        return f"none ({len(times)} ops; a percentile with 10 ops beyond it needs 20)"
    p, value, n_above = tail
    return f"p{p:g} = {value!r} s ({n_above} of {len(times)} ops beyond it)"


def run_one(args):
    _prepare_process()
    import report
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with open(HERE / "digests.json") as fh:
        expected = json.load(fh).get(args.workload, {})

    def check(inp, result):
        return workloads.check_op(wl, inp, result, expected.get(str(inp.seed), {}))

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    lines = []
    try:
        inputs = workloads.build_inputs(args.workload, args.seed, scratch / "ops")
        if args.trace == 0:
            setup_s, setup_all = measure_setup(args.workload, args.seed, scratch)
            times, failed, _ = run_ops(wl, inputs, args.seconds, check)
            values = {
                "ops_per_s": (len(times) - failed) / sum(times),
                "op_p50_s": statistics.median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup_s,
            }
            units = dict(report.END_TO_END)
            lines.append(f"op_tail: {_fmt_tail(report, times)}")
            lines.append(f"setup_s runs: {setup_all}")
        else:
            base_times, base_failed, _ = run_ops(wl, inputs, args.seconds / 2, check)
            rec = spans.Recorder()
            rec.install()
            try:
                times, failed, counts = run_ops(wl, inputs, args.seconds / 2, check, rec)
            finally:
                rec.uninstall()
            rec.counts.update(counts)
            rec.counts["trace.spans"] = len(rec.spans)
            total_s, self_s, other_s = rec.summarize()
            overhead = statistics.median(times) / statistics.median(base_times)
            values = report.per_layer_values(total_s, self_s, rec.counts, other_s,
                                             len(times), overhead)
            units = dict(report.PER_LAYER)
            trace_path = out_root / f"trace-{args.workload}.json"
            rec.write(trace_path, other_s)
            lines.append("other_s per op: " + ", ".join(f"op{k} {v:.6f}"
                                                         for k, v in sorted(other_s.items())))
            lines.append(f"tracing overhead: traced op_p50_s {statistics.median(times):.4f} / "
                         f"untraced op_p50_s {statistics.median(base_times):.4f} "
                         f"= {overhead:.4f} ({len(times)} traced, {len(base_times)} untraced ops)")
            lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
            times, failed = base_times + times, base_failed + failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(times)
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, {attempted} ops, "
          f"{sum(times):.2f} s timed")
    for name, value in values.items():
        print(f"  {name:<44} {value!r} {units[name]}")
    print(f"  {'error_rate':<44} {failed / attempted!r} ({failed} of {attempted} ops failed)")
    print("  op_s: " + ", ".join(f"{t:.4f}" for t in times))
    for line in lines:
        print("  " + line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def run_all(args):
    """Every workload in its own process, so each reports its own peak memory."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None):
    args = _parse(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Maintenance tool for the benchmark: spread checks, the baseline, and output digests.

    python3 perfbench/prove.py spread --seeds 1-10 [--workloads forest2d,modify2d]
                                      [--traced 3] [--baseline perfbench/baseline.json]
    python3 perfbench/prove.py digests

``spread`` runs ``run.py`` once per seed and workload for the
``run_seconds`` in BENCHMARK.json and prints, for every end-to-end metric,
the median, the quartiles and their distance as a share of the median, next
to a third of the metric's bound (the target every spread should stay
under).  ``--traced N`` adds N traced runs per workload, whose per-layer
medians go into the baseline.  ``digests`` re-records
``perfbench/digests.json`` from the pool inputs of run seed 0; run it only
on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    import report

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in workloads:
        t0 = time.monotonic()
        runs = [_run(name, s, bench["run_seconds"], 0) for s in seeds]
        traced = [_run(name, s, bench["run_seconds"], 1) for s in seeds[:args.traced]]
        entry = {"end_to_end": {}, "per_layer": {}}
        print(f"{name}: {len(runs)} runs in {time.monotonic() - t0:.0f} s")
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3, share = report.quartile_spread(values)
            flag = "ok" if share < bound / 3 or metric == "setup_s" else "WIDE"
            print(f"  {metric:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f}  bound/3 {bound / 3:.4f}  {flag}")
            entry["end_to_end"][metric] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": share, "values": values}
        for metric, _unit in report.PER_LAYER if traced else ():
            entry["per_layer"][metric] = statistics.median(r[metric] for r in traced)
        out["workloads"][name] = entry
    if args.baseline:
        out["label"] = args.label
        Path(args.baseline).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")


def digests(_args):
    from run import _prepare_process

    _prepare_process()
    import workloads

    table = {}
    scratch = ROOT / ".perfbench_out" / "digests"
    for name, wl in workloads.WORKLOADS.items():
        table[name] = {}
        for inp in workloads.build_inputs(name, 0, scratch / name):
            digest, errors, _ = wl.check(inp, wl.run(inp))
            if errors:
                raise SystemExit(f"{name} seed {inp.seed}: {errors}")
            table[name][str(inp.seed)] = digest
            print(name, inp.seed, "recorded")
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    s.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    s.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    s.add_argument("--baseline", help="write the results here")
    s.add_argument("--label", default="", help="what was measured, stored in the baseline")
    s.set_defaults(func=spread)
    d = sub.add_parser("digests")
    d.set_defaults(func=digests)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

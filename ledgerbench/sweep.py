"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 ledgerbench/sweep.py --seeds 100-109 [--workloads f2_cmps,f7_cmp]
        [--trace-seed 0] [--out ledgerbench/results/BENCH_ledger.json]
        [--compare ledgerbench/results/BENCH_ledger.json]

Runs ``run.py`` once per (workload, seed), one process at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, which is the interquartile distance as a share of the
median.  The spread is flagged when it reaches a third of the metric's
bound.  ``--trace-seed`` adds one traced run per workload; its ledger
goes into the output file.  ``--compare`` takes an earlier summary of
the same seeds and checks, for every metric, ``setup_s`` too, that this
sweep's median is not worse than that one's by more than the bound; so
two sweeps show whether two sets of runs of the same code agree.  Exits 1
when a run fails, is not ``correct``, has a spread at or past its bound,
or has a median past its bound from the compared one.  ``setup_s`` is
exempt from the spread check only: its spread across seeds is not
bounded, it is gated on its median alone.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        "ledgerbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(
        f"{workload} seed {seed} trace {trace}: {wall:.1f} s, correct "
        f"{result['correct']}, {result['failed']}/{result['attempted']} failed",
        flush=True,
    )
    if proc.stderr.strip():
        print(proc.stderr.strip(), flush=True)
    return result


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="'100-109' or '1,5,9'")
    p.add_argument("--workloads", default=None, help="comma list; default all")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--compare", default=None, help="an earlier summary JSON")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    )
    seeds = seed_list(args.seeds)
    ok = True
    report: dict[str, object] = {
        "benchmark": "ledger",
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "compared_with": args.compare,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        ok &= all(r["correct"] for r in runs)
        entry: dict[str, object] = {"end_to_end": {}}
        print(f"\n{workload}: {len(runs)} runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] >= metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif stats["spread"] >= metric["bound"] / 3:
                flag = "  over bound/3"
            shift = ""
            if earlier is not None:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                stats["worse_than_compared"] = worse = worse_by(metric, before, stats["median"])
                shift = f" worse by {worse:+.4f} vs compared"
                if worse > metric["bound"]:
                    flag, ok = flag + "  MEDIAN PAST BOUND", False
            print(
                f"  {name:<22} median {stats['median']:<14.6g} "
                f"spread {stats['spread']:.4f}{shift} (bound {metric['bound']}){flag}"
            )
        if args.trace_seed is not None:
            traced = run_once(spec, workload, args.trace_seed, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
        report["workloads"][workload] = entry
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

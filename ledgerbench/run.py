"""Layer-ledger benchmark entry point.

Run from the root of a checkout::

    python3 ledgerbench/run.py --workload f2_cmps --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that fills the per-layer ledger.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Everything the run writes (native
kernel cache, compiler temporaries, traces) goes under ``.bench_build/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"

# At most two threads run (generator + batcher flush thread): keep BLAS
# pools from adding more.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare() -> bool:
    """Point imports and every file the run writes at this checkout.

    Returns False, after saying why on stderr, outside a repro checkout.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(
            f"ledgerbench: {ROOT} is not a repro checkout (need src/repro and "
            "BENCHMARK.json)",
            file=sys.stderr,
        )
        return False
    # Native kernels compile into the checkout, and so do the compiler's
    # temporary files.
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["CMP_NATIVE_CACHE"] = str(BUILD_DIR / "native")
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    from ledgerbench import measure
    from ledgerbench.pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"ledgerbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    runner = measure.traced_run if args.trace else measure.timed_run
    outcome = runner(WORKLOADS[args.workload], args.seed, args.seconds, BUILD_DIR)
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        print(
            f"ledgerbench: metric set differs from BENCHMARK.json "
            f"(missing {missing}, unexpected {extra})",
            file=sys.stderr,
        )
        return 3
    for line in outcome.problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in outcome.notes:
        print(line)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

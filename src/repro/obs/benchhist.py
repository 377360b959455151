"""Bench-history trajectory: append-only run log + regression gate.

CI uploads one ``BENCH_*.json`` per benchmark job, but each artifact
only describes *one* run — the performance trajectory across commits
was invisible and unguarded.  This module folds any number of bench
artifacts into a single append-only history file and flags regressions
against a rolling, noise-tolerant baseline:

* :func:`append_run` flattens every numeric leaf of each artifact into
  dotted-path metrics (``builders.CMP-S.on_wall_seconds``) and appends
  one run entry ``{run_id, timestamp, benchmarks}``;
* :func:`check_regressions` compares the latest run's metrics against
  the **median of the previous ``window`` runs** — the median absorbs
  one-off CI noise spikes a mean would chase — and flags any gated
  metric that moved more than ``tolerance`` (relative) in its *bad*
  direction.  A metric is gated only when its direction is inferable
  from its name (:func:`metric_direction`): wall-clock/latency/overhead
  metrics must not rise, throughput/accuracy metrics must not fall, and
  anything directionless (record counts, config echoes, booleans-as-0/1
  excluded outright) is tracked but never gated;
* nothing is gated before ``min_runs`` prior observations exist, so a
  freshly added benchmark gets a settling-in period instead of
  self-comparing noise.

``cmp-repro bench-history`` is the CLI surface: ``--append`` folds
artifacts in, ``--check`` exits nonzero on any regression (the CI
gate), and the bare command prints the trajectory summary.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Mapping

#: History schema version (bump on incompatible layout changes).
HISTORY_VERSION = 1

#: Name-pattern ladder for direction inference.  First match wins;
#: substrings are matched against the lower-cased dotted metric path,
#: and between the two ladders a ``_s``/``_us`` suffix (a duration)
#: means lower is better unless it is a ``per_s`` rate.
_LOWER_IS_BETTER = (
    "seconds",
    "latency",
    "overhead",
    "_ms",
    "p50",
    "p90",
    "p99",
    "wall",
    "bytes",
    "scans",
    "failed_frac",
)
_HIGHER_IS_BETTER = (
    "per_s",
    "per_sec",
    "throughput",
    "speedup",
    "accuracy",
    "compliance",
    "rps",
    "goodput",
)


def metric_direction(path: str) -> str | None:
    """``"lower"`` / ``"higher"`` is better, or ``None`` (ungated).

    Inference is by name because the artifacts are heterogeneous; a
    metric whose polarity the patterns cannot determine is recorded in
    the history but never gated — silence, not a guess.
    """
    lowered = path.lower()
    for pattern in _LOWER_IS_BETTER:
        if pattern in lowered:
            return "lower"
    if lowered.endswith(("_s", "_us")) and not lowered.endswith("per_s"):
        return "lower"
    for pattern in _HIGHER_IS_BETTER:
        if pattern in lowered:
            return "higher"
    return None


def flatten_metrics(
    obj: object, prefix: str = ""
) -> dict[str, float]:
    """Numeric leaves of a bench artifact as dotted-path metrics.

    Booleans are excluded (``bit_identical: true`` is a correctness
    assertion, not a measurement); non-finite values are excluded
    (a NaN baseline would poison every later comparison).
    """
    out: dict[str, float] = {}
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(value, path))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            path = f"{prefix}.{i}" if prefix else str(i)
            out.update(flatten_metrics(value, path))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        value = float(obj)
        if value == value and abs(value) != float("inf"):
            out[prefix] = value
    return out


def _benchmark_name(source_path: str, payload: Mapping[str, object]) -> str:
    """The artifact's self-declared benchmark name, else its file stem."""
    name = payload.get("benchmark")
    if isinstance(name, str) and name:
        return name
    stem = os.path.basename(source_path)
    return stem[:-5] if stem.endswith(".json") else stem


def new_history() -> dict[str, object]:
    """An empty trajectory."""
    return {"version": HISTORY_VERSION, "runs": []}


def load_history(path: str) -> dict[str, object]:
    """Read a history file; a missing file is an empty trajectory."""
    if not os.path.exists(path):
        return new_history()
    with open(path, "r", encoding="utf-8") as fh:
        history = json.load(fh)
    version = history.get("version")
    if version != HISTORY_VERSION:
        raise ValueError(
            f"history {path!r} has version {version!r}; "
            f"this build reads version {HISTORY_VERSION}"
        )
    if not isinstance(history.get("runs"), list):
        raise ValueError(f"history {path!r} has no runs list")
    return history


def save_history(path: str, history: Mapping[str, object]) -> None:
    """Atomic-rename write, same idiom as the table format."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def append_run(
    history: dict[str, object],
    artifact_paths: Iterable[str],
    run_id: str | None = None,
    timestamp: float | None = None,
    max_runs: int = 200,
) -> dict[str, object]:
    """Fold bench artifacts into one new run entry; returns the entry.

    Artifacts that are not JSON objects raise — a truncated upload
    should fail the append, not silently record an empty run.  The
    history is truncated to the newest ``max_runs`` runs so the file
    stays boundedly small no matter how long the trajectory grows.
    """
    benchmarks: dict[str, object] = {}
    for path in artifact_paths:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, Mapping):
            raise ValueError(f"bench artifact {path!r} is not a JSON object")
        name = _benchmark_name(path, payload)
        benchmarks[name] = {
            "source": os.path.basename(path),
            "metrics": flatten_metrics(payload),
        }
    if not benchmarks:
        raise ValueError("no bench artifacts to append")
    runs = history["runs"]
    assert isinstance(runs, list)
    entry = {
        "run_id": run_id if run_id else f"run-{len(runs) + 1}",
        "timestamp": time.time() if timestamp is None else timestamp,
        "benchmarks": benchmarks,
    }
    runs.append(entry)
    if max_runs > 0 and len(runs) > max_runs:
        del runs[: len(runs) - max_runs]
    return entry


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved past tolerance in its bad direction."""

    benchmark: str
    metric: str
    direction: str
    baseline: float
    latest: float
    change_pct: float

    def describe(self) -> str:
        arrow = "rose" if self.direction == "lower" else "fell"
        return (
            f"{self.benchmark}:{self.metric} {arrow} "
            f"{abs(self.change_pct):.1f}% (baseline {self.baseline:.6g} "
            f"-> latest {self.latest:.6g})"
        )


def check_regressions(
    history: Mapping[str, object],
    tolerance: float = 0.25,
    min_runs: int = 3,
    window: int = 5,
) -> list[Regression]:
    """Gate the newest run against the rolling baseline.

    For each gated metric in the latest run, the baseline is the median
    of that metric's values over the previous ``window`` runs (skipping
    runs that lack it).  Fewer than ``min_runs`` prior values → not
    gated yet.  Baselines at (or below) zero are not gated — a relative
    tolerance around zero is meaningless.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if min_runs < 1:
        raise ValueError("min_runs must be at least 1")
    if window < min_runs:
        raise ValueError("window must be at least min_runs")
    runs = history.get("runs")
    if not isinstance(runs, list) or len(runs) < 2:
        return []
    latest = runs[-1]
    prior = runs[:-1]
    regressions: list[Regression] = []
    for bench_name, bench in latest.get("benchmarks", {}).items():
        for metric, value in bench.get("metrics", {}).items():
            direction = metric_direction(metric)
            if direction is None:
                continue
            prior_values = [
                run["benchmarks"][bench_name]["metrics"][metric]
                for run in prior[-window:]
                if metric in run.get("benchmarks", {})
                .get(bench_name, {})
                .get("metrics", {})
            ]
            if len(prior_values) < min_runs:
                continue
            baseline = median(prior_values)
            if baseline <= 0:
                continue
            change = (value - baseline) / baseline
            regressed = (
                change > tolerance
                if direction == "lower"
                else change < -tolerance
            )
            if regressed:
                regressions.append(
                    Regression(
                        benchmark=bench_name,
                        metric=metric,
                        direction=direction,
                        baseline=float(baseline),
                        latest=float(value),
                        change_pct=change * 100.0,
                    )
                )
    regressions.sort(key=lambda r: -abs(r.change_pct))
    return regressions


def summarize_history(history: Mapping[str, object]) -> dict[str, object]:
    """Trajectory overview for the CLI's bare ``bench-history`` call."""
    runs = history.get("runs")
    if not isinstance(runs, list) or not runs:
        return {"runs": 0, "benchmarks": [], "latest": None}
    benchmarks: set[str] = set()
    for run in runs:
        benchmarks.update(run.get("benchmarks", {}))
    latest = runs[-1]
    return {
        "runs": len(runs),
        "benchmarks": sorted(benchmarks),
        "latest": {
            "run_id": latest.get("run_id"),
            "timestamp": latest.get("timestamp"),
            "metrics": sum(
                len(b.get("metrics", {}))
                for b in latest.get("benchmarks", {}).values()
            ),
        },
    }


__all__ = [
    "HISTORY_VERSION",
    "Regression",
    "append_run",
    "check_regressions",
    "flatten_metrics",
    "load_history",
    "metric_direction",
    "new_history",
    "save_history",
    "summarize_history",
]

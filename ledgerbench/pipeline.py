"""Workload definitions, input generation and the training half of a run.

Every workload is the same pipeline, train -> compile -> serve, so every
end-to-end metric is measured on every workload; the workloads differ in
which training layers run:

* ``f2_cmps``   CMP-S on Agrawal F2 (1-D histograms, interval estimation);
* ``f7_cmp``    full CMP on Agrawal F7 (CMP-B matrices, predictSplit,
  linear splits; ``ClassHistogram.update`` all but idle);
* ``stream_f2`` one-pass ``StreamingTrainer`` over F2 under a sketch
  memory budget that forces spills (no level scans, no interval
  estimates).

Inputs are generated from the run's seed only: :data:`TRAIN_SETS`
training sets (seeds ``seed * TRAIN_SETS + j``), a swap partner and a
holdout on disjoint seed streams.  The program under test receives nothing
but those arrays.  A run cycles its builds over the training sets and
reports the median of their exact counters, so one seed's tree shape moves
``peak_memory_bytes`` and ``test_accuracy`` less.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import BuilderConfig
from repro.core import native_scan
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.compiled import tree_fingerprint
from repro.core.tree import DecisionTree
from repro.data.dataset import Dataset
from repro.data.synthetic import generate_agrawal
from repro.io.metrics import CostModel, IOStats
from repro.stream import StreamingTrainer

#: Training sets per run (a run builds each at least once).
TRAIN_SETS = 4
#: Holdout records scored by every workload (also the serving row pool),
#: and the records of the swap partner.
HOLDOUT_RECORDS = 20_000
PARTNER_RECORDS = 20_000
#: Holdout and partner seeds live far from training seeds so they never
#: coincide.
HOLDOUT_SEED_OFFSET = 1_000_003
PARTNER_SEED_OFFSET = 2_000_003
#: Records of the set-up warm-up build (loads native kernels, fills caches).
WARMUP_RECORDS = 4_000
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Sketch budget of ``stream_f2``: below the unbounded sketch peak at
#: 100k F2 records (~0.8 MB), so open leaves spill.
STREAM_BUDGET_BYTES = 600_000


@dataclass(frozen=True)
class Workload:
    name: str
    function: str
    #: "cmp_s", "cmp" or "stream".
    method: str
    n_train: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("f2_cmps", "F2", "cmp_s", 100_000),
        Workload("f7_cmp", "F7", "cmp", 100_000),
        Workload("stream_f2", "F2", "stream", 100_000),
    )
}


def builder_config(seed: int) -> BuilderConfig:
    """The ROADMAP baseline configuration, serial scans."""
    return BuilderConfig(
        n_intervals=100, max_depth=10, min_records=100, seed=seed, scan_workers=1
    )


@dataclass
class Inputs:
    trains: list[Dataset]
    partner: Dataset
    holdout: Dataset


def make_inputs(w: Workload, seed: int) -> Inputs:
    return Inputs(
        trains=[
            generate_agrawal(w.function, w.n_train, seed=seed * TRAIN_SETS + j)
            for j in range(TRAIN_SETS)
        ],
        partner=generate_agrawal(
            w.function, PARTNER_RECORDS, seed=seed + PARTNER_SEED_OFFSET
        ),
        holdout=generate_agrawal(
            w.function, HOLDOUT_RECORDS, seed=seed + HOLDOUT_SEED_OFFSET
        ),
    )


@dataclass
class Trained:
    """One training call: the tree plus the counters that must repeat."""

    tree: DecisionTree
    wall_s: float
    counters: dict[str, float]
    #: Everything else the traced run reads (BuildStats or StreamingResult).
    detail: object


def train(w: Workload, data: Dataset, seed: int, tracer=None) -> Trained:
    """One ``build``/``fit`` call, timed around the public call only."""
    config = builder_config(seed)
    if w.method == "stream":
        io = IOStats()
        table = data.as_paged(io, config.page_records)
        trainer = StreamingTrainer(
            data.schema,
            config,
            memory_budget_bytes=STREAM_BUDGET_BYTES,
            tracer=tracer,
        )
        kernels_before = native_scan.kernel_calls_total()
        start = time.perf_counter()
        result = trainer.fit_stream((c.X, c.y) for c in table.scan())
        wall = time.perf_counter() - start
        result.stats.native_kernel_calls = (
            native_scan.kernel_calls_total() - kernels_before
        )
        counters = {
            "scans": io.scans,
            "simulated_ms": CostModel().simulated_ms(io),
            "peak_memory_bytes": result.stats.memory.peak,
            "pages_read": io.pages_read,
            "records_read": io.records_read,
            "read_retries": io.read_retries,
        }
        return Trained(result.tree, wall, _with_tree(counters, result.tree), result)
    cls = CMPSBuilder if w.method == "cmp_s" else CMPBuilder
    builder = cls(config, tracer=tracer)
    start = time.perf_counter()
    result = builder.build(data)
    wall = time.perf_counter() - start
    stats = result.stats
    counters = {
        "scans": stats.io.scans,
        "simulated_ms": stats.simulated_ms,
        "peak_memory_bytes": stats.memory.peak,
        "pages_read": stats.io.pages_read,
        "records_read": stats.io.records_read,
        "read_retries": stats.io.read_retries,
    }
    return Trained(result.tree, wall, _with_tree(counters, result.tree), stats)


def _with_tree(counters: dict[str, float], tree: DecisionTree) -> dict[str, float]:
    counters["nodes"] = tree.n_nodes
    counters["levels"] = tree.depth
    return counters


def warmup(w: Workload, inputs: Inputs, seed: int) -> None:
    """A small build plus compile and predict, so lazy set-up happens here."""
    small = inputs.trains[0].take(np.arange(WARMUP_RECORDS))
    tree = train(w, small, seed).tree
    tree.compiled().predict(inputs.holdout.X[:64])


def setup(w: Workload, seed: int) -> tuple[Inputs, list[float]]:
    """Generate the inputs ``SETUP_REPEATS`` times; returns the last set."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = make_inputs(w, seed)
        warmup(w, inputs, seed)
        times.append(time.perf_counter() - start)
    return inputs, times  # type: ignore[return-value]


def accuracy(tree: DecisionTree, holdout: Dataset) -> float:
    return float(np.mean(tree.compiled().predict(holdout.X) == holdout.y))


def fingerprint_record(t: Trained, holdout: Dataset) -> dict[str, object]:
    """The reference record of one build: fingerprint plus exact counters."""
    return {
        "fingerprint": tree_fingerprint(t.tree),
        "scans": t.counters["scans"],
        "simulated_ms": t.counters["simulated_ms"],
        "peak_memory_bytes": t.counters["peak_memory_bytes"],
        "test_accuracy": accuracy(t.tree, holdout),
        "nodes": t.counters["nodes"],
    }


def check_build(
    t: Trained, holdout: Dataset, expected: dict[str, object] | None
) -> tuple[dict[str, object], list[str]]:
    """Output checks of one build; returns its record and the failures.

    The compiled tree must agree with the reference object walker on the
    whole holdout, and the fingerprint and exact counters must equal
    ``expected`` (the first build of the run, or the stored reference).
    """
    record = fingerprint_record(t, holdout)
    problems = []
    if not np.array_equal(
        t.tree.compiled().predict(holdout.X), t.tree.walk_predict(holdout.X)
    ):
        problems.append("compiled().predict differs from walk_predict")
    if expected is not None:
        for key, want in expected.items():
            if record[key] != want:
                problems.append(f"{key}: got {record[key]!r}, expected {want!r}")
    return record, problems

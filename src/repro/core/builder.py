"""Shared machinery for scan-based tree builders.

Every classifier in this repository is *level-synchronous*: it repeatedly
scans the (simulated) disk-resident training set, routing each record to the
frontier node it belongs to, and grows the tree between scans.  This module
holds the pieces common to the CMP family and the baselines:

* :class:`BuildResult` — what ``build()`` returns.
* :class:`TreeBuilder` — the abstract base: timing, pruning, validation.
* Zone arithmetic for preliminary splits around alive intervals
  (:func:`alive_runs`, :func:`zone_boundaries`).
* The ``nid`` record→slot map's I/O charge and slot remap.
* :func:`resolve_exact_threshold` — the "from approximate split to exact
  split" computation (§2.1): combine boundary ginis with the sorted records
  buffered from the alive intervals to find the globally best threshold —
  and :func:`resolve_single_level`, which applies it to a CMP-S-shaped
  pending split.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.config import BuilderConfig
from repro.core.checkpoint import CheckpointManager, build_fingerprint
from repro.core.gini import gini_partition
from repro.core.parallel import ScanEngine
from repro.core import native_scan
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.splits import NumericSplit
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.io.metrics import BuildStats, Stopwatch
from repro.io.retry import RetryingTable
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class BuildResult:
    """A trained tree plus the accounting of how it was built."""

    tree: DecisionTree
    stats: BuildStats

    @property
    def summary(self) -> dict[str, float]:
        """Flat stats dict (see :meth:`repro.io.metrics.BuildStats.summary`)."""
        return self.stats.summary()


class TreeBuilder(ABC):
    """Base class for all classifiers.

    Subclasses implement :meth:`_build` and receive a fresh
    :class:`~repro.io.metrics.BuildStats`; :meth:`build` wraps it with
    wall-clock timing and optional pruning.
    """

    #: Short name used in experiment tables.
    name: str = "base"

    #: True for builders that run PUBLIC(1) pruning *during* construction
    #: (the CMP family).  Builders without integrated support fall back to
    #: an equivalent post-hoc MDL pass when ``prune == "public"`` — PUBLIC
    #: never prunes anything the final MDL pass would keep, so the trees
    #: agree; only the construction work differs (which is PUBLIC's point).
    supports_integrated_pruning: bool = False

    def __init__(
        self,
        config: BuilderConfig | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        self.config = config if config is not None else BuilderConfig()
        #: Span recorder threaded through the build's table, scan engine
        #: and phase timers.  ``NULL_TRACER`` (the default) records
        #: nothing; tracing never changes the built tree.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def build(self, dataset: Dataset) -> BuildResult:
        """Train a decision tree on ``dataset``."""
        if dataset.n_records == 0:
            raise ValueError("cannot build a tree on an empty dataset")
        stats = BuildStats()
        stats.scan_workers = self.config.scan_workers
        stats.scan_backend = self._scan_engine().effective_backend
        stats.tracer = self.tracer
        kernel_calls_before = native_scan.kernel_calls_total()
        with Stopwatch(stats):
            with self.tracer.span(
                "build", builder=self.name, records=dataset.n_records
            ) as build_span:
                tree = self._build(dataset, stats)
                prune = self.config.prune
                if prune == "mdl" or (
                    prune == "public" and not self.supports_integrated_pruning
                ):
                    from repro.pruning.mdl import mdl_prune

                    with stats.phase("prune"):
                        mdl_prune(tree)
        stats.nodes_created = tree.n_nodes
        stats.leaves = tree.n_leaves
        stats.levels_built = tree.depth
        stats.native_kernel_calls = (
            native_scan.kernel_calls_total() - kernel_calls_before
        )
        # Stamp the final accounting onto the (already closed) root span
        # so `inspect-trace` can cross-check scan spans against it.
        build_span.annotate(
            scans=stats.io.scans,
            pages_read=stats.io.pages_read,
            levels=stats.levels_built,
            nodes=stats.nodes_created,
            wall_seconds=round(stats.wall_seconds, 6),
        )
        return BuildResult(tree=tree, stats=stats)

    @abstractmethod
    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        """Construct the tree, charging all I/O and memory to ``stats``."""

    def _open_table(self, dataset: Dataset, stats: BuildStats) -> RetryingTable:
        """Open the training table behind the retrying scan wrapper.

        Every builder reads training data through this handle, so all of
        them share the same recovery semantics: recoverable chunk-read
        faults are re-read up to ``config.scan_retries`` times with
        exponential backoff, charged to ``stats.io``.
        """
        table = dataset.as_paged(stats.io, self.config.page_records)
        return RetryingTable(
            table,
            self.config.scan_retries,
            self.config.retry_backoff_ms,
            tracer=self.tracer,
        )

    def _scan_engine(self) -> ScanEngine:
        """A scan engine sized to ``config.scan_workers`` (close after use)."""
        return ScanEngine(
            self.config.scan_workers,
            tracer=self.tracer,
            backend=self.config.scan_backend,
        )

    def _checkpointer(self, dataset: Dataset) -> CheckpointManager | None:
        """The build's checkpoint manager, or ``None`` when not configured."""
        if not self.config.checkpoint_path:
            return None
        return CheckpointManager(
            self.config.checkpoint_path,
            build_fingerprint(self.name, self.config, dataset),
        )


# ---------------------------------------------------------------------------
# Frontier bookkeeping shared by CMP-S / CMP-B
# ---------------------------------------------------------------------------


@dataclass
class PartState:
    """One preliminary subnode being populated during a scan."""

    slot: int
    n_classes: int
    hists: dict[int, ClassHistogram | CategoryHistogram] = field(default_factory=dict)
    class_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.class_counts is None:
            self.class_counts = np.zeros(self.n_classes, dtype=np.float64)

    def update(
        self, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Add a batch of records to every histogram of this part.

        ``weights`` are integer-valued per-record multiplicities
        (bootstrap draw counts); the weighted accumulation is exact and
        bit-identical to repeating each record ``weight`` times.
        Callers drop zero-weight records beforehand.
        """
        if len(y) == 0:
            return
        if weights is None:
            self.class_counts += np.bincount(y, minlength=self.n_classes)
        else:
            self.class_counts += np.bincount(
                y, weights=weights, minlength=self.n_classes
            )
        for attr, hist in self.hists.items():
            hist.update(X[:, attr], y, weights)

    def nbytes(self) -> int:
        """Memory footprint of all histograms."""
        return sum(h.nbytes() for h in self.hists.values())

    def clone_empty(self) -> "PartState":
        """Structural copy with zeroed counts (a worker's scan delta)."""
        return PartState(
            self.slot,
            self.n_classes,
            {j: h.clone_empty() for j, h in self.hists.items()},
        )

    def merge_from(self, other: "PartState") -> None:
        """Fold another part's counts into this one (exact, associative)."""
        self.class_counts += other.class_counts
        for j, hist in self.hists.items():
            hist.merge_from(other.hists[j])


def group_rows(keys: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Group row indices by key in ``[-1, n_groups)`` with one stable sort.

    Returns ``(order, bounds)`` — a counting sort's result: the rows keyed
    ``g`` are
    ``order[bounds[g]:bounds[g + 1]]``, in their original order.  Rows
    keyed ``-1`` belong to no group.
    """
    bounds = np.cumsum(np.bincount(keys + 1, minlength=n_groups + 1))
    return np.argsort(keys, kind="stable"), bounds


class SlotGroups:
    """Groups a chunk's rows by their ``nid`` slot (SLIQ's class list).

    ``slots`` are the open nodes' slots; row ``r`` of a chunk belongs to
    group ``slots.index(nid[r])``, or to none.
    """

    def __init__(self, slots: list[int]) -> None:
        self.n_groups = len(slots)
        # One entry past the largest slot maps every larger slot (and a
        # -1 slot) to "no group".
        self._index = np.full(max(slots, default=-1) + 2, -1, dtype=np.int64)
        self._index[slots] = np.arange(len(slots))

    def group(self, nid_slice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`group_rows` of a chunk's ``nid`` slice."""
        keys = self._index[np.minimum(nid_slice, len(self._index) - 1)]
        return group_rows(keys, self.n_groups)


class PartGroup:
    """The parts of one scan target, accumulated in one pass per attribute.

    Row ``r`` of a batch belongs to ``parts[dest[r]]``; rows with a
    negative ``dest`` belong to none.  Histogram parts (:class:`PartState`)
    get pointer tables over every part's histograms, built once, here, so
    a batch costs one native call per attribute however many parts it
    feeds.  Any other part (CMP-B's matrix parts) gets one ``update`` of
    its grouped rows.  Each part receives its rows in batch order, so the
    counts and extrema are bit-identical to calling ``update`` per part on
    its masked rows — which is exactly what the numpy fallback does.
    """

    def __init__(self, parts: list[Any]) -> None:
        self.parts = parts
        self.slots = np.array([p.slot for p in parts], dtype=np.int64)
        #: attribute -> (grouped kernel, its pointer table over the parts)
        self.tables: dict[int, tuple[Callable[..., bool], Any]] = {}
        if not parts or not isinstance(parts[0], PartState):
            return
        for j, hist in parts[0].hists.items():
            hists = [p.hists[j] for p in parts]
            if isinstance(hist, ClassHistogram):
                self.tables[j] = (
                    native_scan.hist_accum_grouped,
                    native_scan.part_table(
                        [h.counts for h in hists],
                        [h.edges for h in hists],  # type: ignore[union-attr]
                        [h.vmin for h in hists],  # type: ignore[union-attr]
                        [h.vmax for h in hists],  # type: ignore[union-attr]
                    ),
                )
            else:
                self.tables[j] = (
                    native_scan.cat_accum_grouped,
                    native_scan.part_table([h.counts for h in hists]),
                )

    def update(
        self,
        X: np.ndarray,
        y: np.ndarray,
        dest: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Add each row of ``(X, y)`` to part ``dest[r]`` (int64).

        Labels must lie in ``range(n_classes)``; ``weights`` follow
        :meth:`PartState.update`.
        """
        if not self.parts:
            return
        routed = dest >= 0
        fallback: list[int] = []
        if self.tables:
            c = self.parts[0].n_classes
            class_counts = np.bincount(
                dest[routed] * c + y[routed],
                weights=None if weights is None else weights[routed],
                minlength=len(self.parts) * c,
            ).reshape(len(self.parts), c)
            for k in np.flatnonzero(class_counts.any(axis=1)):
                self.parts[k].class_counts += class_counts[k]
            for j, (accum, table) in self.tables.items():
                if not accum(X[:, j], y, dest, table, weights):
                    fallback.append(j)
            if not fallback:
                return
        order, bounds = group_rows(np.where(routed, dest, -1), len(self.parts))
        for k, part in enumerate(self.parts):
            rows = order[bounds[k] : bounds[k + 1]]
            if len(rows) == 0:
                continue
            w = None if weights is None else weights[rows]
            if not self.tables:
                part.update(X[rows], y[rows], w)
            for j in fallback:
                part.hists[j].update(X[rows, j], y[rows], w)


def distribute(
    parts: list[Any],
    X: np.ndarray,
    y: np.ndarray,
    rids: np.ndarray,
    dest: np.ndarray,
    nid: np.ndarray,
) -> None:
    """Add buffered records to ``parts[dest[r]]`` and move them there in ``nid``.

    The post-scan half of routing: a resolved split hands its buffered
    records (record ids ``rids``) to the parts they now belong to through
    the same grouped update the scan uses.  Rows with a negative ``dest``
    stay where they are.
    """
    group = PartGroup(parts)
    group.update(X, y, dest)
    routed = dest >= 0
    nid[rids[routed]] = group.slots[dest[routed]]


def make_part_hists(
    schema: Schema, child_edges: dict[int, np.ndarray]
) -> dict[int, ClassHistogram | CategoryHistogram]:
    """Fresh histograms for one preliminary part.

    Continuous attributes use the per-split grid in ``child_edges``;
    categorical attributes get one bin per category.
    """
    hists: dict[int, ClassHistogram | CategoryHistogram] = {}
    for j, a in enumerate(schema.attributes):
        if a.is_continuous:
            hists[j] = ClassHistogram(child_edges[j], schema.n_classes)
        else:
            hists[j] = CategoryHistogram(a.cardinality, schema.n_classes)
    return hists


@dataclass
class RecordBuffer:
    """Alive-interval record buffer for one pending split.

    ``budget_bytes`` bounds the buffered bytes (0 = unbounded).  Crossing
    the budget *drops the whole buffer* and latches ``overflowed`` — the
    builder then falls back to re-collecting the records with an extra
    scan (the CLOUDS-style degradation: correctness preserved, one scan
    charged) instead of growing memory without bound.
    """

    X_chunks: list[np.ndarray] = field(default_factory=list)
    y_chunks: list[np.ndarray] = field(default_factory=list)
    rid_chunks: list[np.ndarray] = field(default_factory=list)
    n_records: int = 0
    budget_bytes: int = 0
    overflowed: bool = False

    def append(self, X: np.ndarray, y: np.ndarray, rids: np.ndarray) -> None:
        """Stash a batch of records (dropped once over budget)."""
        if len(y) == 0:
            return
        self.n_records += len(y)
        if self.overflowed:
            return
        self.X_chunks.append(np.array(X, copy=True))
        self.y_chunks.append(np.array(y, copy=True))
        self.rid_chunks.append(np.array(rids, copy=True))
        if self.budget_bytes and self.nbytes() > self.budget_bytes:
            self.X_chunks.clear()
            self.y_chunks.clear()
            self.rid_chunks.clear()
            self.overflowed = True

    def extend_from(self, other: "RecordBuffer") -> None:
        """Append another buffer's batches (worker-delta merge).

        Worker deltas carry this buffer's own ``budget_bytes``, so the
        merged buffer overflows exactly when a serial pass would have:
        either some worker already crossed the budget on its own, or the
        concatenated total does here.
        """
        self.n_records += other.n_records
        if self.overflowed:
            return
        if other.overflowed:
            self.X_chunks.clear()
            self.y_chunks.clear()
            self.rid_chunks.clear()
            self.overflowed = True
            return
        self.X_chunks.extend(other.X_chunks)
        self.y_chunks.extend(other.y_chunks)
        self.rid_chunks.extend(other.rid_chunks)
        if self.budget_bytes and self.nbytes() > self.budget_bytes:
            self.X_chunks.clear()
            self.y_chunks.clear()
            self.rid_chunks.clear()
            self.overflowed = True

    def concatenated(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (X, y, rids) as single arrays (possibly empty)."""
        if not self.y_chunks:
            p = self.X_chunks[0].shape[1] if self.X_chunks else 0
            return (
                np.empty((0, p)),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(self.X_chunks),
            np.concatenate(self.y_chunks),
            np.concatenate(self.rid_chunks),
        )

    def nbytes(self) -> int:
        """Approximate memory footprint of the buffered records."""
        return sum(c.nbytes for c in self.X_chunks) + sum(
            c.nbytes + 8 * len(c) for c in self.y_chunks
        )


def adaptive_intervals(configured: int, n_records: float) -> int:
    """Grid size for a child node: never more than one interval per ~20
    records, floored at 4.

    The paper uses a fixed 100-120 intervals, but its nodes hold hundreds
    of thousands of records; deep nodes in a scaled-down run would waste
    memory (and, for CMP-B, quadratically so) on mostly-empty grids.
    Shrinking the grid with the node keeps per-interval populations
    comparable to the paper's regime; exactness is unaffected because
    alive-interval buffering resolves thresholds from the records
    themselves.
    """
    return int(max(4, min(configured, n_records // 20 + 1)))


# ---------------------------------------------------------------------------
# Zone arithmetic
# ---------------------------------------------------------------------------


def zone_boundaries(alive_bounds: list[tuple[float, float]]) -> np.ndarray:
    """Flattened zone boundary values for a set of alive intervals.

    ``A`` disjoint alive intervals ``(lo_i, hi_i]`` cut the attribute axis
    into ``2A + 1`` zones: region 0, alive 0, region 1, alive 1, …,
    region ``A``.  ``classify_zones`` maps values to zone indices; even
    indices are regions (preliminary subnodes), odd indices alive intervals
    (buffered records).
    """
    flat: list[float] = []
    prev_hi = -np.inf
    for lo, hi in alive_bounds:
        if not lo < hi:
            raise ValueError(f"alive interval ({lo}, {hi}] is empty")
        if lo < prev_hi:
            raise ValueError("alive intervals must be disjoint and sorted")
        flat.extend((lo, hi))
        prev_hi = hi
    return np.asarray(flat, dtype=np.float64)


def classify_zones(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Zone index per value (see :func:`zone_boundaries`)."""
    return np.searchsorted(boundaries, values, side="left")


def merge_contiguous(indices: list[int]) -> list[tuple[int, int]]:
    """Collapse sorted interval indices into inclusive contiguous runs."""
    runs: list[tuple[int, int]] = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs


def alive_runs(
    hist: ClassHistogram, alive: list[int]
) -> tuple[list[tuple[int, int]], list[tuple[float, float]], list[np.ndarray]]:
    """Contiguous alive runs of ``hist`` with their value bounds.

    Returns the inclusive interval-index runs, each run's value range
    ``(lo, hi]`` (unbounded at the grid's ends) and the cumulative class
    counts strictly below it — the inputs of
    :func:`zone_boundaries` and :func:`resolve_exact_threshold`.
    """
    runs = merge_contiguous(alive)
    q = hist.n_intervals
    bounds: list[tuple[float, float]] = []
    cum_below: list[np.ndarray] = []
    for i0, i1 in runs:
        lo = -np.inf if i0 == 0 else float(hist.edges[i0 - 1])
        hi = np.inf if i1 == q - 1 else float(hist.edges[i1])
        bounds.append((lo, hi))
        cum_below.append(hist.cum_below(i0))
    return runs, bounds, cum_below


# ---------------------------------------------------------------------------
# Record-to-slot map
# ---------------------------------------------------------------------------


def charge_nid(stats: BuildStats, n: int) -> None:
    """Charge one scan's swap of the ``nid`` array (paper: kept on disk)."""
    stats.io.count_aux_read(n)
    stats.io.count_aux_write(n)


def apply_remap(nid: np.ndarray, remap: dict[int, int]) -> None:
    """Rewrite ``nid`` slots in place through ``remap``.

    The lookup table is shifted by one so a ``-1`` entry (a record that
    belongs to no node, e.g. one a bootstrap member never drew) stays
    ``-1``.
    """
    upper = max(int(nid.max()), max(remap))
    lookup = np.arange(-1, upper + 1, dtype=np.int64)
    for src, dst in remap.items():
        lookup[src + 1] = dst
    nid[:] = lookup[nid + 1]


# ---------------------------------------------------------------------------
# Exact resolution of an estimated split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedThreshold:
    """Outcome of :func:`resolve_exact_threshold`."""

    threshold: float
    gini: float
    #: True when the winning point came from inside an alive interval.
    from_buffer: bool
    #: Candidate thresholds examined (best boundary + distinct buffered
    #: values); feeds the MDL split-encoding value term.
    n_candidates: int = 1


def cut_candidates(
    values: np.ndarray,
    labels: np.ndarray,
    base: np.ndarray,
    include_last: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate thresholds inside a run of buffered records.

    Sorts the records by value (stably) and cuts after the last record of
    each distinct value — after the final record too when
    ``include_last``.  Returns the cut values and, per cut, the class
    counts at or below it: ``base`` (the counts below the run) plus the
    sorted prefix's one-hot cumulative sum.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    onehot = np.zeros((len(v), len(base)), dtype=np.float64)
    onehot[np.arange(len(v)), labels[order]] = 1.0
    cum = np.cumsum(onehot, axis=0) + base[None, :]
    cuts = np.nonzero(v[:-1] < v[1:])[0]
    if include_last and len(v):
        cuts = np.append(cuts, len(v) - 1)
    return v[cuts], cum[cuts]


def candidate_ginis(left: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Partition gini of each candidate's ``(k, c)`` left counts.

    A candidate that leaves a side empty is invalid and scores ``inf``,
    so ``argmin`` lands on a finite gini whenever some candidate is valid.
    """
    nl = left.sum(axis=1)
    valid = (nl > 0) & (nl < totals.sum())
    ginis = np.asarray(gini_partition(left, totals[None, :] - left), dtype=np.float64)
    return np.where(valid, ginis, np.inf)


def resolve_exact_threshold(
    totals: np.ndarray,
    best_boundary_value: float | None,
    best_boundary_gini: float,
    alive_bounds: list[tuple[float, float]],
    alive_cum_below: list[np.ndarray],
    buf_values: np.ndarray,
    buf_labels: np.ndarray,
) -> ResolvedThreshold | None:
    """Find the exact best threshold for an estimated split (§2.1).

    Combines the node's best interval-boundary gini (already exact — and,
    by the alive-selection rule, always the edge of a preliminary region)
    with candidate points inside the alive intervals, reconstructed from
    the buffered records: for a sorted buffered prefix ending at value
    ``v``, the left side of the split ``a <= v`` is the cumulative class
    count below the interval plus the prefix's class counts.  Boundaries
    other than the best one can never win (their gini is >= the best
    boundary's by definition), so they need not be candidates — which also
    guarantees the resolved threshold never straddles a preliminary
    subnode.

    Parameters
    ----------
    totals:
        ``(c,)`` class counts of the node.
    best_boundary_value / best_boundary_gini:
        The node's best non-degenerate boundary (``None`` / ``inf`` when
        every boundary is degenerate).
    alive_bounds / alive_cum_below:
        Value bounds and below-interval cumulative class counts for each
        alive interval, in order.
    buf_values / buf_labels:
        Attribute values and labels of all buffered records of the node.

    Returns ``None`` when no valid split exists at all.
    """
    totals = np.asarray(totals, dtype=np.float64)
    best_gini = np.inf
    best_thr = np.nan
    best_from_buffer = False
    n_candidates = 0
    if best_boundary_value is not None and np.isfinite(best_boundary_gini):
        best_gini = float(best_boundary_gini)
        best_thr = float(best_boundary_value)
        n_candidates = 1

    for (lo, hi), cum_below in zip(alive_bounds, alive_cum_below):
        in_interval = (buf_values > lo) & (buf_values <= hi)
        # The final record's threshold equals the interval's upper-boundary
        # split, which the boundary ginis already cover (when valid).
        cuts, left = cut_candidates(
            buf_values[in_interval], buf_labels[in_interval], cum_below
        )
        if len(cuts) == 0:
            continue
        n_candidates += len(cuts)
        ginis = candidate_ginis(left, totals)
        t = int(np.argmin(ginis))
        if ginis[t] < best_gini - 1e-15:
            best_gini = float(ginis[t])
            best_thr = float(cuts[t])
            best_from_buffer = True
    if not np.isfinite(best_gini):
        return None
    return ResolvedThreshold(best_thr, best_gini, best_from_buffer, n_candidates)


def resolve_single_level(
    p: Any,
    nid: np.ndarray,
    remap: dict[int, int],
    next_slot: Callable[[], int],
    account: TreeAccount,
    stats: BuildStats,
) -> list[tuple[Node, Any]]:
    """Materialize a single-level pending split (Figure 4, lines 11-13).

    An exact split just turns its two parts into the node's children.  An
    estimated one first resolves its threshold from the buffered alive
    records, merges the preliminary parts into two fresh children on
    either side of it and routes the buffered records after them.  A
    split that leaves a side empty (the deciding histogram can be
    approximate at its edges) is dropped: the node stays a leaf and its
    slots fold back into the parent's.  Returns each child with the part
    it is decided from.
    """
    if p.exact_split is not None:
        split = p.exact_split
        left, right = p.parts
    else:
        Xb, yb, rids = p.buffer.concatenated()
        buf_vals = Xb[:, p.attr] if len(yb) else np.empty(0)
        res = resolve_exact_threshold(
            p.totals,
            p.best_boundary_value,
            p.best_boundary_gini,
            p.alive_bounds,
            p.alive_cum_below,
            buf_vals,
            yb,
        )
        if res is None:
            for part in p.parts:
                remap[part.slot] = p.parent_slot
            return []
        if res.from_buffer:
            stats.splits_resolved_exactly += 1
        split = NumericSplit(p.attr, res.threshold, n_candidates=res.n_candidates)
        left, right = p.parts[0].clone_empty(), p.parts[0].clone_empty()
        left.slot, right.slot = next_slot(), next_slot()
        # Part r holds the values below alive interval r; the last part is
        # unbounded above.
        uppers = [lo for lo, __ in p.alive_bounds] + [np.inf]
        for part, upper in zip(p.parts, uppers):
            target = left if upper <= res.threshold else right
            target.merge_from(part)
            remap[part.slot] = target.slot
        if len(yb):
            dest = np.where(buf_vals <= res.threshold, 0, 1).astype(np.int64)
            distribute([left, right], Xb, yb, rids, dest, nid)

    if left.class_counts.sum() == 0 or right.class_counts.sum() == 0:
        for part in (*p.parts, left, right):
            remap[part.slot] = p.parent_slot
        return []
    node = p.node
    node.split = split
    node.left = account.new_node(node.depth + 1, left.class_counts.copy())
    node.right = account.new_node(node.depth + 1, right.class_counts.copy())
    return [(node.left, left), (node.right, right)]


__all__ = [
    "BuildResult",
    "TreeBuilder",
    "PartState",
    "PartGroup",
    "SlotGroups",
    "RecordBuffer",
    "ResolvedThreshold",
    "alive_runs",
    "apply_remap",
    "candidate_ginis",
    "charge_nid",
    "cut_candidates",
    "distribute",
    "make_part_hists",
    "merge_contiguous",
    "zone_boundaries",
    "classify_zones",
    "group_rows",
    "resolve_exact_threshold",
    "resolve_single_level",
    "TreeAccount",
    "Node",
    "DecisionTree",
]

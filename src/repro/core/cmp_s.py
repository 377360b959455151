"""CMP-S: the single-variable CMP classifier (Figure 4 of the paper).

CMP-S is "a variation of the CLOUDS algorithm specialized to reduce disk
access up to 50%".  Per tree level it performs exactly **one** scan of the
training set, during which it simultaneously:

1. routes each record from its (pending) parent node into the preliminary
   subnodes created by the parent's *estimated* split, updating the fresh
   per-subnode histograms (Figure 4, lines 05-09);
2. sets aside records that fall into an alive interval of the parent's
   split in an in-memory buffer (line 07);

and after the scan:

3. sorts each buffer to resolve the parent's **exact** split threshold and
   merges the preliminary subnodes accordingly (lines 11-13, Figure 3);
4. analyzes the now-complete child histograms, picks each child's splitting
   attribute, estimates its split and its alive intervals (lines 15-19).

Bookkeeping follows the paper: the training set is never sorted, copied or
modified; a ``nid`` array maps each record to its node (slot) and is charged
as disk-swapped auxiliary I/O.  Two extra scans precede the loop: a
quantiling pass that fixes the root interval grid (charged to CLOUDS
identically, see DESIGN.md §3) and the root-histogram pass of line 03.
Child grids are re-quantiled from the parent's histograms without touching
the data (:func:`repro.data.discretize.edges_from_histogram`).

The scans, routing, checkpoints and memory ledger belong to
:class:`~repro.core.level_driver.LevelDriver`; this module supplies the
pending split, which says where its records go (:meth:`PendingSplit.route`),
and the driver's strategy seams — per-attribute histograms as the root
summary, resolution (steps 1-3) and the decision (step 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.builder import (
    PartState,
    RecordBuffer,
    TreeBuilder,
    adaptive_intervals,
    alive_runs,
    classify_zones,
    make_part_hists,
    resolve_single_level,
    zone_boundaries,
)
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.intervals import analyze_attributes, choose_split_attribute
from repro.core.level_driver import LevelDriver
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import edges_from_histogram
from repro.data.schema import Schema
from repro.io.metrics import BuildStats

Hists = dict[int, ClassHistogram | CategoryHistogram]


@dataclass
class PendingSplit:
    """A split decided (possibly only estimated) but not yet materialized.

    ``exact_split`` is set for splits known exactly at decision time
    (categorical subsets, boundary splits with no alive interval); then the
    pending merely routes records into two parts on the next scan.
    Otherwise the split is *estimated*: records are routed into
    ``len(alive_bounds) + 1`` preliminary parts, alive-interval records are
    buffered, and the threshold is resolved after the scan.
    """

    node: Node
    parent_slot: int
    exact_split: Split | None = None
    attr: int = -1
    zone_bounds: np.ndarray = field(default_factory=lambda: np.empty(0))
    alive_bounds: list[tuple[float, float]] = field(default_factory=list)
    alive_cum_below: list[np.ndarray] = field(default_factory=list)
    totals: np.ndarray = field(default_factory=lambda: np.empty(0))
    best_boundary_value: float | None = None
    best_boundary_gini: float = np.inf
    parts: list[PartState] = field(default_factory=list)
    buffer: RecordBuffer = field(default_factory=RecordBuffer)

    def scan_delta(self) -> "PendingSplit":
        """Structural clone with empty accumulators (one worker's delta).

        Decision-time fields (split, zones, part slots) are shared
        read-only; parts and buffer are fresh so each worker thread
        accumulates privately during a parallel scan.
        """
        return replace(
            self,
            parts=[part.clone_empty() for part in self.parts],
            buffer=RecordBuffer(budget_bytes=self.buffer.budget_bytes),
        )

    def merge_scan_delta(self, delta: "PendingSplit") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        for part, dpart in zip(self.parts, delta.parts):
            part.merge_from(dpart)
        self.buffer.extend_from(delta.buffer)

    def all_parts(self) -> list[PartState]:
        """Every preliminary part, in the order :meth:`route` numbers them."""
        return self.parts

    def parts_nbytes(self) -> int:
        """Bytes of the preliminary parts' summaries."""
        return sum(part.nbytes() for part in self.all_parts())

    def delta_nbytes(self) -> int:
        """Bytes one fresh scan delta occupies (buffers start empty)."""
        return self.parts_nbytes()

    def buffer_nbytes(self) -> int:
        """Bytes of alive-interval records buffered by the last scan."""
        return self.buffer.nbytes()

    def routed_values(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The values of rows ``rows`` that the estimated split's zones cut."""
        return X[rows, self.attr]

    def route(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        rows: np.ndarray,
        dest: np.ndarray,
        base: int,
        weights: np.ndarray | None = None,
    ) -> None:
        """Send rows ``rows`` of a batch (record ids ``rids``) to their parts.

        Sets ``dest[rows]`` to ``base`` plus the index of the row's part in
        :meth:`all_parts`, or to ``-1`` for a row in an alive interval,
        which goes to the buffer instead.  Rows arrive in batch order, so
        the buffer fills in chunk order.  ``weights`` are per-record
        multiplicities: a weighted alive row is buffered ``weight`` times.
        """
        if self.exact_split is not None:
            dest[rows] = np.where(self.exact_split.goes_left(X[rows]), base, base + 1)
            return
        zones = classify_zones(self.routed_values(X, rows), self.zone_bounds)
        alive = (zones & 1) == 1
        if alive.any():
            kept = rows[alive]
            if weights is not None:
                kept = np.repeat(kept, weights[kept].astype(np.int64))
            self.buffer.append(X[kept], y[kept], rids[kept])
        dest[rows] = np.where(alive, -1, base + (zones >> 1))


class CMPSBuilder(TreeBuilder):
    """The CMP-S classifier."""

    name = "CMP-S"
    supports_integrated_pruning = True

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        return LevelDriver.run(self, dataset, stats)

    def _root_summary(
        self, schema: Schema, root_edges: dict[int, np.ndarray], rng: np.random.Generator
    ) -> PartState:
        return PartState(0, schema.n_classes, make_part_hists(schema, root_edges))

    # -- decisions (Figure 4, lines 15-19) ------------------------------------

    def _decide(
        self,
        node: Node,
        part: PartState,
        next_slot: Callable[[], int],
        schema: Schema,
        stats: BuildStats,
    ) -> PendingSplit | None:
        """Pick the node's split (estimated or exact) or make it a leaf."""
        cfg = self.config
        slot, hists = part.slot, part.hists
        if (
            node.n_records < cfg.min_records
            or node.gini <= cfg.min_gini
            or node.depth >= cfg.max_depth
        ):
            return None
        cont = schema.continuous_indices()
        analyses = analyze_attributes((j, hists[j]) for j in cont)  # type: ignore[misc]
        winner = choose_split_attribute(analyses, cfg.max_alive)
        cont_score = winner.score if winner is not None else np.inf

        best_cat_gini = np.inf
        best_cat: tuple[int, np.ndarray] | None = None
        for j in schema.categorical_indices():
            hist = hists[j]
            assert isinstance(hist, CategoryHistogram)
            try:
                mask, g = hist.best_subset_split()
            except ValueError:
                continue
            if g < best_cat_gini:
                best_cat_gini, best_cat = g, (j, mask)

        if min(cont_score, best_cat_gini) >= node.gini - cfg.min_gain:
            return None

        if best_cat is not None and best_cat_gini < cont_score:
            j, mask = best_cat
            split: Split = CategoricalSplit(j, tuple(bool(b) for b in mask))
            p = PendingSplit(node=node, parent_slot=slot, exact_split=split)
        elif winner is not None and not winner.alive:
            split = NumericSplit(
                winner.attr,
                float(winner.edges[winner.best_boundary]),
                n_candidates=max(1, len(winner.edges)),
            )
            p = PendingSplit(node=node, parent_slot=slot, exact_split=split)
        else:
            # Estimated split around the alive intervals.
            assert winner is not None
            hist = hists[winner.attr]
            assert isinstance(hist, ClassHistogram)
            __, alive_bounds, alive_cum_below = alive_runs(hist, winner.alive)
            p = PendingSplit(
                node=node,
                parent_slot=slot,
                attr=winner.attr,
                zone_bounds=zone_boundaries(alive_bounds),
                alive_bounds=alive_bounds,
                alive_cum_below=alive_cum_below,
                totals=hist.totals(),
                best_boundary_value=(
                    float(winner.edges[winner.best_boundary])
                    if winner.has_boundaries
                    else None
                ),
                best_boundary_gini=winner.gini_min,
                buffer=RecordBuffer(budget_bytes=cfg.buffer_budget_bytes),
            )
        child_edges = self._refined_edges(hists, cont, node.n_records)
        n_parts = 2 if p.exact_split is not None else len(p.alive_bounds) + 1
        p.parts = [
            PartState(next_slot(), schema.n_classes, make_part_hists(schema, child_edges))
            for _ in range(n_parts)
        ]
        return p

    def _refined_edges(
        self, hists: Hists, cont: list[int], n_records: float
    ) -> dict[int, np.ndarray]:
        """Re-quantile each continuous attribute from the node's histogram."""
        q = adaptive_intervals(self.config.n_intervals, n_records)
        out: dict[int, np.ndarray] = {}
        for j in cont:
            hist = hists[j]
            assert isinstance(hist, ClassHistogram)
            out[j] = edges_from_histogram(
                hist.edges, hist.counts.sum(axis=1), q, hist.vmin, hist.vmax
            )
        return out

    # -- resolution (Figure 4, lines 11-13) -----------------------------------

    def _resolve(
        self,
        p: PendingSplit,
        nid: np.ndarray,
        remap: dict[int, int],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[tuple[Node, PartState]]:
        """Materialize a pending split; returns the children to decide on."""
        return resolve_single_level(p, nid, remap, next_slot, account, stats)

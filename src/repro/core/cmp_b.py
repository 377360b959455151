"""CMP-B: bivariate CMP with split prediction (§2.2, Figure 10).

CMP-B replaces CMP-S's per-attribute histograms with the
:class:`~repro.core.matrix.MatrixSet` of bivariate histograms sharing a
predicted X axis.  The payoff (Figure 6): when a node's split lands on the
X axis **and** has at most one alive interval, the two subnodes' histograms
are sub-matrices of the parent's — so a *second* split can be chosen for
each subnode immediately, and the tree grows two levels in a single scan.
The paper measures CMP-B "almost 40% faster than CMP-S" from this.

Mechanics on top of CMP-S:

* **Prediction** (Figure 7, :mod:`repro.core.predict`): each subnode's
  matrix X axis is the attribute most likely to win its future split —
  exact marginal ginis from sub-matrices where available, parent-level
  ginis otherwise.  Success is tracked in ``BuildStats.predictions_*``
  (the paper reports ~80% on Function 2).
* **Two-level pendings**: a first (possibly estimated) split on the X axis
  with per-side second splits, each with its own alive interval, buffer
  and preliminary parts — the cross-shaped buffering of Figure 8.  Both
  levels resolve exactly from buffered records during the next scan.
* Second splits are chosen from the side sub-matrices only (categorical
  attributes have no per-side histograms, so they compete only for first
  splits), and their alive intervals are capped at one, which keeps every
  preliminary part attributable to a unique grandchild.
* When the first split lands on a Y axis, on a categorical attribute, or
  has two or more alive intervals, the pending degrades gracefully to the
  CMP-S single-level behaviour (with matrices instead of histograms).

The scans themselves run in :class:`~repro.core.level_driver.LevelDriver`,
shared with CMP-S; this module supplies its strategy seams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.builder import (
    RecordBuffer,
    TreeBuilder,
    adaptive_intervals,
    alive_runs,
    candidate_ginis,
    classify_zones,
    cut_candidates,
    distribute,
    merge_contiguous,
    resolve_exact_threshold,
    resolve_single_level,
    zone_boundaries,
)
from repro.core.cmp_s import PendingSplit
from repro.core.gini import gini
from repro.core.histogram import ClassHistogram
from repro.core.intervals import (
    AttributeAnalysis,
    analyze_attributes,
    choose_split_attribute,
    select_alive_intervals,
)
from repro.core.level_driver import LevelDriver
from repro.core.matrix import MatrixSet
from repro.core.predict import predict_split
from repro.core.splits import CategoricalSplit, LinearSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import edges_from_histogram
from repro.data.schema import Schema
from repro.io.metrics import BuildStats

_EPS = 1e-12


@dataclass
class BPart:
    """A preliminary subnode accumulating a MatrixSet during a scan."""

    slot: int
    mset: MatrixSet
    predicted: bool

    @property
    def class_counts(self) -> np.ndarray:
        """Class counts of the records routed into the part."""
        assert self.mset.class_counts is not None
        return self.mset.class_counts

    def update(
        self, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Add a batch of records to the part's matrices (unweighted only)."""
        if weights is not None:
            raise ValueError("matrix parts accumulate unweighted records only")
        self.mset.update(X, y)

    def nbytes(self) -> int:
        """Memory footprint of the part's matrices."""
        return self.mset.nbytes()

    def clone_empty(self) -> "BPart":
        """Structural copy with zeroed matrices (a worker's scan delta)."""
        return BPart(self.slot, self.mset.clone_empty(), self.predicted)

    def merge_from(self, other: "BPart") -> None:
        """Fold another part's counts into this one (exact, associative)."""
        self.mset.merge_from(other.mset)


@dataclass
class SecondSplit:
    """Per-side second split of a two-level pending.

    Either ``exact_split`` is set (boundary split, no alive interval) or
    the split is estimated around a single alive run ``(alive_lo,
    alive_hi]`` of the side's grid along ``attr``; ``aux_hist`` (on the
    parent-grid edges of ``attr``) accumulates the side's non-buffered
    records so the exact threshold can be resolved without re-deriving the
    side's marginals.
    """

    attr: int
    parts: list[BPart]
    exact_split: NumericSplit | None = None
    alive_lo: float = np.nan
    alive_hi: float = np.nan
    run_i0: int = -1
    run_i1: int = -1
    aux_hist: ClassHistogram | None = None
    buffer: RecordBuffer = field(default_factory=RecordBuffer)

    def scan_delta(self) -> "SecondSplit":
        """Structural clone with empty accumulators (worker-private)."""
        return replace(
            self,
            parts=[part.clone_empty() for part in self.parts],
            aux_hist=(
                self.aux_hist.clone_empty() if self.aux_hist is not None else None
            ),
            buffer=RecordBuffer(budget_bytes=self.buffer.budget_bytes),
        )

    def merge_scan_delta(self, delta: "SecondSplit") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        for part, dpart in zip(self.parts, delta.parts):
            part.merge_from(dpart)
        if self.aux_hist is not None:
            assert delta.aux_hist is not None
            self.aux_hist.merge_from(delta.aux_hist)
        self.buffer.extend_from(delta.buffer)

    def route(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        rows: np.ndarray,
        dest: np.ndarray,
        base: int,
    ) -> None:
        """:meth:`PendingSplit.route` for the side's rows, one level down.

        An estimated split buffers the rows inside its alive run and adds
        the others to ``aux_hist``.
        """
        if self.exact_split is not None:
            dest[rows] = np.where(self.exact_split.goes_left(X[rows]), base, base + 1)
            return
        v = X[rows, self.attr]
        zones = classify_zones(v, np.array([self.alive_lo, self.alive_hi]))
        buffered = zones == 1
        if buffered.any():
            kept = rows[buffered]
            self.buffer.append(X[kept], y[kept], rids[kept])
        assert self.aux_hist is not None
        self.aux_hist.update(v[~buffered], y[rows[~buffered]])
        dest[rows] = np.where(buffered, -1, base + (zones >> 1))


@dataclass
class Side:
    """One half of a two-level pending's first split."""

    second: SecondSplit | None
    part: BPart | None  # the side's single part when ``second`` is None

    def parts(self) -> list[BPart]:
        """All preliminary parts of this side."""
        if self.second is not None:
            return self.second.parts
        assert self.part is not None
        return [self.part]

    def scan_delta(self) -> "Side":
        """Structural clone with empty accumulators (worker-private)."""
        return Side(
            second=self.second.scan_delta() if self.second is not None else None,
            part=self.part.clone_empty() if self.part is not None else None,
        )

    def merge_scan_delta(self, delta: "Side") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        if self.second is not None:
            assert delta.second is not None
            self.second.merge_scan_delta(delta.second)
        if self.part is not None:
            assert delta.part is not None
            self.part.merge_from(delta.part)

    def route(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        rows: np.ndarray,
        dest: np.ndarray,
        base: int,
    ) -> None:
        """Send the side's rows to its part, or through its second split."""
        if len(rows) == 0:
            return
        if self.second is None:
            dest[rows] = base
        else:
            self.second.route(X, y, rids, rows, dest, base)


@dataclass
class BPending(PendingSplit):
    """A CMP-B pending split over matrix parts.

    The single-level path is :class:`PendingSplit`'s.  Two more: a
    two-level pending (``two_level``) splits once on ``attr`` — exactly
    at ``first_exact_threshold`` or estimated around one alive run — and
    each of its two ``sides`` may split again; a linear pending (full
    CMP) cuts a projection band ``linear.project`` instead of ``attr``.
    """

    two_level: bool = False
    first_exact_threshold: float | None = None
    #: Candidate-threshold count behind ``first_exact_threshold`` (the MDL
    #: split-encoding value term).
    first_exact_candidates: int = 1
    sides: list[Side] = field(default_factory=list)
    linear: "LinearSplit | None" = None

    def all_parts(self) -> list[BPart]:
        """Every preliminary part; a two-level pending's are its sides'."""
        if self.two_level:
            return [p for s in self.sides for p in s.parts()]
        return self.parts

    def scan_delta(self) -> "BPending":
        """Structural clone with empty accumulators, sides included."""
        delta = super().scan_delta()
        delta.sides = [side.scan_delta() for side in self.sides]
        return delta  # type: ignore[return-value]

    def merge_scan_delta(self, delta: "BPending") -> None:  # type: ignore[override]
        """Fold one worker's delta in; callers merge in chunk order."""
        super().merge_scan_delta(delta)
        for side, dside in zip(self.sides, delta.sides):
            side.merge_scan_delta(dside)

    def delta_nbytes(self) -> int:
        """Bytes one fresh scan delta occupies, second-level histograms too."""
        total = super().delta_nbytes()
        for side in self.sides:
            if side.second is not None and side.second.aux_hist is not None:
                total += side.second.aux_hist.nbytes()
        return total

    def buffer_nbytes(self) -> int:
        """Bytes of records buffered by the last scan, second levels included."""
        return super().buffer_nbytes() + sum(
            s.second.buffer.nbytes() for s in self.sides if s.second is not None
        )

    def routed_values(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The linear projection of the rows, or their ``attr`` values."""
        if self.linear is not None:
            return self.linear.project(X[rows])
        return super().routed_values(X, rows)

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
        """:meth:`PendingSplit.route`, plus the two-level path.

        A two-level pending buffers the rows inside its first split's
        alive run and sends the rest to a side.
        """
        if not self.two_level:
            super().route(X, y, rids, rows, dest, base, weights)
            return
        xv = X[rows, self.attr]
        if self.first_exact_threshold is not None:
            upper = xv > self.first_exact_threshold
        else:
            zones = classify_zones(xv, self.zone_bounds)
            buffered = zones == 1
            if buffered.any():
                kept = rows[buffered]
                self.buffer.append(X[kept], y[kept], rids[kept])
                rows, zones = rows[~buffered], zones[~buffered]
            upper = zones == 2
        self.route_sides(X, y, rids, rows, upper, dest, base)

    def route_sides(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        rows: np.ndarray,
        upper: np.ndarray,
        dest: np.ndarray,
        base: int,
    ) -> None:
        """Send ``rows`` to the lower side, or to the upper one where ``upper``."""
        for side, side_rows in zip(self.sides, (rows[~upper], rows[upper])):
            side.route(X, y, rids, side_rows, dest, base)
            base += len(side.parts())


#: A resolved child node and the part whose summary it is decided from.
Child = tuple[Node, BPart]


class CMPBBuilder(TreeBuilder):
    """The CMP-B classifier."""

    name = "CMP-B"
    supports_integrated_pruning = True

    #: Alive-interval cap for second-level splits (Figure 8 uses one).
    SECOND_MAX_ALIVE = 1

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        if len(dataset.schema.continuous_indices()) < 2:
            raise ValueError("CMP-B needs at least two continuous attributes")
        return LevelDriver.run(self, dataset, stats)

    def _root_summary(
        self, schema: Schema, root_edges: dict[int, np.ndarray], rng: np.random.Generator
    ) -> BPart:
        # The root's X axis is selected randomly (§2.2).
        cont = schema.continuous_indices()
        root_x = int(cont[rng.integers(0, len(cont))])
        return BPart(0, MatrixSet.create(schema, root_x, root_edges), False)

    # ------------------------------------------------------------------ decide

    def _decide(
        self,
        node: Node,
        part: BPart,
        next_slot: Callable[[], int],
        schema: Schema,
        stats: BuildStats,
    ) -> BPending | None:
        cfg = self.config
        slot, mset = part.slot, part.mset
        if (
            node.n_records < cfg.min_records
            or node.gini <= cfg.min_gini
            or node.depth >= cfg.max_depth
        ):
            return None
        node_hists: dict[int, ClassHistogram] = {mset.x_attr: mset.x_marginal()}
        for j in mset.matrices:
            node_hists[j] = mset.y_marginal(j)
        analyses = analyze_attributes(node_hists.items())
        x_analysis = analyses[0]
        winner = choose_split_attribute(analyses, cfg.max_alive)
        if (
            winner is not None
            and winner.attr != mset.x_attr
            and x_analysis.splittable
            and x_analysis.score
            <= winner.score + cfg.x_tie_margin * max(node.gini, 0.0)
        ):
            # Near-tie: prefer the X axis — it is the split that lets both
            # subnodes split again without a scan (the whole point of the
            # prediction, "to maximize the probability that the next split
            # will occur on the X-axes").
            x_analysis.alive = select_alive_intervals(x_analysis, cfg.max_alive)
            winner = x_analysis
        cont_score = winner.score if winner is not None else np.inf

        best_cat_gini = np.inf
        best_cat: tuple[int, np.ndarray] | None = None
        for j, hist in mset.categorical.items():
            try:
                cmask, g = hist.best_subset_split()
            except ValueError:
                continue
            if g < best_cat_gini:
                best_cat_gini, best_cat = g, (j, cmask)

        # Prediction accounting: was the X axis the attribute that wins?
        if part.predicted:
            stats.predictions_made += 1
            chosen = (
                winner.attr
                if winner is not None and cont_score <= best_cat_gini
                else (best_cat[0] if best_cat is not None else -1)
            )
            if chosen == mset.x_attr:
                stats.predictions_correct += 1

        parent_scores = {a.attr: a.score for a in analyses if np.isfinite(a.score)}

        # Full CMP hook: try a linear-combination split when univariate
        # splits look poor (overridden by CMPBuilder; returns None here).
        linear = self._maybe_linear(
            node, slot, mset, min(cont_score, best_cat_gini), node_hists,
            parent_scores, next_slot, schema,
        )
        if linear is not None:
            return linear

        if min(cont_score, best_cat_gini) >= node.gini - cfg.min_gain:
            return None

        if best_cat is not None and best_cat_gini < cont_score:
            j, cmask = best_cat
            split: Split = CategoricalSplit(j, tuple(bool(b) for b in cmask))
            return self._single_level_pending(
                node, slot, split, None, node_hists, parent_scores,
                mset.x_attr, next_slot, schema,
            )

        assert winner is not None
        if len(merge_contiguous(winner.alive)) <= 1:
            # Sides are deterministic: plan each one individually.  A split
            # on the X axis gets exact sub-matrices of every attribute (and
            # may split again, Figure 10 line 18); a split on a Y axis b
            # still yields exact x/b marginals from the sliced (x, b)
            # matrix, used for prediction only (Figure 7, line 2).
            return self._sided_pending(
                node, slot, mset, winner, parent_scores, node_hists,
                next_slot, schema,
            )
        # Two or more alive runs: sides are ambiguous until resolution,
        # so fall back to single-level growth with a shared prediction.
        return self._single_level_pending(
            node, slot, None, winner, node_hists, parent_scores,
            mset.x_attr, next_slot, schema,
        )

    # -- single-level pendings ----------------------------------------------------

    def _single_level_pending(
        self,
        node: Node,
        slot: int,
        exact_split: Split | None,
        winner: AttributeAnalysis | None,
        node_hists: dict[int, ClassHistogram],
        parent_scores: dict[int, float],
        current_x: int,
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> BPending | None:
        cfg = self.config
        try:
            predicted_x = predict_split({}, parent_scores)
        except ValueError:
            predicted_x = current_x
        child_edges = self._refined_edges(node_hists, node.n_records)
        p = BPending(node=node, parent_slot=slot)
        if exact_split is None:
            assert winner is not None
            hist = node_hists[winner.attr]
            if not winner.alive:
                exact_split = NumericSplit(
                    winner.attr,
                    float(winner.edges[winner.best_boundary]),
                    n_candidates=max(1, len(winner.edges)),
                )
            else:
                __, p.alive_bounds, p.alive_cum_below = alive_runs(hist, winner.alive)
                p.attr = winner.attr
                p.zone_bounds = zone_boundaries(p.alive_bounds)
                p.totals = hist.totals()
                p.best_boundary_value = (
                    float(winner.edges[winner.best_boundary])
                    if winner.has_boundaries
                    else None
                )
                p.best_boundary_gini = winner.gini_min
        p.exact_split = exact_split
        n_parts = 2 if exact_split is not None else len(p.alive_bounds) + 1
        p.parts = [
            BPart(next_slot(), MatrixSet.create(schema, predicted_x, child_edges), True)
            for _ in range(n_parts)
        ]
        return p

    # -- two-level pendings ----------------------------------------------------------

    def _sided_pending(
        self,
        node: Node,
        slot: int,
        mset: MatrixSet,
        winner: AttributeAnalysis,
        parent_scores: dict[int, float],
        node_hists: dict[int, ClassHistogram],
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> BPending:
        """A first split with deterministic sides (at most one alive run).

        Each side gets its own prediction, grids and — when the split fell
        on the X axis — its own second split.
        """
        first_hist = node_hists[winner.attr]
        q1 = first_hist.n_intervals
        allow_second = winner.attr == mset.x_attr
        p = BPending(node=node, parent_slot=slot, attr=winner.attr, two_level=True)
        runs, p.alive_bounds, p.alive_cum_below = alive_runs(first_hist, winner.alive)
        if runs:
            i0, i1 = runs[0]
            p.zone_bounds = zone_boundaries(p.alive_bounds)
            p.totals = first_hist.totals()
            p.best_boundary_value = (
                float(winner.edges[winner.best_boundary])
                if winner.has_boundaries
                else None
            )
            p.best_boundary_gini = winner.gini_min
            ranges = [(0, i0), (i1 + 1, q1)]
        else:
            k = winner.best_boundary
            p.first_exact_threshold = float(first_hist.edges[k])
            p.first_exact_candidates = max(1, len(first_hist.edges))
            ranges = [(0, k + 1), (k + 1, q1)]

        for lo_i, hi_i in ranges:
            side_hists = self._side_hists(mset, winner.attr, lo_i, hi_i)
            p.sides.append(
                self._plan_side(
                    node, mset, side_hists, node_hists, allow_second,
                    parent_scores, next_slot, schema,
                )
            )
        return p

    def _side_hists(
        self, mset: MatrixSet, split_attr: int, lo: int, hi: int
    ) -> dict[int, ClassHistogram]:
        """Exact marginals available for one side of a split.

        An X-axis split slices every matrix (all attributes exact); a
        Y-axis split slices only the ``(x, b)`` matrix (x and b exact).
        """
        if split_attr == mset.x_attr:
            hists: dict[int, ClassHistogram] = {mset.x_attr: mset.x_marginal(lo, hi)}
            for j in mset.matrices:
                hists[j] = mset.y_marginal(j, lo, hi)
            return hists
        return {
            mset.x_attr: mset.x_marginal_given_y(split_attr, lo, hi),
            split_attr: mset.y_marginal_rows(split_attr, lo, hi),
        }

    def _plan_side(
        self,
        node: Node,
        mset: MatrixSet,
        side_hists: dict[int, ClassHistogram],
        node_hists: dict[int, ClassHistogram],
        allow_second: bool,
        parent_scores: dict[int, float],
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> Side:
        """Choose a side's second split and preliminary parts (Figure 10, line 18)."""
        cfg = self.config
        side_counts = next(iter(side_hists.values())).totals()
        side_n = float(side_counts.sum())
        side_gini = float(gini(side_counts))

        second: SecondSplit | None = None
        exact_scores: dict[int, float] = {}
        if (
            side_n >= cfg.min_records
            and side_gini > cfg.min_gini
            and node.depth + 1 < cfg.max_depth
        ):
            analyses = analyze_attributes(side_hists.items())
            exact_scores = {a.attr: a.score for a in analyses if np.isfinite(a.score)}
            if allow_second:
                side_winner = choose_split_attribute(analyses, self.SECOND_MAX_ALIVE)
                if (
                    side_winner is not None
                    and side_winner.score < side_gini - cfg.min_gain
                ):
                    second = self._plan_second_split(
                        side_winner, side_hists[side_winner.attr], schema
                    )

        try:
            predicted_x = predict_split(exact_scores, parent_scores)
        except ValueError:
            predicted_x = mset.x_attr
        q_child = self._grid_size(side_n)
        child_edges: dict[int, np.ndarray] = {}
        for j, h in node_hists.items():
            src = side_hists.get(j, h)
            child_edges[j] = edges_from_histogram(
                src.edges, src.counts.sum(axis=1), q_child, src.vmin, src.vmax
            )
        if second is None:
            part = BPart(
                next_slot(), MatrixSet.create(schema, predicted_x, child_edges), True
            )
            return Side(second=None, part=part)
        second.parts = [
            BPart(next_slot(), MatrixSet.create(schema, predicted_x, child_edges), True)
            for _ in range(2)
        ]
        return Side(second=second, part=None)

    def _plan_second_split(
        self,
        side_winner: AttributeAnalysis,
        hist: ClassHistogram,
        schema: Schema,
    ) -> SecondSplit:
        runs, bounds, __ = alive_runs(hist, side_winner.alive)
        if not runs:
            return SecondSplit(
                attr=side_winner.attr,
                parts=[],
                exact_split=NumericSplit(
                    side_winner.attr,
                    float(side_winner.edges[side_winner.best_boundary]),
                    n_candidates=max(1, len(side_winner.edges)),
                ),
            )
        (i0, i1), (lo, hi) = runs[0], bounds[0]
        return SecondSplit(
            attr=side_winner.attr,
            parts=[],
            alive_lo=lo,
            alive_hi=hi,
            run_i0=i0,
            run_i1=i1,
            aux_hist=ClassHistogram(hist.edges, schema.n_classes),
        )

    def _grid_size(self, n_records: float) -> int:
        cfg = self.config
        q = adaptive_intervals(cfg.n_intervals, n_records)
        return min(q, max(4, int(cfg.matrix_max_cells**0.5)))

    def _refined_edges(
        self, hists: dict[int, ClassHistogram], n_records: float
    ) -> dict[int, np.ndarray]:
        q = self._grid_size(n_records)
        return {
            j: edges_from_histogram(
                h.edges, h.counts.sum(axis=1), q, h.vmin, h.vmax
            )
            for j, h in hists.items()
        }

    # ------------------------------------------------------------------ resolve

    def _maybe_linear(
        self,
        node: Node,
        slot: int,
        mset: MatrixSet,
        best_univariate: float,
        node_hists: dict[int, ClassHistogram],
        parent_scores: dict[int, float],
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> BPending | None:
        """Linear-combination split hook; CMP-B never takes one."""
        return None

    def _resolve(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[Child]:
        if p.linear is not None:
            return self._resolve_linear(p, nid, remap, account, schema, stats)
        if p.two_level:
            return self._resolve_two_level(p, nid, remap, account, schema, stats)
        return resolve_single_level(p, nid, remap, next_slot, account, stats)

    def _resolve_linear(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[Child]:
        """Resolve a linear split's exact intercept from its band buffer.

        Candidates: the band's lower edge (everything buffered goes right)
        and every distinct buffered projection value.  The left side of a
        candidate is the under part's (exact) class counts plus the
        buffered prefix.
        """
        assert p.linear is not None
        node = p.node
        under, above = p.parts
        Xb, yb, rids = p.buffer.concatenated()
        w = p.linear.project(Xb) if len(yb) else np.empty(0)
        buf_counts = (
            np.bincount(yb, minlength=schema.n_classes).astype(np.float64)
            if len(yb)
            else np.zeros(schema.n_classes)
        )
        base = under.class_counts
        totals = base + above.class_counts + buf_counts
        cuts, cut_left = cut_candidates(w, yb, base, include_last=True)
        ginis = candidate_ginis(np.vstack([base, cut_left]), totals)
        k = int(np.argmin(ginis))
        if not np.isfinite(ginis[k]):
            for part in p.parts:
                remap[part.slot] = p.parent_slot
            return []
        threshold = float(p.zone_bounds[0]) if k == 0 else float(cuts[k - 1])
        split = LinearSplit(
            p.linear.attr_x, p.linear.attr_y, b=p.linear.b,
            c=threshold, a=p.linear.a,
        )
        if len(yb):
            dest = np.where(w <= threshold, 0, 1).astype(np.int64)
            distribute([under, above], Xb, yb, rids, dest, nid)
        if under.class_counts.sum() == 0 or above.class_counts.sum() == 0:
            for part in p.parts:
                remap[part.slot] = p.parent_slot
            return []
        stats.linear_splits += 1
        stats.splits_resolved_exactly += 1
        node.split = split
        leftn = account.new_node(node.depth + 1, under.class_counts.copy())
        rightn = account.new_node(node.depth + 1, above.class_counts.copy())
        node.left, node.right = leftn, rightn
        return [(leftn, under), (rightn, above)]

    def _resolve_two_level(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[Child]:
        node = p.node
        if p.first_exact_threshold is not None:
            threshold = p.first_exact_threshold
            first_candidates = p.first_exact_candidates
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
                for part in p.all_parts():
                    remap[part.slot] = p.parent_slot
                return []
            if res.from_buffer:
                stats.splits_resolved_exactly += 1
            threshold = res.threshold
            first_candidates = res.n_candidates
            if len(yb):
                # The buffered records take the scan's route from the sides
                # down: a second split buffers its alive run again.
                dest = np.full(len(yb), -1, dtype=np.int64)
                upper = ~(buf_vals <= threshold)
                p.route_sides(Xb, yb, rids, np.arange(len(yb)), upper, dest, 0)
                distribute(p.all_parts(), Xb, yb, rids, dest, nid)

        items: list[Child] = []
        children: list[Node] = []
        for side in p.sides:
            child, child_items = self._finish_side(
                side, node.depth, remap, nid, account, schema, stats
            )
            children.append(child)
            items.extend(child_items)
        lc = children[0].class_counts.sum()
        rc = children[1].class_counts.sum()
        if lc == 0 or rc == 0:
            # Defensive; resolve candidate validation should prevent this.
            for part in p.all_parts():
                remap[part.slot] = p.parent_slot
            return []
        node.split = NumericSplit(p.attr, threshold, n_candidates=first_candidates)
        node.left, node.right = children
        return items

    def _finish_side(
        self,
        side: Side,
        parent_depth: int,
        remap: dict[int, int],
        nid: np.ndarray,
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> tuple[Node, list[Child]]:
        if side.second is None:
            assert side.part is not None
            part = side.part
            child = account.new_node(parent_depth + 1, part.class_counts.copy())
            return child, [(child, part)]

        sec = side.second
        if sec.exact_split is not None:
            split: NumericSplit | None = sec.exact_split
            c2 = None
        else:
            split, c2 = self._resolve_second(sec, schema, stats)
        lpart, rpart = sec.parts
        if split is None:
            return self._merge_side(side, parent_depth, remap, nid, account)
        if c2 is not None:
            # Distribute the second-level buffer.
            Xb, yb, rids = sec.buffer.concatenated()
            if len(yb):
                dest = np.where(Xb[:, sec.attr] <= c2, 0, 1).astype(np.int64)
                distribute(sec.parts, Xb, yb, rids, dest, nid)
        if lpart.class_counts.sum() == 0 or rpart.class_counts.sum() == 0:
            return self._merge_side(side, parent_depth, remap, nid, account)
        stats.two_level_splits += 1
        child = account.new_node(
            parent_depth + 1,
            lpart.class_counts + rpart.class_counts,
        )
        child.split = split
        stats.second_level_node_ids.append(child.node_id)
        gl = account.new_node(parent_depth + 2, lpart.class_counts.copy())
        gr = account.new_node(parent_depth + 2, rpart.class_counts.copy())
        child.left, child.right = gl, gr
        return child, [(gl, lpart), (gr, rpart)]

    def _resolve_second(
        self, sec: SecondSplit, schema: Schema, stats: BuildStats
    ) -> tuple[NumericSplit | None, float | None]:
        """Exact threshold for an estimated second split.

        Candidates are the alive run's two edges (ginis recomputed on the
        side's final population) plus every distinct buffered value inside
        the run.  Returns ``(split, threshold)`` or ``(None, None)`` when
        no valid candidate exists.
        """
        assert sec.aux_hist is not None
        Xb, yb, __ = sec.buffer.concatenated()
        buf_vals = Xb[:, sec.attr] if len(yb) else np.empty(0)
        base = sec.aux_hist.cum_below(sec.run_i0)
        buf_counts = (
            np.bincount(yb, minlength=schema.n_classes).astype(np.float64)
            if len(yb)
            else np.zeros(schema.n_classes)
        )
        totals = sec.aux_hist.totals() + buf_counts
        cuts, cut_left = cut_candidates(buf_vals, yb, base)
        cand_thr: list[float] = cuts.tolist()
        cand_left: list[np.ndarray] = list(cut_left)
        if np.isfinite(sec.alive_lo):
            cand_thr.insert(0, sec.alive_lo)
            cand_left.insert(0, base)
        if np.isfinite(sec.alive_hi):
            cand_thr.append(sec.alive_hi)
            cand_left.append(base + buf_counts)
        if not cand_thr:
            return None, None
        ginis = candidate_ginis(np.stack(cand_left), totals)
        if not np.isfinite(ginis).any():
            return None, None
        k = int(np.argmin(ginis))
        stats.splits_resolved_exactly += 1
        return (
            NumericSplit(sec.attr, float(cand_thr[k]), n_candidates=len(cand_thr)),
            float(cand_thr[k]),
        )

    def _merge_side(
        self,
        side: Side,
        parent_depth: int,
        remap: dict[int, int],
        nid: np.ndarray,
        account: TreeAccount,
    ) -> tuple[Node, list[Child]]:
        """Collapse a side whose second split failed into one child."""
        sec = side.second
        assert sec is not None
        lpart, rpart = sec.parts
        lpart.mset.merge_from(rpart.mset)
        remap[rpart.slot] = lpart.slot
        Xb, yb, rids = sec.buffer.concatenated()
        if len(yb):
            distribute([lpart], Xb, yb, rids, np.zeros(len(yb), dtype=np.int64), nid)
        child = account.new_node(parent_depth + 1, lpart.class_counts.copy())
        return child, [(child, lpart)]

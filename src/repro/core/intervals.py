"""Alive-interval analysis (§2.1 "Sampling the splitting points…").

Given a node's per-attribute histograms, this module decides:

* ``gini_a^min`` — the best boundary gini of each attribute;
* ``gini_a^est`` — the per-interval lower-bound estimates;
* which attribute wins the split (CMP-S restriction 1: the attribute whose
  best estimate is minimal — alive intervals on other attributes are
  pruned);
* which of the winner's intervals stay *alive* (restriction 2: estimates
  strictly below ``gini_a^min``, capped to the lowest ``N``).

When no interval stays alive, the best split point is an interval boundary
and is therefore already exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.estimation import interval_estimates
from repro.core.gini import gini
from repro.core.histogram import ClassHistogram

#: Tolerance for "strictly better than the best boundary" comparisons.
_EPS = 1e-12


@dataclass
class AttributeAnalysis:
    """Everything CMP-S derives from one attribute's histogram."""

    attr: int
    edges: np.ndarray
    boundary_gini: np.ndarray
    gini_min: float
    best_boundary: int
    est: np.ndarray
    est_min: float
    node_gini: float
    alive: list[int] = field(default_factory=list)

    @property
    def score(self) -> float:
        """Selection score: the most optimistic gini this attribute offers."""
        return min(self.gini_min, self.est_min)

    @property
    def has_boundaries(self) -> bool:
        """True when at least one non-degenerate boundary exists."""
        return np.isfinite(self.gini_min)

    @property
    def splittable(self) -> bool:
        """True when the attribute offers any split, exact or estimated."""
        return np.isfinite(self.score)


def analyze_attribute(
    attr: int, hist: ClassHistogram, est: np.ndarray | None = None
) -> AttributeAnalysis:
    """Compute boundary ginis and interval estimates for one attribute.

    Boundaries with an empty side (all of the node's records on one side)
    are *degenerate*: they are masked to ``+inf`` so they can never be
    selected as a split.  When a node's records concentrate in a single
    grid interval, no valid boundary exists (``gini_min = inf``) but the
    interval's estimate stays finite — it then becomes an alive interval
    and the exact split is recovered from the buffered records, so deep
    nodes never lose splittability to a coarse grid.

    ``est`` supplies the raw hill-climb estimates when the caller already
    has them (:func:`analyze_attributes`); the footnote-1 clamp and the
    empty-interval rule are applied here either way.
    """
    node_g = float(gini(hist.totals()))
    bg = hist.boundary_ginis()
    if len(bg) == 0:
        return AttributeAnalysis(
            attr=attr,
            edges=hist.edges,
            boundary_gini=bg,
            gini_min=np.inf,
            best_boundary=-1,
            est=np.full(hist.n_intervals, np.inf),
            est_min=np.inf,
            node_gini=node_g,
        )
    n = hist.n_records
    sizes = hist.cumulative()[:-1].sum(axis=1)
    valid = (sizes > 0) & (sizes < n)
    raw_bg = bg
    bg = np.where(valid, bg, np.inf)
    if est is None:
        est = interval_estimates(hist.counts, atomic=hist.atomic_intervals())
    # Footnote 1 of the paper proves the gini index can decrease by less
    # than 2*N_i/N inside an interval with N_i of the node's N records, so
    # the true interior minimum is bounded below by the adjacent boundary
    # ginis minus that slack.  Clamping the hill-climb estimate with this
    # bound eliminates spurious alive intervals far from the optimum (the
    # heuristic climb can otherwise undershoot badly in dense intervals).
    # Degenerate outer boundaries truly evaluate to the node's own gini.
    padded = np.concatenate(([node_g], raw_bg, [node_g]))
    adj_min = np.minimum(padded[:-1], padded[1:])
    pops = hist.counts.sum(axis=1)
    slack = 2.0 * pops / max(n, 1.0)
    est = np.maximum(est, adj_min - slack)
    # Empty intervals cannot hold a split point.
    est = np.where(pops > 0, est, np.inf)
    if np.any(valid):
        best = int(np.argmin(bg))
        gini_min = float(bg[best])
    else:
        best = -1
        gini_min = np.inf
    return AttributeAnalysis(
        attr=attr,
        edges=hist.edges,
        boundary_gini=bg,
        gini_min=gini_min,
        best_boundary=best,
        est=est,
        est_min=float(est.min()) if len(est) else np.inf,
        node_gini=node_g,
    )


def analyze_attributes(
    items: Iterable[tuple[int, ClassHistogram]],
) -> list[AttributeAnalysis]:
    """:func:`analyze_attribute` for every ``(attr, hist)`` of one node.

    The hill climbs of all attributes run as one stacked
    :func:`interval_estimates` call (histograms zero-padded to the largest
    grid); each attribute then finishes on its own slice.  The result is
    bit-identical to analysing the attributes one by one.
    """
    items = list(items)
    if not items:
        return []
    q = max(hist.n_intervals for __, hist in items)
    c = items[0][1].n_classes
    stack = np.zeros((len(items), q, c))
    atomic = np.zeros((len(items), q), dtype=bool)
    for k, (__, hist) in enumerate(items):
        stack[k, : hist.n_intervals] = hist.counts
        atomic[k, : hist.n_intervals] = hist.atomic_intervals()
    est = interval_estimates(stack, atomic=atomic)
    return [
        analyze_attribute(attr, hist, est=est[k, : hist.n_intervals])
        for k, (attr, hist) in enumerate(items)
    ]


def select_alive_intervals(analysis: AttributeAnalysis, max_alive: int) -> list[int]:
    """Alive intervals of one attribute, per the CMP-S restrictions.

    An interval is a candidate when its estimate is strictly below the
    attribute's best boundary gini; at most ``max_alive`` candidates with
    the lowest estimates are kept.  Whenever any interval stays alive, the
    interval adjacent to the best boundary is force-included — this is the
    paper's alive interval (i) ("the one whose left boundary or right
    boundary has gini_min"), and it guarantees the best boundary coincides
    with a preliminary-region edge so the deferred exact split never has to
    cut a preliminary subnode in two.

    Returns an empty list when no interval estimate beats the best
    boundary, in which case the boundary split is already exact.
    """
    if max_alive < 0:
        raise ValueError("max_alive must be non-negative")
    if max_alive == 0 or not analysis.splittable:
        return []
    candidates = set(
        int(i) for i in np.nonzero(analysis.est < analysis.gini_min - _EPS)[0]
    )
    if not candidates:
        return []
    forced: int | None = None
    if analysis.has_boundaries:
        k = analysis.best_boundary
        left_est = analysis.est[k]
        right_est = analysis.est[k + 1] if k + 1 < len(analysis.est) else np.inf
        forced = k if left_est <= right_est else k + 1
        candidates.add(forced)
    if len(candidates) <= max_alive:
        return sorted(candidates)
    ranked = sorted(candidates, key=lambda i: (analysis.est[i], i))
    keep = set(ranked[:max_alive])
    if forced is not None and forced not in keep:
        keep.discard(ranked[max_alive - 1])
        keep.add(forced)
    return sorted(keep)


def choose_split_attribute(
    analyses: list[AttributeAnalysis], max_alive: int
) -> AttributeAnalysis | None:
    """Pick the splitting attribute and populate its alive intervals.

    Returns ``None`` when no attribute offers any boundary to split on.
    Alive intervals of losing attributes are pruned (left empty), per the
    paper.
    """
    viable = [a for a in analyses if a.splittable]
    if not viable:
        return None
    winner = min(viable, key=lambda a: (a.score, a.attr))
    winner.alive = select_alive_intervals(winner, max_alive)
    return winner

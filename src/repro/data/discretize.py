"""Discretization of continuous attributes (§1.1 "Sampling and discretization").

Two histogram styles from the paper:

* *equal-width* — the value range is cut into ``q`` equally wide intervals;
* *equal-depth* (quantiling) — each interval holds approximately the same
  number of records.  CLOUDS and the whole CMP family use this style.

An interval structure is represented by its inner *edges*: an array of
``q - 1`` increasing cut points.  Interval ``i`` covers ``(edges[i-1],
edges[i]]``; values ``<= edges[0]`` fall in interval 0 and values
``> edges[-1]`` in interval ``q - 1``.  ``bin_index`` uses the same
convention as the split criterion ``a <= C``, so an interval boundary *is* a
candidate threshold.
"""

from __future__ import annotations

import numpy as np


def equal_width_edges(values: np.ndarray, q: int) -> np.ndarray:
    """Inner edges of ``q`` equal-width intervals covering ``values``."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if len(values) == 0:
        raise ValueError("cannot discretize an empty column")
    lo = float(np.min(values))
    hi = float(np.max(values))
    if q == 1 or lo == hi:
        return np.empty(0, dtype=np.float64)
    return np.linspace(lo, hi, q + 1)[1:-1].astype(np.float64)


def equal_depth_edges(values: np.ndarray, q: int) -> np.ndarray:
    """Inner edges of (up to) ``q`` equal-depth intervals.

    Duplicated quantiles (heavily repeated values) are collapsed, so the
    result may have fewer than ``q - 1`` edges; every returned edge is an
    actual data value, which guarantees each boundary is a realizable split
    point ``a <= edge``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if len(values) == 0:
        raise ValueError("cannot discretize an empty column")
    if q == 1:
        return np.empty(0, dtype=np.float64)
    probs = np.arange(1, q) / q
    edges = np.quantile(values, probs, method="inverted_cdf").astype(np.float64)
    edges = np.unique(edges)
    # An edge equal to the max value would make the last interval empty.
    hi = float(np.max(values))
    return edges[edges < hi]


def bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map values to interval indices in ``[0, len(edges)]``.

    Interval ``i`` holds values ``v`` with ``edges[i-1] < v <= edges[i]``
    (open below, closed above), matching the ``a <= C`` split convention.
    """
    return np.searchsorted(edges, values, side="left").astype(np.intp)


def edges_from_histogram(
    edges: np.ndarray,
    interval_counts: np.ndarray,
    q: int,
    vmin: np.ndarray | None = None,
    vmax: np.ndarray | None = None,
) -> np.ndarray:
    """Approximate equal-depth edges derived from an existing histogram.

    CMP rebuilds each frontier node's histograms from scratch on every scan,
    so a child node's interval grid can be re-quantiled *before* its records
    are ever seen by interpolating the parent's just-completed histogram
    (records assumed uniform within each parent interval).  This gives
    per-node adaptive discretization with no extra scan and no sampling
    (DESIGN.md §3).

    Parameters
    ----------
    edges:
        Parent grid's inner edges (``len(edges) + 1`` intervals).
    interval_counts:
        Total record count per parent interval, shape ``(len(edges)+1,)``.
    q:
        Desired number of child intervals.
    vmin / vmax:
        Optional per-interval value extrema (as tracked by
        :class:`repro.core.histogram.ClassHistogram`).  When given, each
        interval's mass is spread over ``[vmin_i, vmax_i]`` instead of the
        whole interval — crucially, an interval holding a single heavy
        *atom* (``vmin_i == vmax_i``) becomes a CDF jump, so a child edge
        can land exactly on the atom value and the atom stays isolated in
        its own child interval (preserving atomic-interval detection down
        the tree).  An atom *sharing* its interval with other values gets
        no such jump: the interval's mass is spread uniformly over
        ``[vmin_i, vmax_i]``, so child edges can miss the atom entirely
        (the footnote-1 estimator slack, resolved exactly from buffered
        alive-interval records).

    Returns
    -------
    Strictly increasing inner edges (possibly fewer than ``q - 1`` when the
    distribution is too concentrated to support ``q`` distinct cuts).
    """
    edges = np.asarray(edges, dtype=np.float64)
    counts = np.asarray(interval_counts, dtype=np.float64)
    if len(counts) != len(edges) + 1:
        raise ValueError("interval_counts must have len(edges) + 1 entries")
    if q < 1:
        raise ValueError("q must be >= 1")
    total = counts.sum()
    if q == 1 or total <= 0:
        return np.empty(0, dtype=np.float64)
    probs = np.arange(1, q) / q

    if vmin is not None and vmax is not None:
        vmin = np.asarray(vmin, dtype=np.float64)
        vmax = np.asarray(vmax, dtype=np.float64)
        populated = counts > 0
        if not populated.any():
            return np.empty(0, dtype=np.float64)
        # Each populated interval contributes (vmin, cum) and (vmax, cum +
        # count), cum being the running total of the intervals before it.
        mass = counts[populated]
        ends = np.cumsum(mass)
        starts = np.concatenate(([0.0], ends[:-1]))
        points = np.column_stack((vmin[populated], vmax[populated])).ravel()
        cdf_arr = np.column_stack((starts, ends)).ravel() / total
        new_edges = np.interp(probs, cdf_arr, points)
        hi = float(np.max(vmax[populated]))
        lo = float(np.min(vmin[populated]))
        new_edges = np.unique(new_edges)
        return new_edges[(new_edges >= lo) & (new_edges < hi)]

    if len(edges) == 0:
        return np.empty(0, dtype=np.float64)
    # Give the two unbounded outer intervals a finite extent comparable to
    # their neighbours so the piecewise-linear CDF has a support.
    widths = np.diff(edges)
    typical = float(np.median(widths)) if len(widths) else 1.0
    typical = typical if typical > 0 else 1.0
    support = np.concatenate(([edges[0] - typical], edges, [edges[-1] + typical]))
    cdf = np.concatenate(([0.0], np.cumsum(counts))) / total
    new_edges = np.interp(probs, cdf, support)
    new_edges = np.unique(new_edges)
    return new_edges[(new_edges > support[0]) & (new_edges < support[-1])]


class Discretizer:
    """Interval structure for one continuous attribute."""

    def __init__(self, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1:
            raise ValueError("edges must be 1-D")
        if len(edges) > 1 and not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges

    @classmethod
    def equal_depth(cls, values: np.ndarray, q: int) -> "Discretizer":
        """Build an equal-depth discretizer with (up to) ``q`` intervals."""
        return cls(equal_depth_edges(values, q))

    @classmethod
    def equal_width(cls, values: np.ndarray, q: int) -> "Discretizer":
        """Build an equal-width discretizer with ``q`` intervals."""
        return cls(equal_width_edges(values, q))

    @classmethod
    def from_sketch(cls, sketch, q: int) -> "Discretizer":
        """Interval structure from a one-pass mergeable quantile sketch.

        The streaming alternative to :meth:`equal_depth`: the edges are
        the sketch's equal-depth quantiles (every one an actual data
        value, so each boundary remains a realizable ``a <= edge``
        split), and the grid's deviation from true equal depth is
        bounded by the sketch's explicit rank error — see
        :meth:`repro.stream.sketch.QuantileSketch.rank_error_bound` and
        :func:`repro.core.estimation.sketch_split_slack` for how that ε
        feeds the estimator-bound chain.
        """
        return cls(sketch.edges(q))

    @property
    def n_intervals(self) -> int:
        """Number of intervals (``len(edges) + 1``)."""
        return len(self.edges) + 1

    def bin(self, values: np.ndarray) -> np.ndarray:
        """Vectorized interval lookup."""
        return bin_index(np.asarray(values), self.edges)

    def interval_bounds(self, i: int) -> tuple[float, float]:
        """Value-space ``(lower, upper]`` bounds of interval ``i``.

        The first interval's lower bound is ``-inf`` and the last interval's
        upper bound is ``+inf``.
        """
        if not 0 <= i < self.n_intervals:
            raise IndexError(f"interval {i} out of range")
        lo = -np.inf if i == 0 else float(self.edges[i - 1])
        hi = np.inf if i == self.n_intervals - 1 else float(self.edges[i])
        return lo, hi


class ReservoirSampler:
    """Bounded uniform sample of a stream, for per-node re-quantiling.

    CMP must know child-node interval edges before the scan that builds the
    child histograms, without buffering the child's records.  A classic
    reservoir sample collected while routing records at the parent level is
    memory-bounded and unbiased; its quantiles define the child's edges
    (DESIGN.md §3).
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng
        self._buffer: np.ndarray = np.empty(capacity, dtype=np.float64)
        self._fill = 0
        self._seen = 0

    def extend(self, values: np.ndarray) -> None:
        """Offer a batch of values to the reservoir (vectorized)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) == 0:
            return
        # Fill the reservoir directly while it has room.
        if self._fill < self.capacity:
            take = min(self.capacity - self._fill, len(values))
            self._buffer[self._fill : self._fill + take] = values[:take]
            self._fill += take
            self._seen += take
            values = values[take:]
            if len(values) == 0:
                return
        # Streaming replacement: item k of the remainder is the
        # (seen + k + 1)-th value overall; it replaces a uniformly random
        # slot with probability capacity / (seen + k + 1).
        highs = self._seen + 1 + np.arange(len(values), dtype=np.int64)
        slots = self._rng.integers(0, highs)
        accept = slots < self.capacity
        # Later draws must win over earlier draws for the same slot, which
        # positional assignment already guarantees (last write wins).
        self._buffer[slots[accept]] = values[accept]
        self._seen += len(values)

    @property
    def n_seen(self) -> int:
        """How many values have been offered."""
        return self._seen

    def sample(self) -> np.ndarray:
        """Copy of the current reservoir contents."""
        return self._buffer[: self._fill].copy()

    def edges(self, q: int) -> np.ndarray:
        """Equal-depth edges estimated from the reservoir."""
        if self._fill == 0:
            return np.empty(0, dtype=np.float64)
        return equal_depth_edges(self._buffer[: self._fill], q)

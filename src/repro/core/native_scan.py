"""Optional native C kernels for the training-scan hot loops.

The builders' per-chunk work — class-histogram and matrix accumulation —
and the post-scan analysis sweeps — boundary ginis and the
``giniNegativeSlope`` intercept walk — are the training-side analog of the
prediction walker in :mod:`repro.core.native`: tight per-record loops that
numpy evaluates as a chain of whole-array temporaries.  This module
compiles them to C (via :mod:`repro.core.native_build`) under the same
contract as the predict kernel:

* **bit-identical to numpy** — compiled with ``-ffp-contract=off``, every
  floating-point operation mirrors the numpy expression's op-by-op
  rounding, and the single order-sensitive reduction (``p2.sum(axis=-1)``
  inside the gini) is only taken over class counts when ``n_classes < 8``,
  where numpy provably sums sequentially (its pairwise/SIMD machinery
  engages at 8 elements).  Histogram/matrix counts, extrema and the walk's
  partition sums are integer-valued, hence exact in any order.
* **always optional** — no compiler, a failed build, an unusual platform
  or ``CMP_NO_NATIVE=1`` resolve to "kernel unavailable" and every caller
  keeps its pure-numpy path, which remains the reference implementation.

Kernels bounds-check label/category indices (mirroring numpy's
``IndexError``, including negative-index wraparound) and replicate
``np.searchsorted``'s sort-order comparison, under which NaN is larger
than every number.

ABI (all pointers 8-byte aligned, sizes/strides int64, refused on
platforms where ``np.intp`` is not 64-bit):

====================  =====================================================
``cmp_hist_accum``    searchsorted + scatter-add into ``(q, c)`` float64
                      counts, per-bin value extrema (NaN-propagating).
``cmp_cat_accum``     float→int64 category cast + scatter-add into
                      ``(ncat, c)`` float64 counts.
``cmp_*_grouped``     both of the above over many parts in one call: row
                      ``r`` lands in part ``dest[r]`` through per-part
                      pointer tables (see :class:`PartTable`).
``cmp_matrix_accum``  y-binning + scatter-add into a ``(qx, qy, c)``
                      int32 or int64 cube with y extrema (two variants).
``cmp_boundary_ginis``  partition gini at every interval boundary.
``cmp_slope_walk``    the full Figure-12 greedy intercept walk.
====================  =====================================================
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import AbstractContextManager

import numpy as np

from repro.core import native_build

_SOURCE = r"""
#include <stdint.h>

/* numpy's sort-order less-than for doubles (npy_sort.h): NaN compares
 * greater than every number, so searchsorted keeps NaN in the last bin.
 * Bitwise operators keep it free of branches. */
static int64_t lt(double a, double b)
{
    return (int64_t)((a < b) | ((b != b) & (a == a)));
}

/* np.searchsorted(edges, v, side="left") on a sorted edges[0..m): the
 * number of edges that sort before v.  Branch-free halving (each step
 * keeps the answer in [base, base + len]), so a random value costs no
 * mispredicted jumps. */
static int64_t bin_of(double v, const double *edges, int64_t m)
{
    if (m == 0)
        return 0;
    int64_t base = 0, len = m;
    while (len > 1) {
        int64_t half = len >> 1;
        base += lt(edges[base + half - 1], v) * half;
        len -= half;
    }
    return base + lt(edges[base], v);
}

/* np.minimum / np.maximum semantics: NaN propagates from either side. */
static void fold_min(double *slot, double v)
{
    double cur = *slot;
    if (cur == cur && (v != v || v < cur))
        *slot = v;
}

static void fold_max(double *slot, double v)
{
    double cur = *slot;
    if (cur == cur && (v != v || v > cur))
        *slot = v;
}

/* bins = searchsorted(edges, values); np.add.at(counts, (bins, labels),
 * weights); np.minimum.at(vmin, bins, values); np.maximum.at(vmax, bins,
 * values).  weights may be NULL (unit adds).  Counts stay exact
 * (integer-valued weights on integer-valued counts), so a weight-w add is
 * bit-identical to w unit adds in any order.  Extrema fold every record —
 * callers drop zero-weight records beforehand so phantom values never
 * pollute the per-bin min/max.  Returns 1 on a label out of range (numpy
 * raises IndexError). */
int cmp_hist_accum(int64_t n, int64_t vstride, const double *values,
                   const int64_t *labels, const double *weights,
                   const double *edges, int64_t m, int64_t c,
                   double *counts, double *vmin, double *vmax)
{
    for (int64_t r = 0; r < n; ++r) {
        double v = values[r * vstride];
        int64_t lab = labels[r];
        if (lab < 0)
            lab += c;
        if (lab < 0 || lab >= c)
            return 1;
        int64_t b = bin_of(v, edges, m);
        counts[b * c + lab] += weights ? weights[r] : 1.0;
        fold_min(vmin + b, v);
        fold_max(vmax + b, v);
    }
    return 0;
}

/* np.add.at(counts, (codes.astype(intp), labels), weights) — C-cast code
 * conversion, negative indices wrap, out of range returns 1; weights may
 * be NULL (unit adds). */
int cmp_cat_accum(int64_t n, int64_t vstride, const double *codes,
                  const int64_t *labels, const double *weights,
                  int64_t ncat, int64_t c, double *counts)
{
    for (int64_t r = 0; r < n; ++r) {
        double cv = codes[r * vstride];
        /* Guard the undefined float->int cast numpy performs on junk
         * input: any such code indexes out of range either way. */
        if (cv != cv || cv >= 9.2233720368547758e18 || cv < -9.2233720368547758e18)
            return 1;
        int64_t k = (int64_t)cv;
        int64_t lab = labels[r];
        if (k < 0)
            k += ncat;
        if (lab < 0)
            lab += c;
        if (k < 0 || k >= ncat || lab < 0 || lab >= c)
            return 1;
        counts[k * c + lab] += weights ? weights[r] : 1.0;
    }
    return 0;
}

/* Grouped cmp_hist_accum over many parts at once: row r lands in part
 * dest[r] (rows with a negative dest are skipped), whose histogram has
 * sizes[d] edges at edges[d] and accumulators counts[d], vmin[d],
 * vmax[d].  weights may be NULL (unit adds).  Each part sees its
 * rows in row order, so one call equals one per-part call on each part's
 * rows, bit for bit.  Returns 1 on a label out of range, 2 on a dest at
 * or past n_parts. */
int cmp_hist_accum_grouped(int64_t n, int64_t vstride, const double *values,
                           const int64_t *labels, const double *weights,
                           const int64_t *dest, int64_t n_parts, int64_t c,
                           const int64_t *sizes, const double *const *edges,
                           double *const *counts, double *const *vmin,
                           double *const *vmax)
{
    for (int64_t r = 0; r < n; ++r) {
        int64_t d = dest[r];
        if (d < 0)
            continue;
        if (d >= n_parts)
            return 2;
        double v = values[r * vstride];
        int64_t lab = labels[r];
        if (lab < 0)
            lab += c;
        if (lab < 0 || lab >= c)
            return 1;
        int64_t b = bin_of(v, edges[d], sizes[d]);
        counts[d][b * c + lab] += weights ? weights[r] : 1.0;
        fold_min(vmin[d] + b, v);
        fold_max(vmax[d] + b, v);
    }
    return 0;
}

/* Grouped cmp_cat_accum: part d has sizes[d]
 * categories and counts[d]; same dest and return conventions. */
int cmp_cat_accum_grouped(int64_t n, int64_t vstride, const double *codes,
                          const int64_t *labels, const double *weights,
                          const int64_t *dest, int64_t n_parts, int64_t c,
                          const int64_t *sizes, double *const *counts)
{
    for (int64_t r = 0; r < n; ++r) {
        int64_t d = dest[r];
        if (d < 0)
            continue;
        if (d >= n_parts)
            return 2;
        double cv = codes[r * vstride];
        if (cv != cv || cv >= 9.2233720368547758e18 || cv < -9.2233720368547758e18)
            return 1;
        int64_t k = (int64_t)cv;
        int64_t ncat = sizes[d];
        int64_t lab = labels[r];
        if (k < 0)
            k += ncat;
        if (lab < 0)
            lab += c;
        if (k < 0 || k >= ncat || lab < 0 || lab >= c)
            return 1;
        counts[d][k * c + lab] += weights ? weights[r] : 1.0;
    }
    return 0;
}

/* y_bins = searchsorted(y_edges, y); np.add.at(counts, (x_bins, y_bins,
 * labels), 1); y extrema.  Two count dtypes (the matrix cube widens from
 * int32 to int64 on demand). */
#define MATRIX_ACCUM(NAME, CTYPE)                                           \
int NAME(int64_t n, const int64_t *x_bins, int64_t ystride,                 \
         const double *y_values, const int64_t *labels,                     \
         const double *y_edges, int64_t m, int64_t qx, int64_t qy,          \
         int64_t c, CTYPE *counts, double *vmin, double *vmax)              \
{                                                                           \
    for (int64_t r = 0; r < n; ++r) {                                       \
        double yv = y_values[r * ystride];                                  \
        int64_t xb = x_bins[r];                                             \
        int64_t lab = labels[r];                                            \
        if (xb < 0)                                                         \
            xb += qx;                                                       \
        if (lab < 0)                                                        \
            lab += c;                                                       \
        if (xb < 0 || xb >= qx || lab < 0 || lab >= c)                      \
            return 1;                                                       \
        int64_t yb = bin_of(yv, y_edges, m);                                \
        counts[(xb * qy + yb) * c + lab] += 1;                              \
        fold_min(vmin + yb, yv);                                            \
        fold_max(vmax + yb, yv);                                            \
    }                                                                       \
    return 0;                                                               \
}

MATRIX_ACCUM(cmp_matrix_accum32, int32_t)
MATRIX_ACCUM(cmp_matrix_accum64, int64_t)

/* gini() of one class-count row whose (sequential) total is s, using a
 * c-element scratch for the squared proportions.  Mirrors, op for op:
 *   p2 = where(n > 0, counts / maximum(n, 1.0), 0.0) ** 2
 *   1.0 - p2.sum(axis=-1)
 * The p2 sum is the one order-sensitive reduction of the whole module;
 * callers guarantee c < 8 so numpy's sum is plain left-to-right too. */
static double gini_one(const double *cnt, int64_t c, double s, double *p2)
{
    if (!(s > 0.0))
        return 0.0;
    double den = s > 1.0 ? s : 1.0;
    for (int64_t j = 0; j < c; ++j) {
        double p = cnt[j] / den;
        p2[j] = p * p;
    }
    double total = 0.0;
    for (int64_t j = 0; j < c; ++j)
        total += p2[j];
    return 1.0 - total;
}

/* boundary_ginis(cum, totals): right = totals - cum per row, then
 * gini_partition(cum, right).  scratch holds 2*c doubles. */
void cmp_boundary_ginis(int64_t b, int64_t c, const double *cum,
                        const double *totals, double *out, double *scratch)
{
    double *right = scratch;
    double *p2 = scratch + c;
    for (int64_t k = 0; k < b; ++k) {
        const double *left = cum + k * c;
        double nl = 0.0, nr = 0.0;
        for (int64_t j = 0; j < c; ++j) {
            right[j] = totals[j] - left[j];
            nl += left[j];
            nr += right[j];
        }
        double n = nl + nr;
        if (n > 0.0) {
            double gl = gini_one(left, c, nl, p2);
            double gr = gini_one(right, c, nr, p2);
            double den = n > 1.0 ? n : 1.0;
            out[k] = (nl * gl + nr * gr) / den;
        } else {
            out[k] = 0.0;
        }
    }
}

/* One _WalkScratch.evaluate: three-way gini of a line plus whether any
 * cell lies above it.  The under/above partition counts are integer-
 * valued, so their accumulation order is exact; only the final
 * acc += s - dot/s chain is order-sensitive and replicates the Python
 * loop (cu, ca, co in that order, one rounding per op). */
static double walk_eval(const double *counts, const double *total,
                        int64_t qx, int64_t qy, int64_t c,
                        double lx, double ly, double n,
                        double *cu, double *ca, double *co, int *above_any)
{
    double rhs = lx * ly;
    for (int64_t k = 0; k < c; ++k) {
        cu[k] = 0.0;
        ca[k] = 0.0;
    }
    int any_above = 0;
    for (int64_t i = 0; i < qx; ++i) {
        for (int64_t j = 0; j < qy; ++j) {
            const double *cell = counts + (i * qy + j) * c;
            double under_lhs = (double)(i + 1) * ly + (double)(j + 1) * lx;
            double above_lhs = (double)i * ly + (double)j * lx;
            if (under_lhs <= rhs)
                for (int64_t k = 0; k < c; ++k)
                    cu[k] += cell[k];
            if (above_lhs >= rhs) {
                any_above = 1;
                for (int64_t k = 0; k < c; ++k)
                    ca[k] += cell[k];
            }
        }
    }
    for (int64_t k = 0; k < c; ++k)
        co[k] = total[k] - cu[k] - ca[k];
    double acc = 0.0;
    const double *parts[3];
    parts[0] = cu;
    parts[1] = ca;
    parts[2] = co;
    for (int p = 0; p < 3; ++p) {
        const double *v = parts[p];
        double s = 0.0, dot = 0.0;
        for (int64_t k = 0; k < c; ++k) {
            s += v[k];
            dot += v[k] * v[k];
        }
        if (s > 0.0)
            acc += s - dot / s;
    }
    *above_any = any_above;
    return n > 0.0 ? acc / n : 0.0;
}

/* gini_slope_walk (Figure 12): greedy intercept walk from (1, 1).
 * scratch holds 4*c doubles; out receives {best_gini, best_x, best_y}. */
void cmp_slope_walk(int64_t qx, int64_t qy, int64_t c, const double *counts,
                    int64_t max_steps, double *scratch, double *out)
{
    double *total = scratch;
    double *cu = scratch + c;
    double *ca = scratch + 2 * c;
    double *co = scratch + 3 * c;
    for (int64_t k = 0; k < c; ++k)
        total[k] = 0.0;
    int64_t cells = qx * qy;
    for (int64_t i = 0; i < cells; ++i)
        for (int64_t k = 0; k < c; ++k)
            total[k] += counts[i * c + k];
    double n = 0.0;
    for (int64_t k = 0; k < c; ++k)
        n += total[k];
    double x_cap = (double)(qx + qy), y_cap = x_cap;
    double x = 1.0, y = 1.0;
    int above_any;
    double best = walk_eval(counts, total, qx, qy, c, x, y, n,
                            cu, ca, co, &above_any);
    double bx = x, by = y;
    for (int64_t step = 0; step < max_steps; ++step) {
        if (!above_any || (x >= x_cap && y >= y_cap))
            break;
        double gx, gy, g;
        int ax = above_any, ay = above_any;
        if (x < x_cap)
            gx = walk_eval(counts, total, qx, qy, c, x + 1.0, y, n,
                           cu, ca, co, &ax);
        else
            gx = 1.0 / 0.0;
        if (y < y_cap)
            gy = walk_eval(counts, total, qx, qy, c, x, y + 1.0, n,
                           cu, ca, co, &ay);
        else
            gy = 1.0 / 0.0;
        if (gx <= gy) {
            x += 1.0;
            g = gx;
            above_any = ax;
        } else {
            y += 1.0;
            g = gy;
            above_any = ay;
        }
        if (g < best) {
            best = g;
            bx = x;
            by = y;
        }
    }
    out[0] = best;
    out[1] = bx;
    out[2] = by;
}
"""

#: Class-count width above which the sweep kernels decline: numpy's sum
#: switches from plain sequential to pairwise/SIMD accumulation at 8
#: elements, and only the sequential order is replicated in C.
_MAX_SEQUENTIAL_CLASSES = 8

#: Per-process tally of applied kernel calls, by kernel name.  Plain int
#: increments under the GIL; read via :func:`kernel_counts`.  With the
#: process scan backend, chunk-accumulation calls made inside forked
#: workers are counted in the worker and folded back into the parent's
#: tally via :func:`merge_counts` when the worker's delta is merged.
_COUNTS = {
    "hist_accum": 0,
    "cat_accum": 0,
    "hist_accum_grouped": 0,
    "cat_accum_grouped": 0,
    "matrix_accum": 0,
    "boundary_ginis": 0,
    "slope_walk": 0,
}

#: Per-thread tally mirroring :data:`_COUNTS`; lets a traced scan worker
#: thread attribute kernel calls to *its* chunk batch without cross-talk
#: from sibling workers.
_THREAD_COUNTS = threading.local()


def _count(name: str) -> None:
    """Record one applied kernel call (process-wide and per-thread)."""
    _COUNTS[name] += 1
    counts = getattr(_THREAD_COUNTS, "counts", None)
    if counts is None:
        counts = {}
        _THREAD_COUNTS.counts = counts
    counts[name] = counts.get(name, 0) + 1

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64

_KERNELS = native_build.KernelLoader(
    "scan",
    _SOURCE,
    {
        "hist_accum": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR]),
        "cat_accum": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _I64, _I64, _PTR]),
        "hist_accum_grouped": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR]),
        "cat_accum_grouped": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR]),
        "matrix_accum32": (ctypes.c_int, [_I64, _PTR, _I64, _PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR]),
        "matrix_accum64": (ctypes.c_int, [_I64, _PTR, _I64, _PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR]),
        "boundary_ginis": (None, [_I64, _I64, _PTR, _PTR, _PTR, _PTR]),
        "slope_walk": (None, [_I64, _I64, _I64, _PTR, _I64, _PTR, _PTR]),
    },
)


def available() -> bool:
    """True when the training kernels built (or will build) here."""
    return _KERNELS.get() is not None


def warm_up() -> bool:
    """Resolve (and if needed compile) the kernels now.

    The process scan backend calls this before forking workers so every
    child inherits the already-loaded library instead of racing to build
    its own copy.
    """
    return available()


def kernel_counts() -> dict[str, int]:
    """Snapshot of per-kernel applied-call counts for this process."""
    return dict(_COUNTS)


def kernel_calls_total() -> int:
    """Total applied kernel calls in this process (all kernels)."""
    return sum(_COUNTS.values())


def thread_kernel_counts() -> dict[str, int]:
    """Snapshot of applied-call counts made by the *calling thread*.

    Diffing two snapshots around a chunk batch gives the exact kernel
    activity of one scan worker thread — the thread-backend analogue of
    the before/after :func:`kernel_counts` diff a forked worker ships
    home.
    """
    counts = getattr(_THREAD_COUNTS, "counts", None)
    return dict(counts) if counts else {k: 0 for k in _COUNTS}


def merge_counts(delta: dict[str, int]) -> None:
    """Fold a worker's per-kernel call delta into this process's tally.

    The process scan backend ships each forked worker's count delta back
    with its scan delta; merging here keeps :func:`kernel_calls_total`
    (and therefore ``BuildStats.native_kernel_calls``) accurate across
    backends.  Unknown keys are ignored rather than invented.
    """
    for name, calls in delta.items():
        if name in _COUNTS and calls:
            _COUNTS[name] += int(calls)


def force_numpy() -> AbstractContextManager[None]:
    """Temporarily report the training kernels as unavailable.

    In-process counterpart of ``CMP_NO_NATIVE=1`` for the scan kernels
    only (tests/benchmarks): every dispatch inside the block takes the
    numpy path.  Under the process scan backend the forced state is
    inherited by workers forked inside the block.
    """
    return _KERNELS.disabled()


# ---------------------------------------------------------------------------
# Dispatch helpers
# ---------------------------------------------------------------------------


def _f64_stride(a: np.ndarray) -> int | None:
    """Element stride of a 1-D float64 view, or ``None`` if unsupported."""
    if a.dtype != np.float64 or a.ndim != 1:
        return None
    stride = a.strides[0]
    if stride % 8 != 0:
        return None
    return stride // 8


def _labels_i64(labels: object, n: int) -> np.ndarray | None:
    """Labels as a contiguous int64 array, or ``None`` if unsupported.

    Boolean arrays are refused — numpy fancy indexing treats them as
    masks, a different semantic the kernels do not replicate.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1 or len(arr) != n:
        return None
    if arr.dtype == np.int64 and arr.flags.c_contiguous:
        return arr
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.integer):
        return None
    return np.ascontiguousarray(arr, dtype=np.int64)


def _contiguous_f64(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


# ---------------------------------------------------------------------------
# Kernel entry points (each returns whether the native path was applied)
# ---------------------------------------------------------------------------


def _weights_f64(weights: object, n: int) -> np.ndarray | None:
    """Weights as a contiguous float64 array, or ``None`` if unsupported."""
    arr = np.asarray(weights)
    if arr.ndim != 1 or len(arr) != n:
        return None
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.number):
        return None
    return np.ascontiguousarray(arr, dtype=np.float64)


def hist_accum(
    values: np.ndarray,
    labels: object,
    edges: np.ndarray,
    counts: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
    weights: object | None = None,
) -> bool:
    """Native ``ClassHistogram.update`` body; False = use numpy.

    With ``weights`` (per-record multiplicities, e.g. bootstrap draw
    counts), each record adds its weight instead of 1.  Integer-valued
    float64 weights on integer-valued counts stay exact, so the result
    is bit-identical to repeating each record ``weight`` times.
    """
    fns = _KERNELS.get()
    if fns is None:
        return False
    vstride = _f64_stride(values)
    if vstride is None:
        return False
    lab = _labels_i64(labels, len(values))
    if lab is None:
        return False
    if not (
        _contiguous_f64(counts)
        and _contiguous_f64(edges)
        and _contiguous_f64(vmin)
        and _contiguous_f64(vmax)
    ):
        return False
    w = None
    if weights is not None:
        w = _weights_f64(weights, len(values))
        if w is None:
            return False
    rc = fns["hist_accum"](
        len(values),
        vstride,
        values.ctypes.data,
        lab.ctypes.data,
        None if w is None else w.ctypes.data,
        edges.ctypes.data,
        len(edges),
        counts.shape[1],
        counts.ctypes.data,
        vmin.ctypes.data,
        vmax.ctypes.data,
    )
    if rc:
        raise IndexError("class label out of bounds for histogram counts")
    _count("hist_accum")
    return True


def cat_accum(
    codes: np.ndarray,
    labels: object,
    counts: np.ndarray,
    weights: object | None = None,
) -> bool:
    """Native ``CategoryHistogram.update`` body; False = use numpy."""
    fns = _KERNELS.get()
    if fns is None:
        return False
    vstride = _f64_stride(codes)
    if vstride is None:
        return False
    lab = _labels_i64(labels, len(codes))
    if lab is None:
        return False
    if not _contiguous_f64(counts):
        return False
    w = None
    if weights is not None:
        w = _weights_f64(weights, len(codes))
        if w is None:
            return False
    rc = fns["cat_accum"](
        len(codes),
        vstride,
        codes.ctypes.data,
        lab.ctypes.data,
        None if w is None else w.ctypes.data,
        counts.shape[0],
        counts.shape[1],
        counts.ctypes.data,
    )
    if rc:
        raise IndexError("category code or class label out of bounds")
    _count("cat_accum")
    return True


class PartTable:
    """Per-part pointer tables over one attribute's accumulators.

    Built once per scan target by :func:`part_table`; a grouped kernel
    call then reaches every part's arrays through it.  ``sizes`` is the
    address of the per-part edge (or category) counts, ``rows`` the
    addresses of the pointer rows in kernel argument order (edges, counts,
    vmin, vmax for class histograms; counts alone for category
    histograms); ``keep`` keeps everything addressed alive as long as
    the table.
    """

    __slots__ = ("n_parts", "n_classes", "sizes", "rows", "keep")

    def __init__(
        self, n_parts: int, n_classes: int, sizes: int, rows: tuple[int, ...], keep: tuple
    ) -> None:
        self.n_parts = n_parts
        self.n_classes = n_classes
        self.sizes = sizes
        self.rows = rows
        self.keep = keep

    @property
    def is_class_histogram(self) -> bool:
        """True for class-histogram tables (edges and extrema included)."""
        return len(self.rows) == 4


def part_table(
    counts: list[np.ndarray],
    edges: list[np.ndarray] | None = None,
    vmin: list[np.ndarray] | None = None,
    vmax: list[np.ndarray] | None = None,
) -> PartTable | None:
    """Pointer tables over many parts' ``(q, c)`` counts, or ``None``.

    With ``edges``/``vmin``/``vmax`` the parts are class histograms
    (:func:`hist_accum_grouped`), without them category histograms
    (:func:`cat_accum_grouped`).  ``None`` when some array is not a
    C-contiguous float64 block or the parts disagree on the class count;
    the grouped wrappers then decline.
    """
    if not counts:
        return None
    c = counts[0].shape[-1]
    if edges is None:
        groups = [counts]
        sizes = [a.shape[0] for a in counts]
    else:
        assert vmin is not None and vmax is not None
        groups = [edges, counts, vmin, vmax]
        sizes = [len(e) for e in edges]
    arrays = [a for group in groups for a in group]
    if not all(_contiguous_f64(a) for a in arrays) or any(
        a.ndim != 2 or a.shape[1] != c for a in counts
    ):
        return None
    n = len(counts)
    ptrs = np.array([a.ctypes.data for a in arrays], dtype=np.int64)
    size_arr = np.array(sizes, dtype=np.int64)
    base = ptrs.ctypes.data
    rows = tuple(base + 8 * n * i for i in range(len(groups)))
    return PartTable(n, c, size_arr.ctypes.data, rows, (ptrs, size_arr, *arrays))


def _dest_i64(dest: object, n: int) -> np.ndarray | None:
    arr = np.asarray(dest)
    if arr.ndim != 1 or len(arr) != n or arr.dtype != np.int64:
        return None
    return np.ascontiguousarray(arr)


def _grouped_args(
    values: np.ndarray,
    labels: object,
    dest: object,
    table: PartTable,
    weights: object | None,
) -> tuple | None:
    """Common leading arguments of both grouped kernels, or ``None``.

    Returns ``(args, keep)``; ``keep`` holds converted arrays alive.
    """
    n = len(values)
    vstride = _f64_stride(values)
    lab = _labels_i64(labels, n)
    dst = _dest_i64(dest, n)
    if vstride is None or lab is None or dst is None:
        return None
    w = None
    if weights is not None:
        w = _weights_f64(weights, n)
        if w is None:
            return None
    args = (
        n,
        vstride,
        values.ctypes.data,
        lab.ctypes.data,
        None if w is None else w.ctypes.data,
        dst.ctypes.data,
        table.n_parts,
        table.n_classes,
        table.sizes,
    )
    return args, (lab, dst, w)


def _grouped_rc(rc: int, what: str) -> None:
    if rc == 2:
        raise IndexError("destination part out of range for the part table")
    if rc:
        raise IndexError(what)


def hist_accum_grouped(
    values: np.ndarray,
    labels: object,
    dest: object,
    table: PartTable | None,
    weights: object | None = None,
) -> bool:
    """One :func:`hist_accum` over many parts; False = use numpy.

    Row ``r`` is added to part ``dest[r]`` of ``table`` (``dest`` is
    int64; negative rows are skipped).  Equal, bit for bit, to one
    ``hist_accum`` per part on that part's rows in row order.
    """
    fns = _KERNELS.get()
    if fns is None or table is None or not table.is_class_histogram:
        return False
    args = _grouped_args(values, labels, dest, table, weights)
    if args is None:
        return False
    head, _alive = args
    rc = fns["hist_accum_grouped"](*head, *table.rows)
    _grouped_rc(rc, "class label out of bounds for histogram counts")
    _count("hist_accum_grouped")
    return True


def cat_accum_grouped(
    codes: np.ndarray,
    labels: object,
    dest: object,
    table: PartTable | None,
    weights: object | None = None,
) -> bool:
    """One :func:`cat_accum` over many parts; False = use numpy."""
    fns = _KERNELS.get()
    if fns is None or table is None or table.is_class_histogram:
        return False
    args = _grouped_args(codes, labels, dest, table, weights)
    if args is None:
        return False
    head, _alive = args
    rc = fns["cat_accum_grouped"](*head, table.rows[0])
    _grouped_rc(rc, "category code or class label out of bounds")
    _count("cat_accum_grouped")
    return True


def matrix_accum(
    x_bins: np.ndarray,
    y_values: np.ndarray,
    labels: object,
    y_edges: np.ndarray,
    counts: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
) -> bool:
    """Native ``HistogramMatrix.update_binned`` body; False = use numpy."""
    fns = _KERNELS.get()
    if fns is None:
        return False
    if counts.dtype == np.int32:
        fn = fns["matrix_accum32"]
    elif counts.dtype == np.int64:
        fn = fns["matrix_accum64"]
    else:
        return False
    ystride = _f64_stride(y_values)
    if ystride is None:
        return False
    lab = _labels_i64(labels, len(y_values))
    if lab is None:
        return False
    if not (
        x_bins.dtype == np.intp
        and x_bins.ndim == 1
        and x_bins.flags.c_contiguous
        and len(x_bins) == len(y_values)
        and counts.flags.c_contiguous
        and _contiguous_f64(y_edges)
        and _contiguous_f64(vmin)
        and _contiguous_f64(vmax)
    ):
        return False
    qx, qy, c = counts.shape
    rc = fn(
        len(y_values),
        x_bins.ctypes.data,
        ystride,
        y_values.ctypes.data,
        lab.ctypes.data,
        y_edges.ctypes.data,
        len(y_edges),
        qx,
        qy,
        c,
        counts.ctypes.data,
        vmin.ctypes.data,
        vmax.ctypes.data,
    )
    if rc:
        raise IndexError("x bin or class label out of bounds for matrix counts")
    _count("matrix_accum")
    return True


def boundary_ginis(cum: np.ndarray, totals: np.ndarray) -> np.ndarray | None:
    """Native boundary-gini sweep, or ``None`` to use numpy.

    Declines when ``n_classes >= 8``: beyond that numpy's class-axis sum
    switches to pairwise (possibly SIMD-dispatched) accumulation whose
    rounding the sequential C loop does not reproduce.
    """
    fns = _KERNELS.get()
    if fns is None:
        return None
    b, c = cum.shape
    if c >= _MAX_SEQUENTIAL_CLASSES:
        return None
    if not (cum.flags.c_contiguous and totals.flags.c_contiguous):
        return None
    out = np.empty(b, dtype=np.float64)
    scratch = np.empty(2 * c, dtype=np.float64)
    fns["boundary_ginis"](
        b, c, cum.ctypes.data, totals.ctypes.data, out.ctypes.data, scratch.ctypes.data
    )
    _count("boundary_ginis")
    return out


def slope_walk(
    counts: np.ndarray, max_steps: int
) -> tuple[float, float, float] | None:
    """Native intercept walk: ``(best_gini, best_x, best_y)`` or ``None``.

    Requires finite, non-negative, integer-valued counts totalling below
    2**26 — the exactness precondition under which every partition sum
    *and* every sum of squared partition sizes (``v @ v``, bounded by the
    squared total) is exactly representable, making the C walk's
    accumulation order irrelevant and its result bit-identical to numpy's.
    (Builder matrices always qualify; arbitrary float counts fall back.)
    """
    fns = _KERNELS.get()
    if fns is None:
        return None
    if counts.ndim != 3:
        return None
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    if not np.all(np.isfinite(counts)):
        return None
    if not np.array_equal(counts, np.trunc(counts)):
        return None
    if counts.size and (counts.min() < 0.0 or counts.sum() >= 2.0**26):
        return None
    qx, qy, c = counts.shape
    out = np.empty(3, dtype=np.float64)
    scratch = np.empty(4 * c, dtype=np.float64)
    fns["slope_walk"](
        qx, qy, c, counts.ctypes.data, max_steps, scratch.ctypes.data, out.ctypes.data
    )
    _count("slope_walk")
    return float(out[0]), float(out[1]), float(out[2])


__all__ = [
    "available",
    "warm_up",
    "force_numpy",
    "kernel_counts",
    "kernel_calls_total",
    "hist_accum",
    "cat_accum",
    "PartTable",
    "part_table",
    "hist_accum_grouped",
    "cat_accum_grouped",
    "matrix_accum",
    "boundary_ginis",
    "slope_walk",
]

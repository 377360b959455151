"""Optional native routing kernel, built on demand with the system C compiler.

The numpy descent in :mod:`repro.core.compiled` streams whole columns
per tree node; a scalar C loop visits each *record's* row once and walks
it root-to-leaf while the row sits in cache, which is several times
faster again.  This module compiles that loop (~40 lines of C, no
dependencies) into a shared library at first use via whatever ``cc`` /
``gcc`` / ``clang`` the machine has, loads it through :mod:`ctypes`, and
hands back a kernel callable.  No compiler, a failed compile, an
unusual platform, or ``CMP_NO_NATIVE=1`` in the environment all degrade
to returning ``None`` (:class:`~repro.core.native_build.KernelLoader`) —
callers then use the pure-numpy path, which is always available and
bit-identical.

Bit-identity notes: the kernel is compiled with ``-ffp-contract=off``
so ``a*x + b*y`` rounds exactly like the two-instruction numpy
evaluation (no FMA contraction).  A categorical code is truncated toward
zero, as numpy's ``astype(intp)`` does, but only once it is known to land
in ``[0, cat_len)``: NaN, infinities and values out of range take the
node's default child without a float→int cast, which C leaves undefined
for them.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core import native_build

_SOURCE = r"""
#include <stdint.h>

/* Whether categorical node i sends code value v left: codes truncate
 * toward zero, and a value whose code falls outside [0, cat_len) (NaN and
 * infinities included) takes the default child. */
static int cat_goes_left(double v, int64_t i, const uint8_t *default_left,
                         const int64_t *cat_offset, const int64_t *cat_len,
                         const uint8_t *cat_mask)
{
    if (v > -1.0 && v < (double)cat_len[i])
        return cat_mask[cat_offset[i] + (int64_t)v];
    return default_left[i];
}

/* Node tags match repro.core.compiled: LEAF=0 NUMERIC=1 CATEGORICAL=2
 * LINEAR=3.  Leaves self-loop through left/right, so the walk simply
 * stops when it sees a leaf tag. */
void cmp_route(int64_t n, int64_t ncols, const double *X,
               const int8_t *kind, const int32_t *attr, const int32_t *attr2,
               const double *coef_a, const double *coef_b,
               const double *threshold,
               const int64_t *left, const int64_t *right,
               const uint8_t *default_left,
               const int64_t *cat_offset, const int64_t *cat_len,
               const uint8_t *cat_mask,
               int64_t *out)
{
    for (int64_t r = 0; r < n; ++r) {
        const double *row = X + r * ncols;
        int64_t i = 0;
        for (;;) {
            int8_t k = kind[i];
            int go;
            if (k == 0)
                break;
            if (k == 1) {
                go = row[attr[i]] <= threshold[i];
            } else if (k == 3) {
                go = coef_a[i] * row[attr[i]] + coef_b[i] * row[attr2[i]]
                     <= threshold[i];
            } else {
                go = cat_goes_left(row[attr[i]], i, default_left,
                                   cat_offset, cat_len, cat_mask);
            }
            i = go ? left[i] : right[i];
        }
        out[r] = i;
    }
}

/* Packed-forest scoring: one call routes every record through every
 * member tree and accumulates the leaf value rows.  Arrays are the
 * member trees' node arrays concatenated in member order with child
 * indices, cat_mask offsets and leaf_row already shifted to global
 * positions (repro.core.compiled.compile_forest); tree_offsets[t] is
 * member t's root index.  Per record the accumulator starts at base and
 * adds member leaf rows in member order — the exact element-wise fold
 * order of the numpy fallback, hence bit-identical results. */
void cmp_forest_score(int64_t n, int64_t ncols, const double *X,
                      int64_t n_trees, const int64_t *tree_offsets,
                      const int8_t *kind, const int32_t *attr,
                      const int32_t *attr2,
                      const double *coef_a, const double *coef_b,
                      const double *threshold,
                      const int64_t *left, const int64_t *right,
                      const uint8_t *default_left,
                      const int64_t *cat_offset, const int64_t *cat_len,
                      const uint8_t *cat_mask,
                      const int64_t *leaf_row, int64_t n_outputs,
                      const double *base, const double *values,
                      double *acc)
{
    for (int64_t r = 0; r < n; ++r) {
        const double *row = X + r * ncols;
        double *a = acc + r * n_outputs;
        for (int64_t k = 0; k < n_outputs; ++k)
            a[k] = base[k];
        for (int64_t t = 0; t < n_trees; ++t) {
            int64_t i = tree_offsets[t];
            for (;;) {
                int8_t k = kind[i];
                int go;
                if (k == 0)
                    break;
                if (k == 1) {
                    go = row[attr[i]] <= threshold[i];
                } else if (k == 3) {
                    go = coef_a[i] * row[attr[i]] + coef_b[i] * row[attr2[i]]
                         <= threshold[i];
                } else {
                    go = cat_goes_left(row[attr[i]], i, default_left,
                                       cat_offset, cat_len, cat_mask);
                }
                i = go ? left[i] : right[i];
            }
            const double *v = values + leaf_row[i] * n_outputs;
            for (int64_t k = 0; k < n_outputs; ++k)
                a[k] += v[k];
        }
    }
}
"""

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


def _bind(fns: dict) -> dict:
    """Wrap the C entry points as ``kernel(compiled, X, out)`` callables."""
    fn = fns["route"]
    ffn = fns["forest_score"]

    def kernel(ct, X: np.ndarray, out: np.ndarray) -> None:
        n, ncols = X.shape
        fn(
            n,
            ncols,
            X.ctypes.data,
            ct.kind.ctypes.data,
            ct.attr.ctypes.data,
            ct.attr2.ctypes.data,
            ct.coef_a.ctypes.data,
            ct.coef_b.ctypes.data,
            ct.threshold.ctypes.data,
            ct.left.ctypes.data,
            ct.right.ctypes.data,
            ct.default_left.ctypes.data,
            ct.cat_offset.ctypes.data,
            ct.cat_len.ctypes.data,
            ct.cat_mask.ctypes.data,
            out.ctypes.data,
        )

    def forest(cf, X: np.ndarray, acc: np.ndarray) -> None:
        n, ncols = X.shape
        ffn(
            n,
            ncols,
            X.ctypes.data,
            cf.n_trees,
            cf.tree_offsets.ctypes.data,
            cf.kind.ctypes.data,
            cf.attr.ctypes.data,
            cf.attr2.ctypes.data,
            cf.coef_a.ctypes.data,
            cf.coef_b.ctypes.data,
            cf.threshold.ctypes.data,
            cf.left.ctypes.data,
            cf.right.ctypes.data,
            cf.default_left.ctypes.data,
            cf.cat_offset.ctypes.data,
            cf.cat_len.ctypes.data,
            cf.cat_mask.ctypes.data,
            cf.leaf_row.ctypes.data,
            cf.n_outputs,
            cf.base.ctypes.data,
            cf.values.ctypes.data,
            acc.ctypes.data,
        )

    return {"route": kernel, "forest": forest}


# Shared content-addressed cache with atomic publication: concurrent
# processes (routine with the process scan backend) race benignly.
_KERNELS = native_build.KernelLoader(
    "route",
    _SOURCE,
    {
        "route": (None, [_I64, _I64] + [_PTR] * 14),
        "forest_score": (
            None,
            [_I64, _I64, _PTR, _I64] + [_PTR] * 14 + [_I64, _PTR, _PTR, _PTR],
        ),
    },
    bind=_bind,
)


def route_kernel():
    """The native single-tree routing kernel, or ``None`` when unavailable.

    Resolved once per process (build + load on first call); honours
    ``CMP_NO_NATIVE=1`` for forcing the numpy path, e.g. to compare the
    two implementations or on machines where the toolchain misbehaves.
    """
    kernels = _KERNELS.get()
    return None if kernels is None else kernels["route"]


def forest_kernel():
    """The native packed-forest scoring kernel, or ``None`` when unavailable.

    Same resolution and degradation contract as :func:`route_kernel`.
    """
    kernels = _KERNELS.get()
    return None if kernels is None else kernels["forest"]


def native_available() -> bool:
    """True when the C kernels built (or will build) on this machine."""
    return route_kernel() is not None


__all__ = ["route_kernel", "forest_kernel", "native_available"]

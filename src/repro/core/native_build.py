"""Race-safe, on-demand compilation and loading shared by the native kernels.

Both kernel modules (:mod:`repro.core.native` for prediction,
:mod:`repro.core.native_scan` for training) compile a small dependency-free
C source with whatever ``cc`` / ``gcc`` / ``clang`` the machine has and load
the result through :mod:`ctypes`.  Each declares only its source and its
functions' signatures in a :class:`KernelLoader`, which resolves them once
per process and degrades to ``None`` — "use numpy" — under
``CMP_NO_NATIVE=1``, on platforms whose ``intp`` is not 64-bit, without a
compiler, or on any build or load failure.  This module owns the build
step so both share one cache and one concurrency story:

* Libraries land in a **shared cache directory** (``CMP_NATIVE_CACHE`` in
  the environment, or ``<tmpdir>/cmp-repro-native``), keyed by a hash of
  the compiler, flags and source text — a process whose source matches an
  already-built library skips the compiler entirely.  That matters with the
  process scan backend, where forked workers and repeated CLI invocations
  would otherwise each pay a compile.
* Concurrent builders are safe: each process compiles into a **per-pid
  temp file** next to the target and publishes it with an atomic
  ``os.replace``.  Two processes racing on the same key both succeed; the
  loser's rename merely re-publishes identical bytes, and a reader never
  observes a half-written library because the cache path only ever comes
  into existence via the rename.

Compilation uses ``-ffp-contract=off`` so kernels round exactly like the
numpy expressions they replace (no FMA contraction) — the flag is part of
the cache key like everything else that affects the produced code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

#: Flags every kernel is compiled with.  ``-ffp-contract=off`` is load-
#: bearing for bit-identity: contraction would fuse ``a*x + b*y`` into an
#: FMA, rounding once where the numpy evaluation rounds twice.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def compiler() -> str | None:
    """The C compiler to use, or ``None`` when the machine has none."""
    return (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )


def cache_dir() -> str:
    """Directory holding compiled kernels (``CMP_NATIVE_CACHE`` overrides)."""
    configured = os.environ.get("CMP_NATIVE_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "cmp-repro-native")


def library_path(stem: str, source: str, cc: str) -> str:
    """Cache path for ``source`` compiled by ``cc`` (content-addressed)."""
    key = hashlib.sha256("\x00".join((cc, *FLAGS, source)).encode()).hexdigest()[:16]
    return os.path.join(cache_dir(), f"{stem}-{key}.so")


def load_library(stem: str, source: str) -> ctypes.CDLL | None:
    """Compile ``source`` (or reuse the cached build) and load it.

    Returns ``None`` when no compiler is available; raises on a failed
    compile or load, which callers turn into the numpy fallback.
    """
    cc = compiler()
    if not cc:
        return None
    lib_path = library_path(stem, source, cc)
    if not os.path.exists(lib_path):
        os.makedirs(cache_dir(), exist_ok=True)
        # Build privately, publish atomically: the cache path either does
        # not exist or names a complete library, whatever other processes
        # are doing with the same key right now.
        tmp = f"{lib_path}.{os.getpid()}.tmp"
        src = f"{tmp}.c"
        with open(src, "w", encoding="utf-8") as f:
            f.write(source)
        try:
            subprocess.run(
                [cc, *FLAGS, src, "-o", tmp],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, lib_path)
        finally:
            for leftover in (src, tmp):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    return ctypes.CDLL(lib_path)


#: A kernel's ``(restype, argtypes)`` for :mod:`ctypes`.
Signature = tuple[Any, list[Any]]


class KernelLoader:
    """One C source's kernels, built and loaded at most once per process.

    ``signatures`` maps each kernel's name to its ``(restype, argtypes)``;
    the C function is ``cmp_<name>``.  :meth:`get` returns the name →
    function table, passed through ``bind`` when given, or ``None`` when
    the kernels are unavailable (see the module docstring).
    """

    def __init__(
        self,
        stem: str,
        source: str,
        signatures: dict[str, Signature],
        bind: Callable[[dict[str, Any]], Any] | None = None,
    ) -> None:
        self._stem = stem
        self._source = source
        self._signatures = signatures
        self._bind = bind
        self._lock = threading.Lock()
        self._kernels: Any = None
        self._resolved = False

    def get(self) -> Any:
        """The kernels, or ``None``; the first call builds them."""
        if self._resolved:
            return self._kernels
        with self._lock:
            if not self._resolved:
                self._kernels = self._load()
                self._resolved = True
        return self._kernels

    def _load(self) -> Any:
        if os.environ.get("CMP_NO_NATIVE") or np.intp(0).itemsize != 8:
            return None
        try:
            lib = load_library(self._stem, self._source)
            if lib is None:
                return None
            fns: dict[str, Any] = {}
            for name, (restype, argtypes) in self._signatures.items():
                fn = getattr(lib, f"cmp_{name}")
                fn.restype = restype
                fn.argtypes = argtypes
                fns[name] = fn
            return fns if self._bind is None else self._bind(fns)
        except Exception:
            return None

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Report the kernels as unavailable inside the block (nestable)."""
        with self._lock:
            saved = (self._kernels, self._resolved)
            self._kernels, self._resolved = None, True
        try:
            yield
        finally:
            with self._lock:
                self._kernels, self._resolved = saved


__all__ = [
    "FLAGS",
    "KernelLoader",
    "compiler",
    "cache_dir",
    "library_path",
    "load_library",
]

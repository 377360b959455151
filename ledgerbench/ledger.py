"""Per-layer ledger: spans around each layer's public callables.

:class:`LayerProbes` wraps the callables in :data:`FUNCTIONS` and
:data:`METHODS` so each call records a ``L:<layer>`` span into the run's
:class:`~repro.obs.trace.Tracer` — the same tracer the builders, trainer
and engine receive through their ``tracer=`` arguments, so the layer spans
nest with the program's own ``build``/``scan``/``phase:*``/``request``
spans.  The builders import several of these functions by name (``from
repro.core.intervals import analyze_attribute``), so a wrapper rebinds
every ``repro`` module attribute that holds the original, not only the
defining module's; :meth:`LayerProbes.remove` restores them all.

A layer's self time is its span's duration minus the durations of the
nearest layer spans below it (program spans in between are transparent),
so the self times under one root span sum to the root's duration; the
root's own self time is the ``unattributed`` line.  A negative self time
means spans that overlap or hang under the wrong parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict

from repro.obs.trace import Span, Tracer

PREFIX = "L:"
#: Float rounding allowed below zero in a self time.
NEGATIVE_SLACK_S = 1e-6

#: (module, function, layer) for module-level functions.
FUNCTIONS = (
    ("repro.core.builder", "resolve_exact_threshold", "resolve.exact"),
    ("repro.core.intervals", "analyze_attribute", "decide.analyze"),
    ("repro.core.intervals", "choose_split_attribute", "decide.choose"),
    ("repro.core.estimation", "interval_estimates", "decide.estimate"),
    ("repro.core.predict", "predict_split", "predict.split"),
    ("repro.core.linear", "best_linear_candidate", "linear.best"),
    ("repro.data.discretize", "edges_from_histogram", "discretize.histogram"),
    ("repro.core.compiled", "compile_tree", "compiled.compile"),
)

#: (module, class, method, layer, index of the argument whose length is
#: the call's row count, or None).
METHODS = (
    ("repro.core.builder", "TreeBuilder", "build", "build", None),
    ("repro.stream.trainer", "StreamingTrainer", "fit_stream", "build", None),
    ("repro.io.pager", "PagedTable", "read_chunk", "io.read", None),
    ("repro.core.parallel", "ScanEngine", "scan", "parallel.scan", None),
    ("repro.core.histogram", "ClassHistogram", "update", "histogram.update", 1),
    ("repro.core.histogram", "CategoryHistogram", "update", "histogram.cat_update", 1),
    ("repro.core.matrix", "MatrixSet", "update", "matrix.update", 2),
    ("repro.core.builder", "RecordBuffer", "append", "buffer.append", 2),
    ("repro.data.discretize", "ReservoirSampler", "extend", "discretize.extend", None),
    ("repro.data.discretize", "ReservoirSampler", "edges", "discretize.edges", None),
    ("repro.stream.sketch", "QuantileSketch", "extend", "stream.qsketch_extend", None),
    ("repro.stream.sketch", "HeavyHitterSketch", "extend", "stream.hh_extend", None),
    ("repro.core.tree", "DecisionTree", "compiled", "tree.compiled", None),
    ("repro.serve.engine", "ModelRegistry", "resolve_route", "engine.resolve", None),
    ("repro.serve.engine", "ModelRegistry", "register", "registry.register", None),
    ("repro.serve.engine", "ModelRegistry", "hot_swap", "registry.hot_swap", None),
    ("repro.obs.access", "AccessLog", "record", "obs.access_record", None),
)

#: Training layers: the training methods on which each must fire, and
#: those on which it must stay silent (a method in neither is not checked:
#: full CMP still makes a few ``ClassHistogram.update`` calls).  A renamed
#: or re-imported function would otherwise read as a silent zero.
BATCH, ALL = {"cmp_s", "cmp"}, {"cmp_s", "cmp", "stream"}
TRAINING_LAYERS = {
    "io.read": (ALL, set()),
    "parallel.scan": (BATCH, {"stream"}),
    "histogram.update": ({"cmp_s"}, {"stream"}),
    "matrix.update": ({"cmp"}, {"cmp_s", "stream"}),
    "buffer.append": (BATCH, {"stream"}),
    "resolve.exact": (BATCH, {"stream"}),
    "decide.analyze": (BATCH, {"stream"}),
    "decide.estimate": (BATCH, {"stream"}),
    "decide.choose": (BATCH, {"stream"}),
    "predict.split": ({"cmp"}, {"cmp_s", "stream"}),
    "linear.best": ({"cmp"}, {"cmp_s", "stream"}),
    "discretize.extend": (BATCH, {"stream"}),
    "stream.qsketch_extend": ({"stream"}, BATCH),
    "stream.hh_extend": ({"stream"}, BATCH),
}
#: Serving layers fire on every workload.
SERVING_LAYERS = (
    "compiled.compile",
    "tree.compiled",
    "engine.resolve",
    "registry.register",
    "registry.hot_swap",
    "obs.access_record",
)


def _wrap(fn, name: str, tracer: Tracer, rows_arg: int | None):
    span = tracer.span
    if rows_arg is None:

        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

    else:

        def wrapper(*args, **kwargs):
            with span(name, rows=len(args[rows_arg])):
                return fn(*args, **kwargs)

    return functools.update_wrapper(wrapper, fn)


class LayerProbes:
    """Context manager installing (and afterwards removing) every wrapper."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerProbes":
        try:
            for module, cls, method, layer, rows_arg in METHODS:
                owner = getattr(importlib.import_module(module), cls)
                original = vars(owner)[method]
                self._set(owner, method, _wrap(original, PREFIX + layer, self.tracer, rows_arg))
            for module, name, layer in FUNCTIONS:
                original = getattr(importlib.import_module(module), name)
                wrapper = _wrap(original, PREFIX + layer, self.tracer, None)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "repro":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        self._installed.append(self._undo[-1])
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Names still bound to something other than their original."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if vars(owner)[attr] is not original
        ]


class SpanIndex:
    """Durations, counts and self times of the layer spans in a trace."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = [sp for sp in spans if sp.end_s is not None]
        self.by_id = {sp.span_id: sp for sp in self.spans}
        # Spans are recorded in start order, so a parent precedes its children.
        self.root_of: dict[int, int] = {}
        for sp in self.spans:
            pid = sp.parent_id
            self.root_of[sp.span_id] = (
                self.root_of[pid] if pid in self.root_of else sp.span_id
            )
        self.layer_parent: dict[int, int | None] = {}
        covered: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if not sp.name.startswith(PREFIX):
                continue
            parent = self._nearest_layer_ancestor(sp)
            self.layer_parent[sp.span_id] = parent
            if parent is not None:
                covered[parent] += sp.duration_s
        self.self_s = {
            sid: self.by_id[sid].duration_s - covered[sid] for sid in self.layer_parent
        }

    def _nearest_layer_ancestor(self, sp: Span) -> int | None:
        pid = sp.parent_id
        while pid is not None and pid in self.by_id:
            parent = self.by_id[pid]
            if parent.name.startswith(PREFIX):
                return pid
            pid = parent.parent_id
        return None

    def named(self, layer: str, root: Span | None = None) -> list[Span]:
        """Layer spans called ``layer`` (optionally only in ``root``'s tree)."""
        found = [sp for sp in self.spans if sp.name == PREFIX + layer]
        if root is None:
            return found
        return [sp for sp in found if self.root_of[sp.span_id] == root.span_id]

    def total(self, layer: str, root: Span | None = None) -> float:
        return sum((sp.duration_s for sp in self.named(layer, root)), 0.0)

    def self_total(self, layer: str, root: Span | None = None) -> float:
        return sum((self.self_s[sp.span_id] for sp in self.named(layer, root)), 0.0)

    def rows(self, layer: str, root: Span | None = None) -> int:
        return sum(int(sp.attrs.get("rows", 0)) for sp in self.named(layer, root))

    def tree_self(self, root: Span) -> dict[str, float]:
        """Self seconds per layer over every layer span in ``root``'s tree."""
        out: dict[str, float] = defaultdict(float)
        for sid, self_s in self.self_s.items():
            if self.root_of[sid] == root.span_id:
                out[self.by_id[sid].name[len(PREFIX):]] += self_s
        return dict(out)

    def negative_self(self, root: Span) -> list[tuple[str, float]]:
        """Layer spans in ``root``'s tree whose self time is below zero."""
        return [
            (self.by_id[sid].name[len(PREFIX):], self_s)
            for sid, self_s in self.self_s.items()
            if self.root_of[sid] == root.span_id and self_s < -NEGATIVE_SLACK_S
        ]

    def uncovered(self, program_span: str, root: Span) -> float:
        """Time of ``program_span`` spans not covered by a layer span inside.

        Each layer span is charged to the program spans it passes on the
        way up to its nearest layer ancestor, so only the outermost layer
        spans inside a program span count.
        """
        phases = [
            sp
            for sp in self.spans
            if sp.name == program_span and self.root_of[sp.span_id] == root.span_id
        ]
        inside: dict[int, float] = defaultdict(float)
        ids = {sp.span_id for sp in phases}
        for sid in self.layer_parent:
            sp = self.by_id[sid]
            pid = sp.parent_id
            while pid is not None and pid in self.by_id:
                parent = self.by_id[pid]
                if parent.name.startswith(PREFIX):
                    break
                if pid in ids:
                    inside[pid] += sp.duration_s
                pid = parent.parent_id
        return sum((sp.duration_s - inside[sp.span_id] for sp in phases), 0.0)

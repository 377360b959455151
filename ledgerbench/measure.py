"""The two kinds of run: timed (end-to-end metrics) and traced (per-layer).

A timed run sets up ``SETUP_REPEATS`` times and trains the swap partner
once.  Then it runs rounds until ``--seconds`` is used up: each round is
one timed ``build``/``fit`` call on the next training set (``build_s`` is
the median) plus one serving slice (:mod:`ledgerbench.serving`) of the
first set's tree and the partner.  Every build is checked against the
first build of its training set and, when the (workload, seed) has one,
against ``references.json``.

A traced run builds once untraced and once with a :class:`Tracer` and the
:class:`~ledgerbench.ledger.LayerProbes` installed; then, for the
program's own tracing overhead, more untraced builds alternate with
builds that get only a ``Tracer``.  It serves one untraced slice of the
full request-rate ladder (its tail and overload figures join the ledger;
a report rung whose generator ran late is a failed check) and one slice
under the same tracer, writes the spans as JSONL, reads them back
through ``cmp-repro inspect-trace``, and turns them into the per-layer
ledger.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from ledgerbench import ledger, pipeline, serving
from ledgerbench.pipeline import Workload
from repro.io.metrics import BuildStats
from repro.obs.trace import Tracer

REFERENCES = Path(__file__).resolve().parent / "references.json"
#: Fewest build + serving rounds per timed run, whatever ``--seconds``
#: says: every training set is built at least once.
MIN_ROUNDS = pipeline.TRAIN_SETS
#: Serving metrics steady enough to gate end to end.
END_TO_END_SERVING = ("batch_rows_per_s",)
#: Tail and overload metrics of the traced run's untraced full-ladder
#: slice, under their per-layer names.
LADDER_AS_LAYER = {
    "tree_predict_1row_us": "tree.predict_1row_us",
    "engine_1row_p50_us": "engine.1row_p50_us",
    "engine_1row_p99_us": "engine.1row_p99_us",
    "serve_p50_ms": "batcher.serve_p50_ms",
    "serve_p99_ms": "batcher.serve_p99_ms",
    "serve_max_rps": "batcher.goodput_max_rps",
    "serve_ok_frac": "batcher.ok_frac",
    "swap_ms": "registry.swap_ms",
}
#: Direct timings of the compiled-form lookups in the traced run.
LOOKUP_CALLS = 2000
#: Open-loop seconds of the traced slice (at the report rate only).
TRACED_RUNG_S = 1.5
#: How far the traced build's self times may sum from its wall time.
SELF_SUM_TOLERANCE = 0.01
#: Builds of each kind behind ``obs.trace_overhead_frac``.
OVERHEAD_BUILDS = 3


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """One checked operation; a failed check counts as a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def absorb(self, served: serving.Served) -> None:
        self.attempted += served.attempted
        self.failed += served.failed
        self.problems.extend(served.problems)


def load_reference(w: Workload, seed: int) -> list[dict[str, object]] | None:
    """The stored records of the seed's training sets, if it has them."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    return refs.get(w.name, {}).get(str(seed))


def _check_build(
    out: Outcome, t: pipeline.Trained, holdout, expected, label: str
) -> dict[str, object]:
    record, problems = pipeline.check_build(t, holdout, expected)
    out.check(not problems, f"{label}: " + "; ".join(problems))
    return record


def timed_run(w: Workload, seed: int, seconds: float, build_dir: Path) -> Outcome:
    out = Outcome()
    inputs, setup_times = pipeline.setup(w, seed)
    reference = load_reference(w, seed)
    start = time.perf_counter()
    partner = pipeline.train(w, inputs.partner, seed)
    _check_build(out, partner, inputs.holdout, None, "partner build")
    walls: list[float] = []
    firsts: dict[int, dict[str, object]] = {}
    server = None
    try:
        while True:
            j = len(walls) % pipeline.TRAIN_SETS
            t = pipeline.train(w, inputs.trains[j], seed)
            walls.append(t.wall_s)
            expected = reference[j] if reference else firsts.get(j)
            record = _check_build(
                out, t, inputs.holdout, expected, f"build {len(walls)} (set {j})"
            )
            firsts.setdefault(j, record)
            if server is None:
                server = serving.Server((t.tree, partner.tree), inputs.holdout.X)
            server.serve_slice()
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_ROUNDS and elapsed * (1 + 1 / len(walls)) > seconds:
                break
    finally:
        if server is not None:
            server.close()
    served = server.out
    out.absorb(served)
    exact = lambda key: float(median(r[key] for r in firsts.values()))
    serve = serving.serve_metrics(served)
    out.metrics = {
        "setup_s": median(setup_times),
        "build_s": median(walls),
        "scans": exact("scans"),
        "simulated_ms": exact("simulated_ms"),
        "peak_memory_bytes": exact("peak_memory_bytes"),
        "test_accuracy": exact("test_accuracy"),
        **{name: serve[name] for name in END_TO_END_SERVING},
    }
    out.notes.append(
        f"rounds {len(walls)} (setup {len(setup_times)}); " + serving.describe(served)
    )
    return out


def _p50_us(fn, calls: int) -> float:
    times = []
    clock = time.perf_counter
    for _ in range(calls):
        start = clock()
        fn()
        times.append(clock() - start)
    return serving.percentile(times, 50) * 1e6


def traced_run(w: Workload, seed: int, seconds: float, build_dir: Path) -> Outcome:
    out = Outcome()
    inputs, _ = pipeline.setup(w, seed)
    reference = load_reference(w, seed)
    untraced = pipeline.train(w, inputs.trains[0], seed)
    expected = _check_build(
        out, untraced, inputs.holdout, reference[0] if reference else None, "untraced build"
    )

    tracer = Tracer()
    probes = ledger.LayerProbes(tracer)
    with probes:
        traced = pipeline.train(w, inputs.trains[0], seed, tracer=tracer)
    _check_build(out, traced, inputs.holdout, expected, "traced build")
    overhead = _telemetry_overhead(out, w, inputs, seed, untraced, expected)
    partner = pipeline.train(w, inputs.partner, seed)

    row = inputs.holdout.X[:1]
    compiled = traced.tree.compiled()
    lookups = {
        "compiled.predict_1row_us": _p50_us(lambda: compiled.predict(row), LOOKUP_CALLS),
        "tree.compiled_lookup_us": _p50_us(traced.tree.compiled, LOOKUP_CALLS),
    }
    with serving.Server((traced.tree, partner.tree), inputs.holdout.X) as ladder:
        ladder.serve_slice(serving.LADDER)
    out.absorb(ladder.out)
    report = ladder.out.rungs[serving.REPORT_RATE]
    out.check(
        report.valid,
        f"{serving.REPORT_RATE} req/s rung invalid: the generator ran "
        f"{serving.percentile(report.late_s, 99) * 1e3:.1f} ms late at p99, so "
        "batcher.serve_p50_ms and batcher.serve_p99_ms are not latencies",
    )
    untraced_serve = serving.serve_metrics(ladder.out)
    out.notes.append("untraced ladder " + serving.describe(ladder.out))

    with probes, serving.Server(
        (traced.tree, partner.tree), inputs.holdout.X, tracer=tracer
    ) as server:
        server.serve_slice(report_rung_s=TRACED_RUNG_S)
    served = server.out
    out.absorb(served)
    out.check(not probes.leftovers(), f"layer probes left installed: {probes.leftovers()}")

    spans = tracer.spans()
    trace_path = build_dir / f"trace-{w.name}-seed{seed}.jsonl"
    tracer.write_jsonl(str(trace_path))
    _check_inspect_trace(out, trace_path)

    idx = ledger.SpanIndex(spans)
    for layer in ledger.SERVING_LAYERS:
        out.check(bool(idx.named(layer)), f"layer {layer}: no calls while serving")
    roots = idx.named("build")
    out.check(len(roots) == 1, f"expected one traced build span, found {len(roots)}")
    root = roots[0]
    out.metrics = {
        **_training_ledger(out, w, idx, root, traced),
        "obs.trace_overhead_frac": overhead,
        **lookups,
        **_serving_ledger(idx, server, served, spans),
        **{layer: untraced_serve[name] for name, layer in LADDER_AS_LAYER.items()},
        "obs.spans": float(len(spans)),
    }
    out.notes.append(f"trace: {trace_path.relative_to(build_dir.parent)} ({len(spans)} spans)")
    out.notes.append(_format_ledger(idx, root))
    return out


def _telemetry_overhead(
    out: Outcome,
    w: Workload,
    inputs: pipeline.Inputs,
    seed: int,
    untraced: pipeline.Trained,
    expected: dict[str, object],
) -> float:
    """The program's own tracing cost, without the benchmark's probes.

    Builds with only a :class:`Tracer` passed alternate with untraced
    builds, and the fastest of each kind are compared, so a slow phase of
    the host during one build does not read as overhead.
    """
    plain, traced = [untraced.wall_s], []
    for k in range(OVERHEAD_BUILDS):
        if k:
            plain.append(pipeline.train(w, inputs.trains[0], seed).wall_s)
        t = pipeline.train(w, inputs.trains[0], seed, tracer=Tracer())
        _check_build(out, t, inputs.holdout, expected, f"tracer-only build {k + 1}")
        traced.append(t.wall_s)
    return min(traced) / min(plain) - 1.0


def _training_ledger(
    out: Outcome,
    w: Workload,
    idx: ledger.SpanIndex,
    root,
    traced: pipeline.Trained,
) -> dict[str, float]:
    for layer, (fires_on, silent_on) in ledger.TRAINING_LAYERS.items():
        calls = len(idx.named(layer, root))
        if w.method in fires_on:
            out.check(calls > 0, f"layer {layer}: no calls on {w.name}")
        elif w.method in silent_on:
            out.check(calls == 0, f"layer {layer}: {calls} calls on {w.name}, expected none")
    # The self times add up to the root span by construction; the build
    # call's own wall time, taken outside the probes, is the independent
    # figure they must match.  A negative self time means overlapping or
    # misparented spans.
    self_by_layer = idx.tree_self(root)
    out.check(
        abs(sum(self_by_layer.values()) - traced.wall_s) <= SELF_SUM_TOLERANCE * traced.wall_s,
        f"layer self times sum to {sum(self_by_layer.values()):.4f} s, "
        f"the traced build call took {traced.wall_s:.4f} s",
    )
    negative = idx.negative_self(root)
    out.check(
        not negative,
        f"{len(negative)} layer spans have negative self time, "
        f"e.g. {negative[:3]}",
    )

    detail = traced.detail
    stats: BuildStats = detail if isinstance(detail, BuildStats) else detail.stats
    c = traced.counters
    count = lambda layer: float(len(idx.named(layer, root)))
    total = lambda layer: idx.total(layer, root)
    update_rows = sum(
        idx.rows(layer, root)
        for layer in ("histogram.update", "histogram.cat_update", "matrix.update")
    )
    linear_calls = count("linear.best")
    levels = float(c["levels"])
    stream = not isinstance(detail, BuildStats)
    return {
        "io.pages_read": float(c["pages_read"]),
        "io.records_read": float(c["records_read"]),
        "io.read_s": total("io.read"),
        "io.read_retries": float(c["read_retries"]),
        "parallel.scan_calls": count("parallel.scan"),
        "parallel.scan_s": total("parallel.scan"),
        "parallel.route_self_s": idx.self_total("parallel.scan", root),
        "histogram.update_calls": count("histogram.update"),
        "histogram.update_s": total("histogram.update"),
        "histogram.cat_update_calls": count("histogram.cat_update"),
        "histogram.cat_update_s": total("histogram.cat_update"),
        "matrix.update_calls": count("matrix.update"),
        "matrix.update_s": total("matrix.update"),
        "native.kernel_calls": float(stats.native_kernel_calls),
        "native.rows_per_call": update_rows / stats.native_kernel_calls
        if stats.native_kernel_calls
        else 0.0,
        "buffer.records": float(idx.rows("buffer.append", root)),
        "buffer.append_s": total("buffer.append"),
        "buffer.overflow_rescans": float(stats.buffer_overflow_rescans),
        "resolve.calls": count("resolve.exact"),
        "resolve.s": total("resolve.exact"),
        "resolve.other_s": idx.uncovered("phase:resolve", root),
        "decide.analyze_calls": count("decide.analyze"),
        "decide.analyze_s": total("decide.analyze"),
        "decide.estimate_s": total("decide.estimate"),
        "decide.choose_s": total("decide.choose"),
        "predict.calls": count("predict.split"),
        "predict.hit_rate": stats.prediction_accuracy,
        "cmpb.levels_per_scan": levels / c["scans"],
        "linear.calls": linear_calls,
        "linear.s": total("linear.best"),
        "linear.accept_rate": stats.linear_splits / linear_calls if linear_calls else 0.0,
        "discretize.s": total("discretize.extend")
        + total("discretize.edges")
        + total("discretize.histogram"),
        "phase.scan_s": stats.phase_seconds.get("scan", 0.0),
        "phase.resolve_s": stats.phase_seconds.get("resolve", 0.0),
        "tree.nodes": float(c["nodes"]),
        "tree.levels": levels,
        "build.traced_s": root.duration_s,
        "build.unattributed_s": idx.self_s[root.span_id],
        "stream.qsketch_extend_calls": count("stream.qsketch_extend"),
        "stream.qsketch_extend_s": total("stream.qsketch_extend"),
        "stream.hh_extend_s": total("stream.hh_extend"),
        "stream.splits": float(len(detail.split_meta)) if stream else 0.0,
        "stream.spilled_nodes": float(len(detail.spilled_nodes)) if stream else 0.0,
        "stream.declined_nodes": float(len(detail.declined_nodes)) if stream else 0.0,
        "stream.sketch_bytes_peak": float(detail.sketch_bytes_peak) if stream else 0.0,
    }


def _serving_ledger(
    idx: ledger.SpanIndex, server: serving.Server, served: serving.Served, spans
) -> dict[str, float]:
    p50 = lambda xs: serving.percentile(xs, 50) if xs else 0.0
    durs = lambda layer: [sp.duration_s for sp in idx.named(layer)]
    one_row = [
        sp for sp in spans if sp.name == "request" and sp.attrs.get("rows") == 1
    ]
    children: dict[int, float] = {}
    for sp in spans:
        if sp.name == "serve_batch" and sp.parent_id is not None:
            children[sp.parent_id] = sp.duration_s
    execute = [children[sp.span_id] for sp in one_row if sp.span_id in children]
    overhead = [
        sp.duration_s - children[sp.span_id] for sp in one_row if sp.span_id in children
    ]
    swap_ids = {sp.span_id for sp in idx.named("registry.hot_swap")}
    register_in_swap = [
        sp.duration_s
        for sp in idx.named("registry.register")
        if idx.layer_parent.get(sp.span_id) in swap_ids
    ]
    waits = [
        rec.queue_wait_s
        for rec in server.access_log.records()
        if rec.source == "batcher" and rec.outcome == "ok" and rec.queue_wait_s is not None
    ]
    flush_rows = [sp.attrs.get("rows", 0) for sp in spans if sp.name == "flush"]
    rung = served.rungs[serving.REPORT_RATE]
    return {
        "compiled.compile_ms": p50(durs("compiled.compile")) * 1e3,
        "engine.resolve_us": p50(durs("engine.resolve")) * 1e6,
        "engine.execute_us": p50(execute) * 1e6,
        "engine.overhead_us": p50(overhead) * 1e6,
        "admission.shed": float(server.access_log.outcome_counts()["shed"]),
        "batcher.queue_wait_p50_ms": p50(waits) * 1e3,
        "batcher.queue_wait_p99_ms": serving.percentile(waits, 99) * 1e3 if waits else 0.0,
        "batcher.batch_rows_mean": float(np.mean(flush_rows)) if flush_rows else 0.0,
        "batcher.flushes": float(len(flush_rows)),
        "registry.register_ms": p50(register_in_swap) * 1e3,
        "registry.swaps": float(len(swap_ids)),
        "obs.access_log_us": p50(durs("obs.access_record")) * 1e6,
        "loadgen.sent": float(rung.sent),
        "loadgen.late_p99_ms": serving.percentile(rung.late_s, 99) * 1e3,
        "loadgen.late_max_ms": max(rung.late_s) * 1e3,
    }


def _check_inspect_trace(out: Outcome, path: Path) -> None:
    from repro.cli import main as cli_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["inspect-trace", str(path), "--format", "json"])
    out.check(code == 0, f"cmp-repro inspect-trace {path.name} exited {code}")


def _format_ledger(idx: ledger.SpanIndex, root) -> str:
    rows = sorted(idx.tree_self(root).items(), key=lambda kv: -kv[1])
    lines = [f"self time per layer of the traced build ({root.duration_s:.3f} s):"]
    for layer, seconds in rows:
        name = "unattributed" if layer == "build" else layer
        lines.append(f"  {name:<24} {seconds:9.4f} s")
    return "\n".join(lines)

"""Tests for repro.obs.access: per-request logging across the serving stack.

The load-bearing invariant: **one record per request** — the engine
emits exactly one record per call it receives (whatever the outcome),
the micro-batcher exactly one per submitted request — and the record's
``outcome`` mirrors the aggregate ``ServingStats`` counters exactly.
"""

from __future__ import annotations

import io

import pytest

from repro.eval.treegen import random_batch, random_tree
from repro.obs import AccessLog, MetricsRegistry, Tracer, load_access_log
from repro.serve import (
    PRIOR_FALLBACK,
    BreakerPolicy,
    CircuitOpen,
    DeadlineExceeded,
    MicroBatcher,
    Overloaded,
    ServingEngine,
    StuckModel,
)
from repro.serve.faults import FlakyModel, ModelExecutionError


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _engine(access_log, **kwargs):
    tree = random_tree(depth=4, seed=30)
    engine = ServingEngine(access_log=access_log, **kwargs)
    key = engine.registry.register(tree)
    X = random_batch(tree.schema, 50, seed=31)
    return engine, tree, key, X


class TestRecordSchema:
    def test_jsonl_round_trip(self, tmp_path):
        log = AccessLog()
        log.record(
            source="engine",
            endpoint="ep",
            fingerprint="abc123",
            route="direct",
            method="predict",
            rows=10,
            outcome="ok",
            latency_s=0.0123,
            trace_id=7,
        )
        log.record(
            source="batcher",
            endpoint="ep",
            fingerprint=None,
            route=None,
            method="predict",
            rows=1,
            outcome="deadline",
            latency_s=0.5,
            queue_wait_s=0.4,
            batch_id=3,
        )
        path = tmp_path / "access.jsonl"
        assert log.write_jsonl(str(path)) == 2
        loaded = load_access_log(str(path))
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in log.records()
        ]
        assert loaded[0].trace_id == 7
        assert loaded[1].batch_id == 3
        assert loaded[1].queue_wait_s == pytest.approx(0.4)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            AccessLog().record(
                source="engine",
                endpoint="e",
                fingerprint=None,
                route=None,
                method="predict",
                rows=1,
                outcome="maybe",
                latency_s=0.0,
            )

    def test_malformed_line_names_line_number(self):
        buf = io.StringIO('{"ts": 1.0}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_access_log(buf)

    def test_capacity_evicts_oldest(self):
        capacity = 2
        log = AccessLog(capacity=capacity)

        def record(i):
            log.record(
                source="engine",
                endpoint=str(i),
                fingerprint=None,
                route=None,
                method="predict",
                rows=1,
                outcome="ok",
                latency_s=0.0,
            )

        for i in range(3):
            record(i)
        assert len(log) == 2
        assert log.dropped == 1
        assert [r.endpoint for r in log.records()] == ["1", "2"]
        for i in range(3, 10 * capacity):
            record(i)
        assert len(log) == capacity
        assert log.dropped == 9 * capacity
        assert [r.endpoint for r in log.records()] == ["18", "19"]


class TestEngineOutcomes:
    def test_one_ok_record_per_engine_call(self):
        log = AccessLog()
        engine, tree, key, X = _engine(log)
        engine.predict(key, X)
        engine.predict_proba(key, X[:10])
        recs = log.records()
        assert len(recs) == 2
        assert [r.outcome for r in recs] == ["ok", "ok"]
        assert [r.method for r in recs] == ["predict", "predict_proba"]
        assert [r.rows for r in recs] == [50, 10]
        assert all(r.source == "engine" for r in recs)
        assert all(r.route == "direct" for r in recs)
        assert all(r.fingerprint == key for r in recs)
        assert all(r.latency_s > 0 for r in recs)
        snap = engine.registry.stats(key).snapshot()
        assert log.outcome_counts()["ok"] == snap["batches"] == 2

    def test_shed_record(self):
        log = AccessLog()
        engine, tree, key, X = _engine(log, max_queue_depth=1)
        assert engine.admission.try_acquire()  # hog the only permit
        try:
            with pytest.raises(Overloaded):
                engine.predict(key, X)
        finally:
            engine.admission.release()
        (rec,) = log.records()
        assert rec.outcome == "shed"
        assert engine.registry.stats(key).snapshot()["shed"] == 1

    def test_deadline_record(self):
        log = AccessLog()
        engine, tree, key, X = _engine(log)
        with pytest.raises(DeadlineExceeded):
            engine.predict(key, X, deadline=1e-12)
        (rec,) = log.records()
        assert rec.outcome == "deadline"
        assert engine.registry.stats(key).snapshot()["timeouts"] == 1

    def test_error_record_names_exception(self):
        log = AccessLog()
        engine, tree, key, X = _engine(log)
        with pytest.raises(KeyError):
            engine.predict("no-such-model", X)
        (rec,) = log.records()
        assert rec.outcome == "error"
        assert rec.error == "KeyError"
        assert rec.endpoint == "no-such-model"
        assert rec.fingerprint is None

    def _tripped_engine(self, log, **kwargs):
        tree = random_tree(depth=4, seed=32)
        flaky = FlakyModel(tree.compiled(), fail_calls={0, 1, 2})
        policy = BreakerPolicy(
            failure_threshold=3, reset_timeout_s=10.0, clock=FakeClock()
        )
        engine = ServingEngine(
            access_log=log, breaker_policy=policy, shard_retries=0, **kwargs
        )
        key = engine.registry.register(flaky)
        X = random_batch(tree.schema, 20, seed=33)
        for _ in range(3):
            with pytest.raises(ModelExecutionError):
                engine.predict(key, X)
        return engine, key, X

    def test_breaker_record_when_open_without_fallback(self):
        log = AccessLog()
        engine, key, X = self._tripped_engine(log)
        with pytest.raises(CircuitOpen):
            engine.predict(key, X)
        outcomes = [r.outcome for r in log.records()]
        assert outcomes == ["error", "error", "error", "breaker"]
        assert all(
            r.error == "ModelExecutionError" for r in log.records()[:3]
        )
        snap = engine.registry.stats(key).snapshot()
        assert snap["breaker_rejections"] == 1 and snap["fallbacks"] == 0

    def test_fallback_record_when_degraded_answer_served(self):
        log = AccessLog()
        engine, key, X = self._tripped_engine(log, fallback=PRIOR_FALLBACK)
        engine.predict(key, X)  # answered by the prior
        assert log.records()[-1].outcome == "fallback"
        snap = engine.registry.stats(key).snapshot()
        assert snap["fallbacks"] == 1
        # Exactly one record per engine call, across all outcomes.
        assert len(log.records()) == snap["batches"] + snap["shed"] + snap[
            "timeouts"
        ] + snap["breaker_rejections"] + 3  # 3 = the seeding errors

    def test_trace_exemplar_resolves_to_request_span(self):
        log = AccessLog()
        tracer = Tracer()
        engine, tree, key, X = _engine(log, tracer=tracer)
        engine.predict(key, X)
        (rec,) = log.records()
        spans = {sp.span_id: sp for sp in tracer.spans()}
        assert spans[rec.trace_id].name == "request"
        assert spans[rec.trace_id].attrs["outcome"] == "ok"

    def test_untraced_records_have_no_trace_id(self):
        log = AccessLog()
        engine, tree, key, X = _engine(log)
        engine.predict(key, X)
        assert log.records()[0].trace_id is None


class TestBatcherOutcomes:
    def test_one_record_per_submitted_request(self):
        log = AccessLog()
        tree = random_tree(depth=4, seed=34)
        engine = ServingEngine(access_log=log)
        key = engine.registry.register(tree)
        X = random_batch(tree.schema, 12, seed=35)
        with MicroBatcher(engine, key, max_batch=4, max_delay_s=0.01) as mb:
            futures = [mb.submit(row) for row in X]
            for f in futures:
                f.result(timeout=10)
        batcher_recs = [r for r in log.records() if r.source == "batcher"]
        engine_recs = [r for r in log.records() if r.source == "engine"]
        assert len(batcher_recs) == 12
        assert all(r.outcome == "ok" for r in batcher_recs)
        assert all(r.rows == 1 for r in batcher_recs)
        assert all(r.batch_id is not None for r in batcher_recs)
        assert all(r.queue_wait_s is not None for r in batcher_recs)
        # Coalescing: several requests share a batch id, and each flush
        # produced exactly one engine record.
        assert len({r.batch_id for r in batcher_recs}) == len(engine_recs)
        snap = engine.registry.stats(key).snapshot()
        assert snap["requests"] == 12 and snap["batches"] == len(engine_recs)

    def test_shed_submission_logged(self):
        log = AccessLog()
        tree = random_tree(depth=3, seed=36)
        stuck = StuckModel(tree.compiled())
        engine = ServingEngine(access_log=log)
        key = engine.registry.register(stuck)
        X = random_batch(tree.schema, 4, seed=37)
        mb = MicroBatcher(engine, key, max_delay_s=0.001, max_pending=2)
        try:
            first = mb.submit(X[0])
            assert stuck.entered.wait(5.0)
            pending = [mb.submit(X[1]), mb.submit(X[2])]
            with pytest.raises(Overloaded):
                mb.submit(X[3])
            stuck.release.set()
            for f in [first, *pending]:
                f.result(timeout=5.0)
        finally:
            stuck.release.set()
            mb.close()
        batcher_recs = [r for r in log.records() if r.source == "batcher"]
        assert len(batcher_recs) == 4  # 3 served + 1 shed
        assert sorted(r.outcome for r in batcher_recs) == [
            "ok",
            "ok",
            "ok",
            "shed",
        ]
        shed = next(r for r in batcher_recs if r.outcome == "shed")
        assert shed.batch_id is None  # never made it into a flush

    def test_expired_submission_logged_as_deadline(self):
        log = AccessLog()
        tree = random_tree(depth=3, seed=38)
        engine = ServingEngine(access_log=log)
        key = engine.registry.register(tree)
        row = random_batch(tree.schema, 1, seed=39)[0]
        with MicroBatcher(engine, key, max_delay_s=0.001) as mb:
            f = mb.submit(row, deadline_s=1e-9)
            with pytest.raises(DeadlineExceeded):
                f.result(timeout=10)
        batcher_recs = [r for r in log.records() if r.source == "batcher"]
        assert len(batcher_recs) == 1
        assert batcher_recs[0].outcome == "deadline"


class TestRedMetrics:
    def test_counters_and_latency_emitted(self):
        reg = MetricsRegistry()
        log = AccessLog(metrics=reg)
        engine, tree, key, X = _engine(log)
        engine.predict(key, X)
        engine.predict(key, X)
        with pytest.raises(KeyError):
            engine.predict("missing", X)
        fp = key[:12]
        labels = {"endpoint": key, "fingerprint": fp, "outcome": "ok"}
        assert reg.counter("cmp_requests_total", labels=labels).value == 2
        err_labels = {"endpoint": "missing", "fingerprint": "unresolved"}
        assert (
            reg.counter("cmp_request_errors_total", labels=err_labels).value
            == 1
        )
        hist = reg.histogram(
            "cmp_request_latency_seconds",
            labels={"endpoint": key, "fingerprint": fp},
        )
        assert hist.count == 2
        assert hist.sum > 0

    def test_engine_without_log_records_nothing(self):
        engine, tree, key, X = _engine(None)
        engine.predict(key, X)
        assert engine.access_log is None

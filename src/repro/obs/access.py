"""Structured per-request access log for the serving front-end.

Aggregate :class:`~repro.io.metrics.ServingStats` counters say *how
many* requests were shed or timed out; they cannot say *which* request,
on *which* route, after waiting *how long*.  The access log closes that
gap: the serving engine emits exactly one :class:`AccessRecord` per
call it receives, and the micro-batcher one per *submitted* request
(distinguish with the ``source`` field — a flush of N queued requests
yields N ``batcher`` records plus one ``engine`` record for the
coalesced call), into a thread-safe :class:`AccessLog` that exports as
JSONL (one record per line, read back by :func:`load_access_log`).

The record schema is the per-request mirror of the robustness layer:

``outcome``
    ``ok`` (answered by the routed model), ``shed`` (admission control),
    ``deadline`` (budget expired before or during execution),
    ``breaker`` (circuit open, no degraded answer), ``fallback``
    (circuit open, answered by the fallback path), or ``error`` (any
    other failure — validation, unknown model, execution fault).
``route``
    ``stable`` / ``canary`` for endpoint traffic (the rollout split an
    aggregate counter cannot attribute per request), ``direct`` for raw
    fingerprint targets.
``queue_wait_s`` / ``batch_id``
    Micro-batcher provenance: how long the request sat in the queue and
    which flush executed it.  ``None`` for direct engine calls.
``trace_id``
    Span-id exemplar of the engine's ``request`` span when tracing is
    on — the join key from one logged request into the trace file.

When bound to a :class:`~repro.obs.metrics.MetricsRegistry`, every
record also feeds RED metrics per ``(endpoint, fingerprint)``:
``cmp_requests_total`` (rate, labelled by outcome),
``cmp_request_errors_total`` (every non-``ok`` outcome) and the
``cmp_request_latency_seconds`` histogram.

The log is observational only — recording never raises into the
serving path and never changes an answer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import IO, Iterator

from repro.obs.metrics import MetricsRegistry

#: Closed outcome vocabulary; see the module docstring.
OUTCOMES = ("ok", "shed", "deadline", "breaker", "fallback", "error")

#: Label length for fingerprints in RED metrics — long enough to be
#: unambiguous (the registry resolves >= 8-char prefixes), short enough
#: to keep exposition lines readable.
_FP_LABEL_CHARS = 12


@dataclass(frozen=True)
class AccessRecord:
    """One serving request, from submission to its final outcome."""

    #: Seconds since the epoch (``time.time``) at record emission.
    ts: float
    #: Emitting component: ``"engine"`` or ``"batcher"``.
    source: str
    #: What the caller addressed: endpoint name or raw fingerprint.
    endpoint: str
    #: Model that answered (or would have); ``None`` when resolution failed.
    fingerprint: str | None
    #: ``"stable"`` / ``"canary"`` / ``"direct"``; ``None`` pre-resolution.
    route: str | None
    #: Prediction method requested (``predict`` / ``predict_proba`` / ``apply``).
    method: str
    #: Rows in the request batch.
    rows: int
    #: One of :data:`OUTCOMES`.
    outcome: str
    #: Submission-to-outcome latency in seconds.
    latency_s: float
    #: Seconds queued in the micro-batcher (``None`` for direct calls).
    queue_wait_s: float | None = None
    #: Micro-batcher flush sequence number (``None`` for direct calls).
    batch_id: int | None = None
    #: Span id of the engine's ``request`` span (``None`` untraced).
    trace_id: int | None = None
    #: Exception class name for ``error`` outcomes.
    error: str | None = None
    #: Sticky routing key the caller supplied (``None`` for keyless
    #: requests) — lets hot-swap tests assert per-key version monotonicity
    #: straight from the log.
    route_key: str | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (one JSONL line)."""
        d = asdict(self)
        d["ts"] = round(self.ts, 6)
        d["latency_s"] = round(self.latency_s, 9)
        if self.queue_wait_s is not None:
            d["queue_wait_s"] = round(self.queue_wait_s, 9)
        return d

    @classmethod
    def from_dict(cls, obj: dict[str, object]) -> "AccessRecord":
        return cls(
            ts=float(obj["ts"]),  # type: ignore[arg-type]
            source=str(obj["source"]),
            endpoint=str(obj["endpoint"]),
            fingerprint=obj.get("fingerprint"),  # type: ignore[arg-type]
            route=obj.get("route"),  # type: ignore[arg-type]
            method=str(obj["method"]),
            rows=int(obj["rows"]),  # type: ignore[arg-type]
            outcome=str(obj["outcome"]),
            latency_s=float(obj["latency_s"]),  # type: ignore[arg-type]
            queue_wait_s=obj.get("queue_wait_s"),  # type: ignore[arg-type]
            batch_id=obj.get("batch_id"),  # type: ignore[arg-type]
            trace_id=obj.get("trace_id"),  # type: ignore[arg-type]
            error=obj.get("error"),  # type: ignore[arg-type]
            route_key=obj.get("route_key"),  # type: ignore[arg-type]
        )


class AccessLog:
    """Thread-safe accumulator of :class:`AccessRecord` entries.

    Optionally bound to a :class:`MetricsRegistry`, in which case every
    record also increments the RED families described in the module
    docstring.  ``capacity`` bounds memory for long-running engines:
    once exceeded, the oldest records are dropped (the RED metrics keep
    the full totals).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.metrics = metrics
        self.capacity = capacity
        self._records: deque[AccessRecord] = deque(maxlen=capacity)
        self._dropped = 0
        self._lock = threading.Lock()

    def record(
        self,
        *,
        source: str,
        endpoint: str,
        fingerprint: str | None,
        route: str | None,
        method: str,
        rows: int,
        outcome: str,
        latency_s: float,
        queue_wait_s: float | None = None,
        batch_id: int | None = None,
        trace_id: int | None = None,
        error: str | None = None,
        route_key: str | None = None,
    ) -> AccessRecord:
        """Append one request record (and update bound RED metrics)."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; expected {OUTCOMES}")
        rec = AccessRecord(
            ts=time.time(),
            source=source,
            endpoint=endpoint,
            fingerprint=fingerprint,
            route=route,
            method=method,
            rows=rows,
            outcome=outcome,
            latency_s=latency_s,
            queue_wait_s=queue_wait_s,
            batch_id=batch_id,
            trace_id=trace_id,
            error=error,
            route_key=route_key,
        )
        with self._lock:
            if len(self._records) == self.capacity:
                self._dropped += 1
            self._records.append(rec)
        if self.metrics is not None:
            self._emit_red(rec)
        return rec

    def _emit_red(self, rec: AccessRecord) -> None:
        fp = (rec.fingerprint or "unresolved")[:_FP_LABEL_CHARS]
        base = {"endpoint": rec.endpoint, "fingerprint": fp}
        self.metrics.counter(
            "cmp_requests_total",
            "Serving requests by endpoint, fingerprint and outcome.",
            {**base, "outcome": rec.outcome},
        ).inc()
        if rec.outcome != "ok":
            self.metrics.counter(
                "cmp_request_errors_total",
                "Serving requests that did not get the routed model's answer.",
                base,
            ).inc()
        self.metrics.histogram(
            "cmp_request_latency_seconds",
            "Per-request serving latency (submission to outcome).",
            base,
        ).observe(rec.latency_s)

    # -- reading -------------------------------------------------------------

    def records(self) -> list[AccessRecord]:
        """Snapshot of retained records, in emission order."""
        with self._lock:
            return list(self._records)

    @property
    def dropped(self) -> int:
        """Records evicted by the capacity bound (0 when unbounded)."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def outcome_counts(self) -> dict[str, int]:
        """Retained records per outcome (zero-filled over the vocabulary)."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for rec in self.records():
            counts[rec.outcome] += 1
        return counts

    # -- export --------------------------------------------------------------

    def write_jsonl(self, path_or_file: "str | IO[str]") -> int:
        """Write one JSON object per record; returns the record count."""
        records = self.records()
        if hasattr(path_or_file, "write"):
            for rec in records:
                path_or_file.write(json.dumps(rec.to_dict()) + "\n")  # type: ignore[union-attr]
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
                for rec in records:
                    fh.write(json.dumps(rec.to_dict()) + "\n")
        return len(records)


def load_access_log(path_or_file: "str | IO[str]") -> list[AccessRecord]:
    """Read records back from a :meth:`AccessLog.write_jsonl` file.

    Malformed lines raise ``ValueError`` naming the line number — same
    loud-failure contract as :func:`repro.obs.trace.load_trace_jsonl`.
    """

    def _parse(lines: Iterator[str]) -> list[AccessRecord]:
        records: list[AccessRecord] = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(AccessRecord.from_dict(json.loads(line)))
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ValueError(f"bad access-log line {lineno}: {exc}") from exc
        return records

    if hasattr(path_or_file, "read"):
        return _parse(iter(path_or_file))  # type: ignore[arg-type]
    with open(path_or_file, "r", encoding="utf-8") as fh:  # type: ignore[arg-type]
        return _parse(iter(fh))


__all__ = ["AccessRecord", "AccessLog", "load_access_log", "OUTCOMES"]

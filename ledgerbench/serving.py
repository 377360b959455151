"""The serving half of a run: closed-loop calls, big batches, open-loop load.

One production-configured :class:`~repro.serve.engine.ServingEngine`
(admission, a circuit breaker, a bounded access log; tracer off unless the
run is traced) serves an endpoint that alternates between two trees.  A
run calls :meth:`Server.serve_slice` once per round, between builds, so
every serving number is sampled across the whole run rather than in one
window: the shared 2-vCPU host switches between a fast and a ~1.5-1.9x
slower phase, for seconds at a time, and a single window lands in one
phase.  Each slice runs, in order:

a. closed loop: single-row ``DecisionTree.predict`` calls on the first
   tree, then single-row ``ServingEngine.predict`` calls on the endpoint;
b. 8192-row ``ServingEngine.predict`` batches;
c. open loop (a and b run in one short burst before each rung): a
   :class:`~repro.serve.batcher.MicroBatcher` fed on a fixed schedule at
   each rate of the slice; during the :data:`SWAP_RATE` rung the
   generator thread also hot-swaps the endpoint between the two trees
   every :data:`SWAP_EVERY_S`.  Each request is timed from the moment it
   was due, so a stalled generator or queue shows up as latency; a
   request that is shed, expires or errors counts as missing the limit.
   A rung whose generator ran more than the limit late (p99) is invalid:
   it is left out of ``serve_max_rps``, and the traced run counts an
   invalid report rung as a failed check instead of reading its latency.

A timed run's slices use the swap and report rungs only, and report only
the batch throughput; their other calls are there for the answer checks.
The traced run also serves one untraced slice of the full :data:`LADDER`;
its single-row, tail and overload figures (:func:`serve_metrics`: p50s,
p99s, goodput, answered share, swap time) go into the per-layer ledger.
On the shared host they spread 0.3-1.4 (IQR over median) across seeds,
too far for a gated end-to-end metric.
A rung's goodput is the requests answered within :data:`LIMIT_S` per
second of schedule; ``serve_max_rps`` is the highest goodput of the
ladder's valid rungs, so it reads the sustainable rate instead of the
last rung.  It is capped by the top rung: past ~32k req/s this one
generator thread itself runs late (48k and 64k rungs were invalid), so
when the engine keeps up with the top rung the figure is the cap, not
the engine's capacity.

Only two threads run: the generator (this thread, which also issues the
swaps) and the batcher's flush thread; the engine has ``workers=1``.
"""

from __future__ import annotations

import gc
import math
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from repro.core.tree import DecisionTree
from repro.obs.access import AccessLog
from repro.serve.admission import DeadlineExceeded, Overloaded
from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import BreakerPolicy
from repro.serve.engine import ModelRegistry, ServingEngine

ENDPOINT = "ledger"
BATCH_ROWS = 8192
#: Open-loop request rates (req/s) of the full ladder, and the rate the
#: latency metrics use.
LADDER = (1000, 2000, 4000, 8000, 16000, 32000)
REPORT_RATE = 2000
#: Latency limit on the open-loop p99, also each request's deadline.
LIMIT_S = 0.025
#: Hot swaps run only during the 1k req/s rung, every 0.1 s.  Each one
#: holds up the requests due while it runs, and at this interval they are
#: a few percent of the rung: a report rung with swaps would put its p99
#: at the edge of the swap-delayed share and flip from run to run.
SWAP_RATE = 1000
SWAP_EVERY_S = 0.1
MAX_BATCH = 256
MAX_DELAY_S = 0.002
MAX_PENDING = 256
ACCESS_LOG_CAPACITY = 10_000
#: Per slice: closed-loop single-row calls of each kind and 8192-row
#: batches (each split over the slice's bursts), and the open-loop
#: seconds of a plain rung and of the swap rung (five swaps).
TREE_CALLS = 420
ENGINE_CALLS = 1020
BATCH_CALLS = 12
RUNG_S = 0.25
SWAP_RUNG_S = 0.5
#: Seconds of the report rate's rung: its p99 needs enough samples that
#: one ~30 ms host stall (60 requests at 2k/s) stays under 1%.
REPORT_RUNG_S = 1.0
#: The rungs of a timed run's slices.
TIMED_RATES = (SWAP_RATE, REPORT_RATE)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation, so ``inf`` is safe)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Rung:
    """Open-loop totals of one ladder rate, pooled over the run's slices."""

    rate: int
    seconds: float = 0.0
    sent: int = 0
    ok: int = 0
    shed: int = 0
    expired: int = 0
    errored: int = 0
    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    #: Per slice: p99 latency and goodput (answered in time per second).
    slice_p99_s: list[float] = field(default_factory=list)
    slice_goodput: list[float] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return percentile(self.late_s, 99) <= LIMIT_S


@dataclass
class Served:
    """Everything the serving half measured, plus its failed checks."""

    tree_1row_s: list[float] = field(default_factory=list)
    engine_1row_s: list[float] = field(default_factory=list)
    #: p99 of each slice's single-row engine calls.
    engine_slice_p99_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    rungs: dict[int, Rung] = field(default_factory=dict)
    swap_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Count one failed operation (the first few are kept verbatim)."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


class Server:
    """One engine + endpoint serving two trees that the run swaps between."""

    def __init__(
        self, trees: tuple[DecisionTree, DecisionTree], holdout_X, tracer=None
    ) -> None:
        self.trees = trees
        self.X = holdout_X
        self.preds = tuple(t.compiled().predict(holdout_X) for t in trees)
        self.access_log = AccessLog(capacity=ACCESS_LOG_CAPACITY)
        self.registry = ModelRegistry()
        self.engine = ServingEngine(
            self.registry,
            workers=1,
            tracer=tracer,
            access_log=self.access_log,
            max_queue_depth=64,
            breaker_policy=BreakerPolicy(),
        )
        self.registry.hot_swap(ENDPOINT, trees[0])
        self.serving = 0
        self.version = self.registry.endpoint_version(ENDPOINT)
        self.batcher = MicroBatcher(
            self.engine,
            ENDPOINT,
            max_batch=MAX_BATCH,
            max_delay_s=MAX_DELAY_S,
            max_pending=MAX_PENDING,
            default_deadline_s=LIMIT_S,
        )
        self.out = Served()
        self.bursts = 0

    def close(self) -> None:
        self.batcher.close()
        self.engine.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def serve_slice(
        self, rates: tuple[int, ...] = TIMED_RATES, report_rung_s: float = REPORT_RUNG_S
    ) -> None:
        """Phases a-c once, one open-loop rung per rate, adding to :attr:`out`."""
        # A serving process loads its models once; moving everything alive
        # now (datasets, trees, the run's bookkeeping) out of the cyclic
        # collector's reach keeps full collections from scanning set-up
        # state mid-request.  Unfrozen again so builds collect normally.
        gc.collect()
        gc.freeze()
        try:
            # The closed-loop and batch calls are split into one burst per
            # rung, so they too are sampled across the slice.
            bursts = len(rates)
            engine_from = len(self.out.engine_1row_s)
            for rate in rates:
                offset = (self.bursts * 997) % (len(self.X) // 2)
                self.bursts += 1
                self._closed_loop(
                    -(-TREE_CALLS // bursts), -(-ENGINE_CALLS // bursts), offset
                )
                self._batches(-(-BATCH_CALLS // bursts))
                if rate == SWAP_RATE:
                    self._rung(rate, SWAP_RUNG_S, swap_every=SWAP_EVERY_S)
                    if self.serving != 0:
                        self._swap(timed=False)  # phases a and b use the primary
                elif rate == REPORT_RATE:
                    self._rung(rate, report_rung_s)
                else:
                    self._rung(rate, RUNG_S)
            self.out.engine_slice_p99_s.append(
                percentile(self.out.engine_1row_s[engine_from:], 99)
            )
        finally:
            gc.unfreeze()

    def _swap(self, timed: bool = True) -> None:
        """Hot-swap to the other tree; the endpoint version must rise."""
        out = self.out
        nxt = 1 - self.serving
        start = time.perf_counter()
        self.registry.hot_swap(ENDPOINT, self.trees[nxt])
        if timed:
            out.swap_s.append(time.perf_counter() - start)
        out.attempted += 1
        self.serving = nxt
        version = self.registry.endpoint_version(ENDPOINT)
        if version <= self.version:
            out.fail(f"endpoint version went from {self.version} to {version}")
        self.version = version

    def _closed_loop(self, tree_calls: int, engine_calls: int, offset: int) -> None:
        out, X, expect = self.out, self.X, self.preds[0]
        tree = self.trees[0]
        clock = time.perf_counter
        for i in range(offset, offset + tree_calls):
            row = X[i : i + 1]
            start = clock()
            got = tree.predict(row)
            out.tree_1row_s.append(clock() - start)
            if got[0] != expect[i]:
                out.fail(f"DecisionTree.predict row {i}: {got[0]} != {expect[i]}")
        expect = self.preds[0]
        engine = self.engine
        for i in range(offset, offset + engine_calls):
            row = X[i : i + 1]
            start = clock()
            got = engine.predict(ENDPOINT, row)
            out.engine_1row_s.append(clock() - start)
            if got[0] != expect[i]:
                out.fail(f"ServingEngine.predict row {i}: {got[0]} != {expect[i]}")
        out.attempted += tree_calls + engine_calls

    def _batches(self, calls: int) -> None:
        out, X, expect = self.out, self.X, self.preds[0]
        span = len(X) - BATCH_ROWS
        for k in range(calls):
            lo = ((self.bursts + k) * 7919) % span
            start = time.perf_counter()
            got = self.engine.predict(ENDPOINT, X[lo : lo + BATCH_ROWS])
            out.batch_s.append(time.perf_counter() - start)
            if not np.array_equal(got, expect[lo : lo + BATCH_ROWS]):
                out.fail(f"8192-row batch at {lo} differs from CompiledTree.predict")
        out.attempted += calls

    def _rung(self, rate: int, seconds: float, swap_every: float = math.inf) -> None:
        out = self.out
        n = int(rate * seconds)
        X, (pa, pb) = self.X, self.preds
        rows = len(X)
        clock, sleep = time.perf_counter, time.sleep
        # Filled by the done-callback in the flush thread, so the generator
        # keeps no Future alive (fewer objects for the cyclic GC to scan).
        done_at = [math.inf] * n
        answers: list[object] = [None] * n
        finished = [0]

        def record(f: Future, i: int) -> None:
            done_at[i] = clock()
            exc = f.exception()
            answers[i] = exc if exc is not None else f.result()
            finished[0] += 1

        late = [0.0] * n
        submitted = 0
        submit = self.batcher.submit
        t0 = clock() + 0.001
        next_swap = t0 + swap_every
        for i in range(n):
            due = t0 + i / rate
            now = clock()
            if due > now:
                sleep(due - now)
                now = clock()
            late[i] = now - due
            try:
                f = submit(X[i % rows])
            except Overloaded:
                pass  # shed: answers[i] stays None
            else:
                submitted += 1
                f.add_done_callback(lambda f, i=i: record(f, i))
            if now >= next_swap:
                self._swap()
                next_swap += swap_every
        drain_until = clock() + 10.0
        while finished[0] < submitted and clock() < drain_until:
            sleep(0.001)
        if finished[0] < submitted:
            out.fail(f"{submitted - finished[0]} open-loop requests never completed")
        rung = out.rungs.setdefault(rate, Rung(rate))
        in_time = 0
        for i, got in enumerate(answers):
            latency = math.inf
            if got is None:
                rung.shed += 1
            elif isinstance(got, DeadlineExceeded):
                rung.expired += 1
            elif isinstance(got, BaseException):
                rung.errored += 1
                out.fail(f"open-loop request {i} failed: {type(got).__name__}: {got}")
            else:
                j = i % rows
                if got != pa[j] and got != pb[j]:
                    out.fail(f"open-loop row {j}: {got} matches neither tree")
                rung.ok += 1
                latency = done_at[i] - (t0 + i / rate)
                in_time += latency <= LIMIT_S
            rung.latency_s.append(latency)
        rung.slice_p99_s.append(percentile(rung.latency_s[-n:], 99))
        rung.slice_goodput.append(in_time / seconds)
        rung.late_s.extend(late)
        rung.sent += n
        rung.seconds += n / rate
        out.attempted += n


def serve_metrics(out: Served) -> dict[str, float]:
    """The serving metrics of one run.

    Tail percentiles are taken per slice and the median over slices is
    reported, so one slice that met a host stall does not decide the run.
    """
    report = out.rungs[REPORT_RATE]

    def ms(seconds: float) -> float:
        # A percentile landing on a failed request has no latency; report
        # the rung's whole schedule, past any limit, so the JSON stays finite.
        return (seconds if math.isfinite(seconds) else report.seconds) * 1e3

    rungs = out.rungs.values()
    valid = [r for r in rungs if r.valid]
    return {
        "tree_predict_1row_us": percentile(out.tree_1row_s, 50) * 1e6,
        "engine_1row_p50_us": percentile(out.engine_1row_s, 50) * 1e6,
        "engine_1row_p99_us": median(out.engine_slice_p99_s) * 1e6,
        "batch_rows_per_s": BATCH_ROWS / percentile(out.batch_s, 50),
        "serve_p50_ms": ms(percentile(report.latency_s, 50)),
        "serve_p99_ms": ms(median(report.slice_p99_s)),
        "serve_max_rps": max((median(r.slice_goodput) for r in valid), default=0.0),
        "serve_ok_frac": sum(r.ok for r in rungs) / sum(r.sent for r in rungs),
        "swap_ms": percentile(out.swap_s, 50) * 1e3,
    }


def describe(out: Served) -> str:
    """One line of sample counts and per-rung results."""
    return (
        f"samples: tree 1-row {len(out.tree_1row_s)}, engine 1-row "
        f"{len(out.engine_1row_s)}, batches {len(out.batch_s)}, swaps "
        f"{len(out.swap_s)}; open loop "
        + ", ".join(
            f"{r.rate}/s: {r.sent} sent {r.ok} ok {r.shed} shed "
            f"{r.expired} expired {r.errored} errored "
            f"p99 {percentile(r.latency_s, 99) * 1e3:.1f} ms "
            f"late p99 {percentile(r.late_s, 99) * 1e3:.1f} ms"
            + ("" if r.valid else " (invalid: generator late)")
            for r in out.rungs.values()
        )
    )

"""Bagged CMP-S forests trained with shared level scans.

Training ``T`` bootstrap members independently costs ``T`` full table
scans per tree level.  :class:`BaggedForestBuilder` grows all members
level-synchronously instead: **one** scan per level routes each chunk
once and scatters per-member accumulator deltas keyed by
``(tree_id, slot)``, merged in submission (= chunk) order.  The trick
that makes this exact is representing member ``t``'s bootstrap draw as
per-record multiplicity *weights* over the original table rather than a
materialized resampled copy:

* histogram updates add each drawn record with its weight (the grouped
  route's weighted kernels) — exact for integer-valued float64 weights,
  hence bit-identical to the repeated unit adds a materialized bootstrap
  sample would produce;
* alive-interval buffers append ``np.repeat``-expanded rows, so the
  concatenated buffer contents equal the solo build's byte for byte
  (both walk records in ascending original order);
* the per-member ``nid`` column marks never-drawn records ``-1`` — a
  slot number is never negative, so those records belong to no routing
  group and need no explicit weight filter.

Each member also consumes exactly the random stream its solo twin
would: the scan-1 reservoirs are fed the member's *expanded* value
stream re-chunked to the table's chunk size (same ``extend`` batch
lengths, same shared per-member generator, same attribute
interleaving).  The resulting guarantee — asserted by the differential
harness — is that member ``t`` is **bit-identical** to::

    cfg_t = config.with_(seed=member_seed(config.seed, t))
    CMPSBuilder(cfg_t).build(dataset.take(np.sort(bootstrap_indices(config.seed, t, n))))

while the shared loop reads the table once per level instead of ``T``
times.  Every member settles its level — resolve, decide, remap, PUBLIC
pass — through a :class:`~repro.core.level_driver.LevelDriver` over a
per-member :class:`~repro.core.cmp_s.CMPSBuilder`, the same step a solo
build runs, so the two code paths cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.config import BuilderConfig
from repro.core import native_scan
from repro.core.builder import (
    PartState,
    RecordBuffer,
    charge_nid,
    make_part_hists,
)
from repro.core.checkpoint import SlotCounter
from repro.core.cmp_s import CMPSBuilder, PendingSplit
from repro.core.level_driver import LevelDriver, ScanTarget, route_grouped
from repro.core.parallel import ScanEngine
from repro.core.tree import DecisionTree, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import ReservoirSampler, equal_depth_edges
from repro.ensemble.bootstrap import bootstrap_weights, member_seed
from repro.ensemble.forest import Forest, ForestBuildResult
from repro.io.metrics import BuildStats, Stopwatch
from repro.io.pager import ScanChunk
from repro.io.retry import RetryingTable
from repro.obs.trace import NULL_TRACER


class _PrefixedLedger:
    """Namespaces one member's ledger keys inside the shared tracker.

    A member's level settling allocates keys like
    ``parts/{node_id}`` — node ids restart at zero for every member, so
    without a prefix the members would silently replace each other's
    allocations.
    """

    def __init__(self, inner, prefix: str) -> None:
        self._inner = inner
        self._prefix = prefix

    def allocate(self, name: str, nbytes: int) -> None:
        self._inner.allocate(self._prefix + name, nbytes)

    def release(self, name: str) -> None:
        self._inner.release(self._prefix + name)


class _MemberStats:
    """The slice of :class:`BuildStats` a member's level settling touches.

    A full ``BuildStats`` per member would double-count wall clock and
    I/O; settling only needs a memory ledger and the exact-resolution
    counter, so that is all this facade carries.  The counter is folded
    into the shared stats by the caller.
    """

    def __init__(self, shared: BuildStats, t: int) -> None:
        self.memory = _PrefixedLedger(shared.memory, f"m{t}/")
        self.splits_resolved_exactly = 0


class BaggedForestBuilder:
    """Bootstrap-aggregated CMP-S forest with shared level scans."""

    name = "bagged-CMP-S"

    def __init__(
        self,
        config: BuilderConfig | None = None,
        n_trees: int = 10,
        tracer=None,
    ) -> None:
        self.config = config if config is not None else BuilderConfig()
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.config.checkpoint_path:
            raise ValueError(f"{self.name} does not support checkpointing")
        if self.config.criterion != "gini":
            raise ValueError(f"{self.name} supports only the gini criterion")
        self.n_trees = int(n_trees)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def build(self, dataset: Dataset) -> ForestBuildResult:
        """Train the forest; one table scan per shared tree level."""
        if dataset.n_records == 0:
            raise ValueError("cannot build a forest on an empty dataset")
        stats = BuildStats()
        stats.scan_workers = self.config.scan_workers
        stats.tracer = self.tracer
        kernel_calls_before = native_scan.kernel_calls_total()
        engine = ScanEngine(
            self.config.scan_workers,
            tracer=self.tracer,
            backend=self.config.scan_backend,
        )
        stats.scan_backend = engine.effective_backend
        with Stopwatch(stats):
            with self.tracer.span(
                "build",
                builder=self.name,
                records=dataset.n_records,
                members=self.n_trees,
            ) as build_span:
                try:
                    trees = self._build_members(dataset, stats, engine)
                finally:
                    stats.parallel_batches += engine.batches_dispatched
                    engine.close()
                if self.config.prune == "mdl":
                    from repro.pruning.mdl import mdl_prune

                    with stats.phase("prune"):
                        for tree in trees:
                            mdl_prune(tree)
        stats.nodes_created = sum(t.n_nodes for t in trees)
        stats.leaves = sum(t.n_leaves for t in trees)
        stats.levels_built = max(t.depth for t in trees)
        stats.ensemble_members = self.n_trees
        stats.native_kernel_calls = (
            native_scan.kernel_calls_total() - kernel_calls_before
        )
        build_span.annotate(
            scans=stats.io.scans,
            pages_read=stats.io.pages_read,
            levels=stats.levels_built,
            nodes=stats.nodes_created,
            wall_seconds=round(stats.wall_seconds, 6),
        )
        forest = Forest(trees, mode="average")
        return ForestBuildResult(forest=forest, stats=stats)

    # -- the shared level-synchronous loop ------------------------------------

    def _build_members(
        self, dataset: Dataset, stats: BuildStats, engine: ScanEngine
    ) -> list[DecisionTree]:
        cfg = self.config
        schema = dataset.schema
        n, c = dataset.n_records, dataset.n_classes
        T = self.n_trees
        cont = schema.continuous_indices()
        table = RetryingTable(
            dataset.as_paged(stats.io, cfg.page_records),
            cfg.scan_retries,
            cfg.retry_backoff_ms,
            tracer=self.tracer,
        )

        # Per-member machinery: a helper CMPSBuilder carrying the member's
        # derived seed supplies every split decision/resolution, so those
        # computations are literally the solo build's code.
        helpers = [
            CMPSBuilder(cfg.with_(seed=member_seed(cfg.seed, t)), tracer=self.tracer)
            for t in range(T)
        ]
        weights = [bootstrap_weights(cfg.seed, t, n) for t in range(T)]
        mstats = [_MemberStats(stats, t) for t in range(T)]

        # --- Scan 1 (shared): quantiling pass. ----------------------------
        # Solo scan 1 is serial (reservoir sampling consumes records in
        # stream order); here one serial pass feeds every member.  Each
        # member's reservoirs must see its *bootstrap-expanded* value
        # stream in batches of the solo build's chunk size, interleaved
        # per attribute exactly like the solo loop, so the member's rng
        # consumption replays identically.
        chunk_cap = cfg.page_records * table.pages_per_chunk
        rngs = [np.random.default_rng(helpers[t].config.seed) for t in range(T)]
        reservoirs = [
            {j: ReservoirSampler(cfg.reservoir_capacity, rngs[t]) for j in cont}
            for t in range(T)
        ]
        totals = np.zeros((T, c), dtype=np.float64)
        pend: list[list[np.ndarray]] = [[] for _ in range(T)]
        pend_len = [0] * T

        def emit_pseudo_chunk(t: int, block: np.ndarray) -> None:
            for j in cont:
                reservoirs[t][j].extend(block[:, j])

        with stats.phase("scan"):
            for chunk in table.scan():
                for t in range(T):
                    w = weights[t][chunk.start : chunk.stop]
                    totals[t] += np.bincount(chunk.y, weights=w, minlength=c)
                    rep = np.repeat(
                        np.arange(chunk.stop - chunk.start), w.astype(np.int64)
                    )
                    if rep.size:
                        pend[t].append(chunk.X[rep])
                        pend_len[t] += rep.size
                    while pend_len[t] >= chunk_cap:
                        block = (
                            np.concatenate(pend[t])
                            if len(pend[t]) > 1
                            else pend[t][0]
                        )
                        emit_pseudo_chunk(t, block[:chunk_cap])
                        rest = block[chunk_cap:]
                        pend[t] = [rest] if len(rest) else []
                        pend_len[t] = len(rest)
            for t in range(T):
                if pend_len[t]:
                    block = (
                        np.concatenate(pend[t]) if len(pend[t]) > 1 else pend[t][0]
                    )
                    emit_pseudo_chunk(t, block)
        del pend

        root_edges = [
            {
                j: equal_depth_edges(reservoirs[t][j].sample(), cfg.n_intervals)
                for j in cont
            }
            for t in range(T)
        ]
        del reservoirs

        # Member t's record→slot map lives in column t; never-drawn
        # records stay -1 for the whole build.
        nid = np.full((n, T), -1, dtype=np.int64)
        for t in range(T):
            nid[weights[t] > 0, t] = 0
        drivers = []
        for t in range(T):
            account = TreeAccount()
            root = account.new_node(0, totals[t].copy())
            drivers.append(
                LevelDriver(
                    helpers[t], schema, mstats[t], account, root, nid[:, t], SlotCounter()
                )
            )

        # --- Scan 2 (shared): root histograms. ----------------------------
        root_parts = [
            PartState(0, c, make_part_hists(schema, root_edges[t])) for t in range(T)
        ]
        for t in range(T):
            mstats[t].memory.allocate("hist/root", root_parts[t].nbytes())

        def route_root(chunk: ScanChunk, parts: list[PartState]) -> None:
            for t, part in enumerate(parts):
                w = weights[t][chunk.start : chunk.stop]
                drawn = w > 0
                if drawn.any():
                    part.update(chunk.X[drawn], chunk.y[drawn], w[drawn])

        with stats.phase("scan"):
            engine.scan(
                table,
                route=route_root,
                live=root_parts,
                make_delta=lambda: [p.clone_empty() for p in root_parts],
                merge_delta=lambda delta: [
                    p.merge_from(d) for p, d in zip(root_parts, delta)
                ],
                memory=stats.memory,
                delta_nbytes=sum(p.nbytes() for p in root_parts),
            )
        charge_nid(stats, n * T)

        pendings: list[dict[int, PendingSplit]] = [{} for _ in range(T)]
        with stats.phase("resolve"):
            for t in range(T):
                first = drivers[t].decide(drivers[t].root, root_parts[t])
                mstats[t].memory.release("hist/root")
                if first is not None:
                    pendings[t][0] = first
        del root_parts

        # --- One shared scan per level. ------------------------------------
        level = 0
        while any(pendings):
            live = {t: pendings[t] for t in range(T) if pendings[t]}
            stats.shared_level_scans += 1
            with stats.tracer.span(
                "level",
                level=level + 1,
                members=len(live),
                pendings=sum(len(d) for d in live.values()),
            ):
                with stats.phase("scan"):
                    engine.scan(
                        table,
                        route=lambda chunk, tgt: self._route_members(
                            chunk, nid, weights, tgt
                        ),
                        live={t: ScanTarget(d) for t, d in live.items()},
                        make_delta=lambda: {
                            t: ScanTarget(
                                (slot, p.scan_delta()) for slot, p in d.items()
                            )
                            for t, d in live.items()
                        },
                        merge_delta=lambda delta: [
                            live[t][slot].merge_scan_delta(dp)
                            for t, d in delta.items()
                            for slot, dp in d.items()
                        ],
                        memory=stats.memory,
                        delta_nbytes=sum(
                            p.delta_nbytes() for d in live.values() for p in d.values()
                        ),
                        writeback=nid,
                    )
                charge_nid(stats, n * len(live))
                overflowed = {
                    t: [p for p in d.values() if p.buffer.overflowed]
                    for t, d in live.items()
                }
                overflowed = {t: ps for t, ps in overflowed.items() if ps}
                if overflowed:
                    with stats.phase("scan"):
                        self._refill_overflowed(
                            table, nid, weights, overflowed, stats, n, engine
                        )
                for t, d in live.items():
                    drivers[t].charge_buffers(d)

                with stats.phase("resolve"):
                    for t in sorted(live):
                        pendings[t] = drivers[t].settle(live[t])
                level += 1

        stats.splits_resolved_exactly += sum(
            ms.splits_resolved_exactly for ms in mstats
        )
        return [DecisionTree(d.root, schema) for d in drivers]

    # -- scan-time routing ----------------------------------------------------

    @staticmethod
    def _route_members(
        chunk: ScanChunk,
        nid: np.ndarray,
        weights: list[np.ndarray],
        tgt: dict[int, ScanTarget],
    ) -> None:
        """Route one chunk through every live member's pending splits.

        Each member takes a solo build's grouped route (``route_grouped``)
        with its draw counts as weights: weighted part updates and
        ``np.repeat``-expanded buffer appends; see the module docstring
        for why both are exact.
        """
        for t, pendings in tgt.items():
            route_grouped(
                pendings,
                chunk,
                nid[chunk.start : chunk.stop, t],
                weights[t][chunk.start : chunk.stop],
            )

    def _refill_overflowed(
        self,
        table,
        nid: np.ndarray,
        weights: list[np.ndarray],
        overflowed: dict[int, list[PendingSplit]],
        stats: BuildStats,
        n: int,
        engine: ScanEngine,
    ) -> None:
        """Re-collect dropped alive-interval buffers with one extra scan.

        Same degradation path as a solo build's refill scan —
        alive records keep their parent slot, so one shared pass refills
        every overflowed member buffer in the exact append order of the
        un-budgeted path (expanded rows, ascending record order).
        """
        stats.buffer_overflow_rescans += 1
        by_key: dict[tuple[int, int], PendingSplit] = {}
        for t, ps in overflowed.items():
            for p in ps:
                p.buffer = RecordBuffer()  # unbounded, as in the solo path
                by_key[(t, p.parent_slot)] = p

        def route(chunk: ScanChunk, buffers: dict[tuple[int, int], RecordBuffer]) -> None:
            for (t, slot), buf in buffers.items():
                mask = nid[chunk.start : chunk.stop, t] == slot
                if mask.any():
                    reps = weights[t][chunk.start : chunk.stop][mask].astype(np.int64)
                    buf.append(
                        np.repeat(chunk.X[mask], reps, axis=0),
                        np.repeat(chunk.y[mask], reps),
                        np.repeat(chunk.rids[mask], reps),
                    )

        engine.scan(
            table,
            route=route,
            live={key: p.buffer for key, p in by_key.items()},
            make_delta=lambda: {key: RecordBuffer() for key in by_key},
            merge_delta=lambda delta: [
                by_key[key].buffer.extend_from(buf) for key, buf in delta.items()
            ],
        )
        stats.io.count_aux_read(n * len(overflowed))


__all__ = ["BaggedForestBuilder"]

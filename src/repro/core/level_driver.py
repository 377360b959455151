"""The level-scan loop shared by CMP-S, CMP-B and full CMP.

CMP grows its tree one level per scan of the training set (Figure 4);
CMP-B runs the same loop and sometimes commits two levels in one scan
(Figure 10).  :class:`LevelDriver` owns that loop:

1. scan 1, a serial quantiling pass: one reservoir per continuous
   attribute, whose ``.edges(q)`` fix the root grid;
2. scan 2, the root-summary pass (line 03 of both figures);
3. per level, one chunk-parallel scan routing each pending node's
   records into its preliminary parts (rewriting ``nid``), an extra scan
   refilling any alive buffer that overflowed its budget, then every
   pending's resolve→decide step, the slot remap and the integrated
   PUBLIC(1) pass;
4. a checkpoint after scan 2 and after every level.

It also keeps the memory ledger: ``hist/root`` across scan 2,
``parts/<id>`` from a pending's decision until it resolves, ``buf/<id>``
from the end of a level's scan until then too, and ``hist/<id>`` around
each child's decision.

Routing is the same for every builder (:func:`route_grouped`): one stable
grouping of a chunk's rows by ``nid`` slot, then each pending's
``route`` says where its rows go — a preliminary part, or its alive
buffer — and one grouped update fills every part.  A builder supplies
three strategy seams:

* ``_root_summary(schema, root_edges, rng)`` — the empty root part;
* ``_resolve(p, nid, remap, next_slot, account, schema, stats)`` — turn
  a scanned pending into tree nodes; returns ``(child, part)`` pairs;
* ``_decide(node, part, next_slot, schema, stats)`` — a node's pending
  split, or ``None`` to leave it a leaf.

Parts provide ``slot``, ``class_counts``, ``update``, ``clone_empty``,
``merge_from`` and ``nbytes``; pendings provide ``node``,
``parent_slot``, ``buffer``, ``all_parts``, ``route``, ``scan_delta``,
``merge_scan_delta``, ``parts_nbytes``, ``delta_nbytes`` and
``buffer_nbytes``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.builder import (
    PartGroup,
    RecordBuffer,
    SlotGroups,
    apply_remap,
    charge_nid,
)
from repro.core.checkpoint import CheckpointManager, SlotCounter, loop_state
from repro.core.parallel import ScanEngine
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import ReservoirSampler
from repro.data.schema import Schema
from repro.io.metrics import BuildStats
from repro.io.pager import ScanChunk


class ScanTarget(dict):
    """One scan's pendings keyed by slot: the live set or a worker's delta.

    ``plan`` holds the :class:`_RoutePlan` derived from the target's
    structure, so it is built once per target rather than once per chunk.
    It is process-local and never pickled with a worker's delta.
    """

    plan: Any = None

    def __reduce__(self) -> tuple:
        return (ScanTarget, (dict(self),))


class _RoutePlan:
    """What routing derives from one scan target's structure, once.

    The target's pendings in order, a slot→pending index, each pending's
    first part, and a :class:`PartGroup` over all their parts.
    """

    def __init__(self, pendings: ScanTarget) -> None:
        self.pendings: list[Any] = list(pendings.values())
        self.slots = SlotGroups(list(pendings))
        self.base: list[int] = []
        parts: list[Any] = []
        for p in self.pendings:
            self.base.append(len(parts))
            parts.extend(p.all_parts())
        self.parts = PartGroup(parts)


def route_grouped(
    target: ScanTarget,
    chunk: ScanChunk,
    slots: np.ndarray,
    weights: np.ndarray | None = None,
) -> None:
    """Route a chunk into every pending of ``target`` in one grouped pass.

    ``slots`` is the chunk's ``nid`` slice, rewritten in place.  One
    stable counting sort groups the rows by pending; each pending's
    ``route`` maps its rows, in chunk order, to a destination part or to
    an alive buffer; then one :meth:`PartGroup.update` accumulates every
    part and ``nid`` is rewritten once.  ``weights`` are per-record
    multiplicities (a bagged forest member's draw counts): parts add
    them, and a weighted alive record is buffered ``weight`` times.
    """
    plan = target.plan
    if plan is None:
        plan = target.plan = _RoutePlan(target)
    order, bounds = plan.slots.group(slots)
    dest = np.full(len(slots), -1, dtype=np.int64)
    X, y, rids = chunk.X, chunk.y, chunk.rids
    for i, p in enumerate(plan.pendings):
        rows = order[bounds[i] : bounds[i + 1]]
        if len(rows):
            p.route(X, y, rids, rows, dest, plan.base[i], weights)
    plan.parts.update(X, y, dest, weights)
    routed = dest >= 0
    slots[routed] = plan.parts.slots[dest[routed]]


class LevelDriver:
    """One tree's level loop over a builder's strategy seams.

    :meth:`run` drives a whole build.  The bagged forest
    (:mod:`repro.ensemble.bagging`) keeps its own weighted multi-member
    scans but settles every member's level through a member driver, so
    members resolve and decide exactly as solo builds do.
    """

    def __init__(
        self,
        builder: Any,
        schema: Schema,
        stats: Any,
        account: TreeAccount,
        root: Node,
        nid: np.ndarray,
        next_slot: SlotCounter,
    ) -> None:
        self.builder = builder
        self.schema = schema
        self.stats = stats
        self.account = account
        self.root = root
        self.nid = nid
        self.next_slot = next_slot

    # -- the whole build -------------------------------------------------------

    @classmethod
    def run(cls, builder: Any, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        """Build ``builder``'s tree on ``dataset``, charging ``stats``."""
        if builder.config.criterion != "gini":
            raise ValueError(f"{builder.name} supports only the gini criterion")
        engine = builder._scan_engine()
        try:
            return cls._run(builder, dataset, stats, engine)
        finally:
            stats.parallel_batches += engine.batches_dispatched
            engine.close()

    @classmethod
    def _run(
        cls, builder: Any, dataset: Dataset, stats: BuildStats, engine: ScanEngine
    ) -> DecisionTree:
        table = builder._open_table(dataset, stats)
        ckpt = builder._checkpointer(dataset)
        state = None
        if ckpt is not None and builder.config.resume and ckpt.exists():
            level, state = ckpt.load(stats)
        if state is not None:
            driver = cls(
                builder,
                dataset.schema,
                stats,
                state["account"],
                state["root"],
                state["nid"],
                state["next_slot"],
            )
            pendings = state["pendings"]
        else:
            driver, pendings = cls._start(builder, dataset, stats, table, engine)
            level = 0
            driver._save(ckpt, level, pendings)

        # --- One scan per level (Figure 4; one or two levels, Figure 10). ---
        while pendings:
            with stats.tracer.span("level", level=level + 1, pendings=len(pendings)):
                driver._scan_level(table, engine, pendings)
                driver.charge_buffers(pendings)
                with stats.phase("resolve"):
                    pendings = driver.settle(pendings)
                level += 1
                driver._save(ckpt, level, pendings)

        if ckpt is not None:
            ckpt.clear()
        return DecisionTree(driver.root, dataset.schema)

    @classmethod
    def _start(
        cls,
        builder: Any,
        dataset: Dataset,
        stats: BuildStats,
        table,
        engine: ScanEngine,
    ) -> tuple["LevelDriver", dict[int, Any]]:
        """Scans 1 and 2: the root grid, the root summary and its decision."""
        cfg = builder.config
        schema = dataset.schema
        n, c = dataset.n_records, dataset.n_classes
        cont = schema.continuous_indices()
        rng = np.random.default_rng(cfg.seed)

        # Reservoir sampling consumes records in stream order, so this
        # scan stays serial under every worker count.
        reservoirs = {j: ReservoirSampler(cfg.reservoir_capacity, rng) for j in cont}
        totals = np.zeros(c, dtype=np.float64)
        with stats.phase("scan"):
            for chunk in table.scan():
                totals += np.bincount(chunk.y, minlength=c)
                for j in cont:
                    reservoirs[j].extend(chunk.X[:, j])
        root_edges = {j: reservoirs[j].edges(cfg.n_intervals) for j in cont}
        del reservoirs
        account = TreeAccount()
        driver = cls(
            builder,
            schema,
            stats,
            account,
            account.new_node(0, totals),
            np.zeros(n, dtype=np.int64),
            SlotCounter(),
        )

        root_part = builder._root_summary(schema, root_edges, rng)
        stats.memory.allocate("hist/root", root_part.nbytes())
        with stats.phase("scan"):
            engine.scan(
                table,
                route=lambda chunk, part: part.update(chunk.X, chunk.y),
                live=root_part,
                make_delta=root_part.clone_empty,
                merge_delta=root_part.merge_from,
                memory=stats.memory,
                delta_nbytes=root_part.nbytes(),
            )
        charge_nid(stats, n)
        with stats.phase("resolve"):
            first = driver.decide(driver.root, root_part)
        stats.memory.release("hist/root")
        return driver, ({0: first} if first is not None else {})

    def _save(
        self, ckpt: CheckpointManager | None, level: int, pendings: dict[int, Any]
    ) -> None:
        """Checkpoint the loop state after ``level`` (no-op without a path)."""
        if ckpt is None:
            return
        with self.stats.phase("checkpoint"):
            state = loop_state(self.account, self.root, self.nid, pendings, self.next_slot)
            ckpt.save(level, state, self.stats)

    # -- one level ---------------------------------------------------------------

    def _scan_level(self, table, engine: ScanEngine, pendings: dict[int, Any]) -> None:
        """The level's scan, plus the refill scan if a buffer overflowed."""
        stats = self.stats
        with stats.phase("scan"):
            engine.scan(
                table,
                route=lambda chunk, tgt: route_grouped(
                    tgt, chunk, self.nid[chunk.start : chunk.stop]
                ),
                live=ScanTarget(pendings),
                make_delta=lambda: ScanTarget(
                    (slot, p.scan_delta()) for slot, p in pendings.items()
                ),
                merge_delta=lambda delta: [
                    pendings[slot].merge_scan_delta(d) for slot, d in delta.items()
                ],
                memory=stats.memory,
                delta_nbytes=sum(p.delta_nbytes() for p in pendings.values()),
                writeback=self.nid,
            )
        charge_nid(stats, len(self.nid))
        overflowed = [p for p in pendings.values() if p.buffer.overflowed]
        if overflowed:
            with stats.phase("scan"):
                self._refill_overflowed(table, engine, overflowed)

    def _refill_overflowed(self, table, engine: ScanEngine, overflowed: list[Any]) -> None:
        """Re-collect dropped alive-interval records with one extra scan.

        The CLOUDS-style degradation path: when a node's alive buffer
        blew its memory budget during the level's scan, its records are
        recoverable — alive records keep their parent's ``nid`` slot
        (only preliminary-region records were reassigned).  One shared
        pass (chunk-parallel like any other scan; worker sub-buffers
        concatenate in chunk order) refills every overflowed buffer,
        preserving the exact append order of the un-budgeted path, so
        resolution — and the final tree — is unchanged; only the extra
        scan is charged.
        """
        self.stats.buffer_overflow_rescans += 1
        nid = self.nid
        by_slot: dict[int, Any] = {}
        for p in overflowed:
            p.buffer = RecordBuffer()  # unbounded: contents fit by paper's premise
            by_slot[p.parent_slot] = p

        slots = list(by_slot)
        groups = SlotGroups(slots)

        def route(chunk: ScanChunk, buffers: dict[int, RecordBuffer]) -> None:
            order, bounds = groups.group(nid[chunk.start : chunk.stop])
            for i, slot in enumerate(slots):
                rows = order[bounds[i] : bounds[i + 1]]
                if len(rows):
                    buffers[slot].append(chunk.X[rows], chunk.y[rows], chunk.start + rows)

        engine.scan(
            table,
            route=route,
            live={slot: p.buffer for slot, p in by_slot.items()},
            make_delta=lambda: {slot: RecordBuffer() for slot in by_slot},
            merge_delta=lambda delta: [
                by_slot[slot].buffer.extend_from(buf) for slot, buf in delta.items()
            ],
        )
        self.stats.io.count_aux_read(len(nid))

    def charge_buffers(self, pendings: dict[int, Any]) -> None:
        """Charge each pending's filled alive buffers until it resolves."""
        for p in pendings.values():
            self.stats.memory.allocate(f"buf/{p.node.node_id}", p.buffer_nbytes())

    def settle(self, pendings: dict[int, Any]) -> dict[int, Any]:
        """Resolve every scanned pending and decide its children.

        Applies the level's slot remap to ``nid`` and, under
        ``prune="public"``, the PUBLIC(1) pass; returns the next level's
        pendings keyed by slot.
        """
        memory = self.stats.memory
        new_pendings: dict[int, Any] = {}
        remap: dict[int, int] = {}
        for p in pendings.values():
            children = self.builder._resolve(
                p, self.nid, remap, self.next_slot, self.account, self.schema, self.stats
            )
            memory.release(f"parts/{p.node.node_id}")
            memory.release(f"buf/{p.node.node_id}")
            for child, part in children:
                memory.allocate(f"hist/{child.node_id}", part.nbytes())
                q = self.decide(child, part)
                memory.release(f"hist/{child.node_id}")
                if q is not None:
                    new_pendings[part.slot] = q
        if remap:
            apply_remap(self.nid, remap)
        if self.builder.config.prune == "public":
            new_pendings = self._public_pass(new_pendings)
        return new_pendings

    def decide(self, node: Node, part: Any) -> Any:
        """The builder's split decision for ``node`` from its summary ``part``.

        A new pending's preliminary parts are charged to the ledger until
        it resolves.
        """
        p = self.builder._decide(node, part, self.next_slot, self.schema, self.stats)
        if p is not None:
            self.stats.memory.allocate(f"parts/{node.node_id}", p.parts_nbytes())
        return p

    def _public_pass(self, pendings: dict[int, Any]) -> dict[int, Any]:
        """Integrated PUBLIC(1) pruning between levels."""
        from repro.pruning.public import public_prune_pass

        open_ids = {p.node.node_id for p in pendings.values()}
        removed = public_prune_pass(self.root, open_ids)
        if not removed:
            return pendings
        return {
            slot: p for slot, p in pendings.items() if p.node.node_id not in removed
        }


__all__ = ["LevelDriver", "ScanTarget", "route_grouped"]

"""End-to-end tests for CMP-B (matrices, prediction, two-level growth)."""

import numpy as np
import pytest

from repro.baselines.sprint import SprintBuilder
from repro.core.builder import PartGroup
from repro.core.cmp_b import BPart, BPending, CMPBBuilder, SecondSplit, Side
from repro.core.cmp_s import CMPSBuilder
from repro.core.histogram import ClassHistogram
from repro.core.level_driver import ScanTarget, route_grouped
from repro.core.matrix import _NARROW_MAX, MatrixSet
from repro.core.splits import NumericSplit
from repro.core.tree import TreeAccount
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.eval.metrics import accuracy
from repro.io.pager import ScanChunk

from conftest import assert_tree_consistent


class TestCMPBEndToEnd:
    def test_counts_consistent_with_routing(self, f2_small, fast_config):
        result = CMPBBuilder(fast_config).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_consistent_on_f7(self, f7_small, fast_config):
        result = CMPBBuilder(fast_config).build(f7_small)
        assert_tree_consistent(result.tree, f7_small)

    def test_accuracy_close_to_exact(self, f2_small, fast_config):
        b_acc = accuracy(CMPBBuilder(fast_config).build(f2_small).tree, f2_small)
        exact_acc = accuracy(SprintBuilder(fast_config).build(f2_small).tree, f2_small)
        assert b_acc > exact_acc - 0.03

    def test_never_more_scans_than_cmp_s(self, f2_small, fast_config):
        s_scans = CMPSBuilder(fast_config).build(f2_small).stats.io.scans
        b_scans = CMPBBuilder(fast_config).build(f2_small).stats.io.scans
        assert b_scans <= s_scans

    def test_predictions_are_recorded(self, f2_small, fast_config):
        stats = CMPBBuilder(fast_config).build(f2_small).stats
        assert stats.predictions_made > 0
        assert 0 <= stats.predictions_correct <= stats.predictions_made

    def test_two_level_growth_happens(self, fast_config):
        # A dataset where the same attribute keeps splitting: prediction
        # locks on and second splits fire, so some scan grows two levels.
        rng = np.random.default_rng(3)
        n = 6_000
        x0 = rng.uniform(0, 16, n)
        x1 = rng.uniform(0, 1, n)
        y = (np.floor(x0 / 2) % 2).astype(np.int64)  # 8 stripes along x0
        ds = Dataset(
            np.column_stack([x0, x1]),
            y,
            Schema((continuous("a"), continuous("b")), ("s0", "s1")),
        )
        result = CMPBBuilder(fast_config.with_(max_depth=10)).build(ds)
        assert result.tree.depth > 2
        assert result.stats.two_level_splits >= 1
        assert accuracy(result.tree, ds) > 0.95

    def test_deterministic(self, f2_small, fast_config):
        a = CMPBBuilder(fast_config).build(f2_small)
        b = CMPBBuilder(fast_config).build(f2_small)
        assert a.tree.render() == b.tree.render()

    def test_requires_two_continuous_attributes(self, fast_config, rng):
        ds = Dataset(
            rng.normal(size=(100, 1)),
            rng.integers(0, 2, 100),
            Schema((continuous("only"),), ("a", "b")),
        )
        with pytest.raises(ValueError, match="two continuous"):
            CMPBBuilder(fast_config).build(ds)

    def test_categorical_splits_supported(self, mixed_types, fast_config):
        result = CMPBBuilder(fast_config).build(mixed_types)
        assert_tree_consistent(result.tree, mixed_types)
        assert accuracy(result.tree, mixed_types) == 1.0

    def test_memory_released(self, f2_small, fast_config):
        result = CMPBBuilder(fast_config).build(f2_small)
        assert result.stats.memory.current == 0
        assert result.stats.memory.peak > 0

    def test_matrix_cells_capped(self, f2_small, fast_config):
        cfg = fast_config.with_(matrix_max_cells=64)
        result = CMPBBuilder(cfg).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_x_tie_margin_zero_still_works(self, f2_small, fast_config):
        cfg = fast_config.with_(x_tie_margin=0.0)
        result = CMPBBuilder(cfg).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_public_pruning(self, f2_small, fast_config):
        plain = CMPBBuilder(fast_config).build(f2_small)
        pruned = CMPBBuilder(fast_config.with_(prune="public")).build(f2_small)
        assert pruned.tree.n_nodes <= plain.tree.n_nodes


# ---------------------------------------------------------------------------
# The grouped route over matrix parts
# ---------------------------------------------------------------------------

SCHEMA = Schema(
    (continuous("a0"), continuous("a1"), continuous("a2"), categorical("c", "uvw")),
    ("p", "q"),
)
EDGES = {j: np.array([0.25, 0.5, 0.75]) for j in range(3)}


def _part(slot: int) -> BPart:
    return BPart(slot, MatrixSet.create(SCHEMA, 0, EDGES), True)


def _batch(rng, n):
    X = rng.random((n, 4))
    X[:, 3] = rng.integers(0, 3, n)
    return X, rng.integers(0, 2, n)


def assert_parts_equal(a: BPart, b: BPart) -> None:
    """Bitwise equality of two parts' accumulators."""
    ma, mb = a.mset, b.mset
    np.testing.assert_array_equal(ma.class_counts, mb.class_counts)
    np.testing.assert_array_equal(ma.x_stats.vmin, mb.x_stats.vmin)
    np.testing.assert_array_equal(ma.x_stats.vmax, mb.x_stats.vmax)
    for j, m in ma.matrices.items():
        assert m.counts.dtype == mb.matrices[j].counts.dtype
        np.testing.assert_array_equal(m.counts, mb.matrices[j].counts)
        np.testing.assert_array_equal(m.y_stats.vmin, mb.matrices[j].y_stats.vmin)
        np.testing.assert_array_equal(m.y_stats.vmax, mb.matrices[j].y_stats.vmax)
    for j, h in ma.categorical.items():
        np.testing.assert_array_equal(h.counts, mb.categorical[j].counts)


class TestPartGroupOverMatrixParts:
    def test_equals_per_part_updates_on_masked_rows(self, rng):
        parts = [_part(slot) for slot in (7, 8, 9, 10)]
        ref = [p.clone_empty() for p in parts]
        # One part sits just below the int32 limit, so both sides widen.
        for p in (parts[1], ref[1]):
            for m in p.mset.matrices.values():
                m._n_added = _NARROW_MAX - 5
        group = PartGroup(parts)
        assert group.tables == {}
        np.testing.assert_array_equal(group.slots, [7, 8, 9, 10])
        for __ in range(2):
            X, y = _batch(rng, 300)
            dest = rng.integers(-1, 3, len(y))  # part 3 gets no rows
            group.update(X, y, dest)
            for k, part in enumerate(ref):
                m = dest == k
                if m.any():
                    part.update(X[m], y[m])
        for part, expected in zip(parts, ref):
            assert_parts_equal(part, expected)
        assert parts[1].mset.matrices[1].counts.dtype == np.int64
        assert parts[3].class_counts.sum() == 0
        assert not any(m.counts.any() for m in parts[3].mset.matrices.values())

    def test_weighted_rows_rejected(self, rng):
        X, y = _batch(rng, 10)
        with pytest.raises(ValueError, match="unweighted"):
            PartGroup([_part(1)]).update(X, y, np.zeros(10, dtype=np.int64), np.ones(10))


class TestTwoLevelRoute:
    """A hand-built two-level pending whose rows hit every zone.

    Pending A (slot 3) splits ``a0`` around the alive run (0.4, 0.6]; its
    lower side splits ``a1`` around (0.3, 0.7] into parts 10/11, its upper
    side is part 12.  Pending B (slot 5) splits ``a2`` exactly at 0.5; its
    lower side splits ``a1`` exactly at 0.5 into parts 13/14, its upper
    side is part 15.  Rows at slot 9 belong to no pending.
    """

    def _pendings(self):
        account = TreeAccount()
        a = BPending(
            node=account.new_node(0, np.array([1.0, 1.0])),
            parent_slot=3,
            attr=0,
            two_level=True,
            zone_bounds=np.array([0.4, 0.6]),
            sides=[
                Side(
                    second=SecondSplit(
                        attr=1,
                        parts=[_part(10), _part(11)],
                        alive_lo=0.3,
                        alive_hi=0.7,
                        aux_hist=ClassHistogram(EDGES[1], 2),
                    ),
                    part=None,
                ),
                Side(second=None, part=_part(12)),
            ],
        )
        b = BPending(
            node=account.new_node(0, np.array([1.0, 1.0])),
            parent_slot=5,
            attr=2,
            two_level=True,
            first_exact_threshold=0.5,
            sides=[
                Side(
                    second=SecondSplit(
                        attr=1,
                        parts=[_part(13), _part(14)],
                        exact_split=NumericSplit(1, 0.5),
                    ),
                    part=None,
                ),
                Side(second=None, part=_part(15)),
            ],
        )
        return a, b

    def _expected(self, X, slots):
        """Per-row destination slot (or buffer) by the figure's rules."""
        dest, first_buf, second_buf, aux_rows = [], [], [], []
        for r, slot in enumerate(slots):
            v0, v1, v2 = X[r, :3]
            if slot == 3:
                if 0.4 < v0 <= 0.6:
                    first_buf.append(r)
                    dest.append(3)
                elif v0 > 0.6:
                    dest.append(12)
                elif 0.3 < v1 <= 0.7:
                    second_buf.append(r)
                    dest.append(3)
                else:
                    aux_rows.append(r)
                    dest.append(10 if v1 <= 0.3 else 11)
            elif slot == 5:
                dest.append(15 if v2 > 0.5 else (13 if v1 <= 0.5 else 14))
            else:
                dest.append(slot)
        return np.array(dest), first_buf, second_buf, aux_rows

    def test_route_fills_slots_buffers_and_aux_hist(self, rng):
        a, b = self._pendings()
        X, y = _batch(rng, 400)
        start = 1000
        nid = np.full(start + len(y), -7, dtype=np.int64)
        nid[start:] = rng.choice([3, 5, 9], size=len(y))
        slots = nid[start:].copy()
        want, first_buf, second_buf, aux_rows = self._expected(X, slots)
        target = ScanTarget({3: a, 5: b})
        route_grouped(target, ScanChunk(start, X, y), nid[start:])

        np.testing.assert_array_equal(nid[start:], want)
        assert (nid[:start] == -7).all()
        Xb, yb, rids = a.buffer.concatenated()
        np.testing.assert_array_equal(rids, start + np.array(first_buf))
        np.testing.assert_array_equal(Xb, X[first_buf])
        np.testing.assert_array_equal(yb, y[first_buf])
        sec = a.sides[0].second
        Xs, ys, rids2 = sec.buffer.concatenated()
        np.testing.assert_array_equal(rids2, start + np.array(second_buf))
        np.testing.assert_array_equal(Xs, X[second_buf])
        aux = ClassHistogram(EDGES[1], 2)
        aux.update(X[aux_rows, 1], y[aux_rows])
        np.testing.assert_array_equal(sec.aux_hist.counts, aux.counts)
        np.testing.assert_array_equal(sec.aux_hist.vmin, aux.vmin)
        assert min(len(first_buf), len(second_buf), len(aux_rows)) > 0
        for p in (a, b):
            for part in p.all_parts():
                rows = want == part.slot
                assert rows.any()
                expected = part.clone_empty()
                expected.update(X[rows], y[rows])
                assert_parts_equal(part, expected)

"""End-to-end tests for CMP-S."""

import numpy as np
import pytest

from repro.baselines.sprint import SprintBuilder
from repro.config import BuilderConfig
from repro.core.builder import merge_contiguous
from repro.core.cmp_s import CMPSBuilder
from repro.core.splits import NumericSplit
from repro.eval.metrics import accuracy

from conftest import assert_tree_consistent


class TestMergeContiguous:
    def test_runs(self):
        assert merge_contiguous([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 7), (9, 10)]
        assert merge_contiguous([]) == []
        assert merge_contiguous([4]) == [(4, 4)]


class TestCMPSEndToEnd:
    def test_counts_consistent_with_routing(self, f2_small, fast_config):
        result = CMPSBuilder(fast_config).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_accuracy_close_to_exact(self, f2_small, fast_config):
        cmp_acc = accuracy(CMPSBuilder(fast_config).build(f2_small).tree, f2_small)
        exact_acc = accuracy(SprintBuilder(fast_config).build(f2_small).tree, f2_small)
        assert cmp_acc > exact_acc - 0.03

    def test_root_split_matches_exact_on_clean_data(self, two_blob, fast_config):
        # x0 > 0 decides the class: both algorithms must split on x0 near 0.
        cmp_tree = CMPSBuilder(fast_config).build(two_blob).tree
        exact_tree = SprintBuilder(fast_config).build(two_blob).tree
        assert isinstance(cmp_tree.root.split, NumericSplit)
        assert cmp_tree.root.split.attr == 0
        assert exact_tree.root.split.attr == 0
        assert abs(cmp_tree.root.split.threshold) < 0.1
        # Exact resolution: CMP's threshold is a data value, like SPRINT's.
        assert cmp_tree.root.split.threshold in two_blob.column(0)

    def test_one_scan_per_level_plus_setup(self, f2_small, fast_config):
        result = CMPSBuilder(fast_config).build(f2_small)
        rounds = result.stats.io.scans
        # Two setup scans (quantiling + root histograms) plus at most one
        # scan per grown level.
        assert rounds <= result.tree.depth + 2

    def test_deterministic(self, f2_small, fast_config):
        a = CMPSBuilder(fast_config).build(f2_small)
        b = CMPSBuilder(fast_config).build(f2_small)
        assert a.tree.render() == b.tree.render()
        assert a.stats.io.scans == b.stats.io.scans

    def test_min_records_respected(self, f2_small, fast_config):
        cfg = fast_config.with_(min_records=200)
        tree = CMPSBuilder(cfg).build(f2_small).tree
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert node.n_records >= 200

    def test_max_depth_respected(self, f2_small, fast_config):
        cfg = fast_config.with_(max_depth=3)
        tree = CMPSBuilder(cfg).build(f2_small).tree
        assert tree.depth <= 3

    def test_pure_node_becomes_leaf(self, fast_config, rng):
        from repro.data.dataset import Dataset
        from repro.data.schema import Schema, continuous

        X = rng.normal(size=(500, 2))
        y = np.zeros(500, dtype=np.int64)
        y[X[:, 0] > 0] = 1
        ds = Dataset(X, y, Schema((continuous("a"), continuous("b")), ("x", "y")))
        tree = CMPSBuilder(fast_config).build(ds).tree
        # After the first exact split the children are pure.
        assert tree.depth <= 3
        assert accuracy(tree, ds) == 1.0

    def test_categorical_split(self, mixed_types, fast_config):
        result = CMPSBuilder(fast_config).build(mixed_types)
        assert_tree_consistent(result.tree, mixed_types)
        # Category parity decides the class: the root must split on it and
        # reach perfect accuracy quickly.
        assert result.tree.root.split.attributes() == (1,)
        assert accuracy(result.tree, mixed_types) == 1.0

    def test_memory_tracked(self, f2_small, fast_config):
        result = CMPSBuilder(fast_config).build(f2_small)
        assert result.stats.memory.peak > 0
        # Everything transient should have been released.
        assert result.stats.memory.current == 0

    def test_aux_nid_charged_per_scan(self, f2_small, fast_config):
        result = CMPSBuilder(fast_config).build(f2_small)
        n = f2_small.n_records
        scans = result.stats.io.scans
        # nid is read+written on every scan except the quantile pass.
        assert result.stats.io.aux_records_read == (scans - 1) * n

    def test_empty_dataset_rejected(self, fast_config):
        from repro.data.dataset import Dataset
        from repro.data.schema import Schema, continuous

        ds = Dataset(
            np.empty((0, 1)),
            np.empty(0, dtype=np.int64),
            Schema((continuous("a"),), ("x", "y")),
        )
        with pytest.raises(ValueError, match="empty"):
            CMPSBuilder(fast_config).build(ds)


class TestCMPSPruning:
    def test_public_pruning_shrinks_tree(self, f2_small, fast_config):
        plain = CMPSBuilder(fast_config).build(f2_small)
        pruned = CMPSBuilder(fast_config.with_(prune="public")).build(f2_small)
        assert pruned.tree.n_nodes <= plain.tree.n_nodes
        assert_tree_consistent_counts_only(pruned.tree)

    def test_mdl_pruning_shrinks_tree(self, f2_small, fast_config):
        plain = CMPSBuilder(fast_config).build(f2_small)
        pruned = CMPSBuilder(fast_config.with_(prune="mdl")).build(f2_small)
        assert pruned.tree.n_nodes <= plain.tree.n_nodes

    def test_pruned_accuracy_not_catastrophic(self, f2_small, fast_config):
        pruned = CMPSBuilder(fast_config.with_(prune="public")).build(f2_small)
        assert accuracy(pruned.tree, f2_small) > 0.85


def assert_tree_consistent_counts_only(tree) -> None:
    """Internal node counts must equal the sum of their children's."""
    for node in tree.iter_nodes():
        if not node.is_leaf:
            left, right = node.children()
            np.testing.assert_allclose(
                node.class_counts, left.class_counts + right.class_counts
            )

"""Tests for the compiled batch inference engine (core/compiled.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import (
    CATEGORICAL,
    LEAF,
    LINEAR,
    NUMERIC,
    compile_tree,
    tree_fingerprint,
)
from repro.core.native import native_available
from repro.core.serialize import tree_from_json, tree_to_json
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.schema import Schema, categorical, continuous
from repro.eval.treegen import random_batch, random_tree
from repro.pruning.mdl import mdl_prune


def cat_tree() -> DecisionTree:
    """Root categorical split; left child heavier than right."""
    schema = Schema(
        (categorical("color", ("red", "green", "blue")), continuous("x")),
        ("a", "b"),
    )
    account = TreeAccount()
    root = account.new_node(0, np.array([70.0, 30.0]))
    left = account.new_node(1, np.array([60.0, 10.0]))
    right = account.new_node(1, np.array([10.0, 20.0]))
    root.split = CategoricalSplit(0, (True, False, True))
    root.left, root.right = left, right
    return DecisionTree(root, schema)


class TestCompileLayout:
    def test_preorder_arrays(self):
        t = random_tree(depth=3, seed=1)
        c = compile_tree(t)
        nodes = list(t.iter_nodes())
        assert c.n_nodes == len(nodes)
        np.testing.assert_array_equal(c.node_id, [n.node_id for n in nodes])
        assert c.n_leaves == t.n_leaves
        assert c.proba.shape == (t.n_leaves, t.schema.n_classes)
        assert c.nbytes() > 0
        assert set(np.unique(c.kind)) <= {LEAF, NUMERIC, CATEGORICAL, LINEAR}

    def test_leaves_self_loop(self):
        c = compile_tree(random_tree(depth=4, seed=2))
        leaves = np.nonzero(c.kind == LEAF)[0]
        np.testing.assert_array_equal(c.left[leaves], leaves)
        np.testing.assert_array_equal(c.right[leaves], leaves)

    def test_depth_and_kind_flags(self):
        c = compile_tree(random_tree(depth=5, seed=3))
        assert c.depth == 5
        assert c.has_linear == bool((c.kind == LINEAR).any())
        assert c.has_categorical == bool((c.kind == CATEGORICAL).any())

    def test_single_leaf_tree(self):
        schema = Schema((continuous("x"),), ("a", "b"))
        t = DecisionTree(Node(0, 0, np.array([3.0, 1.0])), schema)
        c = compile_tree(t)
        X = np.array([[0.5], [100.0]])
        np.testing.assert_array_equal(c.predict(X), [0, 0])
        np.testing.assert_array_equal(c.apply(X), [0, 0])


class TestBitIdentity:
    """The compiled engine must match the object walker bit for bit."""

    @given(
        seed=st.integers(0, 10_000),
        batch_seed=st.integers(0, 10_000),
        leaf_prob=st.floats(0.0, 0.5),
        unseen=st.floats(0.0, 0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_trees_all_split_kinds(self, seed, batch_seed, leaf_prob, unseen):
        t = random_tree(depth=6, seed=seed, leaf_prob=leaf_prob)
        X = random_batch(t.schema, 300, seed=batch_seed, unseen_frac=unseen)
        np.testing.assert_array_equal(t.predict(X), t.walk_predict(X))
        np.testing.assert_array_equal(t.apply(X), t.walk_apply(X))
        proba = t.predict_proba(X)
        walked = t.walk_predict_proba(X)
        assert proba.dtype == walked.dtype
        np.testing.assert_array_equal(proba, walked)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_numpy_route_matches_walker(self, seed):
        # The numpy fallback path must hold the same guarantee as the
        # (possibly native) default dispatch.
        t = random_tree(depth=6, seed=seed, leaf_prob=0.2)
        X = random_batch(t.schema, 300, seed=seed + 1, unseen_frac=0.1)
        c = t.compiled()
        routed = c._route_numpy(np.ascontiguousarray(X))
        np.testing.assert_array_equal(c.node_id[routed], t.walk_apply(X))

    def test_native_and_numpy_routes_agree(self):
        if not native_available():
            pytest.skip("no C compiler on this machine")
        t = random_tree(depth=8, seed=5)
        X = random_batch(t.schema, 5000, seed=6, unseen_frac=0.05)
        c = t.compiled()
        np.testing.assert_array_equal(
            c.route(X), c._route_numpy(np.ascontiguousarray(X))
        )

    def test_noncontiguous_input(self):
        t = random_tree(depth=5, seed=7)
        wide = random_batch(t.schema, 200, seed=8)
        X = np.hstack([wide, wide])[:, : t.schema.n_attributes][::2]
        assert not X.flags.c_contiguous
        np.testing.assert_array_equal(t.predict(X), t.walk_predict(X))


class TestEmptyBatch:
    def test_predict_shapes(self):
        t = random_tree(depth=4, seed=0)
        p = t.schema.n_attributes
        for empty in (np.empty((0, p)), np.empty(0)):
            assert t.predict(empty).shape == (0,)
            assert t.apply(empty).shape == (0,)
            proba = t.predict_proba(empty)
            assert proba.shape == (0, t.schema.n_classes)


class TestUnseenCategories:
    def test_unseen_code_routes_to_heavier_child(self):
        t = cat_tree()
        # code 7 was never seen; left child holds 70 records vs 30.
        X = np.array([[7.0, 0.0]])
        heavy_leaf = t.root.left.node_id
        assert t.apply(X)[0] == heavy_leaf
        assert t.walk_apply(X)[0] == heavy_leaf

    def test_tie_goes_left(self):
        t = cat_tree()
        t.root.left.class_counts = np.array([15.0, 15.0])
        t.root.right.class_counts = np.array([10.0, 20.0])
        t.invalidate_compiled()
        X = np.array([[-3.0, 0.0]])
        assert t.apply(X)[0] == t.root.left.node_id

    def test_walker_and_compiled_agree_on_unseen(self):
        t = random_tree(depth=6, seed=11, p_categorical=0.8, p_numeric=0.2, p_linear=0.0)
        X = random_batch(t.schema, 500, seed=12, unseen_frac=0.5)
        np.testing.assert_array_equal(t.predict(X), t.walk_predict(X))


#: Codes that must take a categorical node's default child, plus
#: fractional codes that truncate into range like ``astype(intp)``.
JUNK_CODES = [
    np.nan, np.inf, -np.inf, 1e30, -1e30, 2.0**63, -(2.0**63), -1.0, -0.5, 0.5, 2.9
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteCodes:
    """NaN, infinite and out-of-int64 category codes at predict time.

    Every path sends them to the heavier child without casting a
    non-finite float (numpy warns on that cast; C leaves it undefined).
    """

    def _batch(self, t, seed):
        X = random_batch(t.schema, 400, seed=seed)
        rng = np.random.default_rng(seed)
        for j in t.schema.categorical_indices():
            hit = rng.random(len(X)) < 0.5
            X[hit, j] = rng.choice(JUNK_CODES, size=int(hit.sum()))
        return X

    def test_goes_left_defaults_junk_codes(self):
        split = CategoricalSplit(0, (False, True, False))
        X = np.array([JUNK_CODES]).T
        got = split.goes_left(X, unseen_left=True)
        # -0.5 and 0.5 truncate to code 0, 2.9 to code 2 (both right).
        assert got.tolist() == [True] * 8 + [False] * 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_walker_compiled_and_forest_agree(self, seed):
        from repro.core import native
        from repro.core.compiled import compile_forest

        kw = dict(p_categorical=0.7, p_numeric=0.2, p_linear=0.1, leaf_prob=0.1)
        trees = [random_tree(depth=6, seed=seed + k, **kw) for k in (0, 100)]
        X = self._batch(trees[0], seed)
        walked = trees[0].walk_apply(X)
        c = trees[0].compiled()
        np.testing.assert_array_equal(c.node_id[c.route(X)], walked)
        np.testing.assert_array_equal(c.node_id[c._route_numpy(X)], walked)
        expected = np.zeros((len(X), 3)) + trees[0].walk_predict_proba(X)
        expected += trees[1].walk_predict_proba(X)
        forest = compile_forest(trees)
        np.testing.assert_array_equal(forest.decision_values(X), expected)
        with native._KERNELS.disabled():
            np.testing.assert_array_equal(forest.decision_values(X), expected)


class TestFingerprint:
    def test_stable_across_recompiles(self):
        t = random_tree(depth=4, seed=20)
        assert tree_fingerprint(t) == compile_tree(t).fingerprint

    def test_round_trip_preserves_fingerprint(self):
        t = random_tree(depth=5, seed=21)
        clone = tree_from_json(tree_to_json(t))
        assert tree_fingerprint(clone) == tree_fingerprint(t)

    def test_different_trees_differ(self):
        a = random_tree(depth=4, seed=22)
        b = random_tree(depth=4, seed=23)
        assert tree_fingerprint(a) != tree_fingerprint(b)

    def test_deep_chain_fingerprints_without_recursion(self):
        schema = Schema((continuous("x"),), ("a", "b"))
        account = TreeAccount()
        root = account.new_node(0, np.array([2.0, 1.0]))
        node = root
        for d in range(1, 1500):
            node.split = NumericSplit(0, float(d))
            node.left = account.new_node(d, np.array([1.0, 0.0]))
            node.right = account.new_node(d, np.array([1.0, 1.0]))
            node = node.right
        t = DecisionTree(root, schema)
        assert len(tree_fingerprint(t)) == 64  # full sha256 hex digest


class TestCompiledCache:
    def test_lazy_and_reused(self):
        t = random_tree(depth=4, seed=30)
        assert t.compiled() is t.compiled()

    def test_pruning_invalidates(self):
        t = random_tree(depth=6, seed=31, root_records=40)
        before = t.compiled()
        removed = mdl_prune(t)
        assert removed > 0  # tiny leaf counts make pruning certain
        after = t.compiled()
        assert after is not before
        assert after.n_nodes == t.n_nodes
        assert after.fingerprint != before.fingerprint

    def test_invalidate_compiled_resets(self):
        t = random_tree(depth=3, seed=32)
        first = t.compiled()
        t.invalidate_compiled()
        assert t.compiled() is not first

    def test_make_leaf_alone_refreshes(self):
        t = random_tree(depth=5, seed=33)
        before = t.compiled()
        inner = next(n for n in t.iter_nodes() if n is not t.root and not n.is_leaf)
        inner.make_leaf()
        after = t.compiled()
        assert after is not before
        assert after.n_nodes == t.n_nodes
        assert after.fingerprint == tree_fingerprint(t)

    def test_unchanged_tree_skips_node_walk(self, monkeypatch):
        t = random_tree(depth=4, seed=34)
        first = t.compiled()

        def no_walk():
            raise AssertionError("compiled() walked the nodes")

        monkeypatch.setattr(t, "iter_nodes", no_walk)
        assert t.compiled() is first

"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous


def make(n: int = 100, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, 3, n)
    schema = Schema((continuous("a"), continuous("b")), ("c0", "c1", "c2"))
    return Dataset(X, y, schema)


class TestValidation:
    def test_shape_checks(self):
        ds = make()
        with pytest.raises(ValueError, match="2-D"):
            Dataset(ds.X.ravel(), ds.y, ds.schema)
        with pytest.raises(ValueError, match="aligned"):
            Dataset(ds.X, ds.y[:-1], ds.schema)

    def test_schema_width_check(self):
        ds = make()
        with pytest.raises(ValueError, match="declares"):
            Dataset(ds.X[:, :1], ds.y, ds.schema)

    def test_label_range_check(self):
        ds = make()
        bad = ds.y.copy()
        bad[0] = 7
        with pytest.raises(ValueError, match="out of range"):
            Dataset(ds.X, bad, ds.schema)


class TestCategoricalCodes:
    """Categorical columns must hold integer codes in range(cardinality)."""

    def make_cat(self, codes) -> tuple[np.ndarray, np.ndarray, Schema]:
        codes = np.asarray(codes, dtype=np.float64)
        X = np.column_stack([np.arange(len(codes), dtype=np.float64), codes])
        y = np.arange(len(codes)) % 2
        schema = Schema(
            (continuous("a"), categorical("colour", ("r", "g", "b"))), ("c0", "c1")
        )
        return X, y, schema

    def test_valid_codes_accepted(self):
        ds = Dataset(*self.make_cat([0, 1, 2, 2, 0, -0.0]))
        assert ds.n_records == 6

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 1.5, -1.0, 3.0, 1e19]
    )
    def test_invalid_code_names_attribute_and_row(self, bad):
        X, y, schema = self.make_cat([0, 1, 2, 1])
        X[2, 1] = bad
        X[3, 1] = bad
        with pytest.raises(ValueError, match=r"'colour': row 2 has code"):
            Dataset(X, y, schema)

    def test_continuous_columns_unchecked(self):
        X, y, schema = self.make_cat([0, 1, 2, 1])
        X[1, 0] = np.nan
        assert Dataset(X, y, schema).n_records == 4

    def test_take_of_valid_dataset_stays_valid(self):
        ds = Dataset(*self.make_cat([0, 1, 2, 1]))
        assert ds.take(np.array([3, 0])).n_records == 2


class TestAccess:
    def test_column_by_name_and_index(self):
        ds = make()
        np.testing.assert_array_equal(ds.column("b"), ds.X[:, 1])
        np.testing.assert_array_equal(ds.column(0), ds.X[:, 0])

    def test_class_counts(self):
        ds = make()
        counts = ds.class_counts()
        assert counts.sum() == ds.n_records
        assert len(counts) == 3

    def test_take(self):
        ds = make()
        sub = ds.take(np.arange(10))
        assert sub.n_records == 10
        np.testing.assert_array_equal(sub.y, ds.y[:10])


class TestHoldout:
    def test_split_sizes(self, rng):
        ds = make(200)
        train, test = ds.split_holdout(0.25, rng)
        assert test.n_records == 50
        assert train.n_records == 150

    def test_split_disjoint_and_complete(self, rng):
        ds = make(100)
        # Tag each record with a unique value to track identity.
        X = ds.X.copy()
        X[:, 0] = np.arange(100)
        ds = Dataset(X, ds.y, ds.schema)
        train, test = ds.split_holdout(0.3, rng)
        ids = np.concatenate([train.column(0), test.column(0)])
        assert sorted(ids.astype(int)) == list(range(100))

    def test_bad_fraction(self, rng):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            make().split_holdout(1.5, rng)


class TestPaged:
    def test_as_paged_roundtrip(self):
        ds = make(500)
        table = ds.as_paged(page_records=64)
        got_X, got_y = [], []
        for chunk in table.scan():
            got_X.append(chunk.X)
            got_y.append(chunk.y)
        np.testing.assert_array_equal(np.concatenate(got_X), ds.X)
        np.testing.assert_array_equal(np.concatenate(got_y), ds.y)

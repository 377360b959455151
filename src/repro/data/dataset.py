"""Columnar training-set container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema
from repro.io.metrics import IOStats
from repro.io.pager import DEFAULT_PAGE_RECORDS, PagedTable


@dataclass(frozen=True)
class Dataset:
    """A training set: attribute matrix ``X``, labels ``y``, and a schema.

    ``X`` is ``(n, p)`` float64; categorical columns hold integer codes
    in ``range(cardinality)`` (anything else — NaN, inf, fractions,
    negative or too-large codes — is rejected at construction).
    ``y`` is ``(n,)`` int64 with values in ``range(schema.n_classes)``.
    """

    X: np.ndarray
    y: np.ndarray
    schema: Schema

    def __post_init__(self) -> None:
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.y.ndim != 1 or len(self.y) != len(self.X):
            raise ValueError("y must be 1-D and aligned with X")
        if self.X.shape[1] != self.schema.n_attributes:
            raise ValueError(
                f"X has {self.X.shape[1]} columns but schema declares "
                f"{self.schema.n_attributes} attributes"
            )
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.schema.n_classes):
            raise ValueError("labels out of range for schema")
        self._check_codes()

    def _check_codes(self) -> None:
        """Reject categorical columns that are not valid code vectors.

        Codes must be integral and in ``range(cardinality)``; NaN, inf,
        fractions and out-of-range codes raise ``ValueError`` naming the
        attribute and its first offending row.
        """
        cats = self.schema.categorical_indices()
        if not cats or not len(self.y):
            return
        codes = self.X[:, cats]
        cards = np.array([self.schema.attributes[j].cardinality for j in cats])
        # min/max propagate NaN, so in-range extrema also rule out NaN and
        # inf, after which the integer cast below is well defined.
        if (
            np.all(codes.min(axis=0) >= 0)
            and np.all(codes.max(axis=0) < cards)
            and np.array_equal(codes.astype(np.int64), codes)
        ):
            return
        for k, j in enumerate(cats):
            col = codes[:, k]
            with np.errstate(invalid="ignore"):
                bad = ~((col >= 0) & (col < cards[k]) & (col == np.floor(col)))
            if bad.any():
                row = int(np.argmax(bad))
                raise ValueError(
                    f"categorical attribute {self.schema.attributes[j].name!r}: "
                    f"row {row} has code {col[row]!r}; codes must be integers "
                    f"in range({cards[k]})"
                )

    @property
    def n_records(self) -> int:
        """Number of records."""
        return len(self.y)

    @property
    def n_attributes(self) -> int:
        """Number of input attributes."""
        return self.schema.n_attributes

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return self.schema.n_classes

    def column(self, ref: int | str) -> np.ndarray:
        """Return the attribute column referenced by index or name."""
        if isinstance(ref, str):
            ref = self.schema.index_of(ref)
        return self.X[:, ref]

    def class_counts(self) -> np.ndarray:
        """Per-class record counts, shape ``(n_classes,)``."""
        return np.bincount(self.y, minlength=self.n_classes)

    def take(self, idx: np.ndarray) -> "Dataset":
        """Return a new dataset of the selected record indices."""
        return Dataset(self.X[idx], self.y[idx], self.schema)

    def split_holdout(
        self, test_fraction: float, rng: np.random.Generator
    ) -> tuple["Dataset", "Dataset"]:
        """Random (train, test) split with ``test_fraction`` held out."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        perm = rng.permutation(self.n_records)
        n_test = max(1, int(round(self.n_records * test_fraction)))
        return self.take(perm[n_test:]), self.take(perm[:n_test])

    def as_paged(
        self,
        stats: IOStats | None = None,
        page_records: int = DEFAULT_PAGE_RECORDS,
    ) -> PagedTable:
        """Wrap this dataset as a simulated disk-resident table."""
        return PagedTable(self.X, self.y, stats=stats, page_records=page_records)

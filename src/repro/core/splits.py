"""Split criteria stored at decision-tree nodes.

Three forms, matching the paper:

* ``a <= C`` on a continuous attribute (SPRINT, CLOUDS, CMP-S, CMP-B);
* ``a in L`` subset splits on categorical attributes;
* ``x + b*y <= c`` linear-combination splits on two continuous attributes
  (the full CMP, §2.3 — e.g. ``salary + 0.93*commission <= 95 796``).

A split maps a batch of records to a boolean *goes-left* vector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema


class Split(ABC):
    """Abstract binary split criterion."""

    @abstractmethod
    def goes_left(self, X: np.ndarray) -> np.ndarray:
        """Boolean vector: True where the record routes to the left child."""

    @abstractmethod
    def describe(self, schema: Schema | None = None) -> str:
        """Human-readable form of the criterion."""

    @abstractmethod
    def attributes(self) -> tuple[int, ...]:
        """Indices of the attributes this split tests."""


def _attr_name(schema: Schema | None, attr: int) -> str:
    if schema is None:
        return f"x{attr}"
    return schema.attributes[attr].name


@dataclass(frozen=True)
class NumericSplit(Split):
    """``value(attr) <= threshold`` routes left.

    ``n_candidates`` records how many candidate thresholds the builder
    examined when it chose this split (interval boundaries plus distinct
    buffered values).  It does not affect routing; MDL pruning uses it
    for the SLIQ/C4.5 value term — ``log2(candidate count)`` bits rather
    than ``log2(n_records)`` — falling back to the record count when the
    builder did not supply it.
    """

    attr: int
    threshold: float
    n_candidates: int | None = None

    def goes_left(self, X: np.ndarray) -> np.ndarray:
        return X[:, self.attr] <= self.threshold

    def describe(self, schema: Schema | None = None) -> str:
        return f"{_attr_name(schema, self.attr)} <= {self.threshold:g}"

    def attributes(self) -> tuple[int, ...]:
        return (self.attr,)


@dataclass(frozen=True)
class CategoricalSplit(Split):
    """``code(attr) in left set`` routes left.

    ``left_mask`` is a boolean array over category codes.
    """

    attr: int
    left_mask: tuple[bool, ...]

    def goes_left(self, X: np.ndarray, unseen_left: bool = False) -> np.ndarray:
        """Boolean goes-left vector; ``unseen_left`` routes codes outside
        ``left_mask`` (categories never seen at training time, negative
        codes, NaN and infinities).

        Codes truncate toward zero like ``astype(intp)``, but only those
        that land inside ``left_mask`` are cast, so a non-finite code never
        is.  The tree walker and the compiled engine both pass the heavier
        child as the default so their routing agrees.
        """
        mask = np.asarray(self.left_mask, dtype=bool)
        values = X[:, self.attr]
        seen = (values > -1) & (values < len(mask))
        if seen.all():
            return mask[values.astype(np.intp)]
        out = np.full(len(values), unseen_left, dtype=bool)
        out[seen] = mask[values[seen].astype(np.intp)]
        return out

    def describe(self, schema: Schema | None = None) -> str:
        name = _attr_name(schema, self.attr)
        if schema is not None and schema.attributes[self.attr].categories:
            cats = schema.attributes[self.attr].categories
            members = [cats[i] for i, m in enumerate(self.left_mask) if m]
        else:
            members = [str(i) for i, m in enumerate(self.left_mask) if m]
        return f"{name} in {{{', '.join(members)}}}"

    def attributes(self) -> tuple[int, ...]:
        return (self.attr,)


@dataclass(frozen=True)
class LinearSplit(Split):
    """``a * value(attr_x) + b * value(attr_y) <= c`` routes left.

    The paper normalizes the X coefficient to 1 (Figure 13's
    ``salary + 0.93 x commission``); ``a`` is kept to ``+-1`` so the
    under side of a line can always be expressed with ``<=`` regardless
    of the line's orientation, and ``b`` may be negative for
    positive-slope splitting lines.
    """

    attr_x: int
    attr_y: int
    b: float
    c: float
    a: float = 1.0

    def goes_left(self, X: np.ndarray) -> np.ndarray:
        return self.project(X) <= self.c

    def project(self, X: np.ndarray) -> np.ndarray:
        """The linear form ``a*x + b*y`` evaluated per record."""
        return self.a * X[:, self.attr_x] + self.b * X[:, self.attr_y]

    def describe(self, schema: Schema | None = None) -> str:
        xn = _attr_name(schema, self.attr_x)
        yn = _attr_name(schema, self.attr_y)
        sign = "+" if self.b >= 0 else "-"
        lead = "" if self.a >= 0 else "-"
        return f"{lead}{xn} {sign} {abs(self.b):.4g}*{yn} <= {self.c:g}"

    def attributes(self) -> tuple[int, ...]:
        return (self.attr_x, self.attr_y)

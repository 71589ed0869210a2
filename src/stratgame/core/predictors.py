"""Hypotheses, hypothesis classes and unions of class members.

A hypothesis is identified with its positive region, stored as an explicit
frozenset of points.  Every construction in this library only ever needs
small positive regions (singletons or small unions), including on spaces
whose full universe is never materialized.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .geometry import MetricSpace, Point


class Hypothesis:
    """A binary classifier given by its positive region (may be empty).

    ``parts`` holds the class indices the region was built from, for members
    of a class and their unions; duplicates are allowed (random constructions
    sample with replacement).  Hand-built regions carry ``parts=None``.
    """

    __slots__ = ("positive", "parts")

    def __init__(self, positive: Iterable[Point], parts: tuple | None = None):
        self.positive = frozenset(positive)
        self.parts = parts

    def __eq__(self, other):
        return isinstance(other, Hypothesis) and self.positive == other.positive

    def __hash__(self):
        return hash(self.positive)

    def __repr__(self):
        if self.parts is not None:
            return f"Hypothesis(parts={self.parts!r})"
        return f"Hypothesis({sorted(self.positive)!r})"


ALL_NEGATIVE = Hypothesis(())


class HypothesisClass:
    """Distinct points; member i, ``parts=(i,)``, is positive on ``points[i]`` alone."""

    def __init__(self, points: Sequence[Point]):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("hypothesis class points must be distinct")
        self.members = tuple(Hypothesis((p,), (i,)) for i, p in enumerate(self.points))
        self._indexes: dict = {}

    def distance_index(self, space: MetricSpace) -> "ClassDistanceIndex":
        """The one distance index of this class on ``space``, built on first use."""
        index = self._indexes.get(space)
        if index is None:
            index = self._indexes[space] = ClassDistanceIndex(space, self)
        return index

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.members[i]

    def union(self, indices: Iterable[int]) -> Hypothesis:
        """Predicts +1 where any listed member does; one part is the member itself."""
        parts = tuple(indices)
        if len(parts) == 1:
            return self.members[parts[0]]
        if not parts:
            raise ValueError("a union predictor needs at least one part")
        pts = self.points
        return Hypothesis([pts[i] for i in parts], parts)


def predict(f: Hypothesis, x: Point) -> int:
    """Evaluate the predictor at a point; +1 iff x lies in the positive region."""
    return 1 if x in f.positive else -1


class ClassDistanceIndex:
    """Vectorized point-to-member distances for one (space, class) pair.

    ``row(x)`` returns d(x, h) for every class member as a numpy array and
    ``order(x)`` the member indices sorted by (distance, index).  There is one
    index per (class, space), obtained through ``hclass.distance_index(space)``
    and shared by every learner, seed and wrapper round on that pair.  Rows
    and orders are cached per point on enumerable spaces, where the same
    features recur, and the cached arrays are read-only so that no learner
    can change them under the others.  An order is cached without its row:
    it sorts a fresh row that it drops, and it is kept as int32, half the
    bytes of argsort's int64 indices.  Non-enumerable spaces (permutation
    spheres) compute a fresh row and order on every call.
    """

    def __init__(self, space: MetricSpace, hclass: HypothesisClass):
        self.space = space
        self.points = hclass.points
        self._cache_rows: dict = {}
        self._cache_orders: dict = {}
        self._cache = space.enumerable

    def row(self, x: Point) -> np.ndarray:
        if self._cache:
            r = self._cache_rows.get(x)
            if r is None:
                r = self.space.dist_row(x, self.points)
                r.flags.writeable = False
                self._cache_rows[x] = r
            return r
        return self.space.dist_row(x, self.points)

    def order(self, x: Point) -> np.ndarray:
        if self._cache:
            o = self._cache_orders.get(x)
            if o is None:
                o = np.argsort(self.space.dist_row(x, self.points), kind="stable").astype(np.int32)
                o.flags.writeable = False
                self._cache_orders[x] = o
            return o
        return np.argsort(self.row(x), kind="stable")


"""Finite metric spaces and their point identities.

Points are small tagged tuples so they stay hashable, cheap to compare and
cheap to serialize:

    ("idx", k)       -- k-th point of a matrix-backed space (star spaces use
                        index 0 for the hub and 1..n for the spokes)
    ("origin",)      -- the all-zeros vector
    ("basis", i)     -- standard basis vector e_i, 0-based
    ("sbasis", i)    -- a basis vector shrunk by a fixed factor (0.9 e_i)
    ("perm", p)      -- a point of the permutation sphere; p is a tuple
                        permutation of (0, 1, ..., n-1) and coordinate j of
                        the point equals p[j] / z

The natural tuple ordering doubles as the deterministic "lowest identity
first" tie-break order used across the library.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import numpy as np

Point = tuple

# Absolute tolerance for every distance comparison in the library.  All
# constructed spaces keep genuinely distinct distances separated by far more
# than this.
TOL = 1e-9


class PointNotInSpace(ValueError):
    """A point identity was used with a space that does not contain it."""


def matrix_point(k: int) -> Point:
    return ("idx", k)


ORIGIN: Point = ("origin",)


def basis(i: int) -> Point:
    return ("basis", i)


def scaled_basis(i: int) -> Point:
    return ("sbasis", i)


def perm_point(values: Sequence[int]) -> Point:
    return ("perm", tuple(values))


_SHUFFLE_STEPS: dict = {}


def shuffled_range(rng: random.Random, n: int) -> list:
    """``list(range(n))`` permuted exactly as ``rng.shuffle`` permutes it.

    Replays CPython's ``shuffle`` with ``_randbelow_with_getrandbits``: the
    same ``getrandbits(k)`` draws and the same rejection rule, so the result
    and the rng state afterwards are those of ``rng.shuffle``, without its
    per-draw method lookups.  A test compares the two for n = 2..64.
    """
    steps = _SHUFFLE_STEPS.get(n)
    if steps is None:
        # swap position i with a draw below m = i + 1, of m.bit_length() bits
        steps = _SHUFFLE_STEPS[n] = tuple(
            (i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1))
    vals = list(range(n))
    getrandbits = rng.getrandbits
    for i, m, k in steps:
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        vals[i], vals[j] = vals[j], vals[i]
    return vals


def randbelow(rng: random.Random, m: int) -> int:
    """``rng.randrange(m)`` for m >= 1, by the same draws and rejection rule
    as ``shuffled_range``, so the value and the rng state afterwards match."""
    if m < 1:  # getrandbits(0) is 0, so the loop below would never end
        raise ValueError("empty range for randbelow")
    getrandbits = rng.getrandbits
    k = m.bit_length()
    j = getrandbits(k)
    while j >= m:
        j = getrandbits(k)
    return j


class MetricSpace:
    """A point universe with a distance oracle.

    Concrete spaces either enumerate their points (``points`` is a list and
    ``enumerable`` is True) or compute distances from point identities alone
    (permutation spheres, whose universe of n! points is never materialized).
    """

    enumerable: bool = False
    points: list | None = None

    def dist(self, a: Point, b: Point) -> float:
        """Distance between two point identities.

        Identities are trusted on this hot path; the one outside input of
        points, a predictor given to the exact oracle, is checked by
        ``oracle.describe_region``.
        """
        raise NotImplementedError

    def dist_row(self, x: Point, targets: Sequence[Point]) -> np.ndarray:
        """Distances from ``x`` to each target, as a float array."""
        d = self.dist
        return np.array([d(x, t) for t in targets])

    def sample_point(self, rng: random.Random) -> Point:
        if self.points is None:
            raise NotImplementedError
        return self.points[randbelow(rng, len(self.points))]

    def diameter(self) -> float:
        raise NotImplementedError


class MatrixSpace(MetricSpace):
    """Explicit space backed by a symmetric distance matrix."""

    enumerable = True

    def __init__(self, points: Sequence[Point], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (len(points), len(points)):
            raise ValueError("distance matrix shape does not match point count")
        if not np.array_equal(matrix, matrix.T, equal_nan=True):
            raise ValueError("distance matrix is not symmetric")
        self.points = list(points)
        self.matrix = matrix
        self._index = {p: k for k, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise ValueError("duplicate point identities")

    def index_of(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise PointNotInSpace(f"point not in space: {p!r}") from None

    def dist(self, a: Point, b: Point) -> float:
        return self.matrix[self.index_of(a), self.index_of(b)]

    def dist_row(self, x: Point, targets: Sequence[Point]) -> np.ndarray:
        row = self.matrix[self.index_of(x)]
        idx = [self._index[t] for t in targets]
        return row[idx]

    def diameter(self) -> float:
        return float(self.matrix.max())


class StarSpace(MetricSpace):
    """Hub-and-spokes space: points 0..n with d(0,i)=1 and d(i,j)=2.

    Point 0 is the hub; 1..n are the spokes.  This is the carrier space both
    for the spoke-singleton online constructions and for the explicit
    manipulation-set family (which ignores the metric).
    """

    enumerable = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("star space needs at least one spoke")
        self.n = n
        self.points = [matrix_point(k) for k in range(n + 1)]
        self._ids_of = self._ids = None  # the last target tuple and its point ids

    def dist(self, a: Point, b: Point) -> float:
        i, j = a[1], b[1]
        if i == j:
            return 0.0
        if i == 0 or j == 0:
            return 1.0
        return 2.0

    def dist_row(self, x: Point, targets: Sequence[Point]) -> np.ndarray:
        # a class passes its one points tuple on every row: keep its ids
        if targets is self._ids_of:
            idx = self._ids
        else:
            idx = np.fromiter((t[1] for t in targets), dtype=np.int64,
                              count=len(targets))
            if type(targets) is tuple:  # immutable, so the ids stay right
                idx.flags.writeable = False
                self._ids_of, self._ids = targets, idx
        i = x[1]
        if i == 0:
            return np.where(idx == 0, 0.0, 1.0)
        return np.where(idx == i, 0.0, np.where(idx == 0, 1.0, 2.0))

    def diameter(self) -> float:
        return 2.0 if self.n >= 2 else 1.0


class ScaledBasisSpace(MetricSpace):
    """Euclidean space on {0, e_1..e_n, 0.9 e_1..0.9 e_n}.

    Distances follow from the vector identities, e.g. d(0.9 e_i, e_i) = 0.1
    and d(0.9 e_i, e_j) = sqrt(0.81 + 1) for j != i.
    """

    enumerable = True
    factor = 0.9

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one basis direction")
        self.n = n
        self.points = [ORIGIN] + [basis(i) for i in range(n)] + [
            scaled_basis(i) for i in range(n)
        ]

    def _vec_norm2(self, p: Point) -> float:
        # squared norm of the underlying vector
        if p[0] == "origin":
            return 0.0
        if p[0] == "basis":
            return 1.0
        return self.factor * self.factor

    def dist(self, a: Point, b: Point) -> float:
        if a == b:
            return 0.0
        # inner product is nonzero only when both points sit on the same axis
        dot = 0.0
        if a[0] != "origin" and b[0] != "origin" and a[1] == b[1]:
            fa = 1.0 if a[0] == "basis" else self.factor
            fb = 1.0 if b[0] == "basis" else self.factor
            dot = fa * fb
        return math.sqrt(self._vec_norm2(a) + self._vec_norm2(b) - 2.0 * dot)

    def diameter(self) -> float:
        return math.sqrt(2.0)


class PermutationSphereSpace(MetricSpace):
    """Basis vectors plus the sphere of scaled coordinate permutations.

    The sphere consists of all points whose coordinates permute
    {0, 1/z, ..., (n-1)/z} with z = sqrt(sum_{k<n} k^2) / alpha, so every
    sphere point has norm alpha.  The n! sphere points are never listed;
    distances come from the closed forms

        d(p, e_i)   = sqrt(1 + alpha^2 - 2 p_i / z)
        d(p, q)     = ||p - q||_2   (computed from the integer tuples)
        d(p, 0)     = alpha
        d(e_i, e_j) = sqrt(2)
    """

    enumerable = False

    def __init__(self, n: int, alpha: float = 0.1, with_origin: bool = False):
        if n < 2:
            raise ValueError("permutation sphere needs n >= 2")
        if not 0 < alpha < math.inf:  # also rejects nan
            raise ValueError(f"alpha must satisfy 0 < alpha < inf, got {alpha!r}")
        self.n = n
        self.alpha = alpha
        self.with_origin = with_origin
        self.coord_sq_sum = sum(k * k for k in range(n))  # sum of 0^2..(n-1)^2
        self.z = math.sqrt(self.coord_sq_sum) / alpha
        self.one_plus_alpha2 = 1.0 + alpha ** 2  # d(p, e_i)^2 = this - 2 p_i / z
        self._perms_of = self._perms = None  # the last target tuple and its perm values

    def dist(self, a: Point, b: Point) -> float:
        ta, tb = a[0], b[0]
        # the sphere-to-basis pair, first because the response layer asks
        # for little else
        if ta == "perm" and tb == "basis":
            return math.sqrt(self.one_plus_alpha2 - 2.0 * a[1][b[1]] / self.z)
        if a == b:
            return 0.0
        if ta > tb:
            a, b, ta, tb = b, a, tb, ta
        # tag pairs in sorted order: basis<origin<perm
        if ta == "basis" and tb == "basis":
            return math.sqrt(2.0)
        if ta == "basis" and tb == "origin":
            return 1.0
        if ta == "basis" and tb == "perm":
            return math.sqrt(self.one_plus_alpha2 - 2.0 * b[1][a[1]] / self.z)
        if ta == "origin" and tb == "perm":
            return self.alpha
        # perm-perm
        pa, pb = a[1], b[1]
        s = sum((u - v) * (u - v) for u, v in zip(pa, pb))
        return math.sqrt(s) / self.z

    def dist_row(self, x: Point, targets: Sequence[Point]) -> np.ndarray:
        if x[0] == "perm" and all(t[0] == "basis" for t in targets):
            vals = np.fromiter(
                (x[1][t[1]] for t in targets), dtype=float, count=len(targets)
            )
            return np.sqrt(self.one_plus_alpha2 - 2.0 * vals / self.z)
        if x[0] == "basis" or x[0] == "origin":
            perms = self._perm_values(targets)
            if perms is not None:  # to the sphere points, as dist(t, x)
                is_perm, vals, rest = perms
                if x[0] == "origin":
                    row = np.full(vals.shape[1], self.alpha)  # d(0, p) = alpha
                else:
                    row = np.sqrt(self.one_plus_alpha2 - 2.0 * vals[x[1]] / self.z)
                if not rest:
                    return row
                out = np.empty(len(targets))
                out[is_perm] = row
                for k in rest:
                    out[k] = self.dist(x, targets[k])
                return out
        return super().dist_row(x, targets)

    def _perm_values(self, targets: Sequence[Point]):
        """(mask, values, other positions) of the sphere points among the
        targets, or None when there are none.

        Row i of values holds coordinate i of each sphere target, one byte
        per value up to n = 256.  Kept for the last target tuple, as ``StarSpace`` keeps
        its ids: the support columns pass one tuple for every basis point.
        """
        if targets is self._perms_of:
            return self._perms
        is_perm = [t[0] == "perm" for t in targets]
        perms = None
        if True in is_perm:
            vals = np.fromiter(
                itertools.chain.from_iterable(t[1] for t in itertools.compress(targets, is_perm)),
                dtype=np.min_scalar_type(self.n - 1), count=is_perm.count(True) * self.n)
            rest = [k for k, perm in enumerate(is_perm) if not perm]
            perms = (np.array(is_perm), np.ascontiguousarray(vals.reshape(-1, self.n).T), rest)
        if type(targets) is tuple:  # immutable, so the values stay right
            self._perms_of, self._perms = targets, perms
        return perms

    def sample_sphere_point(self, rng: random.Random) -> Point:
        return ("perm", tuple(shuffled_range(rng, self.n)))

    def sample_point(self, rng: random.Random) -> Point:
        # basis points, the optional origin and a random sphere point are all
        # fair game; weight the sphere like one extra "bucket"
        k = rng.randrange(self.n + 1 + (1 if self.with_origin else 0))
        if k < self.n:
            return basis(k)
        if self.with_origin and k == self.n:
            return ORIGIN
        return self.sample_sphere_point(rng)

    def diameter(self) -> float:
        return math.sqrt(2.0)

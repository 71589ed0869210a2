"""Exact rational loss oracles for the hard i.i.d. families.

Independent of the samplers and the float loss path: losses are derived by
enumerating supports (all n! draw orders at n <= 7).  The orders are the rows
of one cached (n!, n) int8 permutation matrix per n, and a loss is a count of
rows under integer comparisons on coordinate values, times one atom's
Fraction weight.  The comparisons involving sqrt terms are decided exactly by
squaring, with Fractions, once per distinct integer key.  Closed forms for
unions of class singletons are provided for every family and cross-checked
against the enumeration in the tests.
"""

import math
from fractions import Fraction
from itertools import chain, permutations

import numpy as np

EXACT_LIMIT = 7


class SupportTooLarge(ValueError):
    pass


class ParameterError(ValueError):
    """An environment was asked for parameters outside its valid range;
    ``name`` is the parameter at fault where the check singles one out."""

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name


def _as_fraction(x) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so float
    # epsilons stay self-consistent; pass Fraction for humanly exact values.
    return x if isinstance(x, Fraction) else Fraction(x)


class Region:
    """Normalized positive region of a predictor over a family's universe.

    ``at_anchor`` is True when the anchor point (origin or hub) is positive;
    ``singles`` holds 0-based class indices (basis direction i, or spoke
    i+1); ``sphere`` holds raw permutation tuples (sphere families only).
    """

    __slots__ = ("at_anchor", "singles", "sphere")

    def __init__(self, at_anchor=False, singles=(), sphere=()):
        self.at_anchor = bool(at_anchor)
        self.singles = frozenset(singles)
        self.sphere = frozenset(sphere)

    @property
    def empty(self) -> bool:
        return not (self.at_anchor or self.singles or self.sphere)


def describe_region(tag: str, n: int, f) -> Region:
    """Normalize a predictor (hypothesis or point iterable) to a Region."""
    pts = getattr(f, "positive", f)
    at_anchor = False
    singles = set()
    sphere = set()
    for p in pts:
        tag_p = p[0]
        if tag_p == "origin" and tag == "appG":
            at_anchor = True
        elif tag_p == "idx" and tag in ("appJ", "appK") and 0 <= p[1] <= n:
            if p[1] == 0:
                at_anchor = True
            else:
                singles.add(p[1] - 1)
        elif tag_p == "basis" and tag in ("appG", "appI") and 0 <= p[1] < n:
            singles.add(p[1])
        elif tag_p == "perm" and tag in ("appG", "appI") and sorted(p[1]) == list(range(n)):
            sphere.add(tuple(p[1]))
        else:
            raise ValueError(f"point not in space: {p!r}")
    return Region(at_anchor, singles, sphere)


def check_family(tag: str, n: int, eps, target: int) -> None:
    """Raise ParameterError for what the family rejects: n below 2 on appG and appI or 1
    on appJ and appK, eps outside 0 < c*eps <= 1, with c = 3n on appG, 3(n-1)
    on appJ and 6 on appI and appK, and a target outside 0..n-1.  eps is
    checked as given, before it becomes a Fraction, so a float eps passes
    exactly when the family accepts it (1/33 on appJ at n=12 does, though the
    Fraction of that float times 33 exceeds 1)."""
    least, c = {"appG": (2, 3 * n), "appI": (2, 6), "appJ": (1, 3 * (n - 1)),
                "appK": (1, 6)}.get(tag, (None, None))
    if c is None:
        raise KeyError(f"no exact oracle for family {tag!r}")
    if n < least:
        raise ParameterError(f"{tag} needs n >= {least}, got n={n}")
    if not (0 < eps and c * eps <= 1):  # also rejects nan
        raise ParameterError(f"{tag} at n={n} needs 0 < eps and {c}*eps <= 1, "
                             f"got eps={eps}", "eps")
    if not 0 <= target < n:
        raise ParameterError(f"target must be in 0..{n - 1}, got {target}")


def _check_exact_size(n: int) -> None:
    if n > EXACT_LIMIT:
        raise SupportTooLarge(f"support too large: n={n} > {EXACT_LIMIT}")


def _sq_sum(n: int) -> int:
    return sum(k * k for k in range(n))


_PERMUTATIONS = {}  # n -> the read-only (n!, n) int8 matrix of the orders of range(n)


def _permutations(n: int) -> np.ndarray:
    """Rows in ``itertools.permutations`` order, built at the first call."""
    if n not in _PERMUTATIONS:
        P = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=np.int8,
                        count=math.factorial(n) * n).reshape(-1, n)
        P.flags.writeable = False
        _PERMUTATIONS[n] = P
    return _PERMUTATIONS[n]


def _rank_neg_reaches(D: int, v: int, alpha: Fraction, s: int) -> bool:
    """Exactly decide d(p, q) <= r for a rank-family negative at p with target
    coordinate v and integer D = sum (p_j - q_j)^2: with 1/z = a/sqrt(s),
    r^2 = 1 + a^2 - 2(v+1)/z and d(p, q)^2 = D a^2 / s, so the comparison is
    2 (v+1) a / sqrt(s) <= B with rational B, decided by squaring."""
    d2 = D * alpha * alpha / s
    bound = 1 + alpha * alpha - d2
    if bound < 0:
        return False
    lhs = 2 * (v + 1) * alpha
    return lhs * lhs <= bound * bound * s


def _reaches(D: np.ndarray, v: np.ndarray, n: int, alpha: Fraction) -> np.ndarray:
    """``_rank_neg_reaches`` over integer arrays D and v < n, broadcast, decided
    once per distinct int64 key D * n + v (int8 overflows at n = 7)."""
    keys = D.astype(np.int64) * n + v
    uniq, inverse = np.unique(keys, return_inverse=True)
    s = _sq_sum(n)
    decided = [_rank_neg_reaches(k // n, k % n, alpha, s) for k in uniq.tolist()]
    return np.array(decided)[inverse].reshape(keys.shape)


def exact_loss(tag: str, n: int, eps, target: int, f,
               alpha=Fraction(1, 10)) -> Fraction:
    """Exact population strategic loss of f on the named family (n <= 7).
    appG and appI need 0 < alpha <= 1/3: on appG that makes 2*alpha <= r_l,
    so the origin and every sphere point are in reach of the positives."""
    check_family(tag, n, eps, target)
    eps = _as_fraction(eps)
    region = describe_region(tag, n, f)
    if tag == "appJ":
        return _loss_star(n, eps, target, region)
    _check_exact_size(n)
    if tag == "appK":
        return _loss_prefix(n, eps, target, region)
    if not 0 < alpha <= Fraction(1, 3):  # also rejects nan
        raise ValueError(f"exact sphere reasoning needs 0 < alpha <= 1/3, got alpha={alpha}")
    if tag == "appG":
        return _loss_radius(n, eps, target, region)
    return _loss_rank(n, eps, target, region, _as_fraction(alpha))


def _loss_star(n: int, eps: Fraction, target: int, region: Region) -> Fraction:
    loss = Fraction(0)
    if region.empty:
        loss += 1 - 3 * (n - 1) * eps  # hub positives cannot reach an empty region
    for j in range(n):
        if j == target:
            continue
        # spoke negative with radius 1: only its own spoke or the hub is in reach
        if j in region.singles or region.at_anchor:
            loss += 3 * eps
    return loss


def _loss_prefix(n: int, eps: Fraction, target: int, region: Region) -> Fraction:
    loss = Fraction(0)
    if region.empty:
        loss += 1 - 6 * eps  # hub positives with full manipulation sets
    if region.at_anchor:
        return loss + 6 * eps  # every negative starts at the positive hub
    wrong = region.singles - {target}
    if wrong:
        # a wrong spoke drawn before the target; the inverse permutations are
        # all n! orders too, so each row is read as the spokes' draw positions
        pos = _permutations(n)
        bad = np.count_nonzero(pos[:, sorted(wrong)].min(axis=1) < pos[:, target])
        loss += 6 * eps * Fraction(bad, math.factorial(n))
    return loss


def _loss_radius(n: int, eps: Fraction, target: int, region: Region) -> Fraction:
    loss = Fraction(0)
    sphere_mass = 3 * n * eps
    if region.at_anchor:
        loss += 1 - sphere_mass  # the immovable origin negative is hit
    misses = 0
    if not (region.at_anchor or region.sphere):
        # no basis point in reach: where p[target] == 0 the radius sqrt(1+alpha^2)
        # reaches all of them, elsewhere basis j is reached iff p[j] != 0
        P = _permutations(n)
        miss = (P[:, sorted(region.singles)] == 0).all(axis=1)
        misses = np.count_nonzero(miss & (P[:, target] != 0) if region.singles else miss)
    loss += sphere_mass * Fraction(misses, math.factorial(n))
    return loss


def _loss_rank(n: int, eps: Fraction, target: int, region: Region,
               alpha: Fraction) -> Fraction:
    if region.empty:
        return 1 - 6 * eps  # radius-2 positives reach any nonempty region
    P = _permutations(n)
    v = P[:, target:target + 1]
    # a negative is hit when a singleton's coordinate beats the target's, when
    # it is one of the sphere points, or when one is in its reach
    hit = (P[:, sorted(region.singles)] > v).any(axis=1)
    if region.sphere:
        Q = np.array(sorted(region.sphere), dtype=np.int64)
        D = ((P[:, None, :] - Q) ** 2).sum(axis=2)  # squared distances, (n!, points)
        hit |= ((D == 0) | _reaches(D, v, n, alpha)).any(axis=1)
    return 6 * eps * Fraction(np.count_nonzero(hit), math.factorial(n))


def analytic_union_loss(tag: str, n: int, eps, target: int, parts) -> Fraction:
    """Closed-form loss of a union of class singletons, valid at any n.

    ``parts`` are class indices (duplicates allowed).  Derivations mirror the
    enumeration oracle, which cross-checks these at small n.
    """
    check_family(tag, n, eps, target)
    eps = _as_fraction(eps)
    distinct = set(int(i) for i in parts)
    if not distinct:
        raise ValueError("a union predictor has at least one part")
    if not all(0 <= i < n for i in distinct):
        raise ValueError(f"union parts must be class indices in 0..{n - 1}, "
                         f"got {sorted(distinct)}")
    wrong = distinct - {target}
    m = len(wrong)
    if tag == "appJ":
        return 3 * eps * m
    if tag in ("appK", "appI"):
        # loses on a negative iff some wrong singleton is drawn/ranked before
        # the target, which happens with probability m/(m+1)
        return 6 * eps * Fraction(m, m + 1)
    # appG: a positive is missed only when every union part sits on the single
    # zero coordinate, possible only for one wrong singleton
    if distinct == wrong and m == 1:
        return 3 * eps
    return Fraction(0)

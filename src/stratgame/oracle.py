"""Exact rational loss oracles for the hard i.i.d. families.

Independent of the samplers and the float loss path: losses are derived by
enumerating supports (all n! draw orders at n <= 7) with Fraction
arithmetic.  Distance comparisons on the permutation sphere reduce to
integer comparisons on coordinate values; the few comparisons involving
sqrt terms are decided exactly by squaring.  Closed forms for unions of
class singletons are provided for every family and cross-checked against
the enumeration in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

EXACT_LIMIT = 7


class SupportTooLarge(ValueError):
    pass


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
        elif tag_p == "perm" and tag in ("appG", "appI") and len(p[1]) == n:
            sphere.add(tuple(p[1]))
        else:
            raise ValueError(f"point not in space: {p!r}")
    return Region(at_anchor, singles, sphere)


def check_family(tag: str, n: int, eps, target: int) -> None:
    """Reject what the family itself rejects: n below 2 on appG and appI or 1
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
        raise ValueError(f"{tag} needs n >= {least}, got n={n}")
    if eps <= 0 or c * eps > 1:
        raise ValueError(f"{tag} at n={n} needs 0 < eps and {c}*eps <= 1, got eps={eps}")
    if not 0 <= target < n:
        raise ValueError(f"target must be in 0..{n - 1}, got {target}")


def _check_exact_size(n: int) -> None:
    if n > EXACT_LIMIT:
        raise SupportTooLarge(f"support too large: n={n} > {EXACT_LIMIT}")


def _sq_sum(n: int) -> int:
    return sum(k * k for k in range(n))


def _rank_neg_reaches(p: tuple, q: tuple, v: int, alpha: Fraction, s: int) -> bool:
    """Exactly decide d(p, q) <= r for a rank-family negative.

    r = sqrt(1 + a^2 - 2(v+1)/z) with 1/z = a/sqrt(s), and
    d(p, q)^2 = sum (p_j - q_j)^2 * a^2 / s.  The comparison rearranges to
    2 (v+1) a / sqrt(s) <= B with rational B, decided by squaring.
    """
    d2 = sum((a - b) * (a - b) for a, b in zip(p, q)) * alpha * alpha / s
    bound = 1 + alpha * alpha - d2
    if bound < 0:
        return False
    lhs = 2 * (v + 1) * alpha
    return lhs * lhs <= bound * bound * s


def exact_loss(tag: str, n: int, eps, target: int, f,
               alpha=Fraction(1, 10)) -> Fraction:
    """Exact population strategic loss of f on the named family (n <= 7)."""
    check_family(tag, n, eps, target)
    eps = _as_fraction(eps)
    alpha = _as_fraction(alpha)
    region = describe_region(tag, n, f)
    if tag == "appJ":
        return _loss_star(n, eps, target, region)
    _check_exact_size(n)
    if tag == "appK":
        return _loss_prefix(n, eps, target, region)
    if tag == "appG":
        return _loss_radius(n, eps, target, region, alpha)
    return _loss_rank(n, eps, target, region, alpha)


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
        bad = 0
        for order in permutations(range(n)):
            for j in order:
                if j == target:
                    break
                if j in wrong:
                    bad += 1
                    break
        loss += 6 * eps * Fraction(bad, math.factorial(n))
    return loss


def _loss_radius(n: int, eps: Fraction, target: int, region: Region,
                 alpha: Fraction) -> Fraction:
    # alpha <= 1/3 makes 2*alpha <= r_l, so origin and within-sphere targets
    # are always in reach of the sphere positives
    if alpha <= 0 or alpha > Fraction(1, 3):
        raise ValueError("exact sphere reasoning needs 0 < alpha <= 1/3")
    loss = Fraction(0)
    sphere_mass = 3 * n * eps
    if region.at_anchor:
        loss += 1 - sphere_mass  # the immovable origin negative is hit
    misses = 0
    if not (region.at_anchor or region.sphere):
        for p in permutations(range(n)):
            if p[target] == 0:
                # generous radius sqrt(1+alpha^2): every basis point is in reach
                if not region.singles:
                    misses += 1
            elif not any(p[j] != 0 for j in region.singles):
                # tight radius: basis j is in reach iff coordinate j is nonzero
                misses += 1
    loss += sphere_mass * Fraction(misses, math.factorial(n))
    return loss


def _loss_rank(n: int, eps: Fraction, target: int, region: Region,
               alpha: Fraction) -> Fraction:
    if alpha <= 0 or alpha > Fraction(1, 3):
        raise ValueError("exact sphere reasoning needs 0 < alpha <= 1/3")
    if region.empty:
        return 1 - 6 * eps  # radius-2 positives reach any nonempty region
    s = _sq_sum(n)
    hits = 0
    for p in permutations(range(n)):
        if p in region.sphere:
            hits += 1  # negative already predicted positive
            continue
        v = p[target]
        if (any(p[j] > v for j in region.singles)
                or any(_rank_neg_reaches(p, q, v, alpha, s) for q in region.sphere)):
            hits += 1
    return 6 * eps * Fraction(hits, math.factorial(n))


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

import ast
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from stratgame import oracle
from stratgame.core.geometry import ORIGIN, basis, matrix_point
from stratgame.core.predictors import Hypothesis
from stratgame.core.response import population_loss
from stratgame.environments import make_environment
from stratgame.oracle import (
    Region,
    SupportTooLarge,
    _loss_prefix,
    _loss_radius,
    _loss_rank,
    _rank_neg_reaches,
    _reaches,
    analytic_union_loss,
    describe_region,
    exact_loss,
)

EPS = Fraction(1, 100)


def test_radius_family_exact_losses():
    n, i = 5, 2
    assert exact_loss("appG", n, EPS, i, [basis(i)]) == 0
    assert exact_loss("appG", n, EPS, i, [basis(0)]) == 3 * EPS
    # positive region at the origin is hit by the heavy immovable negative
    assert exact_loss("appG", n, EPS, i, [ORIGIN]) == 1 - 3 * n * EPS
    # a region inside the sphere is reachable by every positive and misses
    # the radius-zero origin negative entirely
    sphere_pt = ("perm", (0, 1, 2, 3, 4))
    assert exact_loss("appG", n, EPS, i, [sphere_pt]) == 0
    # two distinct singletons cover both radii
    assert exact_loss("appG", n, EPS, i, [basis(0), basis(1)]) == 0


def test_star_family_exact_losses():
    n, i = 5, 2
    assert exact_loss("appJ", n, EPS, i, []) == 1 - 3 * (n - 1) * EPS
    assert exact_loss("appJ", n, EPS, i, [matrix_point(0)]) == 3 * (n - 1) * EPS
    assert exact_loss("appJ", n, EPS, i, [matrix_point(1)]) == 3 * EPS
    assert exact_loss("appJ", n, EPS, i, [matrix_point(i + 1)]) == 0


def test_prefix_family_exact_losses():
    n, i = 5, 2
    assert exact_loss("appK", n, EPS, i, []) == 1 - 6 * EPS
    assert exact_loss("appK", n, EPS, i, [matrix_point(0)]) == 6 * EPS
    assert exact_loss("appK", n, EPS, i, [matrix_point(1)]) == 3 * EPS
    assert exact_loss("appK", n, EPS, i, [matrix_point(i + 1)]) == 0


def test_prefix_family_two_wrong_singletons_inclusion_exclusion():
    # an independent count: of all 120 orders of 5 spokes, those with spoke 0
    # or spoke 1 before spoke 2 number 120 * (1 - 1/3)
    n, i = 5, 2
    bad = sum(1 for order in permutations(range(n))
              if min(order.index(0), order.index(1)) < order.index(i))
    assert bad == math.factorial(n) * Fraction(2, 3)
    expect = 6 * EPS * Fraction(bad, math.factorial(n))
    got = exact_loss("appK", n, EPS, i, [matrix_point(1), matrix_point(2)])
    assert got == expect == 4 * EPS


def test_rank_family_exact_losses():
    n, i = 5, 2
    assert exact_loss("appI", n, EPS, i, [basis(i)]) == 0
    # a wrong singleton is reached by half the negatives
    assert exact_loss("appI", n, EPS, i, [basis(0)]) == 3 * EPS
    assert exact_loss("appI", n, EPS, i, []) == 1 - 6 * EPS
    # positive region inside the sphere: every agent is predicted positive
    sphere_pt = ("perm", (4, 3, 2, 1, 0))
    assert exact_loss("appI", n, EPS, i, [sphere_pt]) == 6 * EPS


def test_analytic_matches_enumeration():
    rng = random.Random(0)
    for tag in ("appG", "appI", "appJ", "appK"):
        for n in (4, 5):
            for _ in range(12):
                target = rng.randrange(n)
                parts = tuple(rng.choices(range(n), k=rng.randint(1, 3)))
                if tag in ("appG", "appI"):
                    pts = [basis(j) for j in set(parts)]
                else:
                    pts = [matrix_point(j + 1) for j in set(parts)]
                enum = exact_loss(tag, n, EPS, target, pts)
                closed = analytic_union_loss(tag, n, EPS, target, parts)
                assert enum == closed, (tag, n, target, parts)


def test_exact_matches_float_population_loss():
    rng = random.Random(4)
    for tag in ("appG", "appI", "appJ", "appK"):
        env = make_environment(tag, 5, eps=0.01, target=3)
        fam = env.family
        for _ in range(8):
            parts = tuple(rng.choices(range(5), k=rng.randint(1, 2)))
            f = fam.hclass.union(parts)
            exact = float(exact_loss(tag, 5, Fraction(0.01), 3, f))
            assert population_loss(fam.space, f, fam) == pytest.approx(exact, abs=1e-9)


@lru_cache(maxsize=None)
def _family(tag, n, eps, target):
    return make_environment(tag, n, eps=eps, target=target).family


@st.composite
def family_regions(draw):
    """A family at n <= 6 and a region of its anchor, singletons and sphere points."""
    tag = draw(st.sampled_from(["appG", "appI", "appJ", "appK"]))
    n = draw(st.integers(2, 6))
    eps = draw(st.sampled_from([0.01, 0.05]))
    target = draw(st.integers(0, n - 1))
    on_sphere = tag in ("appG", "appI")
    points = []
    if tag != "appI" and draw(st.booleans()):  # appI has no anchor point
        points.append(ORIGIN if on_sphere else matrix_point(0))
    for i in draw(st.sets(st.integers(0, n - 1))):
        points.append(basis(i) if on_sphere else matrix_point(i + 1))
    if on_sphere:
        points += [("perm", tuple(p))
                   for p in draw(st.lists(st.permutations(range(n)), max_size=3))]
    return tag, n, eps, target, points


@settings(max_examples=200, deadline=None)
@given(family_regions())
def test_population_loss_matches_oracle_on_random_regions(case):
    tag, n, eps, target, points = case
    fam = _family(tag, n, eps, target)
    exact = float(exact_loss(tag, n, Fraction(eps), target, points))
    got = population_loss(fam.space, Hypothesis(points), fam)
    assert got == pytest.approx(exact, abs=1e-9)


def test_exact_oracle_rejects_large_supports():
    with pytest.raises(SupportTooLarge, match="support too large"):
        exact_loss("appK", 8, EPS, 0, [matrix_point(1)])
    # the star family's support has n + 1 atoms, so any n is fine (with
    # 3(n-1) eps <= 1)
    eps = Fraction(1, 1000)
    assert exact_loss("appJ", 50, eps, 0, [matrix_point(0)]) == 3 * 49 * eps


def test_describe_region_rejects_foreign_points():
    with pytest.raises(ValueError, match="point not in space"):
        describe_region("appI", 4, [ORIGIN])  # no origin in this universe
    with pytest.raises(ValueError, match="point not in space"):
        describe_region("appJ", 4, [matrix_point(9)])
    with pytest.raises(ValueError, match="point not in space"):
        describe_region("appK", 4, [basis(1)])
    # a sphere point's values must be a permutation of range(n)
    for vals in [(0, 0, 0), (1, 2, 3), (0, 1), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match="point not in space"):
            describe_region("appI", 3, [("perm", vals)])
        with pytest.raises(ValueError, match="point not in space"):
            exact_loss("appG", 3, 0.02, 0, [("perm", vals)])
    assert describe_region("appI", 3, [("perm", [2, 0, 1])]).sphere == {(2, 0, 1)}


def test_exact_losses_are_fractions():
    out = exact_loss("appG", 4, Fraction(1, 50), 1, [basis(0)])
    assert isinstance(out, Fraction) and out == Fraction(3, 50)


def test_rank_family_wrong_singleton_flag():
    # the construction fixes the wrong-singleton loss at exactly half the
    # negative mass; assert the enumerated value and the closed form agree
    for n in (4, 5, 6):
        got = exact_loss("appI", n, EPS, 1, [basis(3)])
        assert got == 3 * EPS
        assert analytic_union_loss("appI", n, EPS, 1, (3,)) == 3 * EPS


def test_all_negative_population_loss_matches_oracle():
    env = make_environment("appK", 5, eps=0.05, target=2)
    fam = env.family
    got = population_loss(fam.space, Hypothesis(()), fam)
    assert got == pytest.approx(1 - 6 * 0.05, abs=1e-9)
    assert float(exact_loss("appK", 5, Fraction(1, 20), 2, [])) == pytest.approx(got)


@pytest.mark.parametrize("tag,eps", [
    ("appG", Fraction(1, 15)), ("appI", Fraction(1, 6)), ("appJ", Fraction(1, 12)),
    ("appK", Fraction(1, 6))])
def test_oracles_accept_eps_at_the_family_limit(tag, eps):
    assert 0 <= exact_loss(tag, 5, eps, 4, []) <= 1
    assert 0 <= analytic_union_loss(tag, 5, eps, 4, (0,)) <= 1


def test_oracles_accept_every_float_eps_the_family_accepts():
    # float(33 * (1/33)) is 1.0, but the float 1/33 is a little above 1/33
    eps = 1 / 33
    assert Fraction(eps) * 33 > 1
    fam = make_environment("appJ", 12, eps=eps, target=0).family
    assert analytic_union_loss("appJ", 12, fam.eps, 0, (1,)) == 3 * Fraction(eps)
    assert exact_loss("appJ", 12, fam.eps, 0, [matrix_point(2)]) == 3 * Fraction(eps)


@pytest.mark.parametrize("tag,eps,target,message", [
    ("appG", Fraction(1, 14), 0, "appG at n=5 needs 0 < eps and 15*eps <= 1, got eps=1/14"),
    ("appI", Fraction(1, 5), 0, "appI at n=5 needs 0 < eps and 6*eps <= 1"),
    ("appJ", Fraction(1), 0, "appJ at n=5 needs 0 < eps and 12*eps <= 1, got eps=1"),
    ("appK", Fraction(1, 5), 0, "appK at n=5 needs 0 < eps and 6*eps <= 1"),
    ("appJ", Fraction(0), 0, "got eps=0"),
    ("appK", Fraction(-1, 10), 0, "got eps=-1/10"),
    ("appK", Fraction(1, 10), 9, "target must be in 0..4, got 9"),
    ("appG", Fraction(1, 100), -1, "target must be in 0..4, got -1"),
    ("appJ", float("nan"), 0, "got eps=nan"),
])
def test_oracles_reject_eps_and_target_outside_the_family(tag, eps, target, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_loss(tag, 5, eps, target, [])
    with pytest.raises(ValueError, match=re.escape(message)):
        analytic_union_loss(tag, 5, eps, target, (0,))


@pytest.mark.parametrize("alpha,got", [(0, "0"), (0.5, "0.5"), (float("nan"), "nan"),
                                       (float("inf"), "inf")])
def test_exact_sphere_oracles_reject_alpha_outside_0_to_one_third(alpha, got):
    message = f"exact sphere reasoning needs 0 < alpha <= 1/3, got alpha={got}"
    for tag in ("appG", "appI"):
        with pytest.raises(ValueError, match=re.escape(message)):
            exact_loss(tag, 5, Fraction(1, 100), 0, [basis(1)], alpha=alpha)
    # appJ and appK read no alpha
    assert exact_loss("appJ", 5, Fraction(1, 100), 0, [], alpha=alpha) == 1 - 12 * Fraction(1, 100)
    assert exact_loss("appK", 5, Fraction(1, 100), 0, [], alpha=alpha) == 1 - 6 * Fraction(1, 100)


@pytest.mark.parametrize("parts", [(7,), (5,), (-1,), (0, 5)])
def test_closed_form_rejects_parts_outside_the_class(parts):
    message = f"union parts must be class indices in 0..4, got {sorted(set(parts))}"
    for tag in ("appG", "appI", "appJ", "appK"):
        with pytest.raises(ValueError, match=re.escape(message)):
            analytic_union_loss(tag, 5, Fraction(1, 100), 0, parts)


# The per-permutation loops the oracle used before it counted over the
# permutation matrix, kept unchanged as references.


def _reference_rank_neg_reaches(p: tuple, q: tuple, v: int, alpha: Fraction, s: int) -> bool:
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


def _reference_loss_rank(n, eps, target, region, alpha=Fraction(1, 10)):
    """The appI oracle as it was: one Fraction added per permutation."""
    loss = Fraction(0)
    nf = math.factorial(n)
    s = sum(k * k for k in range(n))
    pos_atom = Fraction(1 - 6 * eps, nf)
    neg_atom = Fraction(6 * eps, nf)
    for p in permutations(range(n)):
        if region.empty:
            loss += pos_atom
            continue
        if p in region.sphere:
            loss += neg_atom
            continue
        v = p[target]
        reach = any(p[j] > v for j in region.singles)
        if not reach:
            reach = any(_reference_rank_neg_reaches(p, q, v, alpha, s)
                        for q in region.sphere)
        if reach:
            loss += neg_atom
    return loss


def _reference_loss_prefix(n: int, eps: Fraction, target: int, region: Region) -> Fraction:
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


def _reference_loss_radius(n: int, eps: Fraction, target: int, region: Region,
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


def _regions(n, target, rng, perms):
    """The empty region, the anchor, the target singleton, random single sets,
    sphere points (the reversed order, farthest from the identity, among them)
    and singles mixed with sphere points or the anchor."""
    reversed_perm = tuple(range(n - 1, -1, -1))
    return [Region(), Region(at_anchor=True), Region(singles={target}),
            Region(singles=rng.sample(range(n), rng.randint(1, n))),
            Region(singles={rng.randrange(n)}),
            Region(sphere=rng.sample(perms, min(3, len(perms)))),
            Region(sphere=[reversed_perm, perms[0]]),
            Region(singles={rng.randrange(n)}, sphere=[rng.choice(perms)]),
            Region(singles={target}, sphere=[reversed_perm]),
            Region(at_anchor=True, singles={rng.randrange(n)})]


def test_rank_oracle_counts_equal_the_per_permutation_sum():
    rng = random.Random(15)
    for n in range(2, 8):
        perms = list(permutations(range(n)))
        # a count scales one atom's weight, so past n = 4 one eps and the alpha
        # of the families do; reach to a sphere point varies with alpha at n = 2
        small = n <= 4
        for target in range(n):
            for region in _regions(n, target, rng, perms):
                for eps in (Fraction(1, 100), Fraction(1, 6))[:2 if small else 1]:
                    for alpha in (Fraction(1, 10), Fraction(1, 3))[:2 if small else 1]:
                        got = _loss_rank(n, eps, target, region, alpha)
                        want = _reference_loss_rank(n, eps, target, region, alpha)
                        assert got == want, (n, target, region.singles, region.sphere)
                        assert isinstance(got, Fraction)


@pytest.mark.parametrize("n", range(2, 8))
def test_radius_and_prefix_oracle_counts_equal_the_per_permutation_loops(n):
    rng = random.Random(16 + n)
    perms = list(permutations(range(n)))
    eps = Fraction(1, 100)
    for target in range(n):
        for region in _regions(n, target, rng, perms):
            got = _loss_radius(n, eps, target, region)
            for alpha in (Fraction(1, 10), Fraction(1, 3)):
                assert got == _reference_loss_radius(n, eps, target, region, alpha), (
                    n, target, region.singles, region.sphere, region.at_anchor)
            assert isinstance(got, Fraction)
            if not region.sphere:  # no sphere on the star
                got = _loss_prefix(n, eps, target, region)
                assert got == _reference_loss_prefix(n, eps, target, region), (
                    n, target, region.singles, region.at_anchor)
                assert isinstance(got, Fraction)


def test_reach_decisions_per_key_equal_the_per_pair_decisions():
    # at 0 < alpha <= 1/3 every rank negative reaches every sphere point from
    # n = 3 on, so decisions that vary with (D, v) at n = 7 need a larger alpha
    n = 7
    s = sum(k * k for k in range(n))
    P = np.array(list(permutations(range(n))))
    identity, reversed_perm = tuple(range(n)), tuple(range(n - 1, -1, -1))
    for alpha in (Fraction(1), Fraction(3, 2)):
        for q in (identity, reversed_perm):
            D = ((P - np.array(q)) ** 2).sum(axis=1)
            got = _reaches(D, P[:, 0], n, alpha)
            want = [_reference_rank_neg_reaches(tuple(p), q, p[0], alpha, s)
                    for p in P.tolist()]
            assert got.tolist() == want, (alpha, q)
            assert 0 < sum(want) < len(want)
    assert D.max() == 112  # the reversed order's key 112 * 7 + v exceeds int8


def test_rank_reach_is_closed_at_the_boundary():
    # d(p, q) == r exactly is a reach: alpha = 1/2, s = 4, v = 0 and D = 12
    # give 2 (v+1) a / sqrt(s) = 1/2 = 1 + a^2 - D a^2 / s
    half = Fraction(1, 2)
    assert _rank_neg_reaches(12, 0, half, 4)
    assert _reference_rank_neg_reaches((0,) * 12, (1,) * 12, 0, half, 4)
    assert _rank_neg_reaches(11, 0, half, 4) and not _rank_neg_reaches(13, 0, half, 4)


def test_oracle_reads_no_sampler_and_no_float_loss_path():
    # the referee must stay independent of what it referees
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracle.py imports a stratgame module"
            imported.add(node.module.split(".")[0])
    assert imported <= {"math", "fractions", "itertools", "numpy"}, imported

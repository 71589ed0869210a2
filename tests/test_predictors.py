import math
import random

import numpy as np
import pytest

from stratgame.core.geometry import (
    PermutationSphereSpace,
    PointNotInSpace,
    ScaledBasisSpace,
    StarSpace,
    basis,
    matrix_point,
    perm_point,
)
from stratgame.core.predictors import (
    ALL_NEGATIVE,
    ClassDistanceIndex,
    HypothesisClass,
    predict,
)

from helpers import check_point, distance_to_hypothesis


@pytest.fixture
def star8():
    space = StarSpace(8)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 9)])
    return space, hclass


def test_predict_membership(star8):
    space, hclass = star8
    f = hclass.union((1,))  # singleton at spoke 2
    for x in (matrix_point(2), matrix_point(1), matrix_point(3)):
        check_point(space, x)
    assert predict(f, matrix_point(2)) == 1
    assert predict(f, matrix_point(1)) == -1
    union = hclass.union((0, 2))  # spokes 1 and 3
    assert predict(union, matrix_point(3)) == 1
    assert predict(union, matrix_point(2)) == -1


def test_predict_unknown_point_errors(star8):
    space, _ = star8
    with pytest.raises(PointNotInSpace, match="point not in space"):
        check_point(space, matrix_point(99))


def test_distance_to_singleton_from_hub(star8):
    space, hclass = star8
    assert distance_to_hypothesis(space, matrix_point(0), hclass.union((3,))) == 1.0


def test_distance_zero_when_positive(star8):
    space, hclass = star8
    assert distance_to_hypothesis(space, matrix_point(4), hclass.union((3,))) == 0.0


def test_distance_on_sphere_space():
    space = PermutationSphereSpace(3, alpha=0.1)
    hclass = HypothesisClass([basis(i) for i in range(3)])
    x = perm_point((0, 1, 2))  # first coordinate zero
    d = distance_to_hypothesis(space, x, hclass.union((0,)))
    assert d == pytest.approx(math.sqrt(1.01), abs=1e-12)


def test_distance_empty_region_is_infinite(star8):
    space, _ = star8
    assert distance_to_hypothesis(space, matrix_point(0), ALL_NEGATIVE) == math.inf
    assert distance_to_hypothesis(space, matrix_point(0), ALL_NEGATIVE) > 1e308


def test_union_distance_identity_sampled():
    cases = [(StarSpace(8), [matrix_point(i) for i in range(1, 9)], 300),
             (StarSpace(9), [matrix_point(i) for i in range(1, 10)], 2000),
             (ScaledBasisSpace(6), [basis(i) for i in range(6)], 2000)]
    for space, points, samples in cases:
        hclass = HypothesisClass(points)
        rng = random.Random(0)
        pts = space.points
        for _ in range(samples):
            f = hclass.union(tuple(rng.sample(range(len(points)), rng.randint(1, 3))))
            g = hclass.union(tuple(rng.sample(range(len(points)), rng.randint(1, 3))))
            x = pts[rng.randrange(len(pts))]
            combined = hclass.union(tuple(set(f.parts) | set(g.parts)))
            lhs = distance_to_hypothesis(space, x, combined)
            rhs = min(distance_to_hypothesis(space, x, f), distance_to_hypothesis(space, x, g))
            assert abs(lhs - rhs) <= 1e-9, (space, x, f.parts, g.parts)


def test_class_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        HypothesisClass([matrix_point(1), matrix_point(1)])


def test_union_needs_parts(star8):
    _, hclass = star8
    with pytest.raises(ValueError):
        hclass.union(())


def test_distance_index_rows_match_bruteforce(star8):
    space, hclass = star8
    index = ClassDistanceIndex(space, hclass)
    for x in space.points:
        row = index.row(x)
        expect = [distance_to_hypothesis(space, x, hclass.union((i,)))
                  for i in range(len(hclass))]
        assert np.allclose(row, expect)
        order = index.order(x)
        keyed = sorted(range(len(hclass)), key=lambda i: (expect[i], i))
        assert list(order) == keyed


def test_distance_index_on_formula_space():
    space = PermutationSphereSpace(5)
    hclass = HypothesisClass([basis(i) for i in range(5)])
    index = ClassDistanceIndex(space, hclass)
    x = perm_point((3, 1, 0, 4, 2))
    row = index.row(x)
    expect = [space.dist(x, basis(i)) for i in range(5)]
    assert np.allclose(row, expect)


def test_distance_index_caches_on_enumerable_spaces():
    space = ScaledBasisSpace(4)
    hclass = HypothesisClass([basis(i) for i in range(4)])
    index = ClassDistanceIndex(space, hclass)
    r1 = index.row(basis(2))
    r2 = index.row(basis(2))
    assert r1 is r2


def test_distance_index_caches_orders_without_their_rows(star8):
    space, hclass = star8
    for x in (matrix_point(0), matrix_point(3)):
        index = ClassDistanceIndex(space, hclass)
        expect = np.argsort(space.dist_row(x, hclass.points), kind="stable")
        order = index.order(x)
        assert np.array_equal(order, expect) and not order.flags.writeable
        assert order.dtype == np.int32  # half the bytes of argsort's indices
        assert index.order(x) is order
        assert index._cache_rows == {}  # the sorted row was not kept
        row = index.row(x)
        assert index.row(x) is row and not row.flags.writeable
        assert np.array_equal(row, space.dist_row(x, hclass.points))
        assert index.order(x) is order

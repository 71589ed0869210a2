import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratgame.core.geometry import (
    MatrixSpace,
    ORIGIN,
    PermutationSphereSpace,
    PointNotInSpace,
    ScaledBasisSpace,
    StarSpace,
    basis,
    matrix_point,
    perm_point,
    randbelow,
    scaled_basis,
    shuffled_range,
)

from helpers import check_point, from_metric, validate_metric


def test_star_distances():
    s = StarSpace(5)
    assert s.dist(matrix_point(0), matrix_point(3)) == 1.0
    assert s.dist(matrix_point(2), matrix_point(4)) == 2.0
    assert s.dist(matrix_point(2), matrix_point(2)) == 0.0
    assert s.diameter() == 2.0


def test_star_metric_axioms_exhaustive():
    validate_metric(StarSpace(30))


def test_star_dist_row_matches_scalar():
    s = StarSpace(6)
    spokes = tuple(matrix_point(k) for k in (3, 1, 6, 2))  # a class's points tuple
    listed = list(s.points)
    for x in s.points:
        # the tuple's second row reuses the ids kept from its first
        for targets in (s.points, spokes, spokes, listed):
            row = s.dist_row(x, targets)
            assert row.tolist() == [s.dist(x, p) for p in targets]
            row[:] = -1.0  # each row is the caller's own array
    listed[0] = matrix_point(5)  # a list may change between calls, so it is read afresh
    x = matrix_point(5)
    assert s.dist_row(x, listed).tolist() == [s.dist(x, p) for p in listed]


def test_scaled_basis_distances():
    p = ScaledBasisSpace(4)
    assert p.dist(ORIGIN, basis(1)) == pytest.approx(1.0)
    assert p.dist(ORIGIN, scaled_basis(1)) == pytest.approx(0.9)
    assert p.dist(scaled_basis(2), basis(2)) == pytest.approx(0.1)
    assert p.dist(scaled_basis(1), basis(2)) == pytest.approx(math.sqrt(1.81))
    assert p.dist(basis(0), basis(3)) == pytest.approx(math.sqrt(2))
    assert p.dist(scaled_basis(0), scaled_basis(3)) == pytest.approx(0.9 * math.sqrt(2))


def test_scaled_basis_metric_axioms_exhaustive():
    validate_metric(ScaledBasisSpace(12))


def _vector(space, p):
    # independent coordinate reconstruction straight from the identity
    v = np.zeros(space.n)
    if p[0] == "basis":
        v[p[1]] = 1.0
    elif p[0] == "perm":
        v = np.array(p[1], dtype=float) / space.z
    elif p[0] != "origin":
        raise AssertionError(p)
    return v


def test_sphere_distances_match_euclidean_oracle():
    rng = random.Random(7)
    for n in (3, 4, 6):
        space = PermutationSphereSpace(n, with_origin=True)
        pts = [ORIGIN] + [basis(i) for i in range(n)] + [
            space.sample_sphere_point(rng) for _ in range(8)]
        for _ in range(200):
            a, b = rng.choice(pts), rng.choice(pts)
            expect = np.linalg.norm(_vector(space, a) - _vector(space, b))
            assert space.dist(a, b) == pytest.approx(expect, abs=1e-12)


def test_sphere_point_norm_is_alpha():
    space = PermutationSphereSpace(4, alpha=0.1)
    for p in [perm_point(p) for p in [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]]:
        assert np.linalg.norm(_vector(space, p)) == pytest.approx(0.1, abs=1e-12)


def test_sphere_scale_factor():
    space = PermutationSphereSpace(5, alpha=0.1)
    assert space.z == pytest.approx(math.sqrt(1 + 4 + 9 + 16) / 0.1)


def test_sphere_basis_distance_formula():
    # d(x, e_i) = sqrt(1 + alpha^2 - 2 x_i) with x_i the i-th coordinate
    space = PermutationSphereSpace(3, alpha=0.1)
    x = perm_point((0, 2, 1))
    assert space.dist(x, basis(0)) == pytest.approx(math.sqrt(1.01), abs=1e-12)
    assert space.dist(x, basis(1)) == pytest.approx(
        math.sqrt(1.01 - 4 / space.z), abs=1e-12)


def test_sphere_metric_axioms_sampled():
    validate_metric(PermutationSphereSpace(6, with_origin=True), random.Random(3))


def test_matrix_space_rejects_an_asymmetric_matrix():
    # population_loss reads d(x, p) from the row of p
    pts = [matrix_point(i) for i in range(2)]
    with pytest.raises(ValueError, match="not symmetric"):
        MatrixSpace(pts, [[0.0, 1.0], [3.0, 0.0]])
    MatrixSpace(pts, [[np.nan, 1.0], [1.0, 0.0]])  # symmetric, nan or not


def test_sphere_contains():
    space = PermutationSphereSpace(3)
    check_point(space, perm_point((2, 0, 1)))
    for p in (perm_point((2, 0, 0)), ORIGIN):
        with pytest.raises(PointNotInSpace):
            check_point(space, p)
    check_point(PermutationSphereSpace(3, with_origin=True), ORIGIN)


def test_sphere_dist_row_fast_path():
    space = PermutationSphereSpace(5)
    x = perm_point((4, 0, 3, 1, 2))
    targets = [basis(i) for i in range(5)]
    row = space.dist_row(x, targets)
    assert np.allclose(row, [space.dist(x, t) for t in targets])


def test_sphere_basis_row_to_sphere_points_equals_dist_bit_for_bit():
    # population_loss reads d(x, p) for sphere atoms x from dist_row(p, xs)
    for n in range(2, 7):
        space = PermutationSphereSpace(n, with_origin=True)
        perms = tuple(perm_point(p) for p in itertools.permutations(range(n)))
        mixed = [ORIGIN, perms[-1], basis(0), basis(n - 1)] + list(perms[:5]) + [ORIGIN]
        for targets in (perms, mixed, tuple(mixed)):
            for _ in range(2):  # the second call reads the kept values
                for x in [basis(i) for i in range(n)] + [ORIGIN]:
                    row = space.dist_row(x, targets)
                    assert row.tolist() == [space.dist(t, x) for t in targets]
                    assert row.tolist() == [space.dist(x, t) for t in targets]
        # the learners' rows, basis to basis and sphere to basis, are as before
        points = tuple(basis(i) for i in range(n))
        for x in points + perms[:3]:
            assert space.dist_row(x, points).tolist() == [space.dist(x, t) for t in points]


def test_shuffled_range_replays_random_shuffle():
    # each draw sits between two random() calls, so a draw that takes one
    # getrandbits too many or too few shows in the permutation or the state
    for n in range(2, 65):
        for seed in range(200):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(2):
                assert ours.random() == ref.random()
                want = list(range(n))
                ref.shuffle(want)
                got = shuffled_range(ours, n)
                assert got == want, (
                    f"shuffled_range no longer replays random.shuffle on Python "
                    f"{sys.version.split()[0]} (n={n}, seed={seed})")
            assert ours.getstate() == ref.getstate(), (n, seed)


def test_randbelow_replays_randrange():
    # m = 1 still reads the stream: that is the draw mwmr's skip replays
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        for m in range(1, 301):
            assert randbelow(ours, m) == ref.randrange(m), (
                f"randbelow no longer replays randrange on Python "
                f"{sys.version.split()[0]} (m={m}, seed={seed})")
            assert ours.getstate() == ref.getstate(), (m, seed)


def test_sample_point_replays_randrange_and_rejects_an_empty_space():
    for space in (StarSpace(40), ScaledBasisSpace(7)):
        ours, ref = random.Random(3), random.Random(3)
        for _ in range(200):
            assert space.sample_point(ours) == space.points[ref.randrange(len(space.points))]
        assert ours.getstate() == ref.getstate()
    with pytest.raises(ValueError, match="empty range"):
        MatrixSpace([], np.zeros((0, 0))).sample_point(random.Random(0))


def test_matrix_space_from_metric_and_errors():
    pts = [matrix_point(i) for i in range(4)]
    m = from_metric(pts, lambda a, b: abs(a[1] - b[1]))
    assert m.dist(pts[0], pts[3]) == 3.0
    validate_metric(m)
    with pytest.raises(PointNotInSpace):
        m.dist(matrix_point(9), pts[0])
    with pytest.raises(ValueError):
        MatrixSpace(pts + [pts[0]], np.zeros((5, 5)))


def test_point_identity_order_is_total():
    pts = [matrix_point(3), matrix_point(1), ORIGIN, basis(2), basis(0),
           scaled_basis(1), perm_point((0, 1))]
    ordered = sorted(pts)
    assert ordered.index(matrix_point(1)) < ordered.index(matrix_point(3))
    assert ordered.index(basis(0)) < ordered.index(basis(2))
    assert len(set(pts)) == len(pts)


_BAD_METRIC = """
import sys
from stratgame.core.geometry import MatrixSpace, matrix_point
from helpers import validate_metric

print("optimize", sys.flags.optimize)
# d(0,2) = 5 exceeds d(0,1) + d(1,2) = 2
validate_metric(MatrixSpace([matrix_point(i) for i in range(3)],
                            [[0, 1, 5], [1, 0, 1], [5, 1, 0]]))
"""


def test_validate_metric_rejects_triangle_violation_under_python_O():
    bad = MatrixSpace([matrix_point(i) for i in range(3)], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(ValueError, match="triangle inequality violated"):
        validate_metric(bad)
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(str(p) for p in (tests.parent / "src", tests))
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_METRIC],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": path, "PATH": ""})
    assert proc.stdout.splitlines() == ["optimize 1"]
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ValueError: triangle inequality violated"

import math
import random

import numpy as np
import pytest

from stratgame.core.geometry import (
    ORIGIN,
    TOL,
    MatrixSpace,
    PermutationSphereSpace,
    ScaledBasisSpace,
    StarSpace,
    basis,
    matrix_point,
)
from stratgame.core.predictors import Hypothesis, HypothesisClass, predict
from stratgame.core.response import (
    Agent,
    Ball,
    Explicit,
    TieBreak,
    best_response,
    population_loss,
    strategic_loss,
)

from helpers import strategic_loss_randomized


@pytest.fixture
def star5():
    space = StarSpace(5)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 6)])
    return space, hclass


def test_agent_validation():
    with pytest.raises(ValueError):
        Agent(matrix_point(0), Ball(1.0), 0)
    with pytest.raises(ValueError, match="own feature"):
        Agent(matrix_point(0), Explicit([matrix_point(1)]), -1)
    with pytest.raises(ValueError):
        Ball(-0.5)
    with pytest.raises(ValueError):
        Ball(float("nan"))


def test_best_response_stays_when_predicted_positive(star5):
    space, hclass = star5
    agent = Agent(matrix_point(2), Ball(2.0), 1)
    f = hclass.union((1,))  # positive at spoke 2
    assert best_response(space, agent, f) == matrix_point(2)


def test_best_response_stays_when_unreachable(star5):
    space, hclass = star5
    agent = Agent(matrix_point(2), Ball(0.5), 1)
    f = hclass.union((3,))  # spoke 4, distance 2
    assert best_response(space, agent, f) == matrix_point(2)


def test_best_response_moves_to_star_arm(star5):
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    f = hclass.union((2,))
    assert best_response(space, agent, f) == matrix_point(3)


def test_best_response_ball_minimality_bruteforce():
    space = ScaledBasisSpace(4)
    hclass = HypothesisClass([basis(i) for i in range(4)])
    rng = random.Random(5)
    pts = space.points
    for _ in range(500):
        x = pts[rng.randrange(len(pts))]
        agent = Agent(x, Ball(rng.random() * 2.0), rng.choice((1, -1)))
        f = hclass.union(tuple(rng.sample(range(4), rng.randint(1, 3))))
        delta = best_response(space, agent, f)
        reachable = [p for p in pts
                     if predict(f, p) == 1
                     and space.dist(x, p) <= agent.u.radius + 1e-9]
        if predict(f, x) == 1 or not reachable:
            assert delta == x
        else:
            dmin = min(space.dist(x, p) for p in reachable)
            assert predict(f, delta) == 1
            assert space.dist(x, delta) <= dmin + 1e-9


def _window_space(dists):
    """Matrix space whose point 0 lies at the given distances from points 1..k."""
    pts = [matrix_point(k) for k in range(len(dists) + 1)]
    m = np.zeros((len(pts), len(pts)))
    m[0, 1:] = m[1:, 0] = dists
    return MatrixSpace(pts, m), HypothesisClass(pts[1:])


def test_tolerance_window_of_reach_and_ties():
    r, dmin = 1.0, 0.5
    # point 1 sits at dmin + TOL, point 2 at dmin, point 3 at dmin + 2 TOL,
    # point 4 at exactly r + TOL and point 5 at r + 2 TOL
    space, hclass = _window_space([dmin + TOL, dmin, dmin + 2 * TOL,
                                   r + TOL, r + 2 * TOL])
    x = matrix_point(0)
    neg = Agent(x, Ball(r), -1)

    # reach: d == r + TOL is inside the ball, r + 2 TOL is not
    assert best_response(space, neg, hclass.union((3,))) == matrix_point(4)
    assert strategic_loss(space, hclass.union((3,)), neg) == 1
    assert best_response(space, neg, hclass.union((4,))) == x
    assert strategic_loss(space, hclass.union((4,)), neg) == 0
    assert strategic_loss(space, hclass.union((4,)), Agent(x, Ball(r), 1)) == 1

    # ties: points 1 and 2 are within TOL of the minimum, point 3 is not;
    # FIXED_LOWEST returns the lowest identity among the survivors
    f = hclass.union((0, 1, 2, 3))
    assert best_response(space, neg, f, TieBreak.FIXED_LOWEST) == matrix_point(1)
    assert best_response(space, neg, hclass.union((1, 2)),
                         TieBreak.FIXED_LOWEST) == matrix_point(2)

    # UNIFORM_RANDOM draws once over the sorted survivors when two or more
    # survive, and not at all when one does
    for seed in range(20):
        rng, twin = random.Random(seed), random.Random(seed)
        got = best_response(space, neg, f, TieBreak.UNIFORM_RANDOM, rng)
        assert got == [matrix_point(1), matrix_point(2)][twin.randrange(2)]
        assert rng.getstate() == twin.getstate()
    for parts in ((1, 2, 3), (3,), (4,)):
        rng, twin = random.Random(7), random.Random(7)
        best_response(space, neg, hclass.union(parts), TieBreak.UNIFORM_RANDOM, rng)
        assert rng.getstate() == twin.getstate()


def test_best_response_explicit_fixed_order():
    # brute force over u with the fixed point order picks the lowest identity
    space = StarSpace(3)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 4)])
    agent = Agent(matrix_point(0),
                  Explicit([matrix_point(0), matrix_point(1), matrix_point(2)]), -1)
    f = hclass.union((0, 1))  # positive at spokes 1 and 2
    candidates = sorted(p for p in agent.u.members if predict(f, p) == 1)
    assert candidates[0] == matrix_point(1)
    assert best_response(space, agent, f, TieBreak.FIXED_LOWEST) == matrix_point(1)


def test_best_response_uniform_tie_frequencies(star5):
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    f = hclass.union((0, 1))  # spokes 1 and 2, both at distance 1
    rng = random.Random(11)
    counts = {matrix_point(1): 0, matrix_point(2): 0}
    for _ in range(4000):
        counts[best_response(space, agent, f, TieBreak.UNIFORM_RANDOM, rng)] += 1
    assert counts[matrix_point(1)] / 4000 == pytest.approx(0.5, abs=0.05)


def test_best_response_uniform_needs_rng(star5):
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    with pytest.raises(ValueError):
        best_response(space, agent, hclass.union((0, 1)), TieBreak.UNIFORM_RANDOM)


def test_best_response_invariants_random(star5):
    space, hclass = star5
    rng = random.Random(3)
    pts = space.points
    for _ in range(500):
        x = pts[rng.randrange(len(pts))]
        if rng.random() < 0.5:
            u = Ball(rng.random() * 2.5)
        else:
            members = {x} | {p for p in pts if rng.random() < 0.4}
            u = Explicit(members)
        agent = Agent(x, u, rng.choice((1, -1)))
        f = hclass.union(tuple(rng.sample(range(5), rng.randint(1, 4))))
        delta = best_response(space, agent, f, TieBreak.UNIFORM_RANDOM, rng)
        if isinstance(u, Explicit):
            assert delta in u.members
        else:
            assert space.dist(x, delta) <= u.radius + 1e-9
        overlap = any(
            predict(f, p) == 1 and (
                p in u.members if isinstance(u, Explicit)
                else space.dist(x, p) <= u.radius + 1e-9)
            for p in pts)
        if predict(f, x) == -1 and overlap:
            assert predict(f, delta) == 1
        else:
            assert delta == x


def test_strategic_loss_case_split(star5):
    space, hclass = star5
    f = hclass.union((0,))
    # negative predicted positive at x
    assert strategic_loss(space, f, Agent(matrix_point(1), Ball(0.0), -1)) == 1
    # positive predicted positive
    assert strategic_loss(space, f, Agent(matrix_point(1), Ball(0.0), 1)) == 0
    # negative that can reach the positive region
    agent = Agent(matrix_point(0), Ball(1.0), -1)
    reachable = [p for p in space.points
                 if predict(f, p) == 1 and space.dist(matrix_point(0), p) <= 1.0 + 1e-9]
    assert reachable  # the spoke is inside the unit ball around the hub
    assert strategic_loss(space, f, agent) == 1
    # positive that cannot reach
    assert strategic_loss(space, f, Agent(matrix_point(2), Ball(0.5), 1)) == 1
    # negative that cannot reach
    assert strategic_loss(space, f, Agent(matrix_point(2), Ball(0.5), -1)) == 0


def test_loss_equals_protocol_mistake(star5):
    space, hclass = star5
    rng = random.Random(9)
    pts = space.points
    for tie in (TieBreak.FIXED_LOWEST, TieBreak.UNIFORM_RANDOM):
        for _ in range(400):
            x = pts[rng.randrange(len(pts))]
            agent = Agent(x, Ball(rng.random() * 2.5), rng.choice((1, -1)))
            f = hclass.union(tuple(rng.sample(range(5), rng.randint(1, 3))))
            delta = best_response(space, agent, f, tie, rng)
            mistake = predict(f, delta) != agent.y
            assert strategic_loss(space, f, agent) == int(mistake)


def test_loss_is_tie_invariant(star5):
    space, hclass = star5
    rng = random.Random(13)
    pts = space.points
    for _ in range(300):
        x = pts[rng.randrange(len(pts))]
        members = {x} | {p for p in pts if rng.random() < 0.5}
        agent = Agent(x, Explicit(members), rng.choice((1, -1)))
        f = hclass.union(tuple(rng.sample(range(5), rng.randint(1, 3))))
        assert (strategic_loss(space, f, agent)
                == strategic_loss(space, f, agent))  # pure function
        # the case split only reads emptiness of the overlap, never the choice


def test_randomized_loss_point_mass(star5):
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), -1)
    f = hclass.union((0,))
    assert strategic_loss_randomized(space, [(f, 1.0)], agent) == \
        strategic_loss(space, f, agent)


def test_randomized_loss_linearity(star5):
    space, hclass = star5
    agent = Agent(matrix_point(1), Ball(0.0), 1)
    good = hclass.union((0,))   # predicts spoke 1 positive: loss 0
    bad = hclass.union((3,))    # unreachable: loss 1
    assert strategic_loss(space, good, agent) == 0
    assert strategic_loss(space, bad, agent) == 1
    mix = [(good, 0.5), (bad, 0.5)]
    assert strategic_loss_randomized(space, mix, agent) == pytest.approx(0.5)


def test_randomized_loss_uniform_singletons_radius_zero():
    # immovable origin negative: no singleton covers it, expected loss 0
    space = PermutationSphereSpace(4, with_origin=True)
    hclass = HypothesisClass([basis(i) for i in range(4)])
    agent = Agent(ORIGIN, Ball(0.0), -1)
    mix = [(hclass.union((i,)), 0.25) for i in range(4)]
    assert strategic_loss_randomized(space, mix, agent) == 0.0


def test_randomized_loss_weight_validation(star5):
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), -1)
    with pytest.raises(ValueError, match="sum"):
        strategic_loss_randomized(space, [(hclass.union((0,)), 0.7)], agent)


class _ListSource:
    def __init__(self, atoms):
        self.atoms = atoms

    def support(self):
        return self.atoms


class _NoSupport:
    def support(self):
        return None


def test_population_loss_exact(star5):
    space, hclass = star5
    atoms = [(Agent(matrix_point(0), Ball(1.0), 1), 0.75),
             (Agent(matrix_point(2), Ball(0.0), -1), 0.25)]
    f = hclass.union((1,))  # spoke 2 positive
    # positive reaches spoke 2; the spoke-2 negative is predicted positive
    assert population_loss(space, f, _ListSource(atoms)) == pytest.approx(0.25)


def test_population_loss_counts_an_atom_at_the_point_as_meeting_it():
    # strategic_loss lets x == p meet p whatever d(x, x) reads; so must the
    # reach columns, here on a matrix whose diagonal is no distance at all
    pts = [matrix_point(k) for k in range(3)]
    m = np.array([[5.0, 1.0, 2.0], [1.0, np.nan, 1.0], [2.0, 1.0, 5.0]])
    space = MatrixSpace(pts, m)
    atoms = [(Agent(p, Ball(0.5), y), 2.0 ** -k)
             for k, (p, y) in enumerate((p, y) for p in pts for y in (1, -1))]
    src = _ListSource(atoms)
    # atom k weighs 2**-k: (p0, +1), (p0, -1), (p1, +1), ..., (p2, -1)
    for region, lost in (([pts[0]], 26), ([pts[1]], 38), ([pts[0], pts[2]], 25), (pts, 21)):
        f = Hypothesis(region)
        want = math.fsum(w * strategic_loss(space, f, a) for a, w in atoms)
        assert population_loss(space, f, src) == want == lost / 32


def test_population_loss_needs_enumerable_support(star5):
    space, hclass = star5
    with pytest.raises(ValueError, match="monte_carlo_loss"):
        population_loss(space, hclass.union((0,)), _NoSupport())

import functools
import math
import random

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from stratgame.core.geometry import (
    ORIGIN,
    TOL,
    ScaledBasisSpace,
    StarSpace,
    basis,
    matrix_point,
)
from stratgame.core.predictors import Hypothesis, HypothesisClass, predict
from stratgame.core.response import (Agent, Ball, Explicit, TieBreak, best_response,
                                     population_loss, strategic_loss)
from stratgame.environments import make_environment, random_realizable_stream
from stratgame.learners import MedianHalvingLearner, make_learner
from stratgame.protocol import RngStreams, Setting, run_online, run_round

from helpers import distance_to_hypothesis, from_metric, validate_metric
from test_learners import line_space


@st.composite
def euclidean_space(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    coords = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    pts = [matrix_point(i) for i in range(n)]
    space = from_metric(
        pts, lambda a, b: math.dist(coords[a[1]], coords[b[1]]))
    return space


@settings(max_examples=30, deadline=None)
@given(euclidean_space())
def test_embedded_spaces_satisfy_metric_axioms(space):
    validate_metric(space)


@settings(max_examples=60, deadline=None)
@given(euclidean_space(), st.integers(0, 10_000))
def test_best_response_and_loss_agree(space, seed):
    rng = random.Random(seed)
    pts = space.points
    k = len(pts)
    hclass = HypothesisClass(pts)
    x = pts[rng.randrange(k)]
    if rng.random() < 0.5:
        u = Ball(rng.random() * 2.0)
    else:
        u = Explicit({x} | {p for p in pts if rng.random() < 0.3})
    agent = Agent(x, u, rng.choice((1, -1)))
    f = hclass.union(tuple(rng.sample(range(k), rng.randint(1, min(3, k)))))
    tie = rng.choice((TieBreak.FIXED_LOWEST, TieBreak.UNIFORM_RANDOM))
    delta = best_response(space, agent, f, tie, rng)
    # the response stays inside the manipulation set
    if isinstance(u, Ball):
        assert space.dist(x, delta) <= u.radius + 1e-9
    else:
        assert delta in u.members
    # the loss formula equals the protocol-level mistake indicator
    assert strategic_loss(space, f, agent) == int(predict(f, delta) != agent.y)


@settings(max_examples=60, deadline=None)
@given(euclidean_space(), st.integers(0, 10_000))
def test_ball_response_minimality(space, seed):
    rng = random.Random(seed)
    pts = space.points
    hclass = HypothesisClass(pts)
    x = pts[rng.randrange(len(pts))]
    agent = Agent(x, Ball(rng.random() * 1.5), 1)
    k = rng.randint(1, min(3, len(pts)))
    f = hclass.union(tuple(rng.sample(range(len(pts)), k)))
    delta = best_response(space, agent, f)
    for p in pts:
        if predict(f, p) == 1 and space.dist(x, p) <= agent.u.radius + 1e-9:
            assert space.dist(x, delta) <= space.dist(x, p) + 1e-9


@settings(max_examples=60, deadline=None)
@given(euclidean_space(), st.integers(0, 10_000))
def test_union_distance_is_min_of_parts(space, seed):
    rng = random.Random(seed)
    pts = space.points
    hclass = HypothesisClass(pts)
    k = len(pts)
    parts = tuple(rng.sample(range(k), rng.randint(1, min(4, k))))
    x = pts[rng.randrange(k)]
    f = hclass.union(parts)
    d_union = distance_to_hypothesis(space, x, f)
    d_parts = min(distance_to_hypothesis(space, x, hclass.union((i,)))
                  for i in parts)
    assert abs(d_union - d_parts) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(3, 16))
def test_strategic_loss_is_tie_policy_invariant(seed, n):
    space = StarSpace(n)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, n + 1)])
    rng = random.Random(seed)
    pts = space.points
    for _ in range(20):
        x = pts[rng.randrange(len(pts))]
        u = Ball(rng.random() * 2.5) if rng.random() < 0.5 else Explicit(
            {x} | {p for p in pts if rng.random() < 0.4})
        agent = Agent(x, u, rng.choice((1, -1)))
        f = hclass.union(tuple(rng.sample(range(n), rng.randint(1, 3))))
        # identical by construction: the loss never inspects the chosen point
        assert strategic_loss(space, f, agent) == strategic_loss(space, f, agent)
        r1 = best_response(space, agent, f, TieBreak.FIXED_LOWEST)
        r2 = best_response(space, agent, f, TieBreak.UNIFORM_RANDOM, rng)
        assert predict(f, r1) == predict(f, r2)


def _frozenset_path(space, agent, f):
    """(best response, strategic loss) by the general path over f.positive,
    fixed ties: the reference for the one-point comparison."""
    x, pos, u = agent.x, f.positive, agent.u
    if x in pos:
        return x, int(agent.y == -1)
    if isinstance(u, Ball):
        near = {p: space.dist(x, p) for p in pos}
        near = {p: d for p, d in near.items() if d <= u.radius + TOL}
        cand = [p for p, d in near.items() if d <= min(near.values()) + TOL]
    else:
        cand = list(u.members & pos)
    meets = bool(cand)
    return (min(cand) if meets else x), int(meets if agent.y == -1 else not meets)


@functools.lru_cache(maxsize=None)
def _one_point_families():
    """appG and appI (sphere balls at their reach radii) and appK (explicit sets)."""
    return tuple(make_environment(name, 5, eps=0.02, target=2).family
                 for name in ("appG", "appI", "appK"))


def _one_point_agents(rng):
    """(space, hclass, agent) on star, sphere and scaled-basis agents."""
    for fam in _one_point_families():
        yield fam.space, fam.hclass, fam.sample(rng)
    star = StarSpace(6)
    x = star.points[rng.randrange(7)]
    u = Ball(rng.random() * 2.5) if rng.random() < 0.5 else Explicit(
        {x} | {p for p in star.points if rng.random() < 0.4})
    yield star, HypothesisClass(star.points[1:]), Agent(x, u, rng.choice((1, -1)))
    sb = ScaledBasisSpace(4)
    u = Ball(rng.choice((0.0, 0.1, rng.random() * 2)))
    yield sb, HypothesisClass([basis(i) for i in range(4)]), Agent(
        sb.points[rng.randrange(9)], u, rng.choice((1, -1)))


def _radius_at(d):
    """The largest radius r with r + TOL <= d; r + TOL == d where floats allow."""
    r = d - TOL
    while r + TOL > d:
        r = math.nextafter(r, -math.inf)
    while math.nextafter(r, math.inf) + TOL <= d:
        r = math.nextafter(r, math.inf)
    return r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_one_point_response_equals_the_frozenset_path(seed):
    # a one-point region with a ball agent compares x with its point and
    # measures one distance; verdicts must match the general path, at x on
    # the point, exactly at radius + TOL and one ulp inside it
    rng = random.Random(seed)
    at_edge = 0
    for space, hclass, agent in _one_point_agents(rng):
        x = agent.x
        for p in hclass.points + (x,):
            f = Hypothesis((p,))
            agents = [Agent(x, agent.u, y) for y in (1, -1)]
            d = space.dist(x, p)
            if isinstance(agent.u, Ball) and d > TOL:
                r = _radius_at(d)
                at_edge += r + TOL == d
                agents += [Agent(x, Ball(s), y) for s in (r, math.nextafter(r, -math.inf))
                           for y in (1, -1)]
            for a in agents:
                assert (best_response(space, a, f, TieBreak.FIXED_LOWEST),
                        strategic_loss(space, f, a)) == _frozenset_path(space, a, f)
    assert at_edge > 0


def _per_atom_sum(space, f, support):
    return math.fsum(w * strategic_loss(space, f, a) for a, w in support)


_FAMILY_EPS = {"appG": 0.01, "appI": 0.02, "appJ": 0.02, "appK": 0.05}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_FAMILY_EPS)), st.integers(2, 6), st.integers(0, 10_000))
def test_population_loss_equals_the_per_atom_sum(tag, n, seed):
    # the reach columns must give the very float of the per-atom sum, cold
    # and warm, on regions of anchor, class and sphere points
    rng = random.Random(seed)
    fam = make_environment(tag, n, eps=_FAMILY_EPS[tag], target=rng.randrange(n)).family
    support = fam.support()
    points = list(fam.hclass.points)
    if tag == "appG":
        points.append(ORIGIN)
    elif tag in ("appJ", "appK"):
        points.append(matrix_point(0))
    if tag in ("appG", "appI"):
        sphere = sorted({a.x for a, _ in support if a.x[0] == "perm"})
        points += rng.sample(sphere, min(3, len(sphere)))
    regions = [Hypothesis(())] + [Hypothesis(rng.sample(points, rng.randint(1, 3)))
                                  for _ in range(6)]
    for _ in range(2):
        for f in regions:
            assert population_loss(fam.space, f, fam) == _per_atom_sum(fam.space, f, support)


class _FreshListSource:
    """Returns a new list on every call, as appJ's ``support()`` does."""

    def __init__(self, atoms):
        self.atoms = atoms

    def support(self):
        return list(self.atoms)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_population_loss_on_mixed_ball_and_explicit_atoms(seed):
    rng = random.Random(seed)
    space = StarSpace(5)
    pts = space.points

    def atoms():
        out = []
        for _ in range(rng.randint(0, 12)):
            x = rng.choice(pts)
            if rng.random() < 0.5:  # radii around the star's distances 1 and 2
                u = Ball(rng.choice((0.0, 1.0 - TOL, math.nextafter(1.0 - TOL, 0.0), 1.0, 2.0)))
            else:
                u = Explicit({x} | {p for p in pts if rng.random() < 0.3})
            out.append((Agent(x, u, rng.choice((1, -1))), rng.random()))
        return out

    kept = atoms()
    src = _FreshListSource(kept)
    regions = [Hypothesis(rng.sample(pts, rng.randint(0, 3))) for _ in range(6)]
    for _ in range(2):
        for f in regions:
            assert population_loss(space, f, src) == _per_atom_sum(space, f, kept)
    # a new support list with other atoms is read afresh
    src.atoms = kept = atoms()
    for f in regions:
        assert population_loss(space, f, src) == _per_atom_sum(space, f, kept)


def _examples(cases):
    """Add fixed cases, each a tuple of positional arguments, to a Hypothesis test."""
    return lambda test: functools.reduce(lambda t, c: example(*c)(t), cases, test)


def _contraction_stream(metric, seed, n):
    """An 80-agent realizable ball stream on the star (target n - 1) or on the
    line metric of ``test_learners.line_space`` (target seed % n)."""
    if metric == "star":
        env = make_environment("random-realizable", n, stream_space="star",
                               target=n - 1)
        return env.source_for_run(seed, 80)
    space, hclass = line_space(n)
    return random_realizable_stream(space, hclass, seed % n, 80, seed)


def _mistake_sizes(lrn, src, seed):
    """(version space size before, after) on every mistake round, played in x-delta."""
    streams = RngStreams(seed)
    lrn.reset(src.hclass, src.space, Setting.X_BEFORE, streams.learner)
    sizes = []
    for t, agent in enumerate(src.agents, start=1):
        before = len(lrn.alive_indices)
        rec = run_round(agent, lrn, Setting.X_BEFORE, src.space, rng=streams.tie, t=t)
        if rec.mistake:
            sizes.append((before, len(lrn.alive_indices)))
    return sizes


class _FarthestHalving(MedianHalvingLearner):
    """Halving's cut with the farthest alive member played instead of the median."""

    def choose(self, context):
        ranked = self.index.order(context)
        if self._mask is not None:
            ranked = ranked[self._mask[ranked]]
        self._last_choice = self.hclass[int(ranked[-1])]
        return self._last_choice


# fixed cases: star seeds 0-39 with n = 8, 16, 32 in turn, line seeds 0-39
# with n = 5, 8, 16 in turn
@_examples([("star", seed, 8 << (seed % 3)) for seed in range(40)]
           + [("line", seed, (5, 8, 16)[seed % 3]) for seed in range(40)])
@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("star", "line")), st.integers(0, 2_000), st.integers(4, 32))
def test_halving_contracts_on_every_mistake(metric, seed, n):
    sizes = _mistake_sizes(make_learner("halving"), _contraction_stream(metric, seed, n),
                           seed)
    assert all(after <= before // 2 for before, after in sizes)
    assert len(sizes) <= math.ceil(math.log2(n))


@pytest.mark.parametrize("n", [5, 8, 16])
def test_farthest_choice_breaks_contraction_on_line_streams(n):
    # the contraction test binds on the median rule: playing the farthest
    # member keeps more than half of the version space after some mistake
    for seed in range(10):
        sizes = _mistake_sizes(_FarthestHalving(), _contraction_stream("line", seed, n),
                               seed)
        assert any(after > before // 2 for before, after in sizes), seed


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1_000))
def test_eliminators_keep_target_alive(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    target = rng.randrange(n)
    env = make_environment("random-realizable", n, stream_space="scaled-basis",
                           target=target)
    for name, setting in (("mwmr", Setting.XD_AFTER),
                          ("random-union", Setting.XD_AFTER)):
        lrn = make_learner(name)
        run_online(env.source_for_run(seed, 40), lrn, setting, 40, seed)
        assert target in lrn.alive_indices


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("mwmr", "random-union", "seq-elim")), st.integers(2, 12),
       st.integers(0, 10_000), st.integers(0, 40))
def test_run_correct_chooses_as_choose_and_correct_observes_would(name, n, seed, m):
    # wrong(f) is a mistake exactly when f meets the drawn index, which may
    # be dead: then all m rounds are correct
    from stratgame.protocol import Feedback

    rng = random.Random(seed)
    space = ScaledBasisSpace(n)
    hclass = HypothesisClass([basis(i) for i in range(n)])
    alive = sorted(rng.sample(range(n), rng.randint(1, n)))
    bad = rng.randrange(n)

    def wrong(f):
        return bad in f.parts

    learners = []
    for _ in range(2):
        learner = make_learner(name)
        learner.reset(hclass, space, Setting.XD_AFTER, random.Random(f"{seed}:learner"))
        learner.alive = list(alive)
        learners.append(learner)
    spanned, looped = learners
    got = spanned.run_correct(None, wrong, m)
    want = (m, None)
    for k in range(m):
        f = looped.choose(None)
        if wrong(f):
            want = (k, f)
            break
        looped.observe(Feedback(k + 1, f, 1, 1, None, None))
    assert got == want
    assert spanned.rounds_seen == looped.rounds_seen
    assert spanned.rng.getstate() == looped.rng.getstate()

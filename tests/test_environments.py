import math
import random
from collections import Counter
from itertools import permutations

import pytest

from stratgame.core.geometry import (
    ORIGIN,
    PermutationSphereSpace,
    basis,
    matrix_point,
    scaled_basis,
)
from stratgame.core.predictors import Hypothesis
from stratgame.core.response import (Agent, Ball, Explicit, TieBreak, population_loss,
                                     strategic_loss)
from stratgame import environments
from stratgame.environments import (
    ConstantRadius,
    ParameterError,
    PrefixSetFamily,
    ProbingAdversary,
    SphereRadiusFamily,
    SphereRankFamily,
    StarSpokeFamily,
    UniformRadius,
    make_environment,
    parse_radius_law,
    random_realizable_stream,
)
from stratgame.learners import make_learner
from stratgame.oracle import check_family
from stratgame.protocol import (
    ContractViolation,
    LearnerView,
    Setting,
    run_online,
)

from helpers import ConstantLearner, FiniteIIDSource, to_jsonl


# ----------------------------------------------------------- star counter


def test_star_counter_vs_sequential_elimination():
    # hand simulation: each round the adversary plants an immovable negative
    # on the exposed spoke, eliminating exactly that singleton
    env = make_environment("star-ex42", 5)
    lrn = make_learner("seq-elim")
    tr = run_online(env.source_for_run(0, 4), lrn, Setting.XD_AFTER, 4, 0)
    assert tr.mistakes == 4
    assert [r.mistake for r in tr.rounds] == [True] * 4
    assert [r.x for r in tr.rounds] == [matrix_point(i) for i in (1, 2, 3, 4)]


def test_star_counter_concedes_after_full_walk():
    env = make_environment("star-ex42", 5)
    lrn = make_learner("seq-elim")
    tr = run_online(env.source_for_run(0, 10), lrn, Setting.XD_AFTER, 10, 0)
    assert tr.mistakes == 4  # rounds 5..10 are conceded hub positives
    assert all(not r.mistake for r in tr.rounds[4:])


def test_star_counter_vs_all_negative_learner():
    # a mistake every round while every singleton stays consistent
    env = make_environment("star-ex42", 6)
    lrn = ConstantLearner(Hypothesis(()))
    tr = run_online(env.source_for_run(0, 12), lrn, Setting.XD_AFTER, 12, 0)
    assert tr.mistakes == 12
    agents = [(r.x, r.y) for r in tr.rounds]
    assert all(x == matrix_point(0) and y == 1 for x, y in agents)


def test_star_counter_vs_hub_positive_learner():
    env = make_environment("star-ex42", 6)
    hub_pos = Hypothesis([matrix_point(0)])
    tr = run_online(env.source_for_run(0, 8), ConstantLearner(hub_pos),
                    Setting.XD_AFTER, 8, 0)
    assert tr.mistakes == 8


def test_star_counter_agents_consistent_with_survivors():
    env = make_environment("star-ex42", 5)
    adversary = env.shared.fresh()
    learner = make_learner("seq-elim")
    learner.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(0))
    view = LearnerView(learner, random.Random(1))
    agents = []
    from stratgame.protocol import run_round
    for t in range(1, 5):
        agent = adversary.next_agent(view)
        agents.append(agent)
        run_round(agent, learner, Setting.XD_AFTER, env.space, t=t)
    for spoke in adversary.consistent:
        h = env.hclass.union((spoke - 1,))
        assert all(strategic_loss(env.space, h, a) == 0 for a in agents)


def test_star_counter_needs_deterministic_learner():
    env = make_environment("star-ex42", 4)
    lrn = make_learner("mwmr")
    with pytest.raises(ContractViolation, match="deterministic"):
        run_online(env.source_for_run(0, 3), lrn, Setting.XD_AFTER, 3, 0)


# ------------------------------------------------------- probing adversary


def _probe_agent_for(learner_predictor, n=4, target=3):
    adv = ProbingAdversary(n, target=target).fresh()
    learner = ConstantLearner(learner_predictor)
    view = LearnerView(learner, random.Random(0))
    return adv.next_agent(view)


def test_probing_case1_immovable_probe_negative():
    env = make_environment("appE", 4)
    agent = _probe_agent_for(Hypothesis([ORIGIN]))
    assert agent.x == ORIGIN and agent.u == Ball(0.0) and agent.y == -1
    agent = _probe_agent_for(Hypothesis([scaled_basis(2)]))
    assert agent.x == scaled_basis(2) and agent.u == Ball(0.0)


def test_probing_case2_manipulable_origin_positive():
    agent = _probe_agent_for(Hypothesis(()))
    assert agent.x == ORIGIN and agent.u == Ball(1.0) and agent.y == 1


def test_probing_case3_lowest_index_argmax():
    # uniform over the class puts equal weight on every basis direction:
    # the argmax tie breaks to the lowest index, planted off target
    adv = ProbingAdversary(4, target=3).fresh()
    learner = make_learner("mwmr")
    env = make_environment("appE", 4)
    learner.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(0))
    agent = adv.next_agent(LearnerView(learner, random.Random(0)))
    assert agent.x == scaled_basis(0)
    assert agent.u == Ball(0.1) and agent.y == -1


def test_probing_agent_is_reused_while_the_learner_state_holds():
    env = make_environment("appE", 4)
    learner = make_learner("mwmr")
    learner.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(0))
    adv = env.shared.fresh()
    view = LearnerView(learner, random.Random(0))
    first = adv.next_agent(view)
    assert adv.next_agent(view) is first


def test_probing_case3_on_target_is_immovable():
    agent = _probe_agent_for(
        Hypothesis([basis(3)]), n=4, target=3)
    assert agent.x == scaled_basis(3) and agent.u == Ball(0.0)


def test_probing_agents_consistent_with_target():
    env = make_environment("appE", 6)
    lrn = make_learner("mwmr")
    # run_online validates every emitted agent against the declared target
    tr = run_online(env.source_for_run(0, 400), lrn, Setting.XD_AFTER, 400, 0)
    assert tr.mistakes <= 5


def test_probing_with_sampled_distribution():
    # random-union exposes only the sampling hook; the adversary estimates
    env = make_environment("appE", 5, samples=200)
    lrn = make_learner("random-union")
    tr = run_online(env.source_for_run(0, 50), lrn, Setting.XD_AFTER, 50, 0)
    assert tr.T == 50  # completed without contract or realizability errors


def _decide_reference(env, dist):
    """The adversary's decision as first written: every probe point is tested
    for membership in every predictor."""
    probes = [ORIGIN] + [scaled_basis(j) for j in range(env.n)]
    p_allneg = 0.0
    p_probe = dict.fromkeys(probes, 0.0)
    weight = [0.0] * env.n
    for f, p in dist:
        pset = f.positive
        if not pset:
            p_allneg += p
            continue
        hit = False
        for pt in probes:
            if pt in pset:
                p_probe[pt] += p
                hit = True
        if not hit:
            for pt in pset:
                if pt[0] == "basis":
                    weight[pt[1]] += p
    for pt in probes:
        if p_probe[pt] >= env.c - 1e-12:
            return Agent(pt, Ball(0.0), -1)
    if p_allneg >= env.c - 1e-12:
        return Agent(ORIGIN, Ball(1.0), 1)
    i_t = max(range(env.n), key=lambda i: (weight[i], -i))
    return Agent(scaled_basis(i_t), Ball(0.0 if i_t == env.target else 0.1), -1)


class _FixedView:
    """A learner view that shows one given distribution and no state version."""

    def __init__(self, dist):
        self.dist = dist

    def distribution(self, samples):
        return self.dist

    def version(self):
        return None


def _decisions(n, dists, target=None, c=None):
    env = ProbingAdversary(n, target=target, c=c)
    new = [env.fresh().next_agent(_FixedView(d)) for d in dists]
    old = [_decide_reference(env, d) for d in dists]
    return [(a.x, a.u.radius, a.y) for a in new], [(a.x, a.u.radius, a.y) for a in old]


def test_probing_decision_matches_the_probe_by_probe_reference():
    n = 6
    probes = [ORIGIN] + [scaled_basis(j) for j in range(n)]
    regions = [[ORIGIN], [scaled_basis(2)], [ORIGIN, basis(1)],
               [scaled_basis(0), scaled_basis(5), basis(3)], [basis(1), basis(4)],
               [basis(0)], [basis(5)], []]
    dists = [[(Hypothesis(r), 1.0)] for r in regions]  # what ConstantLearner shows
    rng = random.Random(5)
    points = probes + [basis(j) for j in range(n)]
    for _ in range(300):  # mixtures whose masses fall on every side of c
        k = rng.randint(1, 12)
        ws = [rng.random() ** 3 for _ in range(k)]
        dists.append([(Hypothesis(rng.sample(points, rng.choice((0, 1, 1, 2, 3)))),
                       w / sum(ws)) for w in ws])
    env = make_environment("appE", n)
    for alive in ([0, 1, 2, 3, 4, 5], [1, 4, 5], [3]):  # random-union, by sampling
        learner = make_learner("random-union")
        learner.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(1))
        learner.alive = alive
        dists.append(LearnerView(learner, random.Random(2)).distribution(300))
    new, old = _decisions(n, dists, target=2)
    assert new == old
    # every branch of the decision is reached
    kinds = Counter("probe" if x in probes and r == 0.0 and y == -1 else
                    "origin+" if y == 1 else "planted" for x, r, y in new)
    assert min(kinds["probe"], kinds["origin+"], kinds["planted"]) >= 10
    assert {x for x, r, y in new} >= {ORIGIN, scaled_basis(2), scaled_basis(0)}
    # the same inputs under thresholds that move decisions between branches
    for c in (0.05, 0.2, 0.5):
        new, old = _decisions(n, dists, target=2, c=c)
        assert new == old


def test_probing_plant_matches_the_old_argmax_on_tied_and_untied_weights():
    # the planted direction is the heaviest, the lowest index on a tie, as
    # max(range(n), key=lambda i: (weight[i], -i)) picked it; c = 1 keeps the
    # probe and origin branches out of the way
    n = 6
    env = make_environment("appE", n)
    rng = random.Random(3)
    dists = []
    for _ in range(200):  # unions of basis points with dyadic masses: exact ties
        k = rng.randint(1, 6)
        dists.append([(env.hclass.union(tuple(rng.sample(range(n), rng.randint(1, 3)))),
                       1 / k) for _ in range(k)])
    for alive in ([0, 1, 2, 3, 4, 5], [1, 4, 5], [2, 3], [3]):
        mwmr = make_learner("mwmr")  # uniform over alive: every alive weight ties
        mwmr.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(1))
        mwmr.alive = alive
        dists.append(mwmr.predictor_distribution())
        union = make_learner("random-union")  # sampled: mostly untied
        union.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(1))
        union.alive = alive
        for seed in range(5):
            dists.append(LearnerView(union, random.Random(seed)).distribution(300))
    weights = []
    for d in dists:
        w = Counter()
        for f, p in d:
            for pt in f.positive:
                w[pt] += p
        weights.append(sorted(w.values(), reverse=True) + [-1.0])
    assert sum(w[0] == w[1] for w in weights) >= 20
    assert sum(w[0] != w[1] for w in weights) >= 20
    for target in (0, 2, 5):
        new, old = _decisions(n, dists, target=target, c=1.0)
        assert new == old
        assert all(x[0] == "sbasis" and y == -1 for x, r, y in new)


def test_probing_forces_full_walk_of_mwmr():
    env = make_environment("appE", 8)
    counts = []
    for seed in range(20):
        lrn = make_learner("mwmr")
        tr = run_online(env.source_for_run(seed, 971), lrn, Setting.XD_AFTER,
                        971, seed, record="counts")
        counts.append(tr.mistakes)
    assert max(counts) <= 7
    assert sum(c >= 7 for c in counts) >= 14  # typically all 20


# ----------------------------------------------------------------- families


def test_family_parameter_validation():
    with pytest.raises(ParameterError):
        SphereRadiusFamily(4, 0.1)   # 3 n eps > 1
    with pytest.raises(ParameterError):
        SphereRankFamily(4, 0.2)     # 6 eps > 1
    with pytest.raises(ParameterError):
        StarSpokeFamily(4, 0.2)      # 3 (n-1) eps > 1
    with pytest.raises(ParameterError):
        PrefixSetFamily(4, 0.2)      # 6 eps > 1
    with pytest.raises(ParameterError):
        StarSpokeFamily(4, 0.01, target=7)


# (least n, c at n = 4) of each family: it needs n >= least and c*eps <= 1
_RANGES = {"appG": (2, 12), "appI": (2, 6), "appJ": (1, 9), "appK": (1, 6)}


@pytest.mark.parametrize("tag", sorted(_RANGES))
@pytest.mark.parametrize("bad", ["n", "eps=0", "eps=nan", "eps>1/c", "target=n",
                                 "target=-1"])
def test_families_reject_with_the_oracle_message(tag, bad):
    least, c = _RANGES[tag]
    n, eps, target = 4, 0.01, 0
    if bad == "n":
        n = least - 1
    elif bad.startswith("eps"):
        eps = {"eps=0": 0.0, "eps=nan": math.nan, "eps>1/c": 1 / c + 1e-9}[bad]
    else:
        target = n if bad == "target=n" else -1
    with pytest.raises(ValueError) as want:
        check_family(tag, n, eps, target)
    with pytest.raises(ParameterError) as got:
        make_environment(tag, n, eps=eps, target=target)
    assert str(got.value) == str(want.value)


def _last_separated_n(alpha, tol=1e-9):
    """Largest n whose reach levels at v = 0 and v = 1 stay 100 tol apart."""
    def gap(n):
        z = math.sqrt((n - 1) * n * (2 * n - 1) // 6) / alpha
        return math.sqrt(1.0 + alpha ** 2) - math.sqrt(1.0 + alpha ** 2 - 2.0 / z)
    lo, hi = 2, 10 ** 7  # gap(lo) is wide, gap(hi) is below the floor
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if gap(mid) >= 100 * tol else (lo, mid)
    return lo


@pytest.mark.parametrize("family,eps", [(SphereRadiusFamily, 1e-6),
                                        (SphereRankFamily, 0.01)])
def test_sphere_families_reject_reach_radii_closer_than_100_tol(family, eps):
    n = _last_separated_n(0.1)
    assert n == 14375
    # the sphere the family would build passes; the family itself would then
    # spot-check 1e4 sampled agents at this n
    sphere = PermutationSphereSpace(n, alpha=0.1, with_origin=family is SphereRadiusFamily)
    environments._check_reach_separation(sphere)
    with pytest.raises(ParameterError, match="reach radii"):
        family(n + 1, eps, alpha=0.1)


def test_radius_family_sampling_statistics():
    n, eps = 6, 0.02
    fam = SphereRadiusFamily(n, eps, target=2)
    rng = random.Random(0)
    draws = [fam.sample(rng) for _ in range(20_000)]
    origin_frac = sum(1 for a in draws if a.x == ORIGIN) / len(draws)
    expect = 1 - 3 * n * eps
    assert origin_frac == pytest.approx(expect, abs=4 * math.sqrt(expect * (1 - expect) / 20_000))
    for a in draws:
        if a.x == ORIGIN:
            assert a.y == -1 and a.u.radius == 0.0
        else:
            assert a.y == 1
            wide = a.x[1][2] == 0
            assert a.u.radius == (fam.r_u if wide else fam.r_l)


def test_radius_family_reach_characterization():
    # r_l < r_u, and a sphere point reaches basis j iff coordinate j is nonzero
    from itertools import permutations
    n = 5
    fam = SphereRadiusFamily(n, 0.02, target=1)
    space = fam.space
    assert fam.r_l < fam.r_u
    for p in permutations(range(n)):
        x = ("perm", p)
        for j in range(n):
            within_tight = space.dist(x, basis(j)) <= fam.r_l + 1e-9
            assert within_tight == (p[j] != 0)
            assert space.dist(x, basis(j)) <= fam.r_u + 1e-9


def test_rank_family_radii():
    fam = SphereRankFamily(5, 0.03, target=2)
    rng = random.Random(1)
    saw_negative = False
    for _ in range(2000):
        a = fam.sample(rng)
        if a.y == 1:
            assert a.u.radius == 2.0
        else:
            saw_negative = True
            assert a.u.radius > 2 * 0.1  # strictly above the sphere diameter
    assert saw_negative


def test_star_family_support_is_exact():
    fam = StarSpokeFamily(6, 0.01, target=3)
    support = fam.support()
    assert sum(p for _, p in support) == pytest.approx(1.0)
    target = fam.hclass.union((3,))
    assert all(strategic_loss(fam.space, target, a) == 0 for a, _ in support)


def test_prefix_family_structure():
    fam = PrefixSetFamily(5, 0.05, target=2)
    assert fam.tie is TieBreak.UNIFORM_RANDOM
    rng = random.Random(3)
    for _ in range(2000):
        a = fam.sample(rng)
        assert a.x == matrix_point(0)
        if a.y == -1:
            assert isinstance(a.u, Explicit)
            assert matrix_point(0) in a.u.members
            assert matrix_point(3) not in a.u.members  # the target spoke


def test_prefix_family_prefix_probabilities():
    # P(wrong spoke j reachable) = P(j before target) = 1/2
    fam = PrefixSetFamily(4, 1 / 6, target=0)
    support = fam.support()
    total = sum(p for a, p in support
                if a.y == -1 and matrix_point(2) in a.u.members)
    assert total == pytest.approx((6 * 1 / 6) * 0.5)


def test_random_stream_labels_are_realizable():
    env = make_environment("random-realizable", 6, stream_space="scaled-basis",
                           target=4)
    src = env.source_for_run(9, 300)
    h = env.hclass.union((4,))
    assert all(strategic_loss(env.space, h, a) == 0 for a in src.agents)


def test_random_stream_replays_identically():
    env = make_environment("random-realizable", 6, stream_space="star")
    a = env.source_for_run(5, 50).agents
    b = env.source_for_run(5, 50).agents
    assert [(x.x, x.u.radius, x.y) for x in a] == [(x.x, x.u.radius, x.y) for x in b]


def test_random_stream_rejects_foreign_target():
    env = make_environment("random-realizable", 4, stream_space="star")
    with pytest.raises(ValueError, match="index into"):
        random_realizable_stream(env.space, env.hclass, 9, 10, 0)
    with pytest.raises(ParameterError):
        make_environment("random-realizable", 4, target=17)


def test_radius_law_parsing():
    law = parse_radius_law("uniform:0.5:2.0")
    rng = random.Random(0)
    draws = [law.draw(rng) for _ in range(100)]
    assert all(0.5 <= d <= 2.0 for d in draws)
    assert parse_radius_law("const:1.5").draw(rng) == 1.5
    with pytest.raises(ParameterError, match="unknown radius law 'poisson:3'"):
        parse_radius_law("poisson:3")
    # malformed or non-finite specs: one ParameterError that quotes the spec
    for spec in ("uniform:1", "uniform:1:2:3", "const:abc", "const:nan", "const:inf",
                 "const:-1", "uniform:nan:1", "uniform:0:inf", "uniform:2:1"):
        with pytest.raises(ParameterError, match=f"bad radius law '{spec}'"):
            parse_radius_law(spec)
    for lo, hi in ((math.nan, 1.0), (0.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ParameterError, match="finite"):
            UniformRadius(lo, hi)
    for r in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            ConstantRadius(r)


def test_environment_registry():
    with pytest.raises(KeyError):
        make_environment("labyrinth", 4)
    with pytest.raises(ParameterError):
        make_environment("appG", 4)  # missing eps
    for name in ("appG", "appI", "appJ", "appK"):
        env = make_environment(name, 4, eps=0.02, target=1)
        assert env.family is not None and env.family.tag == name


def test_sphere_families_sample_uniform_permutations():
    fam = SphereRankFamily(4, 0.02, target=0)
    rng = random.Random(0)
    counts = Counter(fam.sample(rng).x[1] for _ in range(12_000))
    assert len(counts) == 24
    for c in counts.values():
        assert c / 12_000 == pytest.approx(1 / 24, abs=0.01)


def _shuffled(rng, n):
    vals = list(range(n))
    rng.shuffle(vals)
    return vals


def _ref_appG(fam, rng):
    if rng.random() >= fam.sphere_mass:
        return fam._origin_agent
    vals = _shuffled(rng, fam.n)
    return Agent(("perm", tuple(vals)), fam._ball_u if vals[fam.target] == 0
                 else fam._ball_l, 1)


def _ref_appI(fam, rng):
    vals = tuple(_shuffled(rng, fam.n))
    return fam._agent(vals, rng.random() >= fam.neg_mass)


def _ref_appK(fam, rng):
    if rng.random() >= fam.neg_mass:
        return fam._pos_agent
    return fam._neg_agent(_shuffled(rng, fam.n))


@pytest.mark.parametrize("fam,reference", [
    (SphereRadiusFamily(8, 0.04, target=3), _ref_appG),
    (SphereRadiusFamily(16, 0.02, target=0), _ref_appG),
    (SphereRankFamily(7, 0.05, target=2), _ref_appI),
    (PrefixSetFamily(8, 0.1, target=5), _ref_appK),
])
def test_family_draws_match_a_sampler_built_on_random_shuffle(fam, reference):
    ours, ref = random.Random(29), random.Random(29)
    for _ in range(10_000):
        a, b = fam.sample(ours), reference(fam, ref)
        assert (a.x, a.u, a.y) == (b.x, b.u, b.y)
    assert ours.getstate() == ref.getstate()
    space = fam.space
    if hasattr(space, "sample_sphere_point"):
        for _ in range(1000):
            assert space.sample_sphere_point(ours) == ("perm", tuple(_shuffled(ref, fam.n)))
        assert ours.getstate() == ref.getstate()


_SUPPORT_FAMILIES = {"appG": SphereRadiusFamily, "appI": SphereRankFamily,
                     "appK": PrefixSetFamily}


def _fresh_support(fam) -> list:
    """The support as the families built it anew on every call: n! fresh
    atoms, each with its own point, agent and weight."""
    n, t = fam.n, fam.target
    nf = math.factorial(n)
    if fam.tag == "appG":
        atoms = [(Agent(ORIGIN, Ball(0.0), -1), 1 - fam.sphere_mass)]
        for p in permutations(range(n)):
            r = fam.r_u if p[t] == 0 else fam.r_l
            atoms.append((Agent(("perm", p), Ball(r), 1), fam.sphere_mass / nf))
        return atoms
    if fam.tag == "appI":
        a2, z = fam.space.alpha ** 2, fam.space.z
        atoms = []
        for p in permutations(range(n)):
            neg_r = math.sqrt(1 + a2 - 2.0 * (p[t] + 1) / z)
            atoms.append((Agent(("perm", p), Ball(2.0), 1), (1 - fam.neg_mass) / nf))
            atoms.append((Agent(("perm", p), Ball(neg_r), -1), fam.neg_mass / nf))
        return atoms
    hub = matrix_point(0)
    atoms = [(Agent(hub, Explicit(fam.space.points), 1), 1 - fam.neg_mass)]
    for order in permutations(range(n)):
        members = [hub] + [matrix_point(j + 1) for j in order[:order.index(t)]]
        atoms.append((Agent(hub, Explicit(members), -1), fam.neg_mass / nf))
    return atoms


@pytest.mark.parametrize("tag", sorted(_SUPPORT_FAMILIES))
def test_kept_support_equals_a_fresh_build_atom_by_atom(tag):
    for n in range(2, 8):
        for target in range(n):
            fam = _SUPPORT_FAMILIES[tag](n, 0.01, target=target)
            streamed = tuple(fam.iter_support())
            kept, fresh = fam.support(), _fresh_support(fam)
            assert isinstance(kept, tuple) and len(kept) == len(fresh) == len(streamed)
            for (a, w), (b, v), (c, s) in zip(kept, fresh, streamed):
                assert (a.x, a.u, a.y, w) == (b.x, b.u, b.y, v), (tag, n, target)
                assert (a.x, a.u, a.y, w) == (c.x, c.u, c.y, s), (tag, n, target)


@pytest.mark.parametrize("tag,eps", [("appG", 0.04), ("appI", 0.02), ("appK", 0.05)])
def test_spot_check_streams_the_support_without_keeping_it(monkeypatch, tag, eps):
    monkeypatch.setattr(environments, "_validated", set())
    fam = _SUPPORT_FAMILIES[tag](8, eps, target=3)
    assert len(environments._validated) == 1  # the exhaustive check ran
    assert fam._support is None
    assert len(fam.support()) == {"appG": 40321, "appI": 80640, "appK": 40321}[tag]


@pytest.mark.parametrize("n", [8, 9])  # every atom streamed at 8, sampled at 9
def test_spot_check_rejects_a_target_that_misses_an_atom(monkeypatch, n):
    fam = SphereRadiusFamily(n, 0.03, target=0)
    monkeypatch.setattr(environments, "_validated", set())
    # positives whose target coordinate is 1 now stop just short of the target
    fam._ball_l = Ball(fam.r_l - 1e-3)
    with pytest.raises(ParameterError, match="misclassifies"):
        environments._spot_check(fam, ("appG", n, "shrunk"))
    assert environments._validated == set()


@pytest.mark.parametrize("tag", sorted(_SUPPORT_FAMILIES))
def test_support_is_built_once(tag):
    fam = _SUPPORT_FAMILIES[tag](5, 0.01, target=1)
    assert fam.support() is fam.support()


@pytest.mark.parametrize("tag", ["appG", "appI", "appJ", "appK"])
def test_a_second_population_loss_reuses_the_kept_columns(tag):
    from stratgame.core.response import _kept_columns

    fam = make_environment(tag, 5, eps=0.01, target=1).family
    population_loss(fam.space, fam.hclass.union((0, 2)), fam)
    cols = _kept_columns[fam]
    population_loss(fam.space, fam.hclass.union((3,)), fam)
    assert _kept_columns[fam] is cols


def test_kept_supports_share_equal_parts():
    n = 7
    prefix = PrefixSetFamily(n, 0.05, target=2).support()
    # the positive, and one negative per subset of the other n - 1 spokes
    assert len({id(a) for a, _ in prefix}) == 2 ** (n - 1) + 1
    rank = SphereRankFamily(n, 0.02, target=2).support()
    assert all(pos.x is neg.x for (pos, _), (neg, _) in zip(rank[::2], rank[1::2]))


def _referee_predictors(fam):
    n = fam.n
    out = [fam.hclass.union((i,)) for i in range(n)]
    out += [fam.hclass.union((1, 3)), fam.hclass.union((0, 1, 3, 4)), Hypothesis(())]
    if fam.tag != "appI":  # appI has no anchor point
        out.append(Hypothesis((ORIGIN if fam.tag == "appG" else matrix_point(0),)))
    return out


@pytest.mark.parametrize("tag,eps", [("appG", 0.01), ("appI", 0.02), ("appK", 0.05)])
def test_population_loss_over_kept_support_is_bit_identical(tag, eps):
    # fsum of the same multiset of terms is exact, so the kept atoms must give
    # the very float the fresh list gives
    fam = _SUPPORT_FAMILIES[tag](7, eps, target=2)
    fresh = _fresh_support(fam)
    for f in _referee_predictors(fam):
        want = math.fsum(w * strategic_loss(fam.space, f, a) for a, w in fresh)
        assert population_loss(fam.space, f, fam) == want, (tag, sorted(f.positive))


def test_large_sphere_family_has_no_enumerable_support():
    from stratgame.core.response import population_loss

    fam = SphereRadiusFamily(9, 0.01, target=0)
    assert fam.support() is None and fam.iter_support() is None
    with pytest.raises(ValueError, match="monte_carlo_loss"):
        population_loss(fam.space, fam.hclass.union((0,)), fam)


def test_sphere_transcript_serializes_perm_points():
    import json
    from stratgame.protocol import run_online as _run

    env = make_environment("appG", 4, eps=0.02, target=3)
    lrn = make_learner("random-union")
    tr = _run(env.source_for_run(0, 30), lrn, Setting.XD_AFTER, 30, 0)
    payload = [json.loads(line) for line in to_jsonl(tr).splitlines()]
    perm_rows = [r for r in payload if r["x"].startswith("perm:")]
    assert perm_rows, "expected sphere draws in 30 rounds"
    for r in perm_rows:
        values = r["x"].split(":", 1)[1].split("-")
        assert sorted(int(v) for v in values) == [0, 1, 2, 3]


def test_finite_iid_source_validation_and_sampling():
    from stratgame.core.geometry import StarSpace
    from stratgame.core.predictors import HypothesisClass
    from stratgame.core.response import Agent, Ball

    space = StarSpace(4)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 5)])
    atoms = [(Agent(matrix_point(0), Ball(1.0), 1), 0.8),
             (Agent(matrix_point(2), Ball(0.0), -1), 0.2)]
    src = FiniteIIDSource(space, hclass, 0, atoms)
    rng = random.Random(0)
    draws = [src.sample(rng) for _ in range(5000)]
    frac = sum(1 for a in draws if a.y == 1) / len(draws)
    assert frac == pytest.approx(0.8, abs=0.03)
    with pytest.raises(ParameterError, match="sum"):
        FiniteIIDSource(space, hclass, 0, [(atoms[0][0], 0.5)])
    with pytest.raises(ParameterError, match="misclassifies"):
        # the spoke-2 negative is exactly where singleton index 1 is positive
        FiniteIIDSource(space, hclass, 1, atoms)


def test_point_mass_positive_gives_zero_output_loss():
    from stratgame.core.geometry import StarSpace
    from stratgame.core.predictors import HypothesisClass
    from stratgame.core.response import Agent, Ball, population_loss
    from stratgame.protocol import run_pac

    space = StarSpace(4)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 5)])
    src = FiniteIIDSource(space, hclass, 2,
                          [(Agent(matrix_point(0), Ball(1.0), 1), 1.0)])
    out, _ = run_pac(src, make_learner("random-union"), Setting.XD_AFTER, 40, 0)
    assert population_loss(space, out, src) == 0.0

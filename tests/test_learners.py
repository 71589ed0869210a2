import math
import random
from collections import Counter

import numpy as np
import pytest

from stratgame.core.geometry import StarSpace, matrix_point, randbelow
from stratgame.core.predictors import Hypothesis, HypothesisClass
from stratgame.core.response import Ball, ManipulationSet
from stratgame.environments import make_environment
from stratgame.learners import (
    BoostConfig,
    BoostLearner,
    RandomUnionLearner,
    SurvivorConfig,
    make_learner,
)
from stratgame.oracle import analytic_union_loss
from stratgame.protocol import (
    ContractViolation,
    Exposure,
    Feedback,
    Learner,
    RealizabilityError,
    Setting,
    run_online,
    run_pac,
    run_round,
)

from helpers import ConstantLearner, from_metric, validate_metric


def line_space(n):
    """x at coordinate 0 plus n singleton anchors at coordinates 1..n."""
    pts = [matrix_point(i) for i in range(n + 1)]
    space = from_metric(pts, lambda a, b: abs(a[1] - b[1]))
    hclass = HypothesisClass(pts[1:])
    return space, hclass


def _reset(learner, hclass, space, setting=Setting.XD_AFTER, seed=0):
    learner.reset(hclass, space, setting, random.Random(seed))
    return learner


# ---------------------------------------------------------------------- halving


def test_halving_single_member():
    space, hclass = line_space(1)
    lrn = _reset(make_learner("halving"), hclass, space, Setting.X_BEFORE)
    assert lrn.choose(matrix_point(0)).parts == (0,)


def test_halving_median_by_index_on_ties():
    # from the hub every singleton is at distance 1: rank ceil(n/2) by index
    space = StarSpace(5)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 6)])
    lrn = _reset(make_learner("halving"), hclass, space, Setting.X_BEFORE)
    assert lrn.choose(matrix_point(0)).parts == (2,)  # third of five


def test_halving_median_odd_distances():
    pts = [matrix_point(0), matrix_point(1), matrix_point(2), matrix_point(3)]
    dist = {frozenset((0, 1)): 0.5, frozenset((0, 2)): 1.0, frozenset((0, 3)): 2.0,
            frozenset((1, 2)): 1.5, frozenset((1, 3)): 2.5, frozenset((2, 3)): 3.0}
    space = from_metric(pts, lambda a, b: dist[frozenset((a[1], b[1]))])
    validate_metric(space)
    hclass = HypothesisClass(pts[1:])
    lrn = _reset(make_learner("halving"), hclass, space, Setting.X_BEFORE)
    assert lrn.choose(matrix_point(0)).parts == (1,)  # the distance-1.0 member


@pytest.mark.parametrize("name", ["halving", "mwmr", "random-union"])
def test_halving_update_counts_by_direction(name):
    # distances 1..8 from x; halving's median rank 4, pinned on the others,
    # which read x from the feedback
    space, hclass = line_space(8)
    x = matrix_point(0)
    for y, survivors in ((-1, {4, 5, 6, 7}), (1, {0, 1, 2})):
        lrn = _reset(make_learner(name), hclass, space, Setting.X_BEFORE)
        if name == "halving":
            assert lrn.choose(x).parts == (3,)  # distance 4.0
        else:
            lrn.choose(None)
            lrn._last_choice = hclass.union((3,))
        lrn.observe(Feedback(1, lrn._last_choice, y, -y, x, x))
        assert set(lrn.alive_indices) == survivors


@pytest.mark.parametrize("name", ["halving", "mwmr", "random-union"])
def test_emptied_version_space_is_realizability_error(name):
    # a missed positive at the nearest member leaves nothing strictly closer
    space, hclass = line_space(4)
    x = matrix_point(0)
    lrn = _reset(make_learner(name), hclass, space, Setting.X_BEFORE)
    lrn.choose(x if name == "halving" else None)
    lrn._last_choice = hclass.union((0,))
    with pytest.raises(RealizabilityError, match="version space emptied"):
        lrn.observe(Feedback(1, lrn._last_choice, 1, -1, x, x))


def test_halving_no_mistake_keeps_version_space():
    space, hclass = line_space(6)
    lrn = _reset(make_learner("halving"), hclass, space, Setting.X_BEFORE)
    lrn.choose(matrix_point(2))
    lrn.observe(Feedback(1, lrn._last_choice, 1, 1, None, matrix_point(2)))
    assert len(lrn.alive_indices) == 6


def test_halving_removes_its_own_choice_on_missed_positive():
    space, hclass = line_space(5)
    lrn = _reset(make_learner("halving"), hclass, space, Setting.X_BEFORE)
    f = lrn.choose(matrix_point(0))
    lrn.observe(Feedback(1, f, 1, -1, matrix_point(0), matrix_point(0)))
    assert f.parts[0] not in lrn.alive_indices


def test_halving_requires_context_setting():
    space, hclass = line_space(4)
    with pytest.raises(ContractViolation):
        make_learner("halving").reset(hclass, space, Setting.XD_AFTER,
                                      random.Random(0))


def test_halving_mistake_bound_and_contraction():
    env = make_environment("random-realizable", 8, stream_space="star", target=6)
    from stratgame.protocol import RngStreams
    for seed in range(30):
        src = env.source_for_run(seed, 120)
        lrn = make_learner("halving")
        streams = RngStreams(seed)
        lrn.reset(src.hclass, src.space, Setting.X_BEFORE, streams.learner)
        mistakes = 0
        for t, agent in enumerate(src.agents, start=1):
            before = len(lrn.alive_indices)
            rec = run_round(agent, lrn, Setting.X_BEFORE, src.space,
                            rng=streams.tie, t=t)
            if rec.mistake:
                mistakes += 1
                assert len(lrn.alive_indices) <= before // 2
        assert mistakes <= math.ceil(math.log2(8))
        assert 6 in lrn.alive_indices


def _median_reference(lrn, x):
    order = lrn.index.order(x)
    mask = np.zeros(len(lrn.hclass), dtype=bool)
    mask[list(lrn.alive_indices)] = True
    ranked = order[mask[order]]
    return int(ranked[(ranked.size + 1) // 2 - 1])


@pytest.mark.parametrize("metric", ["star", "line"])
def test_halving_choice_is_the_masked_median_before_and_after_a_shrink(metric):
    if metric == "star":
        space = StarSpace(64)
        hclass = HypothesisClass([matrix_point(i) for i in range(1, 65)])
    else:
        space, hclass = line_space(64)
    lrn = _reset(make_learner("halving"), hclass, space, Setting.X_BEFORE)
    for removed in (None, 10, 41):
        if removed is not None:
            # a false positive at a member's own point removes that member alone
            x = hclass.points[removed]
            lrn.observe(Feedback(1, hclass[removed], -1, 1, x, x))
            assert removed not in lrn.alive_indices
        for x in space.points:
            assert lrn.choose(x).parts == (_median_reference(lrn, x),)
    assert len(lrn.alive_indices) == 62


# ------------------------------------------------------------------------ mwmr


def test_mwmr_uniform_draws():
    space, hclass = line_space(4)
    lrn = _reset(make_learner("mwmr"), hclass, space, seed=42)
    counts = Counter(lrn.choose(None).parts[0] for _ in range(10_000))
    for i in range(4):
        assert counts[i] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_mwmr_draw_excludes_removed_member():
    space, hclass = line_space(3)
    lrn = _reset(make_learner("mwmr"), hclass, space, seed=1)
    f = lrn.choose(None)
    chosen = f.parts[0]
    # a false positive at the chosen anchor point eliminates exactly it
    x = matrix_point(chosen + 1)
    lrn.observe(Feedback(1, f, -1, 1, x, x))
    assert chosen not in lrn.alive_indices
    for _ in range(200):
        assert lrn.choose(None).parts[0] != chosen


def test_mwmr_exposes_exact_distribution():
    space, hclass = line_space(3)
    lrn = _reset(make_learner("mwmr"), hclass, space)
    dist = lrn.predictor_distribution()
    assert len(dist) == 3
    assert sum(p for _, p in dist) == pytest.approx(1.0)
    assert all(p == pytest.approx(1 / 3) for _, p in dist)


def test_mwmr_mistakes_bounded_by_class_size():
    env = make_environment("random-realizable", 10, stream_space="star", target=9)
    for seed in range(20):
        lrn = make_learner("mwmr")
        tr = run_online(env.source_for_run(seed, 150), lrn, Setting.XD_AFTER,
                        150, seed)
        assert tr.mistakes <= 9
        assert 9 in lrn.alive_indices


# ---------------------------------------------------------------- random-union


def test_union_size_distribution():
    rng = random.Random(0)
    counts = Counter(RandomUnionLearner._draw_k(8, rng) for _ in range(10_000))
    assert set(counts) == {1, 2, 4}
    for k in (1, 2, 4):
        assert counts[k] / 10_000 == pytest.approx(1 / 3, abs=0.02)


def test_union_size_degenerate_cases():
    rng = random.Random(0)
    assert all(RandomUnionLearner._draw_k(1, rng) == 1 for _ in range(50))
    assert all(RandomUnionLearner._draw_k(2, rng) == 1 for _ in range(50))
    assert all(RandomUnionLearner._draw_k(3, rng) == 1 for _ in range(50))


def test_union_correct_round_keeps_version_space():
    space, hclass = line_space(6)
    lrn = _reset(make_learner("random-union"), hclass, space)
    lrn.choose(None)
    lrn.observe(Feedback(1, lrn._last_choice, 1, 1, matrix_point(0), matrix_point(1)))
    assert len(lrn.alive_indices) == 6


def test_union_missed_positive_removes_every_part():
    space, hclass = line_space(5)
    lrn = _reset(make_learner("random-union"), hclass, space)
    lrn.choose(None)
    lrn._last_choice = hclass.union((1, 3))  # anchors at distances 2 and 4
    lrn.observe(Feedback(1, lrn._last_choice, 1, -1, matrix_point(0), matrix_point(0)))
    alive = set(lrn.alive_indices)
    assert alive == {0}  # only the distance-1 anchor is closer than the union
    assert not {1, 3} & alive


def test_union_finalize_single_member_history():
    space, hclass = line_space(1)
    lrn = _reset(make_learner("random-union"), hclass, space)
    lrn.choose(None)
    lrn.observe(Feedback(1, lrn._last_choice, 1, 1, matrix_point(0), matrix_point(1)))
    assert lrn.finalize().parts == (0, 0)


def test_union_finalize_always_two_parts():
    env = make_environment("appG", 6, eps=0.02, target=5)
    out, _ = run_pac(env.source_for_run(0, 400), make_learner("random-union"),
                     Setting.XD_AFTER, 400, 0)
    assert len(out.parts) == 2


def test_union_finalize_matches_exact_mixture():
    scipy_stats = pytest.importorskip("scipy.stats")
    space, hclass = line_space(3)
    lrn = _reset(make_learner("random-union"), hclass, space, seed=77)
    # frozen history: version space (0,1,2) entering rounds 1-2, (0,1) from round 3
    lrn._segments = [(1, (0, 1, 2)), (3, (0, 1))]
    lrn.rounds_seen = 5
    weights = [(2 / 5, (0, 1, 2)), (3 / 5, (0, 1))]
    expected = Counter()
    for w, members in weights:
        m = len(members)
        for a in members:
            for b in members:
                key = tuple(sorted((a, b)))
                expected[key] += w / (m * m)
    draws = Counter(tuple(sorted(lrn.finalize().parts)) for _ in range(10_000))
    cats = sorted(expected)
    obs = [draws.get(c, 0) for c in cats]
    exp = [expected[c] * 10_000 for c in cats]
    result = scipy_stats.chisquare(obs, exp)
    assert result.pvalue > 1e-3


def test_union_finalize_before_any_round():
    # with no round seen, both parts come from the version space entering round 1
    env = make_environment("appG", 6, eps=0.02, target=5)
    out, tr = run_pac(env.source_for_run(0, 0), make_learner("random-union"),
                      Setting.XD_AFTER, 0, 0)
    assert tr.rounds == [] and len(out.parts) == 2


@pytest.mark.parametrize("name", ["halving", "mwmr"])
def test_version_space_finalize_returns_the_last_choice(name):
    env = make_environment("appJ", 8, eps=0.04, target=5)
    lrn = make_learner(name)
    out, tr = run_pac(env.source_for_run(0, 30), lrn, lrn.requires, 30, 0)
    assert out is tr.rounds[-1].predictor


@pytest.mark.parametrize("name", ["halving", "mwmr"])
def test_version_space_finalize_before_any_round_is_first_alive_member(name):
    env = make_environment("appJ", 8, eps=0.04, target=5)
    lrn = make_learner(name)
    out, tr = run_pac(env.source_for_run(0, 0), lrn, lrn.requires, 0, 0)
    assert tr.rounds == [] and lrn.alive_indices[0] == 0
    assert out is env.hclass[0]


# -------------------------------------------------------------------- seq-elim


def test_seq_elim_walks_lowest_index():
    space, hclass = line_space(4)
    lrn = _reset(make_learner("seq-elim"), hclass, space, Setting.BLIND)
    assert lrn.choose(None).parts == (0,)
    lrn.observe(Feedback(1, hclass.union((0,)), 1, -1, None, None))
    lrn.observe(Feedback(2, hclass.union((1,)), -1, 1, None, None))
    assert lrn.choose(None).parts == (2,)


def test_seq_elim_finalize_after_a_last_round_mistake_is_the_next_member():
    space, hclass = line_space(3)
    lrn = _reset(make_learner("seq-elim"), hclass, space, Setting.BLIND)
    played = lrn.choose(None)
    lrn.observe(Feedback(1, played, 1, -1, None, None))  # the last round is a mistake
    assert played.parts == (0,)
    assert lrn.finalize().parts == (1,)


def test_seq_elim_mistakes_bounded_on_realizable_streams():
    for n in (3, 4, 5, 6):
        env = make_environment("random-realizable", n, stream_space="star",
                               target=n - 1)
        for seed in range(25):
            tr = run_online(env.source_for_run(seed, 80), make_learner("seq-elim"),
                            Setting.BLIND, 80, seed)
            assert tr.mistakes <= n - 1


def test_seq_elim_empty_version_space_is_realizability_error():
    space, hclass = line_space(2)
    lrn = _reset(make_learner("seq-elim"), hclass, space, Setting.BLIND)
    lrn.observe(Feedback(1, hclass.union((0,)), 1, -1, None, None))
    with pytest.raises(RealizabilityError):
        lrn.observe(Feedback(2, hclass.union((1,)), 1, -1, None, None))


# -------------------------------------------------------------------- survivor


def test_survivor_threshold_formula():
    cfg = SurvivorConfig(budget=8, epsilon=0.1, delta=0.05)
    assert cfg.threshold == 51  # ceil(10 * ln(160))
    assert cfg.recommended_rounds == 8 * 51


@pytest.mark.parametrize("epsilon,delta,field", [
    (0.0, 0.1, "epsilon"), (1.5, 0.1, "epsilon"), (0.1, 0.0, "delta"), (0.1, 1.0, "delta")])
def test_pac_configs_range_check_epsilon_and_delta(epsilon, delta, field):
    with pytest.raises(ValueError, match=f"^{field} must satisfy"):
        SurvivorConfig(budget=8, epsilon=epsilon, delta=delta)
    with pytest.raises(ValueError, match=f"^{field} must satisfy"):
        BoostConfig(epsilon=epsilon, delta=delta, base_rounds=10)


def test_survivor_requires_conservative_base():
    with pytest.raises(ContractViolation):
        make_learner("survivor:random-union", n=3, epsilon=0.5, delta=0.5)


def test_survivor_outputs_first_stable_predictor():
    env = make_environment("appJ", 5, eps=0.02, target=0)
    lrn = make_learner("survivor:seq-elim", n=5, epsilon=0.5, delta=0.5)
    threshold = lrn.config.threshold
    out, tr = run_pac(env.source_for_run(0, threshold + 10), lrn, Setting.BLIND,
                      threshold + 10, 0)
    # seq-elim starts on the target and never errs, so it survives immediately
    assert out.parts == (0,)
    assert lrn._frozen is not None


@pytest.mark.parametrize("base", ["seq-elim", "mwmr"])
def test_survivor_finalize_before_any_round_is_the_base_output(base):
    env = make_environment("appJ", 8, eps=0.02, target=5)
    lrn = make_learner(f"survivor:{base}", n=8, epsilon=0.1, delta=0.1)
    out, tr = run_pac(env.source_for_run(0, 0), lrn, Setting.XD_AFTER, 0, 0)
    assert tr.mistakes == 0 and lrn._frozen is None
    assert out is env.hclass[0]


def test_survivor_failure_rate_within_delta():
    # non-vacuous check: a wrong singleton's loss (0.315) exceeds the target
    # accuracy (0.3), so surviving on a wrong singleton counts as a failure
    n, env_eps, eps, delta = 4, 0.105, 0.3, 0.05
    env = make_environment("appJ", n, eps=env_eps, target=n - 1)
    budget = n
    cfg_T = budget * math.ceil(math.log(budget / delta) / eps)
    failures = 0
    seeds = 400
    for seed in range(seeds):
        lrn = make_learner("survivor:seq-elim", n=n, epsilon=eps, delta=delta)
        out, _ = run_pac(env.source_for_run(seed, cfg_T), lrn, Setting.DELTA_ONLY,
                         cfg_T, seed)
        loss = float(analytic_union_loss("appJ", n, env_eps, n - 1, out.parts))
        if loss > eps:
            failures += 1
    assert failures / seeds <= delta


# ----------------------------------------------------------------------- boost


def test_boost_config_formulas():
    cfg = BoostConfig(epsilon=0.05, delta=0.02, base_rounds=100)
    assert cfg.outer_rounds == 5          # ceil(ln(100))
    assert cfg.validation_rounds == 208   # ceil(30 * ln(1000))


def test_boost_accepts_perfect_base_immediately():
    env = make_environment("appJ", 5, eps=0.02, target=2)
    target_predictor = env.hclass.union((2,))
    cfg = BoostConfig(epsilon=0.1, delta=0.2, base_rounds=30)
    lrn = BoostLearner(lambda: ConstantLearner(target_predictor), cfg)
    out, tr = run_pac(env.source_for_run(0, cfg.max_rounds), lrn, Setting.BLIND,
                      cfg.max_rounds, 0)
    assert out.parts == (2,)
    assert tr.T == cfg.base_rounds + cfg.validation_rounds  # stopped early


def test_boost_falls_back_to_index_zero():
    env = make_environment("appJ", 5, eps=0.02, target=2)
    all_neg = Hypothesis(())
    cfg = BoostConfig(epsilon=0.01, delta=0.5, base_rounds=20)
    lrn = BoostLearner(lambda: ConstantLearner(all_neg), cfg)
    out, _ = run_pac(env.source_for_run(1, cfg.max_rounds), lrn, Setting.BLIND,
                     cfg.max_rounds, 1)
    assert out.parts == (0,)


def test_boost_finalize_before_any_candidate_is_index_zero():
    env = make_environment("appJ", 5, eps=0.02, target=2)
    cfg = BoostConfig(epsilon=0.1, delta=0.2, base_rounds=30)
    lrn = BoostLearner(lambda: ConstantLearner(env.hclass.union((2,))), cfg)
    out, tr = run_pac(env.source_for_run(0, 5), lrn, Setting.BLIND, 5, 0)
    assert tr.T == 5 and lrn._candidate is None
    assert out.parts == (0,)


def test_boost_takes_its_name_from_the_base():
    assert make_learner("boost:mwmr", n=8, epsilon=0.1, delta=0.1).name == "boost:mwmr"


def test_every_learner_declares_its_contract():
    # (requires, manipulation, exposes, conservative) of every registry name;
    # survivor keeps its base's contract, boost keeps the setting and the sets
    X, XA, NONE = Setting.X_BEFORE, Setting.XD_AFTER, Setting.BLIND
    NOTHING, DIST, DET = Exposure.NOTHING, Exposure.DISTRIBUTION, Exposure.DETERMINISTIC
    table = {
        "halving": (X, Ball, NOTHING, True),
        "mwmr": (XA, Ball, DIST, True),
        "random-union": (XA, Ball, DIST, False),
        "seq-elim": (NONE, ManipulationSet, DET, True),
        "survivor:mwmr": (XA, Ball, DIST, True),
        "survivor:seq-elim": (NONE, ManipulationSet, DET, True),
        "boost:halving": (X, Ball, NOTHING, False),
        "boost:mwmr": (XA, Ball, NOTHING, False),
        "boost:random-union": (XA, Ball, NOTHING, False),
        "boost:seq-elim": (NONE, ManipulationSet, NOTHING, False),
    }
    for name, contract in table.items():
        lrn = make_learner(name, n=8, epsilon=0.1, delta=0.1)
        got = (lrn.requires, lrn.manipulation, lrn.exposes, lrn.conservative)
        assert got == contract, name
        assert type(got[2]) is Exposure and type(got[3]) is bool, name
    with pytest.raises(ContractViolation, match="conservative base"):
        make_learner("survivor:random-union", n=8, epsilon=0.1, delta=0.1)
    with pytest.raises(ContractViolation, match="halving chooses from x"):
        make_learner("survivor:halving", n=8, epsilon=0.1, delta=0.1)


def test_make_learner_registry_errors():
    with pytest.raises(KeyError):
        make_learner("gradient-descent")
    with pytest.raises(KeyError, match="unknown learner 'survivor:unknown'"):
        make_learner("survivor:unknown")
    with pytest.raises(KeyError, match="unknown learner 'boost:'"):
        make_learner("boost:")
    with pytest.raises(ValueError):
        make_learner("survivor:seq-elim")  # missing epsilon/delta
    with pytest.raises(ValueError):
        make_learner("boost:random-union", epsilon=0.1, delta=0.1)  # needs size


def test_union_false_positive_with_full_cover_keeps_target():
    # a union over the whole version space: a false positive removes only the
    # members at the minimum distance; the farther target survives
    space, hclass = line_space(4)
    lrn = _reset(make_learner("random-union"), hclass, space)
    lrn.choose(None)
    lrn._last_choice = hclass.union((0, 1, 2, 3))
    # agent at x=0 with radius 1.5, truly negative: the target must sit
    # farther than 1.5, so indices 1..3 (anchors at 2..4) all qualify
    lrn.observe(Feedback(1, lrn._last_choice, -1, 1, matrix_point(0), matrix_point(1)))
    assert set(lrn.alive_indices) == {1, 2, 3}


def test_learners_on_one_environment_share_one_distance_index():
    env = make_environment("appJ", 6, eps=0.02, target=5)
    shared = env.hclass.distance_index(env.space)
    halving, mwmr = make_learner("halving"), make_learner("mwmr")
    halving.reset(env.hclass, env.space, Setting.X_BEFORE, random.Random(0))
    mwmr.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(1))
    assert halving.index is shared and mwmr.index is shared
    survivor = make_learner("survivor:mwmr", n=6, epsilon=0.1, delta=0.1)
    survivor.reset(env.hclass, env.space, Setting.XD_AFTER, random.Random(2))
    assert survivor.index is shared
    # every outer round of boost builds a fresh base on the same index; an
    # all-negative candidate loses 0.7 > 4 eps, so every validation rejects
    bases = []

    class Rejected(RandomUnionLearner):
        def finalize(self):
            return Hypothesis(())

    def base():
        bases.append(Rejected())
        return bases[-1]

    cfg = BoostConfig(epsilon=0.05, delta=0.1, base_rounds=2)
    assert cfg.outer_rounds == 3
    boost = BoostLearner(base, cfg)
    run_online(env.source_for_run(0, cfg.max_rounds), boost, Setting.XD_AFTER,
               cfg.max_rounds, 0)
    assert boost._outer == 3 and boost.finalize().parts == (0,)
    assert len(bases) == 4 and all(b.index is shared for b in bases[1:])
    other = StarSpace(6)
    mwmr.reset(env.hclass, other, Setting.XD_AFTER, random.Random(3))
    assert mwmr.index is not shared and mwmr.index.space is other
    assert env.hclass.distance_index(other) is mwmr.index


def test_cached_distance_rows_are_read_only():
    env = make_environment("random-realizable", 8, stream_space="star")
    index = env.hclass.distance_index(env.space)
    x = env.space.points[3]
    row, order = index.row(x), index.order(x)
    assert index.row(x) is row and index.order(x) is order
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        order[0] = 0
    # the sphere is not enumerable: fresh rows, no cache
    sphere = make_environment("appG", 5, eps=0.01)
    sphere_index = sphere.hclass.distance_index(sphere.space)
    p = ("perm", (1, 0, 2, 3, 4))
    first = sphere_index.row(p)
    assert first.flags.writeable and sphere_index.row(p) is not first
    assert first.tolist() == sphere_index.row(p).tolist()


@pytest.mark.parametrize("cfg", [
    dict(env="random-realizable", learner="halving", setting="x-delta", n=32, T=300,
         stream_space="star"),
    dict(env="appE", learner="mwmr", setting="x-delta-after", n=8, T=300),
    dict(env="appJ", learner="boost:random-union", setting="x-delta-after", n=6, T=600,
         eps=0.01, env_eps=0.02, delta=0.1, base_rounds=40, target=5),
], ids=["halving-star", "mwmr-appE", "boost-appJ"])
def test_seed_row_does_not_depend_on_a_warm_index(monkeypatch, cfg):
    from stratgame import harness
    from stratgame.harness import ExperimentConfig, run_single_seed

    cfg = ExperimentConfig(seeds=[0, 1, 2, 3], **cfg)
    monkeypatch.setattr(harness, "_env_cache", {})
    cold = run_single_seed(cfg, 3)
    monkeypatch.setattr(harness, "_env_cache", {})
    for seed in (0, 1, 2):
        run_single_seed(cfg, seed)
    env = harness._environment(cfg)
    index = env.hclass.distance_index(env.space)
    # warmed by seeds 0-2: halving reads cached orders, the others cached rows
    assert index._cache_orders if cfg.learner == "halving" else index._cache_rows
    assert run_single_seed(cfg, 3) == cold


def _state(obj):
    """A learner's state as comparable values: rngs by their state, nested
    learners and config tuples field by field."""
    if isinstance(obj, random.Random):
        return obj.getstate()
    if isinstance(obj, Learner):
        return {k: _state(v) for k, v in vars(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_state(v) for v in obj]
    return obj


@pytest.mark.parametrize("name", ["halving", "mwmr", "random-union", "seq-elim",
                                  "survivor:mwmr", "survivor:seq-elim",
                                  "boost:mwmr", "boost:random-union", "boost:seq-elim"])
def test_skip_matches_correct_rounds(name):
    # skip(m) must leave the state that m correct rounds on the settled
    # predictor leave; skips come in chunks of 1-4 rounds, so survivor streaks
    # and boost phase ends fall inside and between them
    if name.endswith("halving"):
        env = make_environment("random-realizable", 6, stream_space="star", target=5)
        setting = Setting.X_BEFORE
    else:
        env = make_environment("appJ", 6, eps=0.05, target=5)
        setting = Setting.XD_AFTER
    src = env.source_for_run(1, 2000)
    space, target = src.space, src.hclass[src.target]
    agent_rng = random.Random(2)
    agents = iter(src.agents) if src.kind == "sequence" else iter(
        lambda: src.sample(agent_rng), None)
    skipper, player = (_reset(make_learner(name, n=6, epsilon=0.1, delta=0.2,
                                           base_rounds=150), src.hclass, space, setting)
                       for _ in range(2))
    skipped = 0
    for t in range(1, 600):
        settled = skipper.settled()
        if settled is not None and settled[0] == target:
            assert settled[1] >= 1
            m = min(settled[1], 1 + t % 4)
            skipper.skip(m)
            for _ in range(m):
                fb = run_round(next(agents), player, setting, space, t=t)
                assert fb.predictor == target and not fb.mistake
            skipped += m
        else:
            agent = next(agents)
            for lrn in (skipper, player):
                run_round(agent, lrn, setting, space, t=t)
        assert _state(skipper) == _state(player), t
        if skipper.finished:
            break
    assert skipped > 0
    assert _state(skipper.finalize()) == _state(player.finalize())
    assert _state(skipper) == _state(player)


@pytest.mark.parametrize("m", [0, 1, 2, 50_000, 140_000])  # the last spans 3 chunks
def test_random_union_skip_leaves_the_rng_of_m_random_calls(m):
    # skip advances the stream in one getrandbits call per chunk instead of m
    # random() calls; the state afterwards must be the same
    space, hclass = line_space(4)
    lrn = _reset(make_learner("random-union"), hclass, space, seed=7)
    ref = random.Random(7)
    for _ in range(m):
        ref.random()
    lrn.skip(m)
    assert lrn.rng.getstate() == ref.getstate()


@pytest.mark.parametrize("m", [1, 2, 33, 4096, 100_000])  # the last reads capped chunks
def test_mwmr_skip_leaves_the_rng_of_m_randbelow_calls(m):
    # skip reads the 32-bit words of all draws still due at once; the state
    # afterwards must be the one m single draws, choose's randbelow(rng, 1), leave
    space, hclass = line_space(4)
    for seed in (7, 8):
        lrn = _reset(make_learner("mwmr"), hclass, space, seed=seed)
        lrn.alive = [2]
        ref = random.Random(seed)
        for _ in range(m):
            randbelow(ref, 1)
        lrn.skip(m)
        assert lrn.rng.getstate() == ref.getstate()
        assert lrn.rounds_seen == m and lrn.finalize() is hclass[2]

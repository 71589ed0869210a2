import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stratgame.core.geometry import StarSpace, basis, matrix_point
from stratgame.core.predictors import Hypothesis, HypothesisClass
from stratgame.core.response import Agent, Ball, TieBreak, strategic_loss
from stratgame.environments import make_environment
from stratgame.learners import make_learner
from stratgame.protocol import (
    ContractViolation,
    Learner,
    RealizabilityError,
    RecoveryError,
    RngStreams,
    Setting,
    build_feedback,
    run_online,
    run_round,
)

from helpers import ConstantLearner, to_jsonl


@pytest.fixture
def star5():
    space = StarSpace(5)
    hclass = HypothesisClass([matrix_point(i) for i in range(1, 6)])
    return space, hclass


ALL_NEG = Hypothesis(())


def test_settings_round_trip():
    for name in ("x-delta", "x-delta-after", "delta-only", "none"):
        assert Setting.from_name(name).value == name
    with pytest.raises(ValueError):
        Setting.from_name("everything")
    levels = [Setting.X_BEFORE, Setting.XD_AFTER, Setting.DELTA_ONLY, Setting.BLIND]
    assert [s.info_level for s in levels] == [3, 2, 1, 0]


def test_run_round_all_negative_predictor(star5):
    space, hclass = star5
    learner = ConstantLearner(ALL_NEG)
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    rec = run_round(agent, learner, Setting.X_BEFORE, space)
    assert rec.y_hat == -1 and rec.y == 1 and rec.mistake
    assert rec.delta == matrix_point(0)


def test_run_round_no_manipulation_branch(star5):
    space, hclass = star5
    learner = ConstantLearner(hclass.union((2,)))
    agent = Agent(matrix_point(3), Ball(0.0), 1)
    rec = run_round(agent, learner, Setting.X_BEFORE, space)
    assert rec.delta == matrix_point(3) and rec.y_hat == 1 and not rec.mistake


def test_blind_feedback_has_labels_only(star5):
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    fb = build_feedback(Setting.BLIND, 1, hclass.union((0,)), agent, matrix_point(1), 1)
    assert fb.y == 1 and fb.y_hat == 1
    assert not fb.has_x and not fb.has_delta
    with pytest.raises(ContractViolation):
        fb.x
    with pytest.raises(ContractViolation):
        fb.delta


def test_feedback_projection_monotonicity(star5):
    # the weaker settings' feedback is a projection of the stronger settings'
    space, hclass = star5
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    f, delta, y_hat = hclass.union((1,)), matrix_point(2), 1
    x_before, strongest, delta_only, blind = (
        build_feedback(s, 1, f, agent, delta, y_hat)
        for s in (Setting.X_BEFORE, Setting.XD_AFTER, Setting.DELTA_ONLY, Setting.BLIND))
    assert (x_before.x, x_before.delta) == (strongest.x, strongest.delta)
    assert (strongest.y, strongest.y_hat) == (delta_only.y, delta_only.y_hat)
    assert (strongest.y, strongest.y_hat) == (blind.y, blind.y_hat)
    assert strongest.delta == delta_only.delta
    assert strongest.x == agent.x and not delta_only.has_x


def test_setting_compatibility_enforced():
    env = make_environment("random-realizable", 6, stream_space="star")
    src = env.source_for_run(0, 10)
    with pytest.raises(ContractViolation):
        run_online(src, make_learner("halving"), Setting.XD_AFTER, 10, 0)
    with pytest.raises(ContractViolation):
        run_online(src, make_learner("mwmr"), Setting.DELTA_ONLY, 10, 0)


@pytest.mark.parametrize("name", ["halving", "mwmr", "random-union",
                                  "survivor:mwmr", "boost:random-union"])
def test_distance_learners_rejected_on_explicit_sets_before_round_1(monkeypatch, name):
    env = make_environment("appK", 6, eps=0.05, target=5)
    src = env.source_for_run(0, 10)

    def no_agent(rng):
        raise AssertionError("an agent was drawn before the contract check")

    monkeypatch.setattr(src, "sample", no_agent)
    learner = make_learner(name, n=6, epsilon=0.1, delta=0.1)
    with pytest.raises(ContractViolation, match=f"{name}.*needs Ball manipulation sets"):
        run_online(src, learner, Setting.X_BEFORE, 10, 0)


def test_sources_declare_their_manipulation_sets(star5):
    from stratgame.core.response import Explicit, ManipulationSet
    from stratgame.environments import SequenceSource

    space, hclass = star5
    hub = matrix_point(0)
    ball = Agent(hub, Ball(1.0), 1)
    listed = Agent(hub, Explicit(space.points), 1)
    assert SequenceSource(space, hclass, 0, [ball, ball]).manipulation is Ball
    assert SequenceSource(space, hclass, 0, [listed]).manipulation is Explicit
    mixed = SequenceSource(space, hclass, 0, [ball, listed])
    assert mixed.manipulation is ManipulationSet
    with pytest.raises(ContractViolation, match="needs Ball manipulation sets"):
        run_online(mixed, make_learner("mwmr"), Setting.XD_AFTER, 2, 0)
    run_online(mixed, make_learner("seq-elim"), Setting.XD_AFTER, 2, 0)
    for name in ("star-ex42", "appE", "appG", "appI", "appJ", "random-realizable"):
        assert make_environment(name, 6, eps=0.02).manipulation is Ball
    assert make_environment("appK", 6, eps=0.05).manipulation is Explicit


def test_zero_rounds(star5):
    env = make_environment("random-realizable", 5, stream_space="star")
    tr = run_online(env.source_for_run(0, 0), make_learner("seq-elim"),
                    Setting.BLIND, 0, 0)
    assert tr.mistakes == 0 and tr.rounds == []


def test_transcript_replay_is_bit_exact():
    env = make_environment("random-realizable", 6, stream_space="star")
    out = []
    for _ in range(2):
        learner = make_learner("mwmr")
        tr = run_online(env.source_for_run(7, 60), learner, Setting.XD_AFTER, 60, 7)
        out.append(to_jsonl(tr))
    assert out[0] == out[1]
    first = json.loads(out[0].splitlines()[0])
    assert set(first) == {"t", "setting", "predictor", "y", "y_hat", "mistake",
                          "x", "delta"}


def test_run_online_matches_manual_round_loop(star5):
    # the convenience loop and the single-round op share one semantics
    space, hclass = star5
    env = make_environment("random-realizable", 5, stream_space="star")
    src = env.source_for_run(3, 40)

    learner = make_learner("mwmr")
    tr = run_online(src, learner, Setting.XD_AFTER, 40, 3)

    learner2 = make_learner("mwmr")
    streams = RngStreams(3)
    learner2.reset(src.hclass, src.space, Setting.XD_AFTER, streams.learner)
    for t, rec in enumerate(tr.rounds, start=1):
        agent = src.agents[t - 1]
        rec2 = run_round(agent, learner2, Setting.XD_AFTER, src.space,
                         TieBreak.FIXED_LOWEST, streams.tie, t=t)
        assert rec2.predictor.parts == rec.predictor.parts
        assert rec2.delta == rec.delta and rec2.mistake == rec.mistake


def test_delta_only_transcript_hides_x():
    env = make_environment("random-realizable", 5, stream_space="star")
    tr = run_online(env.source_for_run(1, 20), make_learner("seq-elim"),
                    Setting.DELTA_ONLY, 20, 1)
    rec = json.loads(to_jsonl(tr).splitlines()[0])
    assert "x" not in rec and "delta" in rec


def test_realizability_violation_names_round(star5):
    space, hclass = star5
    agents = [Agent(matrix_point(0), Ball(1.0), 1),
              Agent(matrix_point(0), Ball(1.0), 1),
              Agent(matrix_point(0), Ball(1.0), -1)]  # contradicts every target
    from stratgame.environments import SequenceSource
    src = SequenceSource(space, hclass, 0, agents)
    with pytest.raises(RealizabilityError, match="round 3"):
        run_online(src, make_learner("seq-elim"), Setting.BLIND, 3, 0)


def test_full_consistency_check(star5):
    space, hclass = star5
    agents = [Agent(matrix_point(1), Ball(0.0), -1),
              Agent(matrix_point(1), Ball(0.0), 1)]  # kills singleton 1 twice over
    from stratgame.environments import SequenceSource
    src = SequenceSource(space, hclass, None, agents)
    with pytest.raises(RealizabilityError):
        run_online(src, make_learner("seq-elim"), Setting.BLIND, 2, 0)


class _Scripted:
    """An adaptive source that emits ``make(t)`` on its t-th call, declaring
    ``target``; ``t`` counts the calls."""

    kind = "adaptive"
    manipulation = Ball
    tie = TieBreak.FIXED_LOWEST

    def __init__(self, star5, target, make):
        self.space, self.hclass = star5
        self.target = target
        self.make = make
        self.t = 0

    def fresh(self):
        return self

    def next_agent(self, view):
        self.t += 1
        return self.make(self.t)


def _count_realizability_checks(monkeypatch):
    from stratgame import protocol

    calls = []

    def counted(space, f, agent):
        calls.append(agent)
        return strategic_loss(space, f, agent)

    monkeypatch.setattr(protocol, "strategic_loss", counted)
    return calls


def test_a_repeated_agent_that_the_target_misclassifies_fails_at_round_1(star5):
    bad = Agent(matrix_point(1), Ball(0.0), -1)  # the target, spoke 1, is positive at x
    src = _Scripted(star5, 0, lambda t: bad)
    with pytest.raises(RealizabilityError, match="round 1: declared target") as err:
        run_online(src, ConstantLearner(ALL_NEG), Setting.XD_AFTER, 5, 0)
    assert err.value.round_index == 1


@pytest.mark.parametrize("undeclared,checks", [(False, 1), (True, 6)])
def test_each_emitted_agent_object_is_checked_once(monkeypatch, star5, undeclared,
                                                   checks):
    # the source hands back one object on every call.  An undeclared source is
    # asked, checked and answered on every round: the object carries no
    # verdict.  A declaring one is asked once, since the learner's version
    # never changes, and its agent is checked and answered once
    same = Agent(matrix_point(1), Ball(0.0), 1)
    src = _Scripted(star5, 0, lambda t: same)
    src.agent_follows_version = not undeclared
    checked = _count_realizability_checks(monkeypatch)
    answered = _count_responses(monkeypatch)
    tr = run_online(src, ConstantLearner(ALL_NEG), Setting.XD_AFTER, 6, 0)
    assert src.t == len(checked) == len(answered) == checks
    assert tr.mistakes == 6


def test_a_repeated_agent_leaves_the_consistent_set_as_it_was(monkeypatch, star5):
    # no declared target: the first agent rules out spoke 1, its repeats are
    # checked against the four left and rule out nothing more, spoke 2's
    # positive keeps only spoke 2, and spoke 2's immovable negative then
    # empties the set at round 5
    kill_1 = Agent(matrix_point(1), Ball(0.0), -1)
    script = [kill_1, kill_1, kill_1, Agent(matrix_point(2), Ball(0.0), 1),
              Agent(matrix_point(2), Ball(0.0), -1)]
    calls = _count_realizability_checks(monkeypatch)
    src = _Scripted(star5, None, lambda t: script[t - 1])
    with pytest.raises(RealizabilityError, match="round 5: no class member"):
        run_online(src, ConstantLearner(ALL_NEG), Setting.BLIND, 5, 0)
    assert [calls.count(a) for a in script[2:]] == [5 + 4 + 4, 4, 1]


class _Withholding(Learner):
    """Passes the base learner only the feedback of mistake rounds."""

    def __init__(self, base):
        self.base = base
        self.requires, self.manipulation = base.requires, base.manipulation

    def reset(self, hclass, space, setting, rng):
        self.base.reset(hclass, space, setting, rng)

    def choose(self, context):
        return self.base.choose(context)

    def observe(self, feedback):
        if feedback.mistake:
            self.base.observe(feedback)


def test_conservative_replay_identity():
    # withholding correct-round feedback leaves conservative learners unchanged
    cases = [(make_environment("random-realizable", 8, stream_space="star"), [5], 80),
             (make_environment("random-realizable", 10, stream_space="star",
                               target=9), range(5), 120)]
    for env, seeds, T in cases:
        for name, setting in (("halving", Setting.X_BEFORE),
                              ("mwmr", Setting.XD_AFTER),
                              ("seq-elim", Setting.DELTA_ONLY)):
            learner = make_learner(name)
            assert learner.conservative
            for seed in seeds:
                seqs = []
                for lrn in (make_learner(name), _Withholding(make_learner(name))):
                    tr = run_online(env.source_for_run(seed, T), lrn, setting, T, seed)
                    seqs.append([tuple(r.predictor.parts) for r in tr.rounds])
                assert seqs[0] == seqs[1], (name, seed)


def test_survivor_wrapper_is_replay_stable():
    env = make_environment("appJ", 6, eps=0.02, target=5)
    seqs = []
    for withhold in (False, True):
        lrn = make_learner("survivor:seq-elim", n=6, epsilon=0.2, delta=0.1)
        if withhold:
            lrn = _Withholding(lrn)
        tr = run_online(env.source_for_run(2, 120), lrn, Setting.DELTA_ONLY, 120, 2)
        seqs.append([tuple(r.predictor.parts) for r in tr.rounds])
    assert seqs[0] == seqs[1]


def test_recovery_identity_holds_on_ball_runs(star5):
    # the manipulated feature equals the learner-side reconstruction
    env = make_environment("random-realizable", 5, stream_space="star")
    src = env.source_for_run(11, 50)
    learner = make_learner("mwmr")
    tr = run_online(src, learner, Setting.XD_AFTER, 50, 11)
    space = src.space
    for rec in tr.rounds:
        if rec.y_hat == 1:
            dists = [space.dist(rec.x, p)
                     for p in rec.predictor.positive]
            assert space.dist(rec.x, rec.delta) <= min(dists) + 1e-9
        else:
            assert rec.delta == rec.x


@pytest.mark.parametrize("agent,parts,wrong,message", [
    # predicted negative, so the agent must stay at the hub
    (Agent(matrix_point(0), Ball(0.0), -1), (2,), matrix_point(1), "predicted negative"),
    # already positive at spoke 2, yet presented at spoke 1, farther away
    (Agent(matrix_point(2), Ball(2.0), 1), (0, 1), matrix_point(1), "farther"),
    # a positive that stays at the hub although spoke 1 is within reach
    (Agent(matrix_point(0), Ball(1.0), 1), (0,), matrix_point(0), "within reach"),
    # a negative that stays likewise: the stay hides a false positive
    (Agent(matrix_point(0), Ball(1.0), -1), (0,), matrix_point(0), "within reach"),
])
def test_broken_best_response_raises_recovery_error(monkeypatch, star5, agent,
                                                    parts, wrong, message):
    from stratgame import protocol

    space, hclass = star5
    monkeypatch.setattr(protocol, "best_response", lambda *args: wrong)
    learner = ConstantLearner(hclass.union(parts))
    with pytest.raises(RecoveryError, match=f"round 7: .*{message}") as err:
        run_round(agent, learner, Setting.XD_AFTER, space, t=7)
    assert err.value.round_index == 7


def test_farther_basis_point_on_the_sphere_raises_recovery_error(monkeypatch):
    # an appG sphere positive facing the union of e_2 and e_5: its larger
    # coordinate makes e_5 the closer point, and both are within reach
    from stratgame import protocol
    from stratgame.environments import SphereRadiusFamily

    fam = SphereRadiusFamily(8, 0.04, target=0)
    space, f = fam.space, fam.hclass.union((2, 5))
    x = ("perm", tuple(range(8)))
    agent = Agent(x, Ball(fam.r_u), 1)
    near, far = basis(5), basis(2)
    assert space.dist(x, near) + 1e-3 < space.dist(x, far) <= fam.r_u
    assert run_round(agent, ConstantLearner(f), Setting.XD_AFTER, space, t=7).delta == near
    monkeypatch.setattr(protocol, "best_response", lambda *args: far)
    with pytest.raises(RecoveryError, match="round 7: .*farther") as err:
        run_round(agent, ConstantLearner(f), Setting.XD_AFTER, space, t=7)
    assert err.value.round_index == 7


@pytest.mark.parametrize("error", [RealizabilityError, RecoveryError])
def test_round_errors_survive_pickling(error):
    # a seed worker's error reaches the parent process by pickle
    import pickle

    got = pickle.loads(pickle.dumps(error(4, "stream is not realizable")))
    assert type(got) is error and got.round_index == 4
    assert str(got) == "round 4: stream is not realizable"


_BROKEN_RUN = """
import sys
from stratgame import protocol
from stratgame.core.geometry import matrix_point
from stratgame.environments import make_environment
from stratgame.learners import make_learner

print("optimize", sys.flags.optimize)
protocol.best_response = lambda *args: matrix_point(0)  # always the hub
env = make_environment("random-realizable", 5, stream_space="star")
protocol.run_online(env.source_for_run(3, 40), make_learner("mwmr"),
                    protocol.Setting.XD_AFTER, 40, 3)
"""


def test_recovery_check_survives_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_RUN],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(src), "PATH": ""})
    assert proc.stdout.splitlines() == ["optimize 1"]
    assert proc.returncode == 1
    assert "stratgame.protocol.RecoveryError: round " in proc.stderr.splitlines()[-1]


def test_learner_reads_hidden_field_raises(star5):
    space, hclass = star5

    class Nosy(ConstantLearner):
        def observe(self, feedback):
            feedback.delta  # not revealed under the blind setting

    learner = Nosy(hclass.union((0,)))
    agent = Agent(matrix_point(0), Ball(1.0), 1)
    with pytest.raises(ContractViolation):
        run_round(agent, learner, Setting.BLIND, space)


def test_mistake_flag_matches_strategic_loss():
    # i.i.d. agents are replayed from the run's agent stream; appK's sets
    # are explicit
    cases = [(make_environment("random-realizable", 6, stream_space="scaled-basis"),
              "mwmr", Setting.XD_AFTER, [2], 80),
             (make_environment("appJ", 6, eps=0.02, target=5),
              "mwmr", Setting.XD_AFTER, range(10), 300),
             (make_environment("appK", 6, eps=0.02, target=5),
              "seq-elim", Setting.DELTA_ONLY, range(10), 300)]
    for env, name, setting, seeds, T in cases:
        for seed in seeds:
            src = env.source_for_run(seed, T)
            tr = run_online(src, make_learner(name), setting, T, seed)
            rng = RngStreams(seed).agent
            agents = src.agents if src.kind == "sequence" else [
                src.sample(rng) for _ in range(T)]
            assert len(tr.rounds) == T
            for rec, agent in zip(tr.rounds, agents):
                assert rec.mistake == bool(strategic_loss(src.space, rec.predictor, agent))


def test_run_online_rejects_unknown_record():
    env = make_environment("random-realizable", 5, stream_space="star")
    with pytest.raises(ValueError, match="'full' or 'counts'"):
        run_online(env.source_for_run(0, 5), make_learner("seq-elim"), Setting.BLIND,
                   5, 0, record="count")


def _collapse_then(star5, later):
    """Halving on star5 with target 4 (spoke 5): round 1 collapses the version
    space to the target, rounds 2-4 are correct, round 5 is ``later``."""
    from stratgame.environments import SequenceSource

    space, hclass = star5
    agents = [Agent(matrix_point(5), Ball(0.0), 1)]  # halving plays spoke 2 and errs
    agents += [Agent(matrix_point(0), Ball(1.0), 1)] * 3 + [later]
    learner = make_learner("halving")
    chosen = []
    choose = learner.choose
    learner.choose = lambda context: chosen.append(context) or choose(context)
    return SequenceSource(space, hclass, 4, agents), learner, chosen


@pytest.mark.parametrize("record", ["full", "counts"])
def test_skipped_rounds_keep_the_realizability_check(star5, record):
    bad = Agent(matrix_point(5), Ball(0.0), -1)  # the target predicts +1 at x
    src, learner, chosen = _collapse_then(star5, bad)
    with pytest.raises(RealizabilityError, match="round 5: declared target") as err:
        run_online(src, learner, Setting.X_BEFORE, 5, 0, record=record)
    assert err.value.round_index == 5
    assert len(chosen) == 1


@pytest.mark.parametrize("record", ["full", "counts"])
def test_skipped_rounds_keep_the_recovery_check(monkeypatch, star5, record):
    from stratgame import protocol

    special = Agent(matrix_point(0), Ball(0.0), -1)
    src, learner, chosen = _collapse_then(star5, special)
    real = protocol.best_response
    monkeypatch.setattr(protocol, "best_response", lambda space, agent, *rest: (
        matrix_point(1) if agent is special else real(space, agent, *rest)))
    with pytest.raises(RecoveryError, match="round 5: predicted negative") as err:
        run_online(src, learner, Setting.X_BEFORE, 5, 0, record=record)
    assert err.value.round_index == 5
    assert len(chosen) == 1


class _CountingStar(StarSpace):
    def __init__(self, n):
        super().__init__(n)
        self.calls = []

    def dist(self, a, b):
        self.calls.append((a, b))
        return super().dist(a, b)


@pytest.mark.parametrize("record", ["full", "counts"])
def test_a_skipped_negative_round_measures_the_target_once_per_check(star5, record):
    # realizability already put the target out of reach of a negative agent,
    # so the stay check adds no distance: one for realizability, one for the
    # best response
    space = _CountingStar(5)
    later = Agent(matrix_point(1), Ball(1.0), -1)
    src, learner, chosen = _collapse_then((space, star5[1]), later)
    transcript = run_online(src, learner, Setting.X_BEFORE, 5, 0, record=record)
    assert len(chosen) == 1 and transcript.mistakes == 1
    assert [c for c in space.calls if c[0] == later.x] == [(later.x, matrix_point(5))] * 2


def test_skipped_rounds_check_the_label(monkeypatch, star5):
    # a response that wrongly stays put makes the target err; with x revealed
    # the recovery check sees that the target was within reach
    from stratgame import protocol

    special = Agent(matrix_point(0), Ball(1.0), 1)
    real = protocol.best_response
    monkeypatch.setattr(protocol, "best_response", lambda space, agent, *rest: (
        agent.x if agent is special else real(space, agent, *rest)))
    for record in ("full", "counts"):
        src, learner, chosen = _collapse_then(star5, special)
        with pytest.raises(RecoveryError, match="round 5: .*within reach"):
            run_online(src, learner, Setting.X_BEFORE, 5, 0, record=record)
        assert len(chosen) == 1


@pytest.mark.parametrize("record", ["full", "counts"])
@pytest.mark.parametrize("setting,skip,message", [
    (Setting.XD_AFTER, True, "within reach"),
    (Setting.XD_AFTER, False, "within reach"),  # played rounds check reach too
    (Setting.DELTA_ONLY, True, "target mispredicts"),  # x hidden: the label check
    (Setting.BLIND, True, "target mispredicts")])
def test_a_positive_kept_out_of_reach_is_caught(monkeypatch, star5, record, setting,
                                                 skip, message):
    # seq-elim plays the target, spoke 1, from round 1; the hub positive with
    # radius 1 reaches it, but the response leaves it at the hub
    from stratgame import protocol
    from stratgame.environments import SequenceSource

    space, hclass = star5
    src = SequenceSource(space, hclass, 0, [Agent(matrix_point(0), Ball(1.0), 1)])
    monkeypatch.setattr(protocol, "best_response", lambda space, agent, *rest: agent.x)
    learner = make_learner("seq-elim")
    if not skip:
        learner.settled = lambda: None
    with pytest.raises(RecoveryError, match=f"round 1: .*{message}"):
        run_online(src, learner, setting, 1, 0, record=record)
    assert learner.alive == [0, 1, 2, 3, 4]


def test_settled_is_asked_only_where_rounds_may_be_skipped():
    # star-ex42 commits lazily and declares no target, so nothing is skipped;
    # appE declares one, and its skips are checked against played runs in
    # test_counts_runs_match_full_runs_on_acceptance_configs
    def never():
        raise AssertionError("settled() asked")

    env = make_environment("star-ex42", 6)
    for record in ("full", "counts"):
        learner = make_learner("seq-elim")
        learner.settled = never
        run_online(env.source_for_run(0, 200), learner, Setting.XD_AFTER, 200, 0,
                   record=record)


def test_explicit_set_ties_draw_from_the_tie_stream():
    # appK breaks ties uniformly at random; a union that an agent's explicit
    # set meets in two or more points draws the response from the tie stream
    env = make_environment("appK", 6, eps=0.05, target=5)
    src = env.source_for_run(0, 150)
    f = env.hclass.union((0, 1, 2))
    ties = 0
    for seed in range(3):
        tr = run_online(src, ConstantLearner(f), Setting.DELTA_ONLY, 150, seed)
        streams = RngStreams(seed)
        for rec in tr.rounds:
            agent = src.sample(streams.agent)
            cand = sorted(agent.u.members & f.positive)
            if len(cand) >= 2:
                ties += 1
                assert rec.delta == cand[streams.tie.randrange(len(cand))]
            else:
                assert rec.delta == (cand[0] if cand else agent.x)
    assert ties >= 1


def _skipped_rounds(monkeypatch, source, make, setting, T, seed):
    """Run the learner free to skip, in both record modes, and with
    ``settled`` overridden to return None; check that the three runs agree
    on rows, mistakes, rounds, output parts and the rng states after
    finalize, the adversary's estimate stream included, and return how many
    rounds the skipping runs did not play through ``run_round``.  The
    reference run plays an adaptive source through ``_FreshCopies``, so that
    it plays no span either and calls ``run_round`` every round."""
    from stratgame import protocol

    made, played = [], [0]
    real_round = protocol.run_round

    class Recorded(RngStreams):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    def counted(*args):
        played[0] += 1
        return real_round(*args)

    monkeypatch.setattr(protocol, "RngStreams", Recorded)
    monkeypatch.setattr(protocol, "run_round", counted)
    out, rounds = [], []
    reference = _FreshCopies(source) if source.kind == "adaptive" else source
    for record, skip in (("full", True), ("counts", True), ("full", False)):
        learner = make()
        if not skip:
            learner.settled = lambda: None
        played[0] = 0
        tr = run_online(source if skip else reference, learner, setting, T, seed,
                        record=record)
        parts = learner.finalize().parts
        s = made[-1]
        out.append((tr.mistakes, tr.T, parts, s.learner.getstate(), s.tie.getstate(),
                    s.agent.getstate(), s.estimate.getstate(),
                    to_jsonl(tr) if record == "full" else None))
        rounds.append(played[0])
    full, counts, playing = out
    assert full == playing
    assert counts[:-1] == playing[:-1]
    assert rounds[0] == rounds[1] <= rounds[2] == playing[1]
    return rounds[2] - rounds[0]


def test_counts_runs_match_full_runs_on_acceptance_configs(monkeypatch):
    from stratgame import acceptance, harness

    checked = 0
    for cfg in (cfg for c in acceptance.CRITERIA for _, cfg in c.configs):
        env = harness._environment(cfg)
        if env.shared is not None and env.shared.target is None:
            continue  # criterion 3's star-ex42 commits lazily: nothing to skip
        for seed in cfg.seeds[:1 if cfg.T > 50_000 else 3]:
            skipped = _skipped_rounds(
                monkeypatch, env.source_for_run(seed, cfg.T),
                lambda: harness._learner(cfg, len(env.hclass)),
                Setting.from_name(cfg.setting), cfg.T, seed)
            assert skipped > 0, (cfg.env, cfg.learner, seed)
        checked += 1
    assert checked == 7  # criteria 1, 2 (both halves), 4, 5, 6 and 7


_WRAPPED = ["survivor:mwmr", "survivor:seq-elim", "boost:mwmr", "boost:random-union",
            "boost:seq-elim"]


_BASES = ["mwmr", "random-union", "seq-elim"]
_FAMILY_EPS = {"appG": 0.04, "appI": 0.05, "appJ": 0.02, "appK": 0.05}


# appK's explicit sets admit only seq-elim and its wrappers
@pytest.mark.parametrize("env_name,name", [
    (env_name, name) for env_name in _FAMILY_EPS for name in _BASES + _WRAPPED
    if env_name != "appK" or name.endswith("seq-elim")])
def test_counts_runs_match_full_runs_on_the_families(monkeypatch, env_name, name):
    env = make_environment(env_name, 6, eps=_FAMILY_EPS[env_name], target=5)
    setting = Setting.DELTA_ONLY if env_name == "appK" else Setting.XD_AFTER
    skipped = 0
    for seed in range(3):
        skipped += _skipped_rounds(
            monkeypatch, env.source_for_run(seed, 900),
            lambda: make_learner(name, n=6, epsilon=0.1, delta=0.2, base_rounds=300),
            setting, 900, seed)
    assert skipped > 0


@pytest.mark.parametrize("name", ["mwmr", "random-union", "seq-elim", "survivor:mwmr",
                                  "survivor:seq-elim"])
def test_counts_runs_match_full_runs_against_the_probing_adversary(monkeypatch, name):
    # random-union shows appE only draws, taken from the estimate stream, which
    # _skipped_rounds compares along with the learner's own stream
    env = make_environment("appE", 6, samples=200)
    skipped = 0
    for seed in range(3):
        skipped += _skipped_rounds(
            monkeypatch, env.source_for_run(seed, 300),
            lambda: make_learner(name, n=6, epsilon=0.1, delta=0.2), Setting.XD_AFTER,
            300, seed)
    assert skipped > 0


class _FreshCopies:
    """An undeclared source over ``source``: asked every round, it asks
    ``source`` once per learner state version, as ``run_online`` asks a
    declaring source, and hands back a new copy of that agent each round,
    so every round plays through ``run_round`` against the same decisions."""

    agent_follows_version = False

    def __init__(self, source):
        self.source = source

    def __getattr__(self, name):
        return getattr(self.source, name)

    def fresh(self):
        adv = self.source.fresh()
        last = [None, None]  # the version and the agent decided for it

        def next_agent(view):
            version = view.learner.state_version()
            if version is None or version != last[0]:
                last[:] = version, adv.next_agent(view)
            return _copy(last[1])

        return SimpleNamespace(next_agent=next_agent)


def _copy(agent):
    return Agent(agent.x, agent.u, agent.y)


def _count_responses(monkeypatch):
    from stratgame import protocol

    calls = []
    real = protocol.best_response

    def counted(space, agent, *rest):
        calls.append(agent)
        return real(space, agent, *rest)

    monkeypatch.setattr(protocol, "best_response", counted)
    return calls


@pytest.mark.parametrize("name", ["mwmr", "random-union"])
def test_reused_responses_leave_the_run_as_it_was(monkeypatch, name):
    # the probing adversary's span answers each region once per learner
    # version; asked every round, fresh copies of the same agents respond
    # on every round
    from stratgame import protocol

    made = []

    class Recorded(RngStreams):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(protocol, "RngStreams", Recorded)
    calls = _count_responses(monkeypatch)
    src = make_environment("appE", 8).source_for_run(0, 400)
    for seed in range(3):
        out, responses = [], []
        for source in (src, _FreshCopies(src)):
            calls.clear()
            tr = run_online(source, make_learner(name), Setting.XD_AFTER, 400, seed)
            s = made[-1]
            out.append((to_jsonl(tr), tr.mistakes, s.learner.getstate(),
                        s.tie.getstate(), s.estimate.getstate()))
            responses.append(len(calls))
        assert out[0] == out[1]
        assert responses[0] < responses[1] == 400


@pytest.mark.parametrize("name", ["mwmr", "survivor:mwmr"])
def test_the_probing_adversary_is_asked_once_per_learner_version(monkeypatch, name):
    # appE declares that its agent follows the learner's state version, so it
    # is asked once per version; every mwmr mistake shrinks the version
    # space, so a run holds at most mistakes + 1 versions.  The survivor rule
    # keeps its base's versions, and so its spans
    from stratgame.environments import ProbingAdversary

    calls = []
    real = ProbingAdversary.next_agent

    def counted(self, view):
        calls.append(view)
        return real(self, view)

    monkeypatch.setattr(ProbingAdversary, "next_agent", counted)
    env = make_environment("appE", 16)
    for seed in range(3):
        calls.clear()
        tr = run_online(env.source_for_run(seed, 2000),
                        make_learner(name, n=16, epsilon=0.1, delta=0.1),
                        Setting.XD_AFTER, 2000, seed, record="counts")
        assert tr.mistakes > 0
        assert len(calls) <= tr.mistakes + 1


@pytest.mark.parametrize("target", [0, None])
@pytest.mark.parametrize("declared,asked", [(False, 6), (True, 1)])
def test_only_a_declaring_source_is_spared_the_repeated_rounds(star5, target,
                                                               declared, asked):
    # one object on calls 1-3, then another: seq-elim plays spoke 1, correct
    # on every round, so its version never changes.  Undeclared, the source
    # is asked on every round; declared, it is asked at round 1 and the span
    # trusts the declaration for the rest, whether the rounds are skipped
    # (declared target) or taken by run_correct (no target)
    first = Agent(matrix_point(1), Ball(0.0), 1)
    then = Agent(matrix_point(1), Ball(0.0), 1)
    src = _Scripted(star5, target, lambda t: first if t <= 3 else then)
    src.agent_follows_version = declared
    tr = run_online(src, make_learner("seq-elim"), Setting.XD_AFTER, 6, 0)
    assert src.t == asked
    assert tr.mistakes == 0 and [r.t for r in tr.rounds] == [1, 2, 3, 4, 5, 6]


class _Cycling(ConstantLearner):
    """Plays the given predictors in turn, whatever it observes."""

    def __init__(self, predictors):
        self.predictors = predictors
        self.t = 0

    def choose(self, context):
        self.t += 1
        return self.predictors[(self.t - 1) % len(self.predictors)]


class _Versioned(_Cycling):
    """A new state version after every 6th choice."""

    def state_version(self):
        return self.t // 6


@pytest.mark.parametrize("undeclared,responses", [(False, 4), (True, 12)])
def test_a_repeated_agent_responds_once_per_region(monkeypatch, star5, undeclared,
                                                   responses):
    # two regions in turn over 12 rounds and two learner versions: declared,
    # each version's agent answers each region once; undeclared, every
    # round responds
    space, hclass = star5
    src = _Scripted(star5, 0, lambda t: Agent(matrix_point(0), Ball(1.0), 1))
    src.agent_follows_version = not undeclared
    calls = _count_responses(monkeypatch)
    tr = run_online(src, _Versioned([hclass[0], hclass[1]]), Setting.XD_AFTER, 12, 0)
    assert src.t == (12 if undeclared else 2)
    assert len(calls) == responses
    assert tr.mistakes == 0
    assert [r.delta for r in tr.rounds] == [matrix_point(1), matrix_point(2)] * 6


class _Restless(ConstantLearner):
    """A new state version on every observed round, or none at all."""

    def __init__(self, predictor, versioned):
        super().__init__(predictor)
        self.versioned = versioned
        self.seen = 0

    def observe(self, feedback):
        self.seen += 1

    def state_version(self):
        return self.seen if self.versioned else None


@pytest.mark.parametrize("versioned", [True, False])
def test_a_declaring_source_decides_every_round_for_a_restless_learner(star5, versioned):
    # the declaration spares a source only the rounds that keep the version
    same = Agent(matrix_point(1), Ball(0.0), 1)
    src = _Scripted(star5, 0, lambda t: same)
    src.agent_follows_version = True
    tr = run_online(src, _Restless(ALL_NEG, versioned), Setting.XD_AFTER, 8, 0)
    assert src.t == 8
    assert tr.mistakes == 8


def test_a_repeated_agent_draws_every_tie_under_uniform_ties(monkeypatch, star5):
    # a tie draw reads the tie stream, so under uniform ties even a declaring
    # source is asked every round and no response is reused
    from stratgame import protocol

    made = []

    class Recorded(RngStreams):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(protocol, "RngStreams", Recorded)
    space, hclass = star5
    same = Agent(matrix_point(0), Ball(1.0), 1)  # spokes 1 and 2 tie at distance 1
    src = _Scripted(star5, 0, lambda t: same)
    src.tie = TieBreak.UNIFORM_RANDOM
    src.agent_follows_version = True
    calls = _count_responses(monkeypatch)
    tr = run_online(src, ConstantLearner(hclass.union((0, 1))), Setting.XD_AFTER, 40, 7)
    ref = random.Random("7:tie")
    spokes = [matrix_point(1 + ref.randrange(2)) for _ in range(40)]
    assert src.t == len(calls) == 40
    assert [r.delta for r in tr.rounds] == spokes
    assert len(set(spokes)) == 2
    assert made[-1].tie.getstate() == ref.getstate()

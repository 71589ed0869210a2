"""The repeated learner-agent interaction under four information regimes.

Each round: the environment picks an agent and reveals a context; the
learner picks a predictor; the agent best-responds; the learner observes the
true label, its own prediction and setting-dependent feedback about the
original/manipulated features.  The four settings differ only in what the
context and feedback reveal:

    x-delta        context = x, feedback reveals both features
    x-delta-after  no context, feedback reveals both features
    delta-only     no context, feedback reveals the manipulated feature
    none           no context, label-only feedback

The true label and the prediction are delivered in every setting.  The
feedback is the round's only record: a transcript is the sequence of
feedback the learner saw or, on a skipped round, would have seen.
"""

from __future__ import annotations

import math
import random
from enum import Enum, IntEnum

from .core.geometry import MetricSpace, Point, TOL
from .core.predictors import Hypothesis, HypothesisClass, predict
from .core.response import (Agent, Ball, ManipulationSet, TieBreak, best_response,
                            strategic_loss)


class ContractViolation(RuntimeError):
    """A learner or adversary stepped outside its declared interface."""


class _RoundError(RuntimeError):
    """An error raised in a given round; it pickles, so it crosses from a
    seed worker back to the parent process."""

    def __init__(self, round_index: int, message: str):
        super().__init__(f"round {round_index}: {message}")
        self.round_index = round_index
        self.message = message

    def __reduce__(self):
        return type(self), (self.round_index, self.message)


class RealizabilityError(_RoundError):
    """The agent stream is not consistent with any declared target."""


class RecoveryError(_RoundError):
    """A ball agent's manipulated feature broke the recovery identity.

    With x known, the manipulated feature of a ball agent follows from the
    prediction alone; a round that breaks this exposes a faulty best response.
    """


class Setting(Enum):
    """Information regime, ordered by how much the learner gets to see.

    Each member carries its facts as plain attributes, so the round loop
    reads them without a lookup on the enum class.
    """

    X_BEFORE = ("x-delta", 3)
    XD_AFTER = ("x-delta-after", 2)
    DELTA_ONLY = ("delta-only", 1)
    BLIND = ("none", 0)

    def __new__(cls, value: str, info_level: int):
        member = object.__new__(cls)
        member._value_ = value
        member.info_level = info_level
        member.reveals_x_before = info_level == 3
        member.reveals_x = info_level >= 2  # in the feedback; x-delta also before choosing
        member.reveals_delta = info_level >= 1
        return member

    @classmethod
    def from_name(cls, name: str) -> "Setting":
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown setting {name!r}; choose from "
                         f"{[s.value for s in cls]}")


class Feedback:
    """One round as the learner saw it: the round index, the predictor played,
    label and prediction always, features per setting.

    Reading a feature that the active setting does not reveal raises
    ContractViolation, which is how setting declarations are enforced.
    """

    __slots__ = ("t", "predictor", "y", "y_hat", "_x", "_delta")

    def __init__(self, t: int, predictor: Hypothesis, y: int, y_hat: int,
                 x: Point | None, delta: Point | None):
        self.t = t
        self.predictor = predictor
        self.y = y
        self.y_hat = y_hat
        self._x = x
        self._delta = delta

    @property
    def mistake(self) -> bool:
        return self.y != self.y_hat

    @property
    def x(self) -> Point:
        if self._x is None:
            raise ContractViolation("original feature is not revealed in this setting")
        return self._x

    @property
    def delta(self) -> Point:
        if self._delta is None:
            raise ContractViolation("manipulated feature is not revealed in this setting")
        return self._delta

    @property
    def has_x(self) -> bool:
        return self._x is not None

    @property
    def has_delta(self) -> bool:
        return self._delta is not None


def build_feedback(setting: Setting, t: int, f: Hypothesis, agent: Agent,
                   delta: Point, y_hat: int) -> Feedback:
    return Feedback(t, f, agent.y, y_hat, agent.x if setting.reveals_x else None,
                    delta if setting.reveals_delta else None)


class Transcript:
    """The feedback of every round; replaying the seed reproduces it bit-exactly."""

    def __init__(self, setting: Setting, T: int):
        self.setting = setting
        self.T = T
        self.rounds: list[Feedback] = []
        self.mistakes = 0


class Exposure(IntEnum):
    """How much of its next choice a learner shows an adaptive adversary,
    from least to most."""

    NOTHING = 0
    DISTRIBUTION = 1  # predictor_distribution, or draws from sample_predictor
    DETERMINISTIC = 2  # predictor_distribution gives one predictor of mass 1


class Learner:
    """Behavioral contract every learning algorithm implements.

    ``requires`` is the minimum information level the learner needs; a
    learner may always run in a strictly more informative setting.
    ``manipulation`` is the kind of manipulation set its update rule is valid
    for: ``Ball`` for distance-based elimination, ``ManipulationSet`` for any.
    ``exposes`` is how much of the next choice the white-box hooks below show.
    The ``conservative`` flag promises that withholding feedback from correct
    rounds leaves the chosen predictor sequence unchanged, which the test
    suite verifies by replay.
    """

    name = "learner"
    conservative = False
    requires = Setting.BLIND
    manipulation = ManipulationSet
    exposes = Exposure.NOTHING

    def reset(self, hclass: HypothesisClass, space: MetricSpace,
              setting: Setting, rng: random.Random) -> None:
        raise NotImplementedError

    def choose(self, context: Point | None) -> Hypothesis:
        raise NotImplementedError

    def observe(self, feedback: Feedback) -> None:
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """PAC learners may declare completion to stop the interaction early."""
        return False

    def settled(self):
        """``(f, span)`` when the learner will play f on each of its next
        ``span >= 1`` rounds that bring no mistake, else None."""
        return None

    def skip(self, m: int) -> None:
        """Apply m correct rounds played with the settled predictor, as m
        ``choose``/``observe`` calls would, learner randomness included."""
        raise NotImplementedError

    def run_correct(self, context, wrong, m: int):
        """Choose as up to m ``choose(context)`` calls would and stop at the
        first f with ``wrong(f)``: return ``(k, f)``, with k the rounds before
        it, which count as observed correct rounds, or ``(m, None)`` after m
        correct rounds.  The caller plays f's round in full.  Only a learner
        whose correct rounds leave ``settled`` and ``state_version`` as they
        were may take more than one; this default plays one round."""
        return 0, self.choose(context)

    # white-box hooks for adaptive adversaries
    def predictor_distribution(self):
        """Exact distribution of the next choice as [(predictor, prob), ...], or None."""
        return None

    def sample_predictor(self, rng: random.Random) -> Hypothesis:
        """Draw the next choice without touching learner state; asked only of
        learners whose ``predictor_distribution`` is None."""
        raise ContractViolation(f"learner {self.name!r} exposes neither its next-choice "
                                f"distribution nor a sampling hook")

    def state_version(self):
        """Counter that changes whenever the learner's state does.

        None means "no versioning": consumers must not cache per-state work,
        so a source that declares ``agent_follows_version`` is asked every round.
        """
        return None


class LearnerView:
    """What an adaptive adversary is allowed to see of the learner: the exact
    next-choice distribution when the learner exposes one, an empirical
    estimate from the adversary's sample count otherwise."""

    def __init__(self, learner: Learner, rng: random.Random):
        self.learner = learner
        self.rng = rng

    def exact_distribution(self):
        return self.learner.predictor_distribution()

    def distribution(self, samples: int):
        exact = self.learner.predictor_distribution()
        if exact is not None:
            return exact
        w = 1.0 / samples
        return [(self.learner.sample_predictor(self.rng), w)
                for _ in range(samples)]


class RngStreams:
    """Named independent randomness streams derived from one run seed."""

    def __init__(self, seed: int):
        self.learner = random.Random(f"{seed}:learner")
        self.agent = random.Random(f"{seed}:agent")
        self.tie = random.Random(f"{seed}:tie")
        self.estimate = random.Random(f"{seed}:estimate")


def _check_recovery(space, agent, f, delta, y_hat, t, skipped=False):
    # With x in hand, the manipulated feature of a ball agent is recoverable
    # from y_hat alone: the closest positive point if predicted positive, x
    # itself otherwise.  A stay must also have f out of reach, whatever the
    # label: a wrong stay hides a missed positive or a false positive.  On a
    # skipped round f is the declared target, which the realizability check
    # already put out of reach of every negative agent, so a skipped negative
    # round omits that stay test.
    # y_hat is predict(f, delta), so y_hat == 1 puts delta in f.positive and
    # the loop over f.positive meets d(x, delta) on its way to the minimum; on
    # a one-point region delta is that point, so ``_respond`` does not call in.
    x = agent.x
    if y_hat == 1:
        dist = space.dist
        dmin = math.inf
        for p in f.positive:
            d = dist(x, p)
            if d < dmin:
                dmin = d
            if p == delta:
                d_delta = d
        if d_delta > dmin + TOL:
            raise RecoveryError(t, f"manipulated feature {delta!r} is farther from "
                                   f"{x!r} than the closest positive point")
    elif delta != x:
        raise RecoveryError(t, f"predicted negative but the agent moved from {x!r} "
                               f"to {delta!r}")
    elif not (skipped and agent.y == -1):
        reach = agent.u.radius + TOL
        dist = space.dist
        for p in f.positive:
            if dist(x, p) <= reach:
                raise RecoveryError(t, f"predicted negative but a positive point is "
                                       f"within reach of {x!r}")


def _respond(space, agent, f, setting, tie, rng, t, memo=None, skipped=False):
    """Best response to f and f's prediction; checks recovery on ball rounds
    revealing x, except a predicted-positive one on a one-point region."""
    if memo is not None:
        hit = memo.get(f.positive)
        if hit is not None:
            return hit
    delta = best_response(space, agent, f, tie, rng)
    y_hat = predict(f, delta)
    if (setting.reveals_x and isinstance(agent.u, Ball)
            and (y_hat == -1 or len(f.positive) != 1)):
        _check_recovery(space, agent, f, delta, y_hat, t, skipped)
    if memo is not None:
        memo[f.positive] = delta, y_hat
    return delta, y_hat


def _judge(space, agent, setting, tie, rng, t, memo, rounds):
    """The ``wrong`` test of ``run_correct`` on a spanned agent from round t
    on: whether f mispredicts, answered through the response memo.  A
    correct round's feedback goes to ``rounds`` unless that is None."""
    u = t

    def wrong(f):
        nonlocal u
        delta, y_hat = _respond(space, agent, f, setting, tie, rng, u, memo)
        if y_hat != agent.y:
            return True
        if rounds is not None:
            rounds.append(build_feedback(setting, u, f, agent, delta, y_hat))
        u += 1
        return False

    return wrong


def run_round(agent: Agent, learner: Learner, setting: Setting, space: MetricSpace,
              tie: TieBreak = TieBreak.FIXED_LOWEST,
              rng: random.Random | None = None, t: int = 1) -> Feedback:
    """Play one round: choose, respond, observe; return the feedback observed."""
    f = learner.choose(agent.x if setting.reveals_x_before else None)
    delta, y_hat = _respond(space, agent, f, setting, tie, rng, t)
    feedback = build_feedback(setting, t, f, agent, delta, y_hat)
    learner.observe(feedback)
    return feedback


def check_learner(learner: Learner, setting: Setting, source) -> None:
    """Reject a learner that the setting or the source's agents do not suit.

    ``source`` declares ``manipulation``, the kind of its agents' sets; an
    undeclared source counts as mixed.  An adaptive adversary also declares
    ``needs_exposure``, what it must see of the learner's next choice.
    Raises ContractViolation; called before round 1.
    """
    if setting.info_level < learner.requires.info_level:
        raise ContractViolation(
            f"learner {learner.name!r} needs setting {learner.requires.value!r} "
            f"or stronger, got {setting.value!r}")
    need = learner.manipulation
    have = getattr(source, "manipulation", ManipulationSet)
    if not issubclass(have, need):
        raise ContractViolation(
            f"learner {learner.name!r} needs {need.__name__} manipulation sets; "
            f"the source declares {have.__name__}")
    need = getattr(source, "needs_exposure", Exposure.NOTHING)
    if learner.exposes >= need:
        return
    if need is Exposure.DETERMINISTIC:
        raise ContractViolation(f"this adversary needs a deterministic learner; "
                                f"learner {learner.name!r} is not")
    raise ContractViolation(f"learner {learner.name!r} exposes neither its next-choice "
                            f"distribution nor a sampling hook")


def _agent_supply(source, learner, streams):
    kind = getattr(source, "kind", None)
    if kind == "adaptive":
        view = LearnerView(learner, streams.estimate)
        adv = source.fresh()
        return lambda t: adv.next_agent(view)
    if kind == "sequence":
        agents = source.agents
        def from_sequence(t):
            if t > len(agents):
                raise ValueError(f"fixed sequence has only {len(agents)} agents")
            return agents[t - 1]
        return from_sequence
    if kind == "iid":
        rng = streams.agent
        return lambda t: source.sample(rng)
    raise TypeError(f"unknown agent source kind: {kind!r}")


def run_online(source, learner: Learner, setting: Setting, T: int, seed: int,
               record: str = "full") -> Transcript:
    """Run T interaction rounds and return the transcript.

    Every emitted agent is checked for realizability: against the declared
    target, or, when the source declares none, by tracking the set of
    consistent class members.  On a source with a declared target, rounds on
    which the learner is ``settled`` on the target are skipped: ``skip(m)``
    replaces m ``choose``/``observe`` calls, and each skipped round still
    gets its agent as a played round would, runs the played round's
    response step on the settled predictor and checks that it predicts the
    label (``RecoveryError``).  Adaptive sources
    skip too: while settled, the learner's next choice is the target with
    certainty, so all that an adversary reads through ``LearnerView`` is the
    same whether or not ``skip`` ran.

    A source is asked for an agent every round, unless it declares
    ``agent_follows_version``: its agent is a function of the learner's
    ``state_version``.  Under fixed ties such a source is asked only when the
    version is None or differs from the one its current agent was emitted
    for, and the rounds until the version changes are one span with one
    response memo, each positive region answered once: a skip takes the
    rest of its rounds at once, and otherwise ``run_correct`` takes the
    correct rounds, answered through the memo, before its first wrong choice
    is played in full.  A uniform tie draw reads the tie stream, so under
    ``UNIFORM_RANDOM`` every round asks and responds afresh.
    ``record`` decides only what is kept: every round's ``Feedback``
    ("full") or the mistake count ("counts").
    """
    if record not in ("full", "counts"):
        raise ValueError(f"record must be 'full' or 'counts', got {record!r}")
    space: MetricSpace = source.space
    hclass: HypothesisClass = source.hclass
    tie = source.tie
    check_learner(learner, setting, source)

    streams = RngStreams(seed)
    learner.reset(hclass, space, setting, streams.learner)
    next_agent = _agent_supply(source, learner, streams)

    transcript = Transcript(setting, T)
    full = record == "full"
    rounds = transcript.rounds if full else None
    # adaptive adversaries that commit lazily declare no target
    target = None if source.target is None else hclass[source.target]
    consistent = list(range(len(hclass))) if target is None else None
    tie_rng = streams.tie
    may_skip = target is not None
    skipping = 0  # rounds left in the current skip, played with f
    follows = (tie is TieBreak.FIXED_LOWEST
               and getattr(source, "agent_follows_version", False))
    emitted = None  # the learner version the current agent was emitted for
    memo = None  # the spanned agent's checked (delta, y_hat) by positive region

    t = 0
    while t < T:
        t += 1
        version = learner.state_version() if follows else None
        if version is None or version != emitted:
            agent = next_agent(t)
            emitted, memo = version, None if version is None else {}
            if target is not None and strategic_loss(space, target, agent) != 0:
                raise RealizabilityError(
                    t, "declared target misclassifies the emitted agent")
            if consistent is not None:
                consistent = [i for i in consistent
                              if strategic_loss(space, hclass[i], agent) == 0]
                if not consistent:
                    raise RealizabilityError(
                        t, "no class member is consistent with the stream")
        if may_skip and not skipping:
            settled = learner.settled()
            if settled is not None and settled[0] == target:
                f, skipping = settled[0], min(settled[1], T - t + 1)
                learner.skip(skipping)
        if skipping:
            delta, y_hat = _respond(space, agent, f, setting, tie, tie_rng, t, memo, True)
            if y_hat != agent.y:
                raise RecoveryError(t, "the declared target mispredicts the label")
            m = 1 if memo is None else skipping  # a skip keeps the version
            skipping -= m
            if full:
                rounds.extend(build_feedback(setting, u, f, agent, delta, y_hat)
                              for u in range(t, t + m))
            t += m - 1
            continue
        if memo is None:
            fb = run_round(agent, learner, setting, space, tie, tie_rng, t)
        else:
            k, f = learner.run_correct(
                agent.x if setting.reveals_x_before else None,
                _judge(space, agent, setting, tie, tie_rng, t, memo, rounds), T - t + 1)
            t += k
            if f is None:
                break
            delta, y_hat = _respond(space, agent, f, setting, tie, tie_rng, t, memo)
            fb = build_feedback(setting, t, f, agent, delta, y_hat)
            learner.observe(fb)
        if fb.mistake:
            transcript.mistakes += 1
        if full:
            rounds.append(fb)
        if learner.finished:
            transcript.T = t
            break
    return transcript


def run_pac(source, learner: Learner, setting: Setting, T: int, seed: int,
            **kwargs):
    """T i.i.d. interaction rounds followed by finalize().

    Returns (output, transcript); the output is the learner's predictor (or
    mixture) for future use.
    """
    if getattr(source, "kind", None) != "iid":
        raise TypeError("run_pac needs an i.i.d. agent source")
    transcript = run_online(source, learner, setting, T, seed, **kwargs)
    return learner.finalize(), transcript

"""Agent sources: hard i.i.d. families, adaptive adversaries, random streams.

Every source carries its space, its hypothesis class of singletons, the
index of a consistent target (when one is fixed up front) and a tie-break
policy.  The four i.i.d. families hide the target behind carefully tuned
manipulation budgets; the two adaptive adversaries react to the learner's
next-choice distribution through the white-box view.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

from .core.geometry import (
    TOL,
    MetricSpace,
    ORIGIN,
    PermutationSphereSpace,
    ScaledBasisSpace,
    StarSpace,
    basis,
    matrix_point,
    scaled_basis,
    shuffled_range,
)
from .core.predictors import HypothesisClass
from .core.response import (Agent, Ball, Explicit, TieBreak, manipulation_type,
                            strategic_loss)
from .oracle import ParameterError, check_family
from .protocol import ContractViolation, Exposure, LearnerView

SPOT_CHECK_SAMPLES = 10_000
_validated: set = set()


def _check_n(name: str, n: int, least: int) -> None:
    """Reject a too-small n before any check that reads n."""
    if n < least:
        raise ParameterError(f"{name} needs n >= {least}, got n={n}")


def _check_reach_separation(space: PermutationSphereSpace) -> None:
    """Reject spheres whose reach levels sqrt(1 + alpha^2 - 2v/z) crowd TOL.

    Adjacent levels are closest at v = 0 and v = 1; below 100 TOL apart, the
    absolute tolerance of every distance comparison could merge them.
    """
    top = space.one_plus_alpha2
    gap = math.sqrt(top) - math.sqrt(top - 2.0 / space.z)
    if gap < 100 * TOL:
        raise ParameterError(
            f"n={space.n}, alpha={space.alpha}: adjacent reach radii differ by "
            f"{gap:.3g}, less than 100*TOL={100 * TOL:.3g}")


def _spot_check(family, key) -> None:
    """Verify the declared target never loses on this family.

    Exact over every atom when enumerable, streamed so that none is kept; a
    1e4-sample check otherwise.  Memoized per parameter set so repeated
    construction stays cheap.
    """
    if key in _validated:
        return
    target = family.hclass.union((family.target,))
    atoms = family.iter_support()
    if atoms is not None:
        for agent, _ in atoms:
            if strategic_loss(family.space, target, agent) != 0:
                raise ParameterError(f"target misclassifies support atom {agent!r}")
    else:
        rng = random.Random(f"spot:{key}")
        for _ in range(SPOT_CHECK_SAMPLES):
            agent = family.sample(rng)
            if strategic_loss(family.space, target, agent) != 0:
                raise ParameterError(f"target misclassifies sampled agent {agent!r}")
    _validated.add(key)


# ---------------------------------------------------------------------------
# i.i.d. families
#
# The n! families yield their atoms from one generator: the spot check streams
# it, and the support tuple is built from it at the first support() call (the
# exact referee's) and returned after; atoms share their weights and, where
# equal, their points and agents, but each permutation keeps its own atom, so
# population_loss sums the same terms as ever.


class _Family:
    """Base of the four i.i.d. families, whose n, eps and target the oracle's
    ``check_family`` checks.  The n! families (all but appJ) yield their
    (agent, weight) atoms from ``_atoms``, one per permutation, up to n = 8."""

    kind = "iid"
    tie = TieBreak.FIXED_LOWEST
    _support = None

    def __init__(self, n: int, eps: float, target: int):
        check_family(self.tag, n, eps, target)
        self.n = n
        self.eps = eps
        self.target = target

    def iter_support(self):
        """A fresh iterator over the atoms, in support order; None above n = 8."""
        return self._atoms() if self.n <= 8 else None

    def support(self):
        """The atoms as one tuple, built at the first call and kept."""
        if self._support is None and self.n <= 8:
            self._support = tuple(self._atoms())
        return self._support


class SphereRadiusFamily(_Family):
    """Sphere positives whose manipulation radius encodes the target.

    Mass 1 - 3n*eps sits on a radius-zero negative at the origin; the rest
    draws a uniform sphere point labeled positive, with the larger radius
    r_u = sqrt(1 + alpha^2) exactly when the target coordinate is zero and
    the smaller r_l = sqrt(1 + alpha^2 - 2/z) otherwise.  Only the target
    singleton is then reachable by every positive.
    """

    tag = "appG"
    manipulation = Ball

    def __init__(self, n: int, eps: float, target: int = 0, alpha: float = 0.1):
        super().__init__(n, eps, target)
        self.space = PermutationSphereSpace(n, alpha=alpha, with_origin=True)
        _check_reach_separation(self.space)
        self.hclass = HypothesisClass([basis(i) for i in range(n)])
        self.sphere_mass = 3 * n * eps
        z, a2 = self.space.z, alpha * alpha
        self.r_u = math.sqrt(1 + a2)
        self.r_l = math.sqrt(1 + a2 - 2.0 / z)
        self._origin_agent = Agent(ORIGIN, Ball(0.0), -1)
        self._ball_u = Ball(self.r_u)
        self._ball_l = Ball(self.r_l)
        _spot_check(self, ("appG", n, eps, target, alpha))

    def sample(self, rng: random.Random) -> Agent:
        if rng.random() >= self.sphere_mass:
            return self._origin_agent
        vals = shuffled_range(rng, self.n)
        u = self._ball_u if vals[self.target] == 0 else self._ball_l
        return Agent(("perm", tuple(vals)), u, 1)

    def _atoms(self):
        yield self._origin_agent, 1 - self.sphere_mass
        w = self.sphere_mass / math.factorial(self.n)
        for p in itertools.permutations(range(self.n)):
            u = self._ball_u if p[self.target] == 0 else self._ball_l
            yield Agent(("perm", p), u, 1), w


class SphereRankFamily(_Family):
    """Uniform sphere marginal with noisy labels; negatives reach exactly the
    singletons whose coordinate beats the target's.

    Labels are positive with probability 1 - 6*eps (radius 2, everything
    reachable) and negative otherwise, with radius tuned one coordinate step
    below the target distance.
    """

    tag = "appI"
    manipulation = Ball

    def __init__(self, n: int, eps: float, target: int = 0, alpha: float = 0.1):
        super().__init__(n, eps, target)
        self.space = PermutationSphereSpace(n, alpha=alpha, with_origin=False)
        _check_reach_separation(self.space)
        self.hclass = HypothesisClass([basis(i) for i in range(n)])
        self.neg_mass = 6 * eps
        self._pos_ball = Ball(2.0)
        z, a2 = self.space.z, alpha * alpha
        # negative radius per target coordinate value v: reaches e_j iff p[j] > v
        self._neg_balls = [Ball(math.sqrt(1 + a2 - 2.0 * (v + 1) / z))
                           for v in range(n)]
        _spot_check(self, ("appI", n, eps, target, alpha))

    def _agent(self, p: tuple, positive: bool) -> Agent:
        if positive:
            return Agent(("perm", p), self._pos_ball, 1)
        return Agent(("perm", p), self._neg_balls[p[self.target]], -1)

    def sample(self, rng: random.Random) -> Agent:
        vals = tuple(shuffled_range(rng, self.n))
        return self._agent(vals, rng.random() >= self.neg_mass)

    def _atoms(self):
        nf = math.factorial(self.n)
        w_pos, w_neg = (1 - self.neg_mass) / nf, self.neg_mass / nf
        for p in itertools.permutations(range(self.n)):
            x = ("perm", p)  # one point for both labels
            yield Agent(x, self._pos_ball, 1), w_pos
            yield Agent(x, self._neg_balls[p[self.target]], -1), w_neg


class StarSpokeFamily(_Family):
    """Star-space family: a heavy hub positive and light off-target spoke negatives.

    All agents carry radius 1, so positives can always reach a spoke and
    negatives can reach the hub but never another spoke.
    """

    tag = "appJ"
    manipulation = Ball

    def __init__(self, n: int, eps: float, target: int = 0):
        super().__init__(n, eps, target)
        self.space = StarSpace(n)
        self.hclass = HypothesisClass([matrix_point(i) for i in range(1, n + 1)])
        self.neg_mass = 3 * (n - 1) * eps
        ball = Ball(1.0)
        self._pos_agent = Agent(matrix_point(0), ball, 1)
        self._neg_agents = [Agent(matrix_point(j + 1), ball, -1)
                            for j in range(n) if j != target]
        # n atoms at any n: kept from the start, so support() hands them back
        # and iter_support() has nothing to stream
        self._support = ((self._pos_agent, 1 - self.neg_mass),
                         *((a, 3 * eps) for a in self._neg_agents))
        _spot_check(self, ("appJ", n, eps, target))

    def sample(self, rng: random.Random) -> Agent:
        if rng.random() >= self.neg_mass:
            return self._pos_agent
        return self._neg_agents[rng.randrange(len(self._neg_agents))]

    def iter_support(self):
        return self._support


class PrefixSetFamily(_Family):
    """Non-ball family: everyone starts at the hub with an explicit set.

    Positives may move anywhere; each negative's set holds the hub plus the
    spokes drawn before the target in a uniform random order, so any wrong
    singleton is reachable by half the negatives.  Ties break uniformly at
    random here.
    """

    tag = "appK"
    manipulation = Explicit
    tie = TieBreak.UNIFORM_RANDOM

    def __init__(self, n: int, eps: float, target: int = 0):
        super().__init__(n, eps, target)
        self.space = StarSpace(n)
        self.hclass = HypothesisClass([matrix_point(i) for i in range(1, n + 1)])
        self.neg_mass = 6 * eps
        self._hub = matrix_point(0)
        self._pos_agent = Agent(self._hub, Explicit(self.space.points), 1)
        _spot_check(self, ("appK", n, eps, target))

    def _neg_agent(self, order: Sequence[int]) -> Agent:
        # spokes drawn before the target, as point ids (spoke j -> index j+1)
        members = [self._hub]
        for j in order:
            if j == self.target:
                break
            members.append(matrix_point(j + 1))
        return Agent(self._hub, Explicit(members), -1)

    def sample(self, rng: random.Random) -> Agent:
        if rng.random() >= self.neg_mass:
            return self._pos_agent
        return self._neg_agent(shuffled_range(rng, self.n))

    def _atoms(self):
        yield self._pos_agent, 1 - self.neg_mass
        w = self.neg_mass / math.factorial(self.n)
        # a negative is its prefix set, so n! orders share 2^(n-1) atoms
        shared = {}
        for order in itertools.permutations(range(self.n)):
            prefix = frozenset(order[:order.index(self.target)])
            atom = shared.get(prefix)
            if atom is None:
                atom = shared[prefix] = (self._neg_agent(order), w)
            yield atom


# ---------------------------------------------------------------------------
# adaptive adversaries


class StarCounterAdversary:
    """Counters a deterministic learner on the star space.

    All-negative predictors are punished with a manipulable hub positive;
    predictors positive at the hub with an immovable hub negative; predictors
    positive at some spoke with an immovable negative at that spoke, which
    eliminates exactly that singleton.  The adversary never eliminates the
    last consistent singleton, so the stream stays realizable at any length.
    """

    kind = "adaptive"
    tag = "star-ex42"
    manipulation = Ball
    needs_exposure = Exposure.DETERMINISTIC
    tie = TieBreak.FIXED_LOWEST
    target = None

    def __init__(self, n: int):
        _check_n(self.tag, n, 2)
        self.n = n
        self.space = StarSpace(n)
        self.hclass = HypothesisClass([matrix_point(i) for i in range(1, n + 1)])

    def fresh(self) -> "_StarCounterState":
        return _StarCounterState(self)


class _StarCounterState:
    def __init__(self, env: StarCounterAdversary):
        self.consistent = set(range(1, env.n + 1))  # spoke ids still realizable
        self._hub = matrix_point(0)

    def next_agent(self, view: LearnerView) -> Agent:
        dist = view.exact_distribution()
        if dist is None or len(dist) != 1 or abs(dist[0][1] - 1.0) > 1e-12:
            raise ContractViolation("this adversary needs a deterministic learner")
        pset = dist[0][0].positive
        if not pset:
            return Agent(self._hub, Ball(1.0), 1)
        if self._hub in pset:
            return Agent(self._hub, Ball(0.0), -1)
        spokes = sorted(p[1] for p in pset)
        for s in spokes:
            if self.consistent != {s}:
                self.consistent.discard(s)
                return Agent(matrix_point(s), Ball(0.0), -1)
        # only the last consistent singleton is exposed: concede the round
        return Agent(self._hub, Ball(1.0), 1)


class ProbingAdversary:
    """Forces mistakes at rate ~1/(2(n+2)) against any randomized learner.

    Works on the scaled-basis space.  Each round it inspects the learner's
    next-choice distribution: any probe point (origin or scaled basis) that
    is positive with probability at least c gets an immovable negative; an
    all-negative mass of at least c gets a manipulable origin positive;
    otherwise it plants a negative at the scaled copy of the most likely
    positive basis direction, with radius 0.1 (reaching the basis point) off
    target and 0 on target.  Needs 0 < c <= 1; a learner that shows no exact
    distribution is estimated from ``samples`` draws.  The agent is decided
    once per learner state version, which ``agent_follows_version`` declares.
    """

    kind = "adaptive"
    tag = "appE"
    manipulation = Ball
    needs_exposure = Exposure.DISTRIBUTION
    agent_follows_version = True
    tie = TieBreak.FIXED_LOWEST

    def __init__(self, n: int, target: int | None = None, c: float | None = None,
                 samples: int = 1000):
        _check_n(self.tag, n, 2)
        self.n = n
        self.target = n - 1 if target is None else target
        if not 0 <= self.target < n:
            raise ParameterError("target index out of range")
        self.c = 1.0 / (2 * (n + 2)) if c is None else c
        if not 0 < self.c <= 1:  # also rejects nan
            raise ParameterError(f"c must satisfy 0 < c <= 1, got {self.c!r}")
        if not isinstance(samples, int) or samples < 1:
            raise ParameterError(f"estimation samples must be a positive integer, "
                                 f"got {samples!r}")
        self.samples = samples
        self.space = ScaledBasisSpace(n)
        self.hclass = HypothesisClass([basis(i) for i in range(n)])

    def fresh(self) -> "_ProbingState":
        return _ProbingState(self)


class _ProbingState:
    def __init__(self, env: ProbingAdversary):
        self.env = env
        self._cached_version = None
        self._agent = None
        self._probe_points = [ORIGIN] + [scaled_basis(j) for j in range(env.n)]

    def _decide(self, view: LearnerView) -> Agent:
        env = self.env
        dist = view.distribution(env.samples)
        p_allneg = 0.0
        p_probe = dict.fromkeys(self._probe_points, 0.0)
        weight = [0.0] * env.n
        probes = p_probe.keys()
        for f, p in dist:
            pset = f.positive
            if not pset:
                p_allneg += p
                continue
            # walk the predictor's own points: class unions hold basis points
            # only, so they meet no probe, and each probe still sums its mass
            # in predictor order
            if probes.isdisjoint(pset):
                for pt in pset:
                    if pt[0] == "basis":
                        weight[pt[1]] += p
            else:
                for pt in pset:
                    if pt in p_probe:
                        p_probe[pt] += p
        for pt in self._probe_points:
            if p_probe[pt] >= env.c - 1e-12:
                return Agent(pt, Ball(0.0), -1)
        if p_allneg >= env.c - 1e-12:
            return Agent(ORIGIN, Ball(1.0), 1)
        i_t = weight.index(max(weight))  # the heaviest; the lowest index on a tie
        return Agent(scaled_basis(i_t), Ball(0.0 if i_t == env.target else 0.1), -1)

    def next_agent(self, view: LearnerView) -> Agent:
        version = view.version()
        if version is None or version != self._cached_version:
            self._agent = self._decide(view)
            self._cached_version = version
        return self._agent


# ---------------------------------------------------------------------------
# generic realizable streams


class UniformRadius:
    def __init__(self, lo: float, hi: float):
        if not 0 <= lo <= hi < math.inf:  # also rejects nan
            raise ParameterError(f"need finite 0 <= lo <= hi, got {lo!r}, {hi!r}")
        self.lo = lo
        self.hi = hi

    def draw(self, rng: random.Random) -> float:
        return self.lo + (self.hi - self.lo) * rng.random()


class ConstantRadius:
    def __init__(self, r: float):
        if not 0 <= r < math.inf:
            raise ParameterError(f"radius must be finite and nonnegative, got {r!r}")
        self.r = r

    def draw(self, rng: random.Random) -> float:
        return self.r


def parse_radius_law(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "uniform":
            lo, hi = rest.split(":")
            return UniformRadius(float(lo), float(hi))
        if kind == "const":
            return ConstantRadius(float(rest))
    except ValueError as exc:  # ParameterError too: quote the spec
        raise ParameterError(f"bad radius law {text!r}: {exc}") from None
    raise ParameterError(f"unknown radius law {text!r}")


class SequenceSource:
    kind = "sequence"
    tie = TieBreak.FIXED_LOWEST

    def __init__(self, space, hclass, target, agents):
        self.space = space
        self.hclass = hclass
        self.target = target
        self.agents = agents
        self.manipulation = manipulation_type(agents)


def random_realizable_stream(space: MetricSpace, hclass: HypothesisClass,
                             target: int, T: int, seed: int,
                             radius_law=None) -> SequenceSource:
    """Pre-generate T ball agents labeled by the target, so realizability
    holds by construction: x uniform over the universe, radius from the law,
    label = the target's prediction at the agent's own best response.
    """
    if not 0 <= target < len(hclass):
        raise ValueError("target must index into the hypothesis class")
    law = radius_law or UniformRadius(0.0, space.diameter() * 1.25)
    rng = random.Random(f"{seed}:stream")
    target_point = hclass.points[target]
    agents = []
    dist, sample_point, draw, append = space.dist, space.sample_point, law.draw, agents.append
    for _ in range(T):
        x = sample_point(rng)
        r = draw(rng)
        # singleton target: positive iff already at the point or within reach
        y = 1 if dist(x, target_point) <= r + TOL else -1
        append(Agent(x, Ball(r), y))
    return SequenceSource(space, hclass, target, agents)


# ---------------------------------------------------------------------------
# registry


class EnvSpec:
    """An environment: how to build the per-run agent source."""

    def __init__(self, space, hclass, shared=None, stream_args=None):
        self.space = space
        self.hclass = hclass
        self.shared = shared
        self.needs_exposure = getattr(shared, "needs_exposure", Exposure.NOTHING)
        self._stream_args = stream_args

    @property
    def manipulation(self):
        """Kind of the agents' manipulation sets; random streams use balls."""
        return Ball if self.shared is None else self.shared.manipulation

    @property
    def family(self):
        """The underlying i.i.d. family, when this environment is one."""
        if self.shared is not None and getattr(self.shared, "kind", None) == "iid":
            return self.shared
        return None

    def source_for_run(self, seed: int, T: int):
        if self.shared is not None:
            return self.shared
        target, law = self._stream_args
        return random_realizable_stream(self.space, self.hclass, target, T, seed, law)


_STREAM_SPACES = {
    "star": lambda n, alpha: StarSpace(n),
    "scaled-basis": lambda n, alpha: ScaledBasisSpace(n),
    "sphere": lambda n, alpha: PermutationSphereSpace(n, alpha=alpha),
    "sphere-origin": lambda n, alpha: PermutationSphereSpace(n, alpha=alpha,
                                                             with_origin=True),
}


def environment_names() -> list:
    return ["star-ex42", "appE", "appG", "appI", "appJ", "appK", "random-realizable"]


def make_environment(name: str, n: int, eps: float | None = None,
                     target: int | None = None, alpha: float = 0.1,
                     c: float | None = None, samples: int = 1000,
                     stream_space: str = "star", radius_law=None) -> EnvSpec:
    """Build a named environment; family parameters are checked here."""
    if name == "star-ex42":
        adv = StarCounterAdversary(n)
        return EnvSpec(adv.space, adv.hclass, shared=adv)
    if name == "appE":
        adv = ProbingAdversary(n, target=target, c=c, samples=samples)
        return EnvSpec(adv.space, adv.hclass, shared=adv)
    if name in ("appG", "appI", "appJ", "appK"):
        if eps is None:
            raise ParameterError(f"{name} needs eps")
        tgt = 0 if target is None else target
        cls = {"appG": SphereRadiusFamily, "appI": SphereRankFamily,
               "appJ": StarSpokeFamily, "appK": PrefixSetFamily}[name]
        if name in ("appG", "appI"):
            fam = cls(n, eps, target=tgt, alpha=alpha)
        else:
            fam = cls(n, eps, target=tgt)
        return EnvSpec(fam.space, fam.hclass, shared=fam)
    if name == "random-realizable":
        if stream_space not in _STREAM_SPACES:
            raise ParameterError(f"unknown stream space {stream_space!r}")
        _check_n(f"{name} on {stream_space}", n, 2 if stream_space.startswith("sphere") else 1)
        space = _STREAM_SPACES[stream_space](n, alpha)
        if stream_space == "star":
            hclass = HypothesisClass([matrix_point(i) for i in range(1, n + 1)])
        else:
            hclass = HypothesisClass([basis(i) for i in range(n)])
        if isinstance(radius_law, str):
            radius_law = parse_radius_law(radius_law)
        tgt = (n - 1) if target is None else target
        if not 0 <= tgt < len(hclass):
            raise ParameterError("target index out of range")
        return EnvSpec(space, hclass, stream_args=(tgt, radius_law))
    raise KeyError(f"unknown environment {name!r}; known: {environment_names()}")

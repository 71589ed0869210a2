"""Learning algorithms: version-space eliminators and PAC wrappers.

The four base learners share one version space, the class indices still
consistent with the mistake rounds seen so far, and each adds a choice rule
and one of two cuts: the distance cut for ball manipulations, or the label
cut of ``seq-elim``, valid for any manipulation set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .core.geometry import TOL, randbelow
from .core.response import Ball, ManipulationSet
from .protocol import ContractViolation, Exposure, Learner, RealizabilityError, Setting


class _VersionSpaceLearner(Learner):
    """Shared machinery: the version space, cut on mistake rounds by ``_keep``.

    ``alive`` is the sorted list of class indices still consistent.  The
    default cut is the distance cut: a mistake at (x, f), with x the feedback's
    original feature, orders the class by distance to x and cuts on the side
    of d(x, f), the distance to f's nearest part.  A missed positive proves the
    target closer than f, a false positive proves it farther.
    """

    requires = Setting.XD_AFTER
    manipulation = Ball

    def reset(self, hclass, space, setting, rng):
        self.hclass = hclass
        self.rng = rng
        self.index = hclass.distance_index(space)
        self.alive = list(range(len(hclass)))
        self.rounds_seen = 0
        self._version = 0
        self._last_choice = None

    @property
    def alive_indices(self) -> tuple:
        return tuple(self.alive)

    def state_version(self):
        return self._version

    def observe(self, feedback):
        self.rounds_seen += 1
        if not feedback.mistake:
            return
        survivors = self._keep(feedback)
        if not survivors:
            raise RealizabilityError(
                self.rounds_seen, "version space emptied; stream is not realizable")
        if len(survivors) != len(self.alive):
            self.alive = survivors
            self._version += 1
            self._shrunk()

    def _keep(self, feedback):
        """The alive members consistent with a mistake round's feedback."""
        row = self.index.row(feedback.x)
        d_f = min(row[i] for i in feedback.predictor.parts)
        keep = (row < d_f - TOL if feedback.y == 1 else row > d_f + TOL).tolist()
        return [i for i in self.alive if keep[i]]

    def _shrunk(self):
        """Update derived state after the version space shrank."""

    def settled(self):
        # one member left: no correct round can change the version space
        return (self.hclass[self.alive[0]], math.inf) if len(self.alive) == 1 else None

    def skip(self, m):
        self.rounds_seen += m
        self._last_choice = self.hclass[self.alive[0]]

    def run_correct(self, context, wrong, m):
        # observe on a correct round only counts it
        choose = self.choose
        for k in range(m):
            f = choose(context)
            if wrong(f):
                self.rounds_seen += k
                return k, f
        self.rounds_seen += m
        return m, None

    def finalize(self):
        if self._last_choice is not None:
            return self._last_choice
        return self.hclass.union((self.alive[0],))


class MedianHalvingLearner(_VersionSpaceLearner):
    """Plays the alive hypothesis whose distance to the revealed x is the median.

    Needs the original feature before choosing, and ball manipulations.  Each
    mistake then removes at least half of the version space, so mistakes are
    bounded by ceil(log2 |H|).
    """

    name = "halving"
    conservative = True
    requires = Setting.X_BEFORE

    def reset(self, hclass, space, setting, rng):
        if setting is not Setting.X_BEFORE:
            raise ContractViolation("halving needs the original feature before choosing")
        super().reset(hclass, space, setting, rng)
        self._mask = None  # the alive members, once some member is eliminated

    def choose(self, context):
        if context is None:
            raise ContractViolation("halving called without a revealed feature")
        ranked = self.index.order(context)
        if self._mask is not None:  # take/compress: fancy indexing by int32 is slower
            ranked = ranked.compress(self._mask.take(ranked))
        chosen = int(ranked[(ranked.size + 1) // 2 - 1])  # 1-indexed rank ceil(m/2)
        self._last_choice = self.hclass.union((chosen,))
        return self._last_choice

    def _shrunk(self):
        self._mask = np.zeros(len(self.hclass), dtype=bool)
        self._mask[self.alive] = True


_TOP_BIT_SET = bytes(range(128, 256))


class RandomVersionSpaceLearner(_VersionSpaceLearner):
    """Uniform random alive hypothesis each round; eliminates on mistake rounds only."""

    name = "mwmr"
    conservative = True
    exposes = Exposure.DISTRIBUTION

    def choose(self, context):
        alive = self.alive
        self._last_choice = self.hclass[alive[randbelow(self.rng, len(alive))]]
        return self._last_choice

    def skip(self, m):
        super().skip(m)
        # choose's randbelow(rng, 1) reads 32-bit words until one has its top
        # bit clear (getrandbits(1) is word >> 31); each draw still due reads
        # at least one word, so read that many at once, in chunks, and count
        # the draws they end
        getrandbits = self.rng.getrandbits
        while m:
            need = min(m, 1 << 16)
            words = getrandbits(32 * need).to_bytes(4 * need, "little")
            m -= len(words[3::4].translate(None, _TOP_BIT_SET))

    def predictor_distribution(self):
        p = 1.0 / len(self.alive)
        return [(self.hclass[i], p) for i in self.alive]


class RandomUnionLearner(_VersionSpaceLearner):
    """Plays a union of randomly sampled alive hypotheses; improper output.

    Each round draws a size k uniformly from {1, 2, 4, ..., 2^(floor(log2 n)-1)}
    (k = 1 when a single hypothesis remains), then k members i.i.d. with
    replacement, and predicts their union.  Mistake rounds eliminate by the
    shared distance cut, with d(x, f) the minimum over parts.  The final
    output unions two hypotheses sampled from the version space entering a
    uniformly random past round (round 1 when no round was seen).
    """

    name = "random-union"
    conservative = False
    exposes = Exposure.DISTRIBUTION

    def reset(self, hclass, space, setting, rng):
        super().reset(hclass, space, setting, rng)
        self._segments = [(1, tuple(self.alive))]  # version space entering round t

    @staticmethod
    def _draw_k(n_t: int, rng: random.Random) -> int:
        if n_t <= 1:
            return 1
        return 1 << rng.randint(0, n_t.bit_length() - 2)

    def choose(self, context):
        self._last_choice = self.sample_predictor(self.rng)
        return self._last_choice

    def skip(self, m):
        super().skip(m)
        # k = 1 takes no draw; choices(alive, k=1) one random(): two 32-bit words
        for lo in range(0, m, 1 << 16):  # as 64 bits of getrandbits, in chunks
            self.rng.getrandbits(64 * min(m - lo, 1 << 16))

    def _shrunk(self):
        self._segments.append((self.rounds_seen + 1, tuple(self.alive)))

    def version_space_before(self, t: int) -> tuple:
        members = self._segments[0][1]
        for start, alive in self._segments:
            if start > t:
                break
            members = alive
        return members

    def finalize(self):
        rng = self.rng
        tau = rng.randint(1, self.rounds_seen) if self.rounds_seen else 1
        members = self.version_space_before(tau)
        h1, h2 = rng.choices(members, k=2)
        return self.hclass.union((h1, h2))

    def sample_predictor(self, rng):
        k = self._draw_k(len(self.alive), rng)
        return self.hclass.union(tuple(rng.choices(self.alive, k=k)))


class SequentialElimination(_VersionSpaceLearner):
    """Tries class members in index order, discarding one per mistake.

    Works in every setting and for any manipulation set, since its cut reads
    only the label and the prediction: it plays singletons, so a mistake
    removes the member played.  At most |H| - 1 mistakes on realizable streams.
    """

    name = "seq-elim"
    conservative = True
    requires = Setting.BLIND
    manipulation = ManipulationSet
    exposes = Exposure.DETERMINISTIC

    def choose(self, context):
        self._last_choice = self.hclass[self.alive[0]]
        return self._last_choice

    def _keep(self, feedback):
        played = feedback.predictor.parts
        return [i for i in self.alive if i not in played]

    def settled(self):
        return self.hclass[self.alive[0]], math.inf

    def finalize(self):
        return self.hclass[self.alive[0]]

    def predictor_distribution(self):
        return [(self.hclass[self.alive[0]], 1.0)]


def _check_accuracy(epsilon: float, delta: float) -> None:
    """Reject PAC parameters outside 0 < epsilon <= 1 and 0 < delta < 1."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must satisfy 0 < epsilon <= 1, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must satisfy 0 < delta < 1, got {delta}")


@dataclass
class SurvivorConfig:
    """Parameters of the mistake-bound to PAC conversion.

    ``budget`` bounds how many distinct predictors the wrapped conservative
    learner can emit; the output is the first predictor surviving
    ceil((1/epsilon) * ln(budget/delta)) consecutive rounds.
    """

    budget: int
    epsilon: float
    delta: float
    threshold: int = field(init=False)

    def __post_init__(self):
        _check_accuracy(self.epsilon, self.delta)
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        self.threshold = math.ceil(math.log(self.budget / self.delta) / self.epsilon)

    @property
    def recommended_rounds(self) -> int:
        return self.budget * self.threshold


class LongestSurvivor(Learner):
    """PAC wrapper: output the first predictor the base keeps for long enough.
    A base that chooses from x changes its choice with x on rounds without a
    mistake, so no predictor would survive: it is rejected."""

    name = "survivor"
    conservative = True

    def __init__(self, base: Learner, config: SurvivorConfig):
        if not base.conservative:
            raise ContractViolation("longest-survivor needs a conservative base learner")
        if base.requires is Setting.X_BEFORE:
            raise ContractViolation(f"longest-survivor needs a base that chooses "
                                    f"without x; {base.name} chooses from x")
        self.base = base
        self.config = config
        self.name = f"survivor:{base.name}"
        self.requires = base.requires
        self.manipulation = base.manipulation
        self.exposes = base.exposes

    def reset(self, hclass, space, setting, rng):
        self.base.reset(hclass, space, setting, rng)
        self._streak = 0
        self._prev_key = None
        self._last = None
        self._frozen = None

    def choose(self, context):
        f = self.base.choose(context)
        self._played(f, 1)
        return f

    def _played(self, f, m):
        """Record that f was played on m consecutive rounds."""
        key = f.key()
        self._streak = (self._streak if key == self._prev_key else 0) + m
        self._prev_key = key
        self._last = f
        if self._frozen is None and self._streak >= self.config.threshold:
            self._frozen = f

    def observe(self, feedback):
        self.base.observe(feedback)

    def settled(self):
        return self.base.settled()

    def skip(self, m):
        f = self.base.settled()[0]
        self.base.skip(m)
        self._played(f, m)

    def finalize(self):
        if self._frozen is not None:
            return self._frozen
        # before any round there is no choice yet: the base's output stands
        return self._last if self._last is not None else self.base.finalize()

    def predictor_distribution(self):
        return self.base.predictor_distribution()

    def state_version(self):
        return self.base.state_version()

    @property
    def alive_indices(self):
        return self.base.alive_indices


@dataclass
class BoostConfig:
    """Confidence amplification parameters: rounds = ceil(ln(2/delta)) and
    validation size m0 = ceil(3 ln(4 R / delta) / (2 epsilon))."""

    epsilon: float
    delta: float
    base_rounds: int
    outer_rounds: int = field(init=False)
    validation_rounds: int = field(init=False)

    def __post_init__(self):
        _check_accuracy(self.epsilon, self.delta)
        if self.base_rounds < 1:
            raise ValueError(f"base_rounds must be at least 1, got {self.base_rounds}")
        self.outer_rounds = math.ceil(math.log(2.0 / self.delta))
        self.validation_rounds = math.ceil(
            3.0 * math.log(4.0 * self.outer_rounds / self.delta) / (2.0 * self.epsilon))

    @property
    def max_rounds(self) -> int:
        return self.outer_rounds * (self.base_rounds + self.validation_rounds)


class BoostLearner(Learner):
    """Amplifies an expected-loss base learner to a high-probability one.

    Repeats up to R times: run a fresh base for its round budget, then apply
    its output for m0 validation rounds; accept as soon as the empirical
    strategic loss is at most 4 epsilon.  If every candidate fails, fall back
    to class index 0.
    """

    name = "boost"
    conservative = False

    def __init__(self, base_factory, config: BoostConfig):
        self.base_factory = base_factory
        self.config = config
        probe = base_factory()
        self.name = f"boost:{probe.name}"
        self.requires = probe.requires
        self.manipulation = probe.manipulation

    def reset(self, hclass, space, setting, rng):
        self.hclass = hclass
        self._args = (hclass, space, setting, rng)
        self._outer = 1
        self._phase = "base"
        self._base = self.base_factory()
        self._base.reset(*self._args)
        self._base_count = 0
        self._candidate = None
        self._val_count = 0
        self._val_errors = 0
        self._accepted = None

    @property
    def finished(self):
        return self._phase == "done"

    def choose(self, context):
        if self._phase == "base":
            return self._base.choose(context)
        return self._candidate  # validating; run_online stops once finished

    def settled(self):
        if self._phase == "base":
            settled, left = self._base.settled(), self.config.base_rounds - self._base_count
        else:
            settled = (self._candidate, math.inf)
            left = self.config.validation_rounds - self._val_count
        if settled is None or left < 2:  # the round that ends a phase is played
            return None
        return settled[0], min(settled[1], left - 1)

    def skip(self, m):
        if self._phase == "base":
            self._base.skip(m)
            self._base_count += m
        else:
            self._val_count += m

    def observe(self, feedback):
        cfg = self.config
        if self._phase == "base":
            self._base.observe(feedback)
            self._base_count += 1
            if self._base_count >= cfg.base_rounds:
                self._candidate = self._base.finalize()
                self._phase = "validate"
                self._val_count = 0
                self._val_errors = 0
            return
        if self._phase == "validate":
            self._val_count += 1
            if feedback.mistake:
                self._val_errors += 1
            if self._val_count >= cfg.validation_rounds:
                if self._val_errors <= 4.0 * cfg.epsilon * cfg.validation_rounds + 1e-12:
                    self._accepted = self._candidate
                    self._phase = "done"
                elif self._outer >= cfg.outer_rounds:
                    self._accepted = self.hclass.union((0,))
                    self._phase = "done"
                else:
                    self._outer += 1
                    self._base = self.base_factory()
                    self._base.reset(*self._args)
                    self._base_count = 0
                    self._phase = "base"

    def finalize(self):
        if self._accepted is not None:
            return self._accepted
        if self._candidate is not None:
            return self._candidate
        return self.hclass.union((0,))


# ---------------------------------------------------------------------------
# registry

def default_union_rounds(n: int, epsilon: float) -> int:
    """Round budget under which the random-union learner reaches expected loss epsilon."""
    return math.ceil(320.0 * math.log2(n) * math.log(n) / epsilon)


_BASES = {
    "halving": MedianHalvingLearner,
    "mwmr": RandomVersionSpaceLearner,
    "random-union": RandomUnionLearner,
    "seq-elim": SequentialElimination,
}


def learner_names() -> list:
    return sorted(_BASES) + ["survivor:<base>", "boost:<base>"]


def make_learner(name: str, n: int | None = None, epsilon: float | None = None,
                 delta: float | None = None, base_rounds: int | None = None) -> Learner:
    """Build a learner from its registry name.

    Wrapper names compose as "survivor:<base>" and "boost:<base>"; wrapper
    parameters (epsilon, delta, base_rounds) fall back to the standard
    formulas, which need the class size n.
    """
    if name in _BASES:
        return _BASES[name]()
    wrapper, _, base_name = name.partition(":")
    if wrapper not in ("survivor", "boost") or base_name not in _BASES:
        raise KeyError(f"unknown learner {name!r}; known: {learner_names()}")
    if epsilon is None or delta is None:
        raise ValueError(f"{wrapper} wrapper needs epsilon and delta")
    if n is None and (wrapper == "survivor" or base_rounds is None):
        raise ValueError(f"{wrapper} wrapper needs the class size n")
    if wrapper == "survivor":
        # a conservative base that chooses without x plays at most n predictors
        cfg = SurvivorConfig(budget=n, epsilon=epsilon, delta=delta)
        return LongestSurvivor(_BASES[base_name](), cfg)
    if base_rounds is None:
        base_rounds = default_union_rounds(n, epsilon)
    cfg = BoostConfig(epsilon=epsilon, delta=delta, base_rounds=base_rounds)
    return BoostLearner(_BASES[base_name], cfg)

"""Test-only stand-ins and references.

``ConstantLearner`` is a stand-in learner that plays one predictor forever.
``distance_to_hypothesis`` is the reference distance from a point to a
predictor's positive region, computed point by point.
``strategic_loss_randomized`` is the expected strategic loss of a finite
mixture of predictors.  ``check_point`` raises ``PointNotInSpace`` for a
point that is not in a space.

These moved here from the library, where no run reads them:
``FiniteIIDSource``, an explicit finite-support agent distribution;
``validate_metric`` with ``EXHAUSTIVE_LIMIT`` and ``SAMPLED_TRIPLES``, a
check of the metric axioms; ``from_metric``, a ``MatrixSpace`` built from a
distance function; and ``to_jsonl``, the JSON-lines form of a transcript,
whose bytes the golden hashes pin.
"""

import json
import math
import random
from typing import Sequence

import numpy as np

from stratgame.core.geometry import TOL, MatrixSpace, MetricSpace, Point, PointNotInSpace
from stratgame.core.predictors import Hypothesis
from stratgame.core.response import Agent, TieBreak, manipulation_type, strategic_loss
from stratgame.environments import ParameterError
from stratgame.protocol import Exposure, Learner, Setting

# Metric validation: exhaustive triple check up to this many points, sampled
# triples beyond.
EXHAUSTIVE_LIMIT = 200
SAMPLED_TRIPLES = 100_000


class ConstantLearner(Learner):
    """Plays one fixed predictor forever; tests use it as a stand-in learner."""

    name = "constant"
    conservative = True
    requires = Setting.BLIND
    exposes = Exposure.DETERMINISTIC

    def __init__(self, predictor: Hypothesis):
        self.predictor = predictor

    def reset(self, hclass, space, setting, rng):
        pass

    def choose(self, context):
        return self.predictor

    def observe(self, feedback):
        pass

    def finalize(self):
        return self.predictor

    def predictor_distribution(self):
        return [(self.predictor, 1.0)]

    def state_version(self):
        return 0


def check_point(space: MetricSpace, p: Point) -> None:
    """Raise unless p is one of the space's points or, on a permutation
    sphere, a basis point, the origin when the sphere has it, or a sphere point."""
    if space.points is not None:
        inside = p in space.points
    else:
        inside = (p[0] == "basis" and 0 <= p[1] < space.n
                  or p[0] == "origin" and space.with_origin
                  or p[0] == "perm" and sorted(p[1]) == list(range(space.n)))
    if not inside:
        raise PointNotInSpace(f"point not in space: {p!r}")


def distance_to_hypothesis(space: MetricSpace, x: Point, f: Hypothesis) -> float:
    """min distance from x to the positive region; +inf when the region is empty.

    For unions this equals the minimum of the per-part distances.
    """
    check_point(space, x)
    if not f.positive:
        return math.inf
    dist = space.dist
    return min(dist(x, p) for p in f.positive)


def strategic_loss_randomized(space: MetricSpace,
                              mixture: Sequence[tuple],
                              agent: Agent) -> float:
    """Expected strategic loss of a finite mixture [(predictor, weight), ...]."""
    total = math.fsum(w for _, w in mixture)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {total!r}, not 1")
    return math.fsum(w * strategic_loss(space, f, agent) for f, w in mixture)


class FiniteIIDSource:
    """Explicit finite-support distribution over agents.

    Atoms are (agent, probability) pairs; weights must sum to 1 within
    1e-12 and the declared target must classify every atom correctly.
    """

    kind = "iid"
    tag = "finite"
    tie = TieBreak.FIXED_LOWEST

    def __init__(self, space, hclass, target, atoms):
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"atom probabilities sum to {total!r}, not 1")
        self.space = space
        self.hclass = hclass
        self.target = target
        self.atoms = tuple(atoms)
        self._agents = [a for a, _ in self.atoms]
        self.manipulation = manipulation_type(self._agents)
        self._cum = []
        acc = 0.0
        for _, p in self.atoms:
            acc += p
            self._cum.append(acc)
        h_star = hclass.union((target,))
        for agent, _ in self.atoms:
            if strategic_loss(space, h_star, agent) != 0:
                raise ParameterError(f"target misclassifies atom {agent!r}")

    def sample(self, rng: random.Random) -> Agent:
        u = rng.random()
        for agent, bound in zip(self._agents, self._cum):
            if u <= bound:
                return agent
        return self._agents[-1]

    def support(self):
        return self.atoms


def from_metric(points: Sequence[Point], fn) -> MatrixSpace:
    n = len(points)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = fn(points[i], points[j])
    return MatrixSpace(points, m)


def validate_metric(space: MetricSpace, rng: random.Random | None = None) -> None:
    """Check the metric axioms, raising ValueError on violation.

    Exhaustive over all triples for enumerable spaces up to 200 points;
    otherwise 1e5 sampled triples.
    """
    if space.enumerable and space.points is not None and len(space.points) <= EXHAUSTIVE_LIMIT:
        pts = space.points
        m = np.array([[space.dist(p, q) for q in pts] for p in pts]).reshape(len(pts), len(pts))
        # d(a,a), d(a,b) - d(b,a), d(a,b) and d(a,c) - d(a,b) - d(b,c) over all triples
        self_d, asym, d = np.diag(m), m - m.T, m
        excess = m[:, None, :] - m[:, :, None] - m[None, :, :]
    else:
        rng = rng or random.Random(0)
        rows = []
        for _ in range(SAMPLED_TRIPLES):
            a, b, c = (space.sample_point(rng) for _ in range(3))
            rows.append((space.dist(a, a), space.dist(a, b), space.dist(b, a),
                         space.dist(a, c), space.dist(b, c)))
        self_d, dab, dba, dac, dbc = np.array(rows).T
        asym, d, excess = dab - dba, dab, dac - dab - dbc
    for ok, message in ((np.abs(self_d) <= TOL, "d(a,a) != 0"),
                        (np.abs(asym) <= TOL, "asymmetric distance"),
                        (d >= -TOL, "negative distance"),
                        (excess <= TOL, "triangle inequality violated")):
        if not np.all(ok):
            raise ValueError(message)


def point_str(p: Point) -> str:
    tag = p[0]
    if tag == "origin":
        return "origin"
    if tag == "perm":
        return "perm:" + "-".join(str(v) for v in p[1])
    return f"{tag}:{p[1]}"


def predictor_indices(f: Hypothesis) -> list:
    """Sorted class indices of a union; [] encodes the all-negative predictor."""
    if f.parts is not None:
        return sorted(set(f.parts))
    if not f.positive:
        return []
    raise ValueError("predictor is not a class union; cannot serialize by index")


def to_jsonl(transcript) -> str:
    """One JSON line per round of a transcript's feedback."""
    def round_dict(fb) -> dict:
        d = {
            "t": fb.t,
            "setting": transcript.setting.value,
            "predictor": predictor_indices(fb.predictor),
            "y": fb.y,
            "y_hat": fb.y_hat,
            "mistake": fb.mistake,
        }
        if fb.has_x:
            d["x"] = point_str(fb.x)
        if fb.has_delta:
            d["delta"] = point_str(fb.delta)
        return d

    return "\n".join(json.dumps(round_dict(r), sort_keys=True)
                     for r in transcript.rounds)

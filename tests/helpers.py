"""Test-only stand-ins and references.

``ConstantLearner`` is a stand-in learner that plays one predictor forever.
``distance_to_hypothesis`` is the reference distance from a point to a
predictor's positive region, computed point by point.
``strategic_loss_randomized`` is the expected strategic loss of a finite
mixture of predictors.
"""

import math
from typing import Sequence

from stratgame.core.geometry import MetricSpace, Point
from stratgame.core.predictors import Hypothesis
from stratgame.core.response import Agent, strategic_loss
from stratgame.protocol import Exposure, Learner, Setting


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


def distance_to_hypothesis(space: MetricSpace, x: Point, f: Hypothesis) -> float:
    """min distance from x to the positive region; +inf when the region is empty.

    For unions this equals the minimum of the per-part distances.
    """
    space.check_point(x)
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

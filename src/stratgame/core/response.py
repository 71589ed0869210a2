"""Agents, manipulation sets, best response and the strategic loss.

An agent is a triple (x, u, y): original feature, manipulation set and true
label.  Facing a deployed predictor f, an agent that is predicted negative
at x moves to a positive point of its manipulation set if one exists (the
closest one, for ball manipulations) and stays put otherwise.  The loss of f
on the agent is the 0/1 error at the manipulated feature; it depends only on
whether u meets the positive region, never on which point ties resolve to.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from enum import Enum
from typing import Iterable

import numpy as np

from .geometry import MetricSpace, Point, TOL
from .predictors import Hypothesis


class ManipulationSet:
    """Base of the two kinds of manipulation set.

    Learners and sources declare a kind as one of these classes; the base
    itself stands for either kind, or a mix of both.
    """

    __slots__ = ()


class Ball(ManipulationSet):
    """Metric ball of the given radius around the agent's own feature."""

    __slots__ = ("radius",)

    def __init__(self, radius: float):
        if not radius >= 0:  # also rejects nan
            raise ValueError("ball radius must be nonnegative")
        self.radius = radius

    def __repr__(self):
        return f"Ball({self.radius!r})"

    def __eq__(self, other):
        return isinstance(other, Ball) and self.radius == other.radius


class Explicit(ManipulationSet):
    """An arbitrary finite manipulation set, listed point by point."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Point]):
        self.members = frozenset(members)

    def __repr__(self):
        return f"Explicit({sorted(self.members)!r})"

    def __eq__(self, other):
        return isinstance(other, Explicit) and self.members == other.members


def manipulation_type(agents: Iterable["Agent"]) -> type:
    """The kind every agent's set has (``Ball`` for no agents), or
    ``ManipulationSet`` for a mix."""
    kinds = {type(a.u) for a in agents} or {Ball}
    return kinds.pop() if len(kinds) == 1 else ManipulationSet


class Agent:
    """An agent (x, u, y): original feature, manipulation set and true label.

    Agents are values: nothing mutates one, or its manipulation set, after
    construction, so an agent kept for a span of rounds keeps its
    realizability verdict.  Its identity carries nothing: a source hands
    ``protocol.run_online`` a new agent or an old one alike.
    """

    __slots__ = ("x", "u", "y")

    def __init__(self, x: Point, u: ManipulationSet, y: int):
        if y not in (1, -1):
            raise ValueError("label must be +1 or -1")
        if isinstance(u, Explicit) and x not in u.members:
            raise ValueError("explicit manipulation sets must contain the agent's own feature")
        self.x = x
        self.u = u
        self.y = y

    def __repr__(self):
        return f"Agent(x={self.x!r}, u={self.u!r}, y={self.y:+d})"


class TieBreak(Enum):
    FIXED_LOWEST = "fixed-lowest"
    UNIFORM_RANDOM = "uniform-random"


def best_response(space: MetricSpace, agent: Agent, f: Hypothesis,
                  tie: TieBreak = TieBreak.FIXED_LOWEST,
                  rng: random.Random | None = None) -> Point:
    """The feature the agent presents against predictor f.

    Already-positive agents and agents whose manipulation set misses the
    positive region stay at x.  Ball agents move to the closest reachable
    positive point (ties by point order or uniformly at random); explicit
    agents pick any reachable positive point by the same policy, with no
    distance preference.  A point at distance d is reachable when
    d <= r + TOL, and it ties with the closest one when d <= dmin + TOL.
    """
    x = agent.x
    pos = f.positive
    u = agent.u
    if len(pos) == 1 and isinstance(u, Ball):  # compare with the point, no hashing
        (p,) = pos
        return p if x != p and space.dist(x, p) <= u.radius + TOL else x
    if x in pos:
        return x
    if isinstance(u, Ball):
        reach = u.radius + TOL
        dist = space.dist
        near = []
        dmin = math.inf
        for p in pos:
            d = dist(x, p)
            if d <= reach:
                near.append((p, d))
                if d < dmin:
                    dmin = d
        if not near:
            return x
        cutoff = dmin + TOL
        cand = [p for p, d in near if d <= cutoff]
    else:
        cand = list(u.members.intersection(pos))
        if not cand:
            return x
    if len(cand) == 1:
        return cand[0]
    if tie is TieBreak.FIXED_LOWEST:
        return min(cand)
    if rng is None:
        raise ValueError("uniform tie-breaking needs a randomness stream")
    cand.sort()  # decouple the draw from set iteration order
    return cand[rng.randrange(len(cand))]


def strategic_loss(space: MetricSpace, f: Hypothesis, agent: Agent) -> int:
    """0/1 loss of f at the agent's manipulated feature.

    Case split: a negative agent loses if predicted positive at x or able to
    reach the positive region; a positive agent loses only when predicted
    negative and unable to reach.  The value is tie-break invariant because
    it depends on u meeting the positive region, not on the point chosen.
    """
    x = agent.x
    pos = f.positive
    u = agent.u
    if len(pos) == 1 and isinstance(u, Ball):  # at the point, it meets the region
        (p,) = pos
        meets = x == p or space.dist(x, p) <= u.radius + TOL
    elif x in pos:
        return 1 if agent.y == -1 else 0
    elif isinstance(u, Ball):
        reach = u.radius + TOL
        dist = space.dist
        meets = False
        for p in pos:
            if dist(x, p) <= reach:
                meets = True
                break
    else:
        meets = not u.members.isdisjoint(pos)
    if agent.y == -1:
        return 1 if meets else 0
    return 0 if meets else 1


class _SupportColumns:
    """One kept support as arrays, with a reach column per positive point.

    Built from the support's own atoms (x, u, y and weight) at the first
    ``population_loss`` call on it.  The column of a point p is True where
    the atom meets p: a ``Ball`` atom at p or with d(x, p) <= radius + TOL,
    an ``Explicit`` atom whose set holds p.  Distances come from one
    ``space.dist_row(p, xs)``, which is ``dist(x, p)`` bit for bit: every
    space is symmetric (``MatrixSpace`` checks its matrix), and a test
    checks the sphere's basis-to-permutations row.
    """

    def __init__(self, space: MetricSpace, support):
        self.space = space
        self.support = support
        agents = [a for a, _ in support]
        k = len(agents)
        self.weights = np.fromiter((w for _, w in support), dtype=float, count=k)
        self.y_positive = np.fromiter((a.y == 1 for a in agents), dtype=bool, count=k)
        ball = [isinstance(a.u, Ball) for a in agents]
        self.is_ball = np.array(ball, dtype=bool)
        balls = list(itertools.compress(agents, ball))
        self.xs = tuple(a.x for a in balls)
        self.reach = np.fromiter((a.u.radius for a in balls), dtype=float,
                                 count=len(balls)) + TOL
        self.members = [a.u.members for a in agents if not isinstance(a.u, Ball)]
        self._columns: dict = {}

    def meets(self, p: Point) -> np.ndarray:
        col = self._columns.get(p)
        if col is None:
            col = np.zeros(len(self.weights), dtype=bool)
            if self.xs:
                near = self.space.dist_row(p, self.xs) <= self.reach
                # an atom at p meets it; every reach is at least TOL, so the
                # distance already says so unless d(p, p) exceeds TOL
                if not self.space.dist(p, p) <= TOL:
                    near[[k for k, x in enumerate(self.xs) if x == p]] = True
                col[self.is_ball] = near
            if self.members:
                col[~self.is_ball] = np.fromiter((p in m for m in self.members),
                                                 dtype=bool, count=len(self.members))
            self._columns[p] = col
        return col

    def loss(self, f: Hypothesis) -> float:
        meets = None
        for p in f.positive:
            col = self.meets(p)
            meets = col if meets is None else meets | col
        lose = self.y_positive if meets is None else meets != self.y_positive
        return math.fsum(self.weights[lose].tolist())


_kept_columns = weakref.WeakKeyDictionary()  # source -> _SupportColumns


def population_loss(space: MetricSpace, f: Hypothesis, source) -> float:
    """Exact expected strategic loss over an enumerable i.i.d. support.

    ``source`` must expose ``support()`` returning a sequence of (agent,
    probability) pairs, shared across calls, that callers must not change;
    sources with non-enumerable support return None there and must be
    estimated with the Monte Carlo estimator instead.

    The loss is ``math.fsum`` over the weights of the atoms f loses, read
    from reach columns kept beside the support (``_SupportColumns``): the
    same nonzero terms as summing ``w * strategic_loss`` atom by atom, so
    the same float.  The columns are kept with ``source`` as a weak key
    (any class instance without ``__eq__`` or ``__slots__`` can be one) and
    rebuilt when ``support()`` returns another object.
    """
    support = source.support()
    if support is None:
        raise ValueError("support is not enumerable; use monte_carlo_loss")
    cols = _kept_columns.get(source)
    if cols is None or cols.support is not support or cols.space is not space:
        cols = _kept_columns[source] = _SupportColumns(space, support)
    return cols.loss(f)

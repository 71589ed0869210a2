"""Built-in acceptance suite: one check per guaranteed bound.

Each criterion is a declaration: the fixed, seeded experiments whose bound
checks must all pass at their stated tolerances, or a check for a criterion
that runs no experiment.  ``Criterion.run`` times and reports it; ``run_all``
prints one PASS/FAIL line per criterion and is wired to the ``verify`` CLI
subcommand; the pytest suite asserts the same results.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .environments import make_environment
from .harness import ExperimentConfig, run_experiment
from .learners import SurvivorConfig, default_union_rounds, make_learner
from .oracle import exact_loss
from .protocol import Setting, run_online


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    elapsed_s: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.details} ({self.elapsed_s:.1f}s)"


@dataclass(frozen=True)
class Criterion:
    """An acceptance criterion.  ``configs`` holds (label, ExperimentConfig)
    pairs, with label None for a lone experiment; a criterion that runs none
    has a ``check`` returning (passed, details) instead."""

    name: str
    configs: tuple = ()
    check: Callable | None = None

    def run(self) -> CriterionResult:
        start = time.perf_counter()
        if self.check is not None:
            passed, details = self.check()
        else:
            passed, parts = True, []
            for label, cfg in self.configs:
                report = run_experiment(cfg)
                passed = passed and report.all_bounds_pass
                part = "; ".join(f"{b['name']}: observed {b['observed']:.4g} vs "
                                 f"{b['value']:.4g}" for b in report.bounds)
                parts.append(part if label is None else f"{label}: {part}")
            details = "; ".join(parts)
        return CriterionResult(self.name, passed, details, time.perf_counter() - start)


def _lone(**fields) -> tuple:
    return ((None, ExperimentConfig(**fields)),)


def _exact_construction_losses():
    eps = Fraction(1, 100)
    n, i = 5, 2

    def loss(env, region_points):
        return exact_loss(env, n, eps, i, region_points)

    checks = [
        # radius-coded sphere family: wrong singleton costs exactly 3 eps
        loss("appG", [("basis", 0)]) == 3 * eps,
        loss("appG", [("basis", i)]) == 0,
        # star family
        loss("appJ", []) == 1 - 3 * (n - 1) * eps,
        loss("appJ", [("idx", 0)]) == 3 * (n - 1) * eps,
        loss("appJ", [("idx", 1)]) == 3 * eps,
        loss("appJ", [("idx", i + 1)]) == 0,
        # prefix-set family
        loss("appK", []) == 1 - 6 * eps,
        loss("appK", [("idx", 0)]) == 6 * eps,
        loss("appK", [("idx", 1)]) == 3 * eps,
        loss("appK", [("idx", i + 1)]) == 0,
    ]
    return all(checks), f"{sum(checks)}/{len(checks)} exact identities hold"


def _property_suite():
    results = (_survival_sweep(), _informative_round_rate())
    return all(ok for ok, _ in results), "; ".join(note for _, note in results)


def _survival_sweep():
    """1000 short realizable runs across learners and environments: the
    target singleton always survives every update rule the environment's
    manipulation sets admit."""
    from .environments import (PrefixSetFamily, SphereRadiusFamily,
                               StarSpokeFamily)

    def stream(space_name):
        return lambda n, target, seed: make_environment(
            "random-realizable", n, target=target,
            stream_space=space_name).source_for_run(seed, 25)

    builders = {
        "star-stream": stream("star"),
        "basis-stream": stream("scaled-basis"),
        "appG": lambda n, target, seed: SphereRadiusFamily(n, 1.0 / (4 * n), target=target),
        "appJ": lambda n, target, seed: StarSpokeFamily(n, 1.0 / (4 * n), target=target),
        "appK": lambda n, target, seed: PrefixSetFamily(n, 0.12, target=target),
    }
    combos = []
    for learner_name in ("halving", "mwmr", "random-union", "seq-elim"):
        need = make_learner(learner_name).manipulation
        for env_kind, build in builders.items():
            if issubclass(build(4, 0, 0).manipulation, need):
                combos.append((learner_name, env_kind))
    runs_per_combo = math.ceil(1000 / len(combos))
    total = 0
    for combo_idx, (learner_name, env_kind) in enumerate(combos):
        setting = Setting.X_BEFORE if learner_name == "halving" else Setting.XD_AFTER
        if env_kind == "appK":
            setting = Setting.DELTA_ONLY
        for rep in range(runs_per_combo):
            seed = combo_idx * 100_003 + rep
            n = 4 + (rep % 5)
            source = builders[env_kind](n, rep % n, seed)
            learner = make_learner(learner_name)
            run_online(source, learner, setting, 25, seed, record="counts")
            if source.target not in learner.alive_indices:
                return False, f"target lost by {learner_name} on {env_kind}, seed {seed}"
            total += 1
    return True, f"target survived {total} runs"


def _informative_round_rate():
    """With a proper learner on the radius-coded family, rounds that pair a
    sphere draw with its matching singleton occur at rate 3 eps."""
    n, eps = 8, 0.01
    env = make_environment("appG", n, eps=eps, target=3)
    learner = make_learner("survivor:seq-elim", n=n, epsilon=0.1, delta=0.1)
    hits = total = 0
    for seed in range(10):
        transcript = run_online(env.source_for_run(seed, 5000), learner,
                                Setting.X_BEFORE, 5000, seed, record="full")
        for rec in transcript.rounds:
            total += 1
            x = rec.x
            if x[0] != "perm":
                continue
            zero_axis = x[1].index(0)
            parts = set(rec.predictor.parts)
            if parts == {zero_axis}:
                hits += 1
    p = 3 * eps
    rate = hits / total
    slack = 3.0 * math.sqrt(p * (1 - p) / total)
    ok = abs(rate - p) <= slack
    return ok, f"informative-round rate {rate:.5f} vs {p:.5f} +/- {slack:.5f}"


CRITERIA = (
    # Median halving stays within ceil(log2 n) mistakes on random streams.
    Criterion("halving-mistake-bound", _lone(
        env="random-realizable", learner="halving", setting="x-delta", n=1024,
        T=5000, seeds=list(range(200)), stream_space="star",
        bounds=[{"name": "halving-mistake-bound"}])),
    # Uniform version-space play stays below min(sqrt(4 ln(n) T), n-1) mistakes.
    Criterion("mwmr-expected-mistake-bound", (
        ("streams", ExperimentConfig(
            env="random-realizable", learner="mwmr", setting="x-delta-after", n=64,
            T=4096, seeds=list(range(1000)), stream_space="star",
            bounds=[{"name": "mwmr-expected-mistake-bound"}])),
        ("adversary", ExperimentConfig(
            env="appE", learner="mwmr", setting="x-delta-after", n=64, T=4096,
            seeds=list(range(1000)), bounds=[{"name": "mwmr-expected-mistake-bound"}])))),
    # The star counter forces n-1 mistakes in n-1 rounds from a deterministic learner.
    Criterion("star-counter-exact-mistakes", _lone(
        env="star-ex42", learner="seq-elim", setting="x-delta-after", n=50, T=49,
        seeds=list(range(10)), bounds=[{"name": "exact-mistake-count", "count": 49}])),
    # The probing adversary forces ~n-1 mistakes from the randomized learner.
    Criterion("probing-adversary-floor", _lone(
        env="appE", learner="mwmr", setting="x-delta-after", n=8,
        T=math.ceil(5 * 8 * math.log(8 / 0.25) * 7), seeds=list(range(200)),
        bounds=[{"name": "adversary-mistake-floor", "delta": 0.25, "fraction": 0.7}])),
    # The random-union learner reaches expected loss eps within its round budget.
    Criterion("random-union-expected-loss", _lone(
        env="appG", learner="random-union", setting="x-delta-after", n=16,
        T=default_union_rounds(16, 0.02), seeds=list(range(50)), env_eps=0.02,
        target=15, bounds=[{"name": "expected-loss", "eps": 0.02},
                           {"name": "union-round-budget", "eps": 0.02}])),
    # Boosted random-union output keeps loss <= 8 eps in >= 90% of runs.
    Criterion("boosted-union-loss", _lone(
        env="appG", learner="boost:random-union", setting="x-delta-after", n=8,
        T=make_learner("boost:random-union", n=8, epsilon=0.05, delta=0.1).config.max_rounds,
        seeds=list(range(300)), eps=0.05, delta=0.1, env_eps=0.04, target=7,
        bounds=[{"name": "loss-quantile", "limit": 8 * 0.05, "fraction": 0.9}])),
    # Survivor-wrapped elimination meets its PAC guarantee on the star family.
    Criterion("longest-survivor-loss", _lone(
        env="appJ", learner="survivor:seq-elim", setting="delta-only", n=16,
        T=SurvivorConfig(budget=16, epsilon=0.1, delta=0.1).recommended_rounds,
        seeds=list(range(400)), eps=0.1, delta=0.1, env_eps=0.02, target=15,
        bounds=[{"name": "loss-quantile", "limit": 0.1, "fraction": 0.9}])),
    # Construction losses match the closed forms exactly (rational oracle).
    Criterion("exact-construction-losses", check=_exact_construction_losses),
    # The paper's constructions at scale: target survival over 1003 short runs
    # and the informative-round rate of the radius-coded family.  The
    # implementation invariants are checked by the test suite.
    Criterion("property-suite", check=_property_suite),
)


def run_all(only: list | None = None) -> list:
    unknown = sorted(set(only or ()) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise ValueError(f"no criterion {unknown}; criteria are numbered 1 to {len(CRITERIA)}")
    results = []
    for idx, criterion in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        result = criterion.run()
        results.append(result)
        print(result.line())
    return results

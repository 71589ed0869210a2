"""Built-in acceptance suite: one check per guaranteed bound.

Each criterion runs a fixed, seeded experiment and verifies the bound at
its stated tolerance.  ``run_all`` prints one PASS/FAIL line per criterion
and is wired to the ``verify`` CLI subcommand; the pytest suite asserts the
same results.
"""

from __future__ import annotations

import math
import time
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


def _timed(fn):
    start = time.perf_counter()
    passed, details = fn()
    return passed, details, time.perf_counter() - start


def criterion_1_halving_mistake_bound() -> CriterionResult:
    """Median halving stays within ceil(log2 n) mistakes on random streams."""
    cfg = ExperimentConfig(
        env="random-realizable", learner="halving", setting="x-delta",
        n=1024, T=5000, seeds=list(range(200)), stream_space="star",
        bounds=[{"name": "halving-mistake-bound"}])
    passed, details, dt = _timed(lambda: _report_check(cfg))
    return CriterionResult("halving-mistake-bound", passed, details, dt)


def _report_check(cfg: ExperimentConfig):
    report = run_experiment(cfg)
    details = "; ".join(
        f"{b['name']}: observed {b['observed']:.4g} vs {b['value']:.4g}"
        for b in report.bounds)
    return report.all_bounds_pass, details


def criterion_2_mwmr_expectation_bound() -> CriterionResult:
    """Uniform version-space play stays below min(sqrt(4 ln(n) T), n-1) mistakes."""
    n, T = 64, 4096
    seeds = list(range(1000))
    stream_cfg = ExperimentConfig(
        env="random-realizable", learner="mwmr", setting="x-delta-after",
        n=n, T=T, seeds=seeds, stream_space="star",
        bounds=[{"name": "mwmr-expected-mistake-bound"}])
    adv_cfg = ExperimentConfig(
        env="appE", learner="mwmr", setting="x-delta-after",
        n=n, T=T, seeds=seeds,
        bounds=[{"name": "mwmr-expected-mistake-bound"}])

    def check():
        ok1, d1 = _report_check(stream_cfg)
        ok2, d2 = _report_check(adv_cfg)
        return ok1 and ok2, f"streams: {d1}; adversary: {d2}"

    passed, details, dt = _timed(check)
    return CriterionResult("mwmr-expected-mistake-bound", passed, details, dt)


def criterion_3_deterministic_floor() -> CriterionResult:
    """The star counter forces n-1 mistakes in n-1 rounds from a deterministic learner."""
    n = 50
    cfg = ExperimentConfig(
        env="star-ex42", learner="seq-elim", setting="x-delta-after",
        n=n, T=n - 1, seeds=list(range(10)),
        bounds=[{"name": "exact-mistake-count", "count": n - 1}])
    passed, details, dt = _timed(lambda: _report_check(cfg))
    return CriterionResult("star-counter-exact-mistakes", passed, details, dt)


def criterion_4_randomized_floor() -> CriterionResult:
    """The probing adversary forces ~n-1 mistakes from the randomized learner."""
    n, delta = 8, 0.25
    T = math.ceil(5 * n * math.log(n / delta) * (n - 1))
    cfg = ExperimentConfig(
        env="appE", learner="mwmr", setting="x-delta-after",
        n=n, T=T, seeds=list(range(200)), delta=delta,
        bounds=[{"name": "adversary-mistake-floor", "delta": delta,
                 "fraction": 0.7}])
    passed, details, dt = _timed(lambda: _report_check(cfg))
    return CriterionResult("probing-adversary-floor", passed, details, dt)


def criterion_5_union_learner_loss() -> CriterionResult:
    """The random-union learner reaches expected loss eps within its round budget."""
    n, eps = 16, 0.02
    T = default_union_rounds(n, eps)
    cfg = ExperimentConfig(
        env="appG", learner="random-union", setting="x-delta-after",
        n=n, T=T, seeds=list(range(50)), eps=eps, env_eps=eps, target=n - 1,
        bounds=[{"name": "expected-loss", "eps": eps},
                {"name": "union-round-budget", "eps": eps}])
    passed, details, dt = _timed(lambda: _report_check(cfg))
    return CriterionResult("random-union-expected-loss", passed, details, dt)


def criterion_6_boosting() -> CriterionResult:
    """Boosted random-union output keeps loss <= 8 eps in >= 90% of runs."""
    n, eps, delta = 8, 0.05, 0.1
    cfg = ExperimentConfig(
        env="appG", learner="boost:random-union", setting="x-delta-after",
        n=n, T=0, seeds=list(range(300)), eps=eps, delta=delta, env_eps=0.04,
        target=n - 1,
        bounds=[{"name": "loss-quantile", "limit": 8 * eps, "fraction": 0.9}])
    learner = make_learner(cfg.learner, n=n, epsilon=eps, delta=delta)
    cfg.T = learner.config.max_rounds
    passed, details, dt = _timed(lambda: _report_check(cfg))
    return CriterionResult("boosted-union-loss", passed, details, dt)


def criterion_7_longest_survivor() -> CriterionResult:
    """Survivor-wrapped elimination meets its PAC guarantee on the star family."""
    n, eps, delta = 16, 0.1, 0.1
    T = SurvivorConfig(budget=n, epsilon=eps, delta=delta).recommended_rounds
    cfg = ExperimentConfig(
        env="appJ", learner="survivor:seq-elim", setting="delta-only",
        n=n, T=T, seeds=list(range(400)),
        eps=eps, delta=delta, budget=n, env_eps=0.02, target=n - 1,
        bounds=[{"name": "loss-quantile", "limit": eps, "fraction": 0.9}])
    passed, details, dt = _timed(lambda: _report_check(cfg))
    return CriterionResult("longest-survivor-loss", passed, details, dt)


def criterion_8_exact_construction_losses() -> CriterionResult:
    """Construction losses match the closed forms exactly (rational oracle)."""
    def check():
        eps = Fraction(1, 100)
        n, i = 5, 2
        checks = []
        # radius-coded sphere family: wrong singleton costs exactly 3 eps
        checks.append(exact_loss("appG", n, eps, i, [("basis", 0)]) == 3 * eps)
        checks.append(exact_loss("appG", n, eps, i, [("basis", i)]) == 0)
        # star family
        checks.append(exact_loss("appJ", n, eps, i, []) == 1 - 3 * (n - 1) * eps)
        checks.append(exact_loss("appJ", n, eps, i, [("idx", 0)]) == 3 * (n - 1) * eps)
        checks.append(exact_loss("appJ", n, eps, i, [("idx", 1)]) == 3 * eps)
        checks.append(exact_loss("appJ", n, eps, i, [("idx", i + 1)]) == 0)
        # prefix-set family
        checks.append(exact_loss("appK", n, eps, i, []) == 1 - 6 * eps)
        checks.append(exact_loss("appK", n, eps, i, [("idx", 0)]) == 6 * eps)
        wrong = exact_loss("appK", n, eps, i, [("idx", 1)])
        checks.append(wrong >= 3 * eps and wrong == 3 * eps)
        checks.append(exact_loss("appK", n, eps, i, [("idx", i + 1)]) == 0)
        ok = all(checks)
        return ok, f"{sum(checks)}/{len(checks)} exact identities hold"

    passed, details, dt = _timed(check)
    return CriterionResult("exact-construction-losses", passed, details, dt)


def criterion_9_property_suite() -> CriterionResult:
    """The paper's constructions at scale: target survival over 1003 short
    runs and the informative-round rate of the radius-coded family.  The
    implementation invariants are checked by the test suite."""
    def check():
        notes = []
        ok = _survival_sweep(notes)
        ok = _informative_round_rate(notes) and ok
        return ok, "; ".join(notes)

    passed, details, dt = _timed(check)
    return CriterionResult("property-suite", passed, details, dt)


def _survival_sweep(notes) -> bool:
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
                return False
            total += 1
    notes.append(f"target survived {total} runs")
    return True


def _informative_round_rate(notes) -> bool:
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
    notes.append(f"informative-round rate {rate:.5f} vs {p:.5f} +/- {slack:.5f}")
    return ok


CRITERIA = [
    criterion_1_halving_mistake_bound,
    criterion_2_mwmr_expectation_bound,
    criterion_3_deterministic_floor,
    criterion_4_randomized_floor,
    criterion_5_union_learner_loss,
    criterion_6_boosting,
    criterion_7_longest_survivor,
    criterion_8_exact_construction_losses,
    criterion_9_property_suite,
]


def run_all(only: list | None = None) -> list:
    unknown = sorted(set(only or ()) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise ValueError(f"no criterion {unknown}; criteria are numbered 1 to {len(CRITERIA)}")
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        result = fn()
        results.append(result)
        print(result.line())
    return results

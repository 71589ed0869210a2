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

from .core.response import strategic_loss
from .environments import make_environment
from .harness import ExperimentConfig, monte_carlo_loss, run_experiment
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
    """Cross-cutting invariants at scale: target survival, halving
    contraction, union-distance identity, loss/mistake agreement,
    conservative replay, estimator agreement, informative-round rate."""
    def check():
        notes = []
        ok = _survival_sweep(notes)
        ok = _halving_contraction(notes) and ok
        ok = _distance_to_union_identity(notes) and ok
        ok = _loss_mistake_agreement(notes) and ok
        ok = _conservative_replay(notes) and ok
        ok = _mc_oracle_agreement(notes) and ok
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


def _halving_contraction(notes) -> bool:
    """Every halving mistake at least halves the version space."""
    from .protocol import RngStreams, run_round

    checked = 0
    for seed in range(40):
        n = 8 << (seed % 3)
        env = make_environment("random-realizable", n, stream_space="star",
                               target=n - 1)
        src = env.source_for_run(seed, 80)
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
                if len(lrn.alive_indices) > before // 2:
                    notes.append(f"contraction violated at seed {seed} round {t}")
                    return False
                checked += 1
        if mistakes > math.ceil(math.log2(n)):
            notes.append(f"halving exceeded its bound at seed {seed}")
            return False
    notes.append(f"halving halved the version space on {checked} mistakes")
    return True


def _distance_to_union_identity(notes) -> bool:
    """d(x, f or g) equals the minimum of the two distances."""
    import random as _random

    from .core.geometry import ScaledBasisSpace, StarSpace, basis, matrix_point
    from .core.predictors import HypothesisClass, distance_to_hypothesis

    rng = _random.Random(0)
    spaces = [
        (StarSpace(9), HypothesisClass([matrix_point(i) for i in range(1, 10)])),
        (ScaledBasisSpace(6), HypothesisClass([basis(i) for i in range(6)])),
    ]
    for space, hclass in spaces:
        pts = space.points
        for _ in range(2000):
            x = pts[rng.randrange(len(pts))]
            f = hclass.union(tuple(rng.sample(range(len(hclass)), 2)))
            g = hclass.union(tuple(rng.sample(range(len(hclass)), 2)))
            both = hclass.union(tuple(set(f.parts) | set(g.parts)))
            lhs = distance_to_hypothesis(space, x, both)
            rhs = min(distance_to_hypothesis(space, x, f),
                      distance_to_hypothesis(space, x, g))
            if abs(lhs - rhs) > 1e-9:
                notes.append(f"union distance identity failed at {x}")
                return False
    notes.append("union-distance identity held on 4000 samples")
    return True


def _loss_mistake_agreement(notes) -> bool:
    """The 4-case loss equals the protocol-level mistake flag every round.

    Agents are replayed from the run's named agent stream, so the loss is
    evaluated on exactly the agent each round saw.
    """
    import random as _random

    checked = 0
    for tag, setting in (("appJ", Setting.XD_AFTER), ("appK", Setting.DELTA_ONLY)):
        env = make_environment(tag, 6, eps=0.02, target=5)
        learner_name = "mwmr" if tag == "appJ" else "seq-elim"
        for seed in range(10):
            lrn = make_learner(learner_name)
            tr = run_online(env.source_for_run(seed, 300), lrn, setting,
                            300, seed)
            rng = _random.Random(f"{seed}:agent")
            for rec in tr.rounds:
                agent = env.shared.sample(rng)
                if bool(strategic_loss(env.space, rec.predictor, agent)) != rec.mistake:
                    notes.append(f"loss/mistake disagreement {tag} seed {seed} t={rec.t}")
                    return False
                checked += 1
    notes.append(f"loss equalled the mistake flag on {checked} rounds")
    return True


def _conservative_replay(notes) -> bool:
    """Withholding correct-round feedback leaves flagged learners unchanged."""
    env = make_environment("random-realizable", 10, stream_space="star",
                           target=9)
    for name, setting in (("halving", Setting.X_BEFORE),
                          ("mwmr", Setting.XD_AFTER),
                          ("seq-elim", Setting.DELTA_ONLY)):
        for seed in range(5):
            seqs = []
            for withhold in (False, True):
                lrn = make_learner(name)
                tr = run_online(env.source_for_run(seed, 120), lrn, setting,
                                120, seed, withhold_correct=withhold)
                seqs.append([tuple(r.predictor.parts) for r in tr.rounds])
            if seqs[0] != seqs[1]:
                notes.append(f"replay mismatch for {name} at seed {seed}")
                return False
    notes.append("conservative replay identity held for 3 learners x 5 seeds")
    return True


def _mc_oracle_agreement(notes) -> bool:
    """Monte Carlo losses match the exact oracle within 4 standard errors."""
    N = 100_000
    checked = 0
    for tag, n, eps in (("appG", 6, 0.01), ("appI", 6, 0.02),
                        ("appJ", 6, 0.02), ("appK", 6, 0.05)):
        env = make_environment(tag, n, eps=eps, target=2)
        family = env.family
        for parts in ((0,), (1, 3), (2,), (0, 1, 3, 4)):
            f = family.hclass.union(parts)
            exact = float(exact_loss(tag, n, Fraction(eps), 2, f))
            est, _ = monte_carlo_loss(family.space, f, family, N, seed=checked)
            slack = 4.0 * math.sqrt(max(exact * (1 - exact), 1e-12) / N)
            if abs(est - exact) > slack + 1e-12:
                notes.append(f"MC mismatch {tag}{parts}: {est} vs {exact}")
                return False
            checked += 1
    notes.append(f"MC vs oracle agreed on {checked} pairs")
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
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        result = fn()
        results.append(result)
        print(result.line())
    return results

"""The benchmark's four workloads, each built from a seed base.

Three are acceptance criteria's own configurations run through
``run_experiment(cfg, threads=1)`` on a batch of seeds; the fourth is the
exact-oracle referee.  Seed counts are the benchmark's: small enough that one
repetition takes a few seconds, so a run repeats it in fresh interpreters.

stratgame is imported inside the methods: ``run.py`` imports this module
without it, and in a repetition's interpreter the import counts toward the
measured set-up time.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    kind: str  # "simulation" or "referee"
    batch: int  # seeds per repetition (simulation) or draws per Monte Carlo query
    tiny_batch: int


WORKLOADS = {w.name: w for w in (
    Workload("halving-star", "simulation", 8, 1),
    Workload("boost-union-appG", "simulation", 2, 1),
    Workload("mwmr-probe-appE", "simulation", 24, 1),
    Workload("referee-exact", "referee", 2000, 300),
)}


def now() -> float:
    """CLOCK_MONOTONIC seconds, the clock ``run.py`` shares with every repetition."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """What one repetition produced, for the correctness gate and the metrics."""

    rows: list  # deterministic per-seed or per-query results
    attempted: int
    failed: int
    t_start: float  # ``now()`` when the timed part began
    wall_s: float
    work: dict = field(default_factory=dict)  # counts and timers behind the rates
    errors: list = field(default_factory=list)


def build(name: str, seed: int, tiny: bool = False):
    spec = WORKLOADS[name]
    batch = spec.tiny_batch if tiny else spec.batch
    if spec.kind == "referee":
        return Referee(seed, batch)
    return Simulation(name, seed, batch)


class Simulation:
    """One acceptance criterion's configuration on ``batch`` seeds."""

    def __init__(self, name: str, seed: int, batch: int):
        self.name = name
        self.seeds = list(range(seed * batch, (seed + 1) * batch))

    def _config(self):
        from stratgame.harness import ExperimentConfig
        from stratgame.learners import make_learner

        if self.name == "halving-star":
            return ExperimentConfig(
                env="random-realizable", learner="halving", setting="x-delta",
                n=1024, T=5000, seeds=self.seeds, stream_space="star",
                bounds=[{"name": "halving-mistake-bound"}])
        if self.name == "mwmr-probe-appE":
            return ExperimentConfig(
                env="appE", learner="mwmr", setting="x-delta-after",
                n=64, T=4096, seeds=self.seeds,
                bounds=[{"name": "mwmr-expected-mistake-bound"}])
        n, eps, delta = 8, 0.05, 0.1
        cfg = ExperimentConfig(
            env="appG", learner="boost:random-union", setting="x-delta-after",
            n=n, T=0, seeds=self.seeds, eps=eps, delta=delta, env_eps=0.04,
            target=n - 1,
            bounds=[{"name": "loss-quantile", "limit": 8 * eps, "fraction": 0.9}])
        cfg.T = make_learner(cfg.learner, n=n, epsilon=eps, delta=delta).config.max_rounds
        return cfg

    def setup(self) -> None:
        from stratgame.environments import make_environment

        cfg = self.cfg = self._config()
        self.env = make_environment(
            cfg.env, cfg.n, eps=cfg.family_eps(), target=cfg.target, alpha=cfg.alpha,
            c=cfg.c, samples=cfg.estimation_samples, stream_space=cfg.stream_space,
            radius_law=cfg.radius_law)

    def run(self) -> Outcome:
        from stratgame.harness import run_experiment

        k = len(self.seeds)
        start = now()
        try:
            report = run_experiment(self.cfg, threads=1)
        except Exception:  # a raising experiment fails every seed it ran
            return Outcome([], k, k, start, now() - start,
                           errors=[traceback.format_exc()],
                           work={"rounds": 0, "stream_agents": self.cfg.T})
        wall = now() - start
        rows = [[r["seed"], r["mistakes"], r["rounds"], r["output_loss"]]
                for r in report.rows]
        errors = [f"bound {b['name']} FAIL: observed {b['observed']} vs {b['value']}"
                  for b in report.bounds if not b["pass"]]
        rounds = sum(r["rounds"] for r in report.rows)
        return Outcome(rows, k, k if errors else 0, start, wall, errors=errors,
                       work={"rounds": rounds, "stream_agents": self.cfg.T})


class Referee:
    """Exact-oracle checks of every region on the four hard families at n=7.

    Per family (target 2): each singleton, the unions (1,3) and (0,1,3,4),
    the anchor (origin or hub; appI has none) and the all-negative predictor.
    Each query must satisfy: ``exact_loss == analytic_union_loss`` exactly
    for class unions, ``population_loss`` within 1e-12 of the exact value,
    and ``monte_carlo_loss`` within 4 standard errors of it.
    """

    N_DIM = 7
    TARGET = 2
    FAMILIES = (("appG", 0.01), ("appI", 0.02), ("appJ", 0.02), ("appK", 0.05))
    UNIONS = ((1, 3), (0, 1, 3, 4))

    def __init__(self, seed: int, samples: int):
        self.seed = seed
        self.samples = samples
        self.on_query = None  # called with each query's Monte Carlo seed

    def setup(self) -> None:
        from stratgame.environments import make_environment

        self.envs = {tag: make_environment(tag, self.N_DIM, eps=eps, target=self.TARGET)
                     for tag, eps in self.FAMILIES}

    def queries(self) -> list:
        """(tag, eps, label, predictor, class parts or None) per query."""
        from stratgame.core.geometry import ORIGIN, matrix_point
        from stratgame.core.predictors import ALL_NEGATIVE, Hypothesis

        anchors = {"appG": ORIGIN, "appJ": matrix_point(0), "appK": matrix_point(0)}
        out = []
        for tag, eps in self.FAMILIES:
            hclass = self.envs[tag].hclass
            for parts in [(i,) for i in range(self.N_DIM)] + list(self.UNIONS):
                out.append((tag, eps, "union" + "-".join(map(str, parts)),
                            hclass.union(parts), parts))
            if tag in anchors:
                out.append((tag, eps, "anchor", Hypothesis((anchors[tag],)), None))
            out.append((tag, eps, "all-negative", ALL_NEGATIVE, None))
        return out

    def run(self) -> Outcome:
        from stratgame import harness, oracle
        from stratgame.core import response

        n, target, N = self.N_DIM, self.TARGET, self.samples
        queries = self.queries()
        atoms = {tag: len(env.family.support()) for tag, env in self.envs.items()}
        clock = now
        rows, errors = [], []
        failed = oracle_calls = support_atoms = 0
        oracle_s = loss_s = 0.0
        start = clock()
        for q, (tag, eps, label, f, parts) in enumerate(queries):
            fam = self.envs[tag].family
            where = f"{tag} {label}"
            mc_seed = self.seed * 1000 + q
            if self.on_query is not None:
                self.on_query(mc_seed)
            try:
                t0 = clock()
                exact = oracle.exact_loss(tag, n, eps, target, f)
                t1 = clock()
                pop = response.population_loss(fam.space, f, fam)
                est, _ = harness.monte_carlo_loss(fam.space, f, fam, N, seed=mc_seed)
                t2 = clock()
                analytic = (None if parts is None
                            else oracle.analytic_union_loss(tag, n, eps, target, parts))
            except Exception:  # one bad query must not hide the others
                failed += 1
                errors.append(f"{where}: {traceback.format_exc()}")
                continue
            oracle_calls += 1
            oracle_s += t1 - t0
            loss_s += t2 - t1
            support_atoms += atoms[tag]
            p = float(exact)
            slack = 4.0 * math.sqrt(p * (1.0 - p) / N) + 1e-12
            bad = []
            if analytic is not None and analytic != exact:
                bad.append(f"analytic {analytic} != exact {exact}")
            if abs(pop - p) > 1e-12:
                bad.append(f"population_loss {pop!r} vs exact {p!r}")
            if abs(est - p) > slack:
                bad.append(f"monte_carlo_loss {est!r} outside {p!r} +/- {slack:.3g}")
            if bad:
                failed += 1
                errors.append(f"{where}: " + "; ".join(bad))
            rows.append([tag, label, str(exact), pop, est])
        wall = clock() - start
        return Outcome(rows, len(queries), failed, start, wall, errors=errors, work={
            "loss_evals": support_atoms + oracle_calls * N, "loss_s": loss_s,
            "oracle_queries": oracle_calls, "oracle_s": oracle_s,
            "mc_samples": N, "support_atoms": support_atoms})

"""Experiment runner: seeded simulations, bound checks and reports.

A config names an environment, a learner, a setting and a horizon, plus the
seeds to run and the bound formulas to evaluate.  Every seed produces one
row (mistakes, rounds, output loss for PAC runs); aggregates and bound
verdicts are pure functions of the rows, so equal rows give equal reports.
Seeds run in parallel, one worker per CPU this process may use, unless
``threads`` or STRATGAME_THREADS names another count; rows do not depend on
the worker count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

from .core.response import strategic_loss
from .environments import make_environment
from .learners import default_union_rounds, make_learner
from .oracle import ParameterError, analytic_union_loss
from .protocol import Setting, check_learner, run_online, run_pac

SCHEMA_VERSION = 4

# the learners that output a predictor: on an i.i.d. family their runs are
# pac runs, with an output loss; every other run is an online run
_PAC_LEARNERS = ("random-union",)
_PAC_PREFIXES = ("survivor:", "boost:")


@dataclass
class ExperimentConfig:
    env: str
    learner: str
    setting: str = "x-delta-after"
    n: int = 8
    T: int = 100
    seeds: list = field(default_factory=lambda: [0])
    eps: float | None = None
    delta: float | None = None
    env_eps: float | None = None
    target: int | None = None
    alpha: float = 0.1
    base_rounds: int | None = None
    c: float | None = None
    estimation_samples: int = 1000
    stream_space: str = "star"
    radius_law: str | None = None
    bounds: list = field(default_factory=list)

    def family_eps(self) -> float | None:
        return self.env_eps if self.env_eps is not None else self.eps


def _threads(threads: int | None) -> int:
    """The worker count: ``threads``, else STRATGAME_THREADS, else one per
    CPU in this process's affinity mask."""
    if threads is None:
        raw = os.environ.get("STRATGAME_THREADS")
        if raw is None:
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        if not (raw.isdecimal() and int(raw) > 0):
            raise ValueError(f"STRATGAME_THREADS must be a positive integer, got {raw!r}")
        return int(raw)
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    return threads


# The most recently used environment only: every seed of an experiment
# shares it (with its distance index), and a sweep that moves on to other
# parameters releases it.
_env_cache: dict = {}


_FAMILIES = ("appG", "appI", "appJ", "appK")

# The parameters that only some runs read, and the environments that read
# them, or for base_rounds the boost wrapper, named before the colon; a random
# stream reads alpha only on a sphere.  eps and delta have readers of their own.
_READERS = {"alpha": ("appG", "appI", "random-realizable"), "c": ("appE",),
            "estimation_samples": ("appE",), "stream_space": ("random-realizable",),
            "radius_law": ("random-realizable",), "env_eps": _FAMILIES,
            "target": ("appE", *_FAMILIES, "random-realizable"), "base_rounds": ("boost",)}


def _check_read(cfg: ExperimentConfig) -> None:
    """Reject a non-default parameter that the environment, the learner and
    the bounds all ignore."""
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if value == f.default:
            continue
        if f.name in ("eps", "delta"):
            # the wrappers read both, a family reads eps unless env_eps is set,
            # and a bound reads the config's value where its spec omits the key
            family = f.name == "eps" and cfg.env in _FAMILIES
            bound = any(f.name not in spec and BOUND_LIBRARY[spec["name"]][1].get(f.name)
                        == "cfg" for spec in cfg.bounds)
            who = (f"{cfg.env} (it reads env_eps), " if family else
                   f"{cfg.env}, " if f.name == "eps" else "") + cfg.learner
            if not (cfg.learner.startswith(_PAC_PREFIXES) or bound
                    or family and cfg.env_eps is None):
                raise ValueError(f"{who} and the bounds do not read {f.name}; leave "
                                 f"it at {f.default!r}, got {value!r}")
        elif f.name in _READERS:
            who = cfg.learner if f.name == "base_rounds" else cfg.env
            reads = who.partition(":")[0] in _READERS[f.name]
            if f.name == "alpha" and who == "random-realizable":
                who, reads = f"{who} on {cfg.stream_space}", cfg.stream_space.startswith("sphere")
            if not reads:
                raise ValueError(f"{who} does not read {f.name}; leave it at "
                                 f"{f.default!r}, got {value!r}")


def _env_args(cfg: ExperimentConfig) -> dict:
    return dict(name=cfg.env, n=cfg.n, eps=cfg.family_eps(), target=cfg.target,
                alpha=cfg.alpha, c=cfg.c, samples=cfg.estimation_samples,
                stream_space=cfg.stream_space, radius_law=cfg.radius_law)


def _environment(cfg: ExperimentConfig):
    args = _env_args(cfg)
    key = tuple(args.values())
    env = _env_cache.get(key)
    if env is None:
        _env_cache.clear()
        env = make_environment(**args)
        _env_cache[key] = env
    return env


def _learner(cfg: ExperimentConfig, class_size: int):
    return make_learner(cfg.learner, n=class_size, epsilon=cfg.eps,
                        delta=cfg.delta, base_rounds=cfg.base_rounds)


def _mode(cfg: ExperimentConfig, env) -> str:
    """'pac' when a learner that outputs a predictor plays an i.i.d. family,
    else 'online'."""
    pac = cfg.learner in _PAC_LEARNERS or cfg.learner.startswith(_PAC_PREFIXES)
    return "pac" if pac and env.family is not None else "online"


def monte_carlo_loss(space, f, source, N: int, seed: int) -> tuple:
    """Mean of N i.i.d. strategic-loss draws with its binomial standard error."""
    if N < 1:
        raise ValueError("need at least one sample")
    import random as _random
    rng = _random.Random(f"{seed}:mc")
    hits = sum(strategic_loss(space, f, source.sample(rng)) for _ in range(N))
    p = hits / N
    return p, math.sqrt(p * (1.0 - p) / N)


def output_loss(family, output) -> float:
    """Loss of a PAC output on one of the hard i.i.d. families, in closed form:
    every learner's output is a class member or a union of members."""
    return float(analytic_union_loss(family.tag, family.n, family.eps, family.target,
                                     output.parts))


def run_single_seed(cfg: ExperimentConfig, seed: int) -> dict:
    env = _environment(cfg)
    learner = _learner(cfg, len(env.hclass))
    source = env.source_for_run(seed, cfg.T)
    setting = Setting.from_name(cfg.setting)
    if _mode(cfg, env) == "pac":
        out, transcript = run_pac(source, learner, setting, cfg.T, seed, record="counts")
        loss = output_loss(env.family, out)
    else:
        transcript = run_online(source, learner, setting, cfg.T, seed, record="counts")
        loss = None
    return {"seed": seed, "mistakes": transcript.mistakes,
            "rounds": transcript.T, "output_loss": loss}


def _seed_worker(cfg_dict: dict, seed: int) -> dict:
    return run_single_seed(ExperimentConfig(**cfg_dict), seed)


# ---------------------------------------------------------------------------
# aggregation and bound formulas


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _stderr(xs) -> float:
    k = len(xs)
    if k < 2:
        return 0.0
    m = _mean(xs)
    var = sum((x - m) ** 2 for x in xs) / (k - 1)
    return math.sqrt(var / k)


def aggregate_rows(rows: list) -> dict:
    mk = [r["mistakes"] for r in rows]
    agg = {
        "seeds": len(rows),
        "mean_mistakes": _mean(mk),
        "stderr_mistakes": _stderr(mk),
        "min_mistakes": min(mk) if mk else 0,
        "max_mistakes": max(mk) if mk else 0,
    }
    losses = [r["output_loss"] for r in rows if r["output_loss"] is not None]
    if losses:
        agg.update({
            "mean_output_loss": _mean(losses),
            "stderr_output_loss": _stderr(losses),
            "min_output_loss": min(losses),
            "max_output_loss": max(losses),
        })
    return agg


def _bound_halving(cfg, params, rows, agg):
    value = float(math.ceil(math.log2(cfg.n)))
    observed = float(agg["max_mistakes"])
    return value, observed, observed <= value


def _bound_mwmr(cfg, params, rows, agg):
    value = min(math.sqrt(4.0 * math.log(cfg.n) * cfg.T), cfg.n - 1.0)
    observed = agg["mean_mistakes"] + 3.0 * agg["stderr_mistakes"]
    return value, observed, observed <= value + 1e-12


def _bound_adversary_floor(cfg, params, rows, agg):
    value = min(cfg.T / (5.0 * cfg.n * math.log(cfg.n / params["delta"])), cfg.n - 1.0)
    need = math.ceil(value - 1e-9)
    frac = _mean([1.0 if r["mistakes"] >= need else 0.0 for r in rows])
    return value, frac, frac >= params["fraction"]


def _bound_expected_loss(cfg, params, rows, agg):
    value = params["eps"]
    observed = agg["mean_output_loss"]
    slack = 3.0 * agg["stderr_output_loss"]
    return value, observed, observed <= value + slack + 1e-12


def _bound_loss_quantile(cfg, params, rows, agg):
    limit = params["limit"]
    losses = [r["output_loss"] for r in rows]
    frac = _mean([1.0 if x <= limit + 1e-12 else 0.0 for x in losses])
    return limit, frac, frac >= params["fraction"]


def _bound_exact_mistakes(cfg, params, rows, agg):
    count = params["count"]
    ok = all(r["mistakes"] == count for r in rows)
    return float(count), float(agg["max_mistakes"]), ok


def _bound_union_budget(cfg, params, rows, agg):
    value = default_union_rounds(cfg.n, params["eps"])
    return float(value), float(cfg.T), cfg.T >= value


_OUTPUT_LOSS_BOUNDS = ("expected-loss", "loss-quantile")

# Each bound's formula and the keys of its spec, each mapped to its default:
# None when the spec must give it, "cfg" when it falls back to the config
# field of the same name.
BOUND_LIBRARY = {
    "halving-mistake-bound": (_bound_halving, {}),
    "mwmr-expected-mistake-bound": (_bound_mwmr, {}),
    "adversary-mistake-floor": (_bound_adversary_floor, {"delta": "cfg", "fraction": 0.7}),
    "expected-loss": (_bound_expected_loss, {"eps": "cfg"}),
    "loss-quantile": (_bound_loss_quantile, {"limit": None, "fraction": 0.9}),
    "exact-mistake-count": (_bound_exact_mistakes, {"count": None}),
    "union-round-budget": (_bound_union_budget, {"eps": "cfg"}),
}


def _bound_params(cfg: ExperimentConfig, spec: dict) -> dict:
    """A bound spec's keys, each omitted one at its default or config value."""
    keys = BOUND_LIBRARY[spec["name"]][1]
    params = {key: getattr(cfg, key) if default == "cfg" else default
              for key, default in keys.items()}
    params.update((key, value) for key, value in spec.items() if key != "name")
    return params


def evaluate_bounds(cfg: ExperimentConfig, rows: list, agg: dict) -> list:
    out = []
    for spec in cfg.bounds:
        fn = BOUND_LIBRARY[spec["name"]][0]
        value, observed, passed = fn(cfg, _bound_params(cfg, spec), rows, agg)
        out.append({"name": spec["name"], "value": value, "observed": observed,
                    "pass": bool(passed)})
    return out


@dataclass
class MetricsReport:
    schema_version: int
    config: dict
    rows: list
    aggregate: dict
    bounds: list

    @property
    def all_bounds_pass(self) -> bool:
        return all(b["pass"] for b in self.bounds)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_rows(cls, cfg: ExperimentConfig, rows: list) -> "MetricsReport":
        rows = sorted(rows, key=lambda r: r["seed"])
        agg = aggregate_rows(rows)
        bounds = evaluate_bounds(cfg, rows, agg)
        return cls(SCHEMA_VERSION, asdict(cfg), rows, agg, bounds)


def check_config(cfg: ExperimentConfig):
    """Every check that needs no seed run: the horizon, the environment
    parameters, each bound spec and the learner's fit to the setting.
    Returns the environment it built."""
    if cfg.T < 0:
        raise ValueError(f"the horizon T must be nonnegative, got {cfg.T}")
    if cfg.bounds and not cfg.seeds:
        raise ValueError("bound checks need at least one seed")
    try:
        env = _environment(cfg)
    except ParameterError as exc:
        if exc.name != "eps":
            raise
        # a family reads env_eps when it is set, else eps
        flag = "--eps" if cfg.env_eps is None else "--env-eps"
        raise ParameterError(f"{exc} from {flag}") from None
    mode = _mode(cfg, env)
    for spec in cfg.bounds:
        name = spec.get("name")
        if name not in BOUND_LIBRARY:
            raise KeyError(f"unknown bound {name!r}; known: {sorted(BOUND_LIBRARY)}")
        if name in _OUTPUT_LOSS_BOUNDS and mode != "pac":
            raise ValueError(f"bound {name!r} needs the output losses of a pac run; "
                             f"mode is {mode!r}")
        keys = BOUND_LIBRARY[name][1]
        for key, value in _bound_params(cfg, spec).items():
            if key not in keys:
                raise ValueError(f"bound {name!r} has no key {key!r}; it takes "
                                 f"{', '.join(keys) or 'no keys'}")
            if value is None:
                raise ValueError(f"bound {name!r} needs {key} in its spec" + (
                    " or in the config" if keys[key] == "cfg" else ""))
    _check_read(cfg)
    check_learner(_learner(cfg, len(env.hclass)), Setting.from_name(cfg.setting), env)
    return env


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> MetricsReport:
    """Execute every seed (in parallel when configured) and evaluate bounds."""
    threads = _threads(threads)
    check_config(cfg)  # before spawning workers
    return _run_checked(cfg, threads)


def run_sweep(cfgs: list, threads: int | None = None) -> list:
    """The report of each config in turn.  Every config is checked before the
    first one runs, and each environment is built once, by its check: its
    run takes it from there, and the next run releases it."""
    threads = _threads(threads)
    envs = [check_config(cfg) for cfg in cfgs]
    reports = []
    for cfg in cfgs:
        _env_cache.clear()
        _env_cache[tuple(_env_args(cfg).values())] = envs.pop(0)
        reports.append(_run_checked(cfg, threads))
    return reports


def _run_checked(cfg: ExperimentConfig, threads: int) -> MetricsReport:
    seeds = list(cfg.seeds)
    if threads > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import
        cfg_dict = asdict(cfg)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_seed_worker, [cfg_dict] * len(seeds), seeds,
                                 chunksize=max(1, len(seeds) // (4 * threads))))
    else:
        rows = [run_single_seed(cfg, s) for s in seeds]
    return MetricsReport.from_rows(cfg, rows)


# ---------------------------------------------------------------------------
# serialization


def emit_report(report: MetricsReport, fmt: str) -> bytes:
    """Deterministic serialization: canonical json or per-seed csv summary."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv-summary":
        lines = ["seed,mistakes,rounds,output_loss"]
        for r in report.rows:
            loss = "" if r["output_loss"] is None else repr(r["output_loss"])
            lines.append(f"{r['seed']},{r['mistakes']},{r['rounds']},{loss}")
        if report.rows:
            agg = report.aggregate
            loss = ("" if "mean_output_loss" not in agg
                    else repr(agg["mean_output_loss"]))
            lines.append(f"aggregate,{agg['mean_mistakes']!r},,{loss}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_config_file(text: str) -> dict:
    """Flat key=value lines mirroring the CLI flags; '#' starts a comment.
    A repeated key keeps its last value, but ``bound`` lines collect in a list."""
    out: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "bound":
            out.setdefault(key, []).append(value)
        else:
            out[key] = value
    return out

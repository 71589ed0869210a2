import json
import math
import os
import random
from fractions import Fraction

import pytest

from stratgame.environments import make_environment
from stratgame.harness import (
    ExperimentConfig,
    MetricsReport,
    _threads,
    aggregate_rows,
    check_config,
    emit_report,
    monte_carlo_loss,
    parse_config_file,
    run_experiment,
)
from stratgame.oracle import exact_loss


def test_monte_carlo_on_target_is_exactly_zero():
    env = make_environment("appG", 6, eps=0.02, target=1)
    fam = env.family
    est, se = monte_carlo_loss(fam.space, fam.hclass.union((1,)), fam, 2000, 0)
    assert est == 0.0 and se == 0.0


def test_monte_carlo_wrong_singleton_star_family():
    env = make_environment("appJ", 10, eps=0.01, target=3)
    fam = env.family
    est, se = monte_carlo_loss(fam.space, fam.hclass.union((0,)), fam, 100_000, 1)
    assert se <= 0.002
    assert est == pytest.approx(0.03, abs=4 * math.sqrt(0.03 * 0.97 / 100_000))


def test_monte_carlo_agrees_with_oracle_on_random_predictors():
    rng = random.Random(2)
    n = 6
    # (tag, eps, target, N, predictors, first Monte Carlo seed)
    cases = [(tag, 0.02, 4, 20_000, [tuple(rng.choices(range(n), k=rng.randint(1, 3)))
                                      for _ in range(16)], 0)
             for tag in ("appG", "appJ", "appK")]
    cases += [(tag, eps, 2, 100_000, [(0,), (1, 3), (2,), (0, 1, 3, 4)], 4 * i)
              for i, (tag, eps) in enumerate((("appG", 0.01), ("appI", 0.02),
                                              ("appJ", 0.02), ("appK", 0.05)))]
    for tag, eps, target, N, predictors, seed0 in cases:
        fam = make_environment(tag, n, eps=eps, target=target).family
        for k, parts in enumerate(predictors):
            f = fam.hclass.union(parts)
            exact = float(exact_loss(tag, n, Fraction(eps), target, f))
            est, _ = monte_carlo_loss(fam.space, f, fam, N, seed=seed0 + k)
            slack = 4 * math.sqrt(max(exact * (1 - exact), 1e-12) / N)
            assert abs(est - exact) <= slack + 1e-12, (tag, parts)


def test_monte_carlo_needs_samples():
    env = make_environment("appJ", 4, eps=0.02)
    with pytest.raises(ValueError):
        monte_carlo_loss(env.space, env.hclass.union((0,)), env.family, 0, 0)


def test_environment_cache_releases_the_previous_environment():
    import gc
    import weakref

    from stratgame import harness

    cfg_a = ExperimentConfig(env="appJ", learner="mwmr", n=5, T=20, eps=0.02)
    cfg_b = ExperimentConfig(env="appJ", learner="mwmr", n=6, T=20, eps=0.02)
    harness.run_single_seed(cfg_a, 0)
    env_a = weakref.ref(harness._environment(cfg_a))
    harness.run_single_seed(cfg_b, 0)
    gc.collect()
    assert env_a() is None


def _small_cfg(**over):
    base = dict(env="random-realizable", learner="halving", setting="x-delta",
                n=32, T=300, seeds=[0, 1, 2, 3], stream_space="star",
                bounds=[{"name": "halving-mistake-bound"}])
    base.update(over)
    return ExperimentConfig(**base)


def test_run_experiment_halving_bound_passes():
    report = run_experiment(_small_cfg())
    assert report.all_bounds_pass
    entry = report.bounds[0]
    assert set(entry) == {"name", "value", "observed", "pass"}
    assert entry["value"] == 5.0  # ceil(log2 32)
    assert report.aggregate["max_mistakes"] <= 5


def test_run_experiment_failing_bound():
    cfg = _small_cfg(bounds=[{"name": "exact-mistake-count", "count": 999}])
    report = run_experiment(cfg)
    assert not report.all_bounds_pass


def test_exact_mistake_bound_on_star_counter():
    cfg = ExperimentConfig(env="star-ex42", learner="seq-elim",
                           setting="x-delta-after", n=10, T=9, seeds=[0, 1, 2],
                           bounds=[{"name": "exact-mistake-count", "count": 9}])
    report = run_experiment(cfg)
    assert report.all_bounds_pass


def test_pac_mode_measures_output_loss():
    cfg = ExperimentConfig(env="appJ", learner="survivor:seq-elim",
                           setting="delta-only", n=6, T=200, seeds=[0, 1],
                           eps=0.25, delta=0.2, env_eps=0.02, target=5,
                           bounds=[{"name": "loss-quantile", "limit": 0.25,
                                    "fraction": 0.9}])
    report = run_experiment(cfg)
    assert all(r["output_loss"] is not None for r in report.rows)
    assert report.all_bounds_pass


def test_aggregates_recompute_identically():
    report = run_experiment(_small_cfg())
    again = MetricsReport.from_rows(ExperimentConfig(**report.config), report.rows)
    assert again.to_dict() == report.to_dict()
    assert aggregate_rows(report.rows) == report.aggregate


def test_json_report_round_trips():
    report = run_experiment(_small_cfg(seeds=[0, 1]))
    payload = emit_report(report, "json")
    parsed = json.loads(payload)
    assert (json.dumps(parsed, sort_keys=True, indent=2) + "\n").encode() == payload
    assert parsed["schema_version"] == 4
    assert parsed["config"]["env"] == "random-realizable"


def test_csv_summary_shape():
    report = run_experiment(_small_cfg(seeds=[0, 1]))
    lines = emit_report(report, "csv-summary").decode().splitlines()
    assert lines[0] == "seed,mistakes,rounds,output_loss"
    assert len(lines) == 4  # header, two seeds, aggregate
    assert lines[-1].startswith("aggregate,")


def test_csv_empty_seed_list_is_header_only():
    cfg = _small_cfg(seeds=[], bounds=[])
    report = run_experiment(cfg)
    assert emit_report(report, "csv-summary").decode() == "seed,mistakes,rounds,output_loss\n"


def test_bound_checks_need_a_seed():
    with pytest.raises(ValueError, match="bound checks need at least one seed"):
        run_experiment(_small_cfg(seeds=[]))


def test_unknown_format_rejected():
    report = run_experiment(_small_cfg(seeds=[0]))
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_parallel_rows_match_serial():
    cfg = _small_cfg(seeds=[0, 1, 2, 3, 4, 5])
    serial = run_experiment(cfg, threads=1)
    parallel = run_experiment(cfg, threads=2)
    assert serial.rows == parallel.rows
    assert serial.aggregate == parallel.aggregate


def test_worker_count_defaults_to_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("STRATGAME_THREADS", raising=False)
    assert _threads(None) == len(os.sched_getaffinity(0))
    assert _threads(1) == 1
    monkeypatch.setenv("STRATGAME_THREADS", "3")
    assert _threads(None) == 3
    assert _threads(2) == 2


def test_mwmr_bound_formula():
    cfg = ExperimentConfig(env="random-realizable", learner="mwmr",
                           setting="x-delta-after", n=16, T=256,
                           seeds=list(range(8)), stream_space="star",
                           bounds=[{"name": "mwmr-expected-mistake-bound"}])
    report = run_experiment(cfg)
    expect = min(math.sqrt(4 * math.log(16) * 256), 15.0)
    assert report.bounds[0]["value"] == pytest.approx(expect)
    assert report.all_bounds_pass


def test_adversary_floor_bound():
    n, delta = 6, 0.25
    T = math.ceil(5 * n * math.log(n / delta) * (n - 1))
    cfg = ExperimentConfig(env="appE", learner="mwmr", setting="x-delta-after",
                           n=n, T=T, seeds=list(range(20)),
                           bounds=[{"name": "adversary-mistake-floor",
                                    "delta": delta, "fraction": 0.7}])
    report = run_experiment(cfg)
    assert report.all_bounds_pass


def test_config_file_parsing():
    text = """
    # experiment sheet
    env = appJ
    learner = survivor:seq-elim
    setting = delta-only
    n = 6
    T = 120
    eps = 0.25
    env-eps = 0.02   # family epsilon
    delta = 0.2
    seeds = 0,1
    """
    values = parse_config_file(text)
    assert values["env"] == "appJ"
    assert values["env-eps"] == "0.02"
    with pytest.raises(ValueError):
        parse_config_file("just some words\n")


def test_unknown_bound_name_rejected():
    cfg = _small_cfg(bounds=[{"name": "lower-is-better"}])
    with pytest.raises(KeyError):
        run_experiment(cfg)


@pytest.mark.parametrize("spec", [{"name": "expected-loss"},
                                  {"name": "loss-quantile", "limit": 0.1}])
def test_output_loss_bound_rejected_on_online_run_before_any_seed(monkeypatch, spec):
    from stratgame import harness

    def no_seed(cfg, seed):
        raise AssertionError("a seed ran before the bound/mode check")

    monkeypatch.setattr(harness, "run_single_seed", no_seed)
    with pytest.raises(ValueError, match=f"{spec['name']}.*online"):
        run_experiment(_small_cfg(bounds=[spec]))


@pytest.mark.parametrize("overrides,message", [
    ({"env": "appK", "learner": "mwmr", "eps": 0.1}, "needs Ball manipulation sets"),
    ({"env": "appK", "learner": "boost:random-union", "eps": 0.1, "delta": 0.1,
      "base_rounds": 10}, "needs Ball manipulation sets"),
    ({"learner": "halving", "setting": "x-delta-after"}, "needs setting 'x-delta'"),
    ({"env": "star-ex42", "learner": "mwmr", "setting": "x-delta-after"},
     "needs a deterministic learner; learner 'mwmr' is not"),
    ({"env": "star-ex42", "learner": "halving"},
     "needs a deterministic learner; learner 'halving' is not"),
    ({"env": "appE", "learner": "halving"}, "learner 'halving' exposes neither"),
])
def test_learner_contract_checked_before_any_seed(monkeypatch, overrides, message):
    from stratgame import harness
    from stratgame.protocol import ContractViolation

    def no_seed(cfg, seed):
        raise AssertionError("a seed ran before the contract check")

    monkeypatch.setattr(harness, "run_single_seed", no_seed)
    cfg = _small_cfg(seeds=[0, 1, 2])
    for key, value in overrides.items():
        setattr(cfg, key, value)
    with pytest.raises(ContractViolation, match=message):
        run_experiment(cfg)


@pytest.mark.parametrize("overrides", [
    {"env": "appE", "learner": "random-union", "setting": "x-delta-after", "n": 6},
    {"env": "star-ex42", "learner": "survivor:seq-elim", "setting": "x-delta-after",
     "n": 6, "T": 5, "eps": 0.1, "delta": 0.1},
])
def test_pac_learner_without_a_family_runs_online(overrides):
    # a pac run needs a learner that outputs a predictor and an i.i.d. family
    report = run_experiment(_small_cfg(seeds=[0, 1], bounds=[], **overrides))
    assert [r["output_loss"] for r in report.rows] == [None, None]
    assert "mean_output_loss" not in report.aggregate
    with pytest.raises(ValueError, match="needs the output losses of a pac run; "
                                         "mode is 'online'"):
        run_experiment(_small_cfg(bounds=[{"name": "expected-loss", "eps": 0.1}],
                                  **overrides))


@pytest.mark.parametrize("overrides", [
    {"eps": 0.1, "bounds": [{"name": "union-round-budget"}]},
    {"env": "appE", "learner": "mwmr", "setting": "x-delta-after", "n": 8, "T": 5,
     "delta": 0.25, "bounds": [{"name": "adversary-mistake-floor"}]},
])
def test_eps_and_delta_read_by_a_bound_alone_are_accepted(overrides):
    check_config(_small_cfg(**overrides))
    with pytest.raises(ValueError, match="and the bounds do not read"):
        check_config(_small_cfg(**{**overrides, "bounds": []}))


def test_every_criterion_config_passes_the_pre_seed_checks():
    # a broken declaration fails here, not part way through the acceptance gate
    from stratgame import acceptance

    for criterion in acceptance.CRITERIA:
        assert bool(criterion.configs) != (criterion.check is not None), criterion.name
        for _, cfg in criterion.configs:
            check_config(cfg)


@pytest.mark.parametrize("name,number,label", [
    ("halving-star", 1, None), ("mwmr-probe-appE", 2, "adversary"),
    ("boost-union-appG", 6, None)])
def test_bench_simulations_run_the_criteria_configs(monkeypatch, name, number, label):
    # the bench types its simulations' configurations out; they must not drift
    # from the criteria they time
    from dataclasses import replace
    from pathlib import Path

    from stratgame import acceptance

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    sim = workloads.Simulation(name, 0, 4)
    declared = dict(acceptance.CRITERIA[number - 1].configs)[label]
    assert sim._config() == replace(declared, seeds=sim.seeds)

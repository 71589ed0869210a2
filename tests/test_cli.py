import argparse
import json
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from stratgame.cli import _config_from_args, build_parser, main
from stratgame.harness import ExperimentConfig


def test_run_subcommand_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "run", "--env", "star-ex42", "--learner", "seq-elim",
        "--setting", "x-delta-after", "--n", "8", "--T", "7", "--seeds", "3",
        "--bound", "exact-mistake-count:count=7", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bounds"][0]["pass"] is True
    assert len(report["rows"]) == 3


def test_run_exit_code_on_failed_bound(tmp_path):
    code = main([
        "run", "--env", "star-ex42", "--learner", "seq-elim",
        "--setting", "x-delta-after", "--n", "8", "--T", "7", "--seeds", "2",
        "--bound", "exact-mistake-count:count=1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1


def test_run_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "env=star-ex42\nlearner=seq-elim\nsetting=x-delta-after\n"
        "n=6\nT=5\nseeds=2\nbound=exact-mistake-count:count=5\n")
    code = main(["run", "--config", str(cfg), "--format", "csv-summary"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,mistakes,rounds,output_loss"
    # flag overrides the file value: with T=3 the exact count fails
    code = main(["run", "--config", str(cfg), "--T", "3",
                 "--bound", "exact-mistake-count:count=5"])
    assert code == 1


def test_missing_required_flags(capsys):
    assert main(["run", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: an experiment needs at least --env and --learner\n"


def test_oracle_subcommand(capsys):
    code = main(["oracle", "--env", "appK", "--n", "5", "--eps", "1/100",
                 "--target", "2", "--indices", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3/100" in out
    assert "closed form" in out


def test_oracle_all_negative(capsys):
    code = main(["oracle", "--env", "appJ", "--n", "5", "--eps", "1/100",
                 "--target", "0", "--all-negative"])
    assert code == 0
    assert "22/25" in capsys.readouterr().out  # 1 - 12/100


def test_oracle_anchor(capsys):
    code = main(["oracle", "--env", "appK", "--n", "4", "--eps", "1/50",
                 "--target", "1", "--positive-at-anchor"])
    assert code == 0
    assert "3/25" in capsys.readouterr().out  # 6 eps


def test_oracle_anchor_on_appI_exits_2_with_one_line(capsys):
    code = main(["oracle", "--env", "appI", "--n", "5", "--eps", "0.01",
                 "--positive-at-anchor"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --positive-at-anchor: appI has no anchor point\n")


@pytest.mark.parametrize("eps", ["1/0", "abc"])
def test_oracle_bad_eps_exits_2_with_one_line(capsys, eps):
    code = main(["oracle", "--env", "appK", "--n", "5", "--eps", eps, "--indices", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps must be") and repr(eps) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    (["--env", "appJ", "--n", "5", "--eps", "1", "--all-negative"],
     "appJ at n=5 needs 0 < eps and 12*eps <= 1, got eps=1"),
    (["--env", "appG", "--n", "5", "--eps", "0", "--indices", "0"], "got eps=0"),
    (["--env", "appK", "--n", "5", "--eps", "1/10", "--target", "9", "--all-negative"],
     "target must be in 0..4, got 9"),
    (["--env", "appI", "--n", "5", "--eps", "1/10", "--target", "-1", "--indices", "0"],
     "target must be in 0..4, got -1"),
    (["--env", "appJ", "--n", "5", "--eps", "0.01", "--indices", "-1"],
     "--indices must be class indices in 0..4, got '-1'"),
    (["--env", "appK", "--n", "5", "--eps", "0.01", "--indices", "-1"],
     "--indices must be class indices in 0..4, got '-1'"),
    (["--env", "appG", "--n", "5", "--eps", "0.01", "--indices", "0,5"],
     "--indices must be class indices in 0..4, got '0,5'"),
    (["--env", "appI", "--n", "5", "--eps", "0.01", "--indices", "1,x"],
     "--indices must be a comma list of integers, got '1,x'"),
    (["--env", "appJ", "--n", "0", "--eps", "0.01", "--all-negative"],
     "appJ needs n >= 1, got n=0"),
    (["--env", "appJ", "--n", "-3", "--eps", "0.01", "--all-negative"],
     "appJ needs n >= 1, got n=-3"),
    (["--env", "appG", "--n", "1", "--eps", "0.01", "--all-negative"],
     "appG needs n >= 2, got n=1"),
    (["--env", "appK", "--n", "0", "--eps", "0.01", "--positive-at-anchor"],
     "appK needs n >= 1, got n=0"),
    (["--env", "appI", "--n", "-3", "--eps", "0.01", "--all-negative"],
     "appI needs n >= 2, got n=-3"),
    (["--env", "appJ", "--n", "0", "--eps", "0.01", "--indices", "0"],
     "appJ needs n >= 1, got n=0"),
    (["--env", "appK", "--n", "-2", "--eps", "0.01", "--indices", "0"],
     "appK needs n >= 1, got n=-2"),
])
def test_oracle_out_of_range_exits_2_with_one_line(capsys, argv, message):
    assert main(["oracle"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("region,message", [
    ([], "one of the arguments --indices --all-negative --positive-at-anchor is required"),
    (["--indices", "1", "--all-negative"],
     "argument --all-negative: not allowed with argument --indices"),
    (["--positive-at-anchor", "--all-negative"],
     "argument --all-negative: not allowed with argument --positive-at-anchor"),
])
def test_oracle_needs_exactly_one_region_flag(capsys, region, message):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--env", "appJ", "--n", "5", "--eps", "0.01"] + region)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"stratgame oracle: error: {message}"]


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.json"
    code = main([
        "sweep", "--env", "star-ex42", "--learner", "seq-elim",
        "--setting", "x-delta-after", "--T", "9", "--seeds", "2",
        "--param", "n", "--values", "4,6",
        "--bound", "exact-mistake-count:count=3", "--out", str(out),
    ])
    assert code == 1  # n=4 gives exactly 3 mistakes, n=6 gives 5
    rows = json.loads(out.read_text())
    assert [r["n"] for r in rows] == [4, 6]
    assert rows[0]["bounds"][0]["pass"] is True
    assert rows[1]["bounds"][0]["pass"] is False


def test_verify_single_fast_criterion(capsys):
    code = main(["verify", "--only", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "star-counter-exact-mistakes" in out


@pytest.mark.parametrize("only", ["12", "0", "3,12"])
def test_verify_rejects_unknown_criterion_before_any_runs(monkeypatch, capsys, only):
    from stratgame import acceptance

    def no_run():
        raise AssertionError("a criterion ran before the --only check")

    monkeypatch.setattr(acceptance, "CRITERIA", tuple(
        replace(c, configs=(), check=no_run) for c in acceptance.CRITERIA))
    assert main(["verify", "--only", only]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no criterion") and len(err.splitlines()) == 1


@pytest.mark.parametrize("only", ["x", "3,y"])
def test_verify_names_the_flag_of_a_non_integer_criterion(capsys, only):
    assert main(["verify", "--only", only]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --only must be a comma list of integers, got {only!r}\n"


def test_unknown_learner_is_reported(capsys):
    code = main(["run", "--env", "star-ex42", "--learner", "sgd",
                 "--setting", "x-delta-after", "--n", "4", "--T", "3",
                 "--seeds", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown learner 'sgd'; known: [")


def test_unknown_bound_is_reported(capsys):
    code = main(["run", "--env", "star-ex42", "--learner", "seq-elim",
                 "--setting", "x-delta-after", "--n", "4", "--T", "3",
                 "--seeds", "1", "--bound", "speed-of-light"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown bound 'speed-of-light'")


@pytest.mark.parametrize("argv,message", [
    (["--env", "appJ", "--learner", "halving", "--setting", "none", "--n", "8",
      "--eps", "0.01", "--T", "50", "--seeds", "1"], "needs setting 'x-delta'"),
    (["--env", "appJ", "--learner", "mwmr", "--n", "8", "--eps", "0.01",
      "--T", "50", "--seeds", "1"], "not realizable"),
    (["--env", "appK", "--learner", "mwmr", "--n", "8", "--T", "2000",
      "--eps", "0.1", "--seeds", "0,1,2"], "needs Ball manipulation sets"),
    (["--env", "appJ", "--learner", "seq-elim", "--n", "8", "--eps", "0.01",
      "--T", "50", "--seeds", "1"], "farther"),
])
def test_contract_and_realizability_errors_are_one_line(monkeypatch, capsys, argv,
                                                        message):
    # every seed raises, so a contract error shows only if it comes first; the
    # "farther" case raises a RecoveryError, the others a RealizabilityError
    from stratgame import harness
    from stratgame.protocol import RealizabilityError, RecoveryError

    def failing_seed(cfg, seed):
        if message == "farther":
            raise RecoveryError(4, "manipulated feature is farther from x than the "
                                   "closest positive point")
        raise RealizabilityError(4, "version space emptied; stream is not realizable")

    monkeypatch.setattr(harness, "run_single_seed", failing_seed)
    code = main(["run"] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    (["--env", "appE", "--learner", "halving", "--setting", "x-delta", "--n", "8",
      "--T", "50", "--seeds", "1"], "learner 'halving' exposes neither"),
    # a pac learner off the i.i.d. families runs online, without output losses
    (["--env", "random-realizable", "--learner", "random-union", "--n", "8",
      "--T", "50", "--seeds", "2", "--bound", "expected-loss:eps=0.1"],
     "bound 'expected-loss' needs the output losses of a pac run; mode is 'online'"),
    (["--env", "appE", "--learner", "boost:mwmr", "--n", "8", "--eps", "0.1",
      "--delta", "0.1", "--T", "50", "--seeds", "2", "--bound",
      "loss-quantile:limit=0.1"], "bound 'loss-quantile' needs the output losses"),
])
def test_unsupported_runs_exit_2_with_one_line(capsys, argv, message):
    code = main(["run"] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_config_file_reads_every_field_with_its_type(tmp_path):
    values = {
        "env": "appG", "learner": "boost:random-union", "setting": "x-delta",
        "n": 7, "T": 11, "eps": 0.05, "delta": 0.1, "env_eps": 0.04,
        "target": 3, "alpha": 0.2, "base_rounds": 13, "c": 0.25,
        "estimation_samples": 17, "stream_space": "scaled-basis",
        "radius_law": "const:0.5",
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    got = _config_from_args(build_parser().parse_args(["run", "--config", str(cfg)]))
    for key, value in values.items():
        assert getattr(got, key) == value and type(getattr(got, key)) is type(value), key
    skipped = {"seeds", "bounds"}
    assert set(values) == set(ExperimentConfig.__dataclass_fields__) - skipped
    # the same values as flags give an equal config, field by field
    extra = {"seeds": "2:5", "bound": "loss-quantile:limit=0.4,fraction=0.9"}
    cfg.write_text("".join(f"{k}={v}\n" for k, v in {**values, **extra}.items()))
    from_file = _config_from_args(build_parser().parse_args(["run", "--config", str(cfg)]))
    argv = ["run"]
    for key, value in {**values, **extra}.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    from_flags = _config_from_args(build_parser().parse_args(argv))
    assert from_file.seeds == [2, 3, 4]
    assert from_file.bounds == [{"name": "loss-quantile", "limit": 0.4, "fraction": 0.9}]
    for f in fields(ExperimentConfig):
        file_value, flag_value = getattr(from_file, f.name), getattr(from_flags, f.name)
        assert file_value == flag_value and type(file_value) is type(flag_value), f.name


def _subparser(name):
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_readme_names_only_real_flags():
    # a flag the parser drops must leave the README too; the two pip and
    # pytest flags of the install section are the only others
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    flags = {flag for p in action.choices.values() for a in p._actions
             for flag in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    assert "--env-eps" in named
    assert named - flags == {"--no-build-isolation", "--ignore"}


@pytest.mark.parametrize("command,own", [("run", set()), ("sweep", {"param", "values"})])
def test_experiment_flags_are_the_config_fields(command, own):
    dests = {a.dest for a in _subparser(command)._actions}
    invocation = {"help", "config", "out", "format", "threads"}
    assert dests - invocation - own == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("line,message", [
    ("TT=5", "unknown config key 'TT'"),
    ("threads=2", "unknown config key 'threads'"),
    ("mode=online", "unknown config key 'mode'"),
    ("setting=nope", "unknown setting 'nope'"),
    ("bound=exact-mistake-count:count",
     "bad bound spec 'exact-mistake-count:count'; the form is name[:key=value,...]"),
    ("seeds=3:x", "--seeds must be a count, lo:hi or a comma list of integers, got '3:x'"),
    ("seeds=0", "--seeds '0' selects no seed"),
    ("seeds=2,2", "--seeds '2,2' repeats a seed"),
])
def test_config_file_errors_exit_2_before_any_seed(monkeypatch, capsys, tmp_path,
                                                   line, message):
    from stratgame import harness

    def no_seed(cfg, seed):
        raise AssertionError("a seed ran before the config check")

    monkeypatch.setattr(harness, "run_single_seed", no_seed)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"env=appJ\nlearner=seq-elim\nn=8\neps=0.02\nT=10\n{line}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_file_bound_lines_accumulate_and_bound_flags_replace_them(tmp_path):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("env=star-ex42\nlearner=seq-elim\n"
                   "bound=exact-mistake-count:count=5\nbound=halving-mistake-bound\n")
    argv = ["run", "--config", str(cfg)]
    got = _config_from_args(build_parser().parse_args(argv))
    assert got.bounds == [{"name": "exact-mistake-count", "count": 5},
                          {"name": "halving-mistake-bound"}]
    got = _config_from_args(build_parser().parse_args(
        argv + ["--bound", "union-round-budget:eps=0.1"]))
    assert got.bounds == [{"name": "union-round-budget", "eps": 0.1}]


_APPJ = ["--env", "appJ", "--learner", "seq-elim", "--n", "8", "--eps", "0.02"]
_RR = ["--env", "random-realizable", "--n", "5", "--learner", "halving", "--setting",
       "x-delta", "--T", "20", "--seeds", "2"]
_APPE = ["--env", "appE", "--learner", "random-union", "--n", "6", "--T", "50",
         "--seeds", "2"]


@pytest.mark.parametrize("argv,threads_env,message", [
    (_APPJ + ["--T", "10", "--seeds", "0", "--bound", "exact-mistake-count:count=99"],
     None, "--seeds '0' selects no seed"),
    (_APPJ + ["--T", "-5", "--seeds", "1"], None, "T must be nonnegative"),
    (_APPJ + ["--T", "10", "--seeds", "2"], "abc", "STRATGAME_THREADS must be"),
    (_APPJ + ["--T", "10", "--seeds", "2"], "0", "STRATGAME_THREADS must be"),
    (_APPJ + ["--T", "10", "--seeds", "2"], "-2", "STRATGAME_THREADS must be"),
    (_APPJ + ["--T", "10", "--seeds", "2", "--threads", "0"], None,
     "threads must be a positive integer"),
    (["--env", "appJ", "--learner", "survivor:seq-elim", "--n", "8", "--eps", "0.1",
      "--delta", "0", "--env-eps", "0.02", "--T", "10", "--seeds", "1"], None,
     "delta must satisfy 0 < delta < 1, got 0.0"),
    (["--env", "appJ", "--learner", "boost:seq-elim", "--n", "8", "--eps", "0.1",
      "--delta", "1.5", "--env-eps", "0.02", "--T", "10", "--seeds", "1"], None,
     "delta must satisfy 0 < delta < 1, got 1.5"),
    (["--env", "appJ", "--learner", "boost:seq-elim", "--n", "8", "--eps", "0.1",
      "--delta", "0.1", "--env-eps", "0.02", "--base-rounds", "-3", "--T", "10",
      "--seeds", "1"], None, "base_rounds must be at least 1, got -3"),
    (["--env", "appJ", "--learner", "boost:seq-elim", "--n", "8", "--eps", "0.1",
      "--delta", "0.1", "--env-eps", "0.02", "--base-rounds", "0", "--T", "10",
      "--seeds", "1"], None, "base_rounds must be at least 1, got 0"),
    (_APPJ + ["--T", "10", "--seeds", "1", "--bound", "exact-mistake-count:count"], None,
     "bad bound spec 'exact-mistake-count:count'; the form is name[:key=value,...]"),
    (_APPJ + ["--T", "10", "--seeds", "1", "--bound", "exact-mistake-count:count=x"],
     None, "bad bound spec 'exact-mistake-count:count=x'"),
    (_APPJ + ["--T", "10", "--seeds", "3:x"], None,
     "--seeds must be a count, lo:hi or a comma list of integers, got '3:x'"),
    (_APPJ + ["--T", "10", "--seeds", "1:2:3"], None, "got '1:2:3'"),
    (_APPJ + ["--T", "10", "--seeds", "0,y"], None, "got '0,y'"),
    *((_RR + ["--radius-law", law], None, f"bad radius law '{law}'") for law in (
        "const:nan", "uniform:nan:1", "uniform:0:inf", "const:inf", "uniform:1",
        "uniform:1:2:3", "const:abc")),
    (_APPE + ["--c", "0"], None, "c must satisfy 0 < c <= 1, got 0.0"),
    (_APPE + ["--c", "nan"], None, "c must satisfy 0 < c <= 1, got nan"),
    (_APPE + ["--c", "1.5"], None, "c must satisfy 0 < c <= 1, got 1.5"),
    (_APPE + ["--estimation-samples", "-3"], None,
     "estimation samples must be a positive integer, got -3"),
    (_APPE + ["--estimation-samples", "0"], None,
     "estimation samples must be a positive integer, got 0"),
    # a non-default parameter that the environment does not read
    (_APPJ + ["--T", "1", "--seeds", "1", "--c", "0.3"], None,
     "appJ does not read c; leave it at None, got 0.3"),
    (_APPJ + ["--T", "1", "--seeds", "1", "--alpha", "5"], None,
     "appJ does not read alpha; leave it at 0.1, got 5.0"),
    (_APPJ + ["--T", "1", "--seeds", "1", "--estimation-samples", "7"], None,
     "appJ does not read estimation_samples; leave it at 1000, got 7"),
    (_APPJ + ["--T", "1", "--seeds", "1", "--radius-law", "uniform:1:2"], None,
     "appJ does not read radius_law; leave it at None, got 'uniform:1:2'"),
    (_APPE + ["--stream-space", "sphere"], None,
     "appE does not read stream_space; leave it at 'star', got 'sphere'"),
    (_APPE + ["--alpha", "0.2"], None, "appE does not read alpha"),
    (["--env", "appG", "--learner", "random-union", "--n", "6", "--eps", "0.05",
      "--T", "10", "--seeds", "2", "--c", "0.2"], None, "appG does not read c"),
    (["--env", "star-ex42", "--learner", "seq-elim", "--n", "6", "--T", "5",
      "--seeds", "2", "--estimation-samples", "5"], None,
     "star-ex42 does not read estimation_samples"),
    (_RR + ["--alpha", "0.3"], None,
     "random-realizable on star does not read alpha; leave it at 0.1, got 0.3"),
    (_RR + ["--c", "0.3"], None, "random-realizable does not read c"),
    # an empty or repeated seed list
    (_APPJ + ["--T", "10", "--seeds", "0"], None, "--seeds '0' selects no seed"),
    (_APPJ + ["--T", "10", "--seeds", "5:3"], None, "--seeds '5:3' selects no seed"),
    (_APPJ + ["--T", "10", "--seeds", ","], None, "--seeds ',' selects no seed"),
    (_APPJ + ["--T", "10", "--seeds", "1,1"], None, "--seeds '1,1' repeats a seed"),
    (_APPJ + ["--T", "10", "--seeds", "3,0,3"], None, "--seeds '3,0,3' repeats a seed"),
    # a bound spec without a value it needs, or with a key it does not take
    (_APPE + ["--learner", "mwmr", "--bound", "adversary-mistake-floor"], None,
     "bound 'adversary-mistake-floor' needs delta in its spec or in the config"),
    (_RR + ["--bound", "union-round-budget"], None,
     "bound 'union-round-budget' needs eps in its spec or in the config"),
    (["--env", "appG", "--learner", "random-union", "--n", "6", "--env-eps", "0.05",
      "--T", "10", "--seeds", "2", "--bound", "expected-loss"], None,
     "bound 'expected-loss' needs eps in its spec or in the config"),
    (_APPJ + ["--T", "10", "--seeds", "1", "--bound", "exact-mistake-count"], None,
     "bound 'exact-mistake-count' needs count in its spec"),
    (_APPJ + ["--T", "10", "--seeds", "1", "--bound", "exact-mistake-count:count=3,cuont=9"],
     None, "bound 'exact-mistake-count' has no key 'cuont'; it takes count"),
    (_APPJ + ["--T", "10", "--seeds", "1", "--bound", "halving-mistake-bound:n=3"], None,
     "bound 'halving-mistake-bound' has no key 'n'; it takes no keys"),
    # an n below what the environment needs is named before the target
    (["--env", "appJ", "--learner", "seq-elim", "--n", "0", "--eps", "0.02", "--T", "5",
      "--seeds", "1"], None, "appJ needs n >= 1, got n=0"),
    (["--env", "appJ", "--learner", "seq-elim", "--n", "0", "--target", "0", "--eps",
      "0.02", "--T", "5", "--seeds", "1"], None, "appJ needs n >= 1, got n=0"),
    (["--env", "appK", "--learner", "seq-elim", "--n", "-1", "--eps", "0.02", "--T", "5",
      "--seeds", "1"], None, "appK needs n >= 1, got n=-1"),
    (["--env", "appG", "--learner", "seq-elim", "--n", "0", "--eps", "0.02", "--T", "5",
      "--seeds", "1"], None, "appG needs n >= 2, got n=0"),
    (["--env", "appI", "--learner", "seq-elim", "--n", "1", "--eps", "0.02", "--T", "5",
      "--seeds", "1"], None, "appI needs n >= 2, got n=1"),
    (["--env", "star-ex42", "--learner", "seq-elim", "--n", "1", "--T", "5", "--seeds", "1"],
     None, "star-ex42 needs n >= 2, got n=1"),
    (["--env", "appE", "--learner", "mwmr", "--n", "1", "--T", "5", "--seeds", "1"], None,
     "appE needs n >= 2, got n=1"),
    (["--env", "random-realizable", "--learner", "halving", "--n", "0", "--T", "5",
      "--seeds", "1"], None, "random-realizable on star needs n >= 1, got n=0"),
    (["--env", "random-realizable", "--learner", "halving", "--n", "1", "--stream-space",
      "sphere", "--T", "5", "--seeds", "1"], None,
     "random-realizable on sphere needs n >= 2, got n=1"),
    # a nan family eps, and an alpha outside (0, inf)
    (["--env", "appJ", "--learner", "seq-elim", "--n", "4", "--eps", "nan", "--T", "5",
      "--seeds", "1"], None, "appJ at n=4 needs 0 < eps and 9*eps <= 1, got eps=nan"),
    (["--env", "appG", "--learner", "survivor:seq-elim", "--n", "4", "--eps", "0.1",
      "--delta", "0.1", "--env-eps", "nan", "--T", "50", "--seeds", "2"], None,
     "appG at n=4 needs 0 < eps and 12*eps <= 1, got eps=nan"),
    *((argv + ["--alpha", alpha], None, f"alpha must satisfy 0 < alpha < inf, got {got}")
      for argv in (["--env", "appG", "--learner", "random-union", "--n", "6", "--eps",
                    "0.05", "--T", "10", "--seeds", "2"],
                   _RR + ["--stream-space", "sphere"])
      for alpha, got in (("0", "0.0"), ("inf", "inf"), ("nan", "nan"))),
    # a base learner that chooses from x under survivor
    (["--env", "appJ", "--learner", "survivor:halving", "--setting", "x-delta", "--n", "8",
      "--eps", "0.1", "--delta", "0.1", "--env-eps", "0.04", "--T", "148", "--seeds", "20"],
     None, "longest-survivor needs a base that chooses without x; halving chooses from x"),
    # a target, env eps, delta, eps or base rounds that nothing reads
    (["--env", "star-ex42", "--learner", "seq-elim", "--n", "8", "--target", "3", "--T", "5",
      "--seeds", "1"], None, "star-ex42 does not read target; leave it at None, got 3"),
    *((["--env", env, "--learner", "mwmr", "--n", "8", "--env-eps", "0.3", "--T", "5",
        "--seeds", "1"], None, f"{env} does not read env_eps; leave it at None, got 0.3")
      for env in ("appE", "random-realizable")),
    (["--env", "appJ", "--learner", "seq-elim", "--n", "8", "--eps", "0.01", "--delta", "0.3",
      "--T", "5", "--seeds", "1"], None,
     "seq-elim and the bounds do not read delta; leave it at None, got 0.3"),
    (["--env", "appJ", "--learner", "seq-elim", "--n", "8", "--eps", "0.1", "--env-eps",
      "0.02", "--T", "10", "--seeds", "1"], None,
     "appJ (it reads env_eps), seq-elim and the bounds do not read eps"),
    (["--env", "appJ", "--learner", "survivor:seq-elim", "--n", "8", "--eps", "0.1",
      "--delta", "0.1", "--env-eps", "0.02", "--base-rounds", "5", "--T", "10", "--seeds",
      "1"], None, "survivor:seq-elim does not read base_rounds; leave it at None, got 5"),
    (_APPJ + ["--T", "10", "--seeds", "1", "--base-rounds", "5"], None,
     "seq-elim does not read base_rounds"),
    # an eps or delta that nothing reads: not the family, the learner or a bound
    (["--env", "star-ex42", "--learner", "seq-elim", "--n", "8", "--eps", "0.3", "--delta",
      "0.5", "--T", "5", "--seeds", "1"], None,
     "star-ex42, seq-elim and the bounds do not read eps; leave it at None, got 0.3"),
    (["--env", "appE", "--learner", "mwmr", "--n", "8", "--delta", "0.25", "--T", "50",
      "--seeds", "2", "--bound", "adversary-mistake-floor:delta=0.25"], None,
     "mwmr and the bounds do not read delta; leave it at None, got 0.25"),
    (["--env", "appG", "--learner", "random-union", "--n", "6", "--eps", "0.05",
      "--env-eps", "0.05", "--T", "10", "--seeds", "2", "--bound", "expected-loss:eps=0.05"],
     None, "appG (it reads env_eps), random-union and the bounds do not read eps"),
    # a bad family eps names the flag that supplied it
    (["--env", "appG", "--learner", "seq-elim", "--n", "4", "--env-eps", "nan", "--T", "5",
      "--seeds", "1"], None,
     "error: appG at n=4 needs 0 < eps and 12*eps <= 1, got eps=nan from --env-eps\n"),
    (["--env", "appG", "--learner", "seq-elim", "--n", "4", "--eps", "nan", "--T", "5",
      "--seeds", "1"], None,
     "error: appG at n=4 needs 0 < eps and 12*eps <= 1, got eps=nan from --eps\n"),
    # a bound value outside its key's range, from the spec or from the config
    *((["--env", "appE", "--learner", "mwmr", "--n", "8", "--T", "10", "--seeds", "2",
        "--bound", f"adversary-mistake-floor:delta={delta}"], None,
       f"bound 'adversary-mistake-floor' needs 0 < delta < 1, got delta={delta}")
      for delta in ("100", "0", "-1", "nan")),
    (["--env", "appE", "--learner", "mwmr", "--n", "8", "--T", "10", "--seeds", "2",
      "--delta", "0", "--bound", "adversary-mistake-floor"], None,
     "bound 'adversary-mistake-floor' needs 0 < delta < 1, got delta=0.0"),
    *((["--env", "appG", "--learner", "random-union", "--n", "4", "--eps", "0.05", "--T",
        "10", "--seeds", "2", "--bound", f"union-round-budget:eps={eps}"], None,
       f"bound 'union-round-budget' needs 0 < eps <= 1, got eps={eps}")
      for eps in ("-1", "0", "1.5")),
    (_APPJ + ["--T", "10", "--seeds", "1", "--bound",
              "adversary-mistake-floor:delta=0.1,fraction=0"], None,
     "bound 'adversary-mistake-floor' needs 0 < fraction <= 1, got fraction=0"),
    *((["--env", "appG", "--learner", "random-union", "--n", "4", "--eps", "0.05", "--T",
        "10", "--seeds", "2", "--bound", f"loss-quantile:{spec}"], None, message)
      for spec, message in (
          ("limit=0.1,fraction=1.5",
           "bound 'loss-quantile' needs 0 < fraction <= 1, got fraction=1.5"),
          ("limit=1", "bound 'loss-quantile' needs 0 <= limit < 1, got limit=1"),
          ("limit=-0.5", "bound 'loss-quantile' needs 0 <= limit < 1, got limit=-0.5"),
          ("limit=nan", "bound 'loss-quantile' needs 0 <= limit < 1, got limit=nan"))),
    *((_APPJ + ["--T", "10", "--seeds", "1", "--bound", f"exact-mistake-count:count={count}"],
       None, f"bound 'exact-mistake-count' needs an integer count >= 0, got count={count}")
      for count in ("-1", "2.5", "nan")),
])
def test_configuration_errors_exit_2_before_any_seed(monkeypatch, capsys, argv,
                                                     threads_env, message):
    # every seed raises, so a configuration error shows only if it comes first
    from stratgame import harness
    from stratgame.protocol import RealizabilityError

    def unrealizable(cfg, seed):
        raise RealizabilityError(1, "version space emptied; stream is not realizable")

    monkeypatch.setattr(harness, "run_single_seed", unrealizable)
    if threads_env is None:
        monkeypatch.delenv("STRATGAME_THREADS", raising=False)
    else:
        monkeypatch.setenv("STRATGAME_THREADS", threads_env)
    code = main(["run"] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_a_random_stream_on_a_sphere_reads_alpha(capsys):
    code = main(["run", "--env", "random-realizable", "--learner", "mwmr", "--n", "4",
                 "--T", "5", "--seeds", "1", "--stream-space", "sphere", "--alpha", "0.3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["alpha"] == 0.3


def test_identical_runs_emit_identical_bytes(tmp_path):
    argv = ["run", "--env", "random-realizable", "--learner", "mwmr", "--n", "8",
            "--T", "50", "--seeds", "2"]
    payloads = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        assert main(argv + ["--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def test_survivor_run_at_zero_horizon(capsys):
    code = main(["run", "--env", "appJ", "--learner", "survivor:seq-elim", "--n", "8",
                 "--eps", "0.1", "--delta", "0.1", "--env-eps", "0.02", "--T", "0",
                 "--seeds", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == [{"seed": 0, "mistakes": 0, "rounds": 0,
                               "output_loss": 0.0}]


def test_sweep_bad_value_exits_2_before_any_seed(monkeypatch, capsys):
    from stratgame import harness

    def no_seed(cfg, seed):
        raise AssertionError("a seed ran before the value check")

    monkeypatch.setattr(harness, "run_single_seed", no_seed)
    code = main(["sweep"] + _APPJ + ["--T", "10", "--seeds", "1", "--param", "n",
                                     "--values", "5,x"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --values must be a comma list of integers, got '5,x'\n"


def test_sweep_builds_each_environment_once(monkeypatch, capsys):
    # the check of every value builds its environment, and its run reuses it
    from stratgame import harness

    built = []
    real = harness.make_environment

    def counted(**args):
        built.append(args["n"])
        return real(**args)

    monkeypatch.setattr(harness, "make_environment", counted)
    monkeypatch.setattr(harness, "_env_cache", {})
    monkeypatch.setenv("STRATGAME_THREADS", "1")
    code = main(["sweep", "--env", "appJ", "--learner", "seq-elim", "--eps", "0.02", "--T",
                 "20", "--seeds", "2", "--param", "n", "--values", "4,5,6"])
    assert code == 0
    assert built == [4, 5, 6]
    assert [r["n"] for r in json.loads(capsys.readouterr().out)] == [4, 5, 6]


@pytest.mark.parametrize("param,values,message", [
    ("T", "3,-1", "the horizon T must be nonnegative, got -1"),
    ("n", "4,0", "appJ needs n >= 1, got n=0"),
])
def test_sweep_checks_every_value_before_any_seed(monkeypatch, capsys, param, values,
                                                  message):
    from stratgame import harness

    def no_seed(cfg, seed):
        raise AssertionError("a seed ran before every value was checked")

    monkeypatch.setattr(harness, "run_single_seed", no_seed)
    code = main(["sweep"] + _APPJ + ["--T", "10", "--seeds", "2", "--param", param,
                                     "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_python_dash_m_runs_the_cli():
    # without the console script installed, ``python -m stratgame`` is the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "PATH": ""}
    proc = subprocess.run([sys.executable, "-m", "stratgame", "--help"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: stratgame ")
    proc = subprocess.run([sys.executable, "-m", "stratgame", "run"] + _RR
                          + ["--radius-law", "uniform:1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad radius law 'uniform:1'")

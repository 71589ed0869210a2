"""Command line interface.

Subcommands:
    run     one experiment from flags and/or a flat key=value config file
    sweep   grid over T or n, one experiment per value
    oracle  exact rational loss queries against the hard families
    verify  execute the built-in acceptance suite

Exit code 0 iff every requested bound check passes, 1 when one fails, and 2
for configuration errors and contract, realizability or recovery violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

from .environments import _STREAM_SPACES, environment_names
from .harness import (
    ExperimentConfig,
    emit_report,
    parse_config_file,
    run_experiment,
    run_sweep,
)
from .learners import learner_names
from .oracle import analytic_union_loss, check_family, exact_loss
from .protocol import ContractViolation, RealizabilityError, RecoveryError, Setting

# choices and help of the experiment flags beyond their name and type
_FLAG_OPTIONS = {
    "env": {"choices": environment_names()},
    "learner": {"help": f"one of {learner_names()}"},
    "setting": {"choices": tuple(s.value for s in Setting)},
    "env_eps": {"help": "family epsilon when it differs from the learner's"},
    "c": {"help": "probing threshold override"},
    "seeds": {"help": "count, lo:hi, or comma list"},
    "stream_space": {"choices": tuple(_STREAM_SPACES)},
    "radius_law": {"help": "uniform:<lo>:<hi> or const:<r>"},
    "bounds": {"action": "append", "metavar": "BOUND",
               "help": "bound spec, e.g. loss-quantile:limit=0.4,fraction=0.9"},
}
# the experiment keys of flags and config files: the ExperimentConfig fields,
# with one bound spec per --bound flag or bound= line
_FIELDS = {"bound" if f.name == "bounds" else f.name: f for f in fields(ExperimentConfig)}


def _parse_seeds(text: str) -> list:
    try:
        if "," in text:
            seeds = [int(s) for s in text.split(",") if s]
        elif ":" in text:
            lo, hi = text.split(":")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = list(range(int(text)))
    except ValueError:
        raise ValueError(f"--seeds must be a count, lo:hi or a comma list of "
                         f"integers, got {text!r}") from None
    if not seeds:
        raise ValueError(f"--seeds {text!r} selects no seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"--seeds {text!r} repeats a seed")
    return seeds


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma list of integers, got {text!r}") from None


def _number(text: str):
    """``text`` as an int, else as a float, else None."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def _parse_bound(text: str) -> dict:
    name, _, rest = text.partition(":")
    spec = {"name": name}
    if rest:
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            number = _number(value) if key and sep else None
            if number is None:
                raise ValueError(f"bad bound spec {text!r}; the form is "
                                 f"name[:key=value,...] with numeric values")
            spec[key] = number
    return spec


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--eps must be a float or p/q with q != 0, got {text!r}") from None


def _type(f):  # int or float by the annotation ("int", "float | None", ...)
    return {"int": int, "float": float}.get(f.type.split(" |")[0])


def _read(f, value):
    """A field's value from its flag or file text.  Seeds and bounds are parsed
    here, not by argparse, so that a bad one ends in one ``error:`` line."""
    if f.name == "seeds":
        return _parse_seeds(value)
    if f.name == "bounds":
        return [_parse_bound(spec) for spec in value]
    return (_type(f) or str)(value)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file")
    for key, f in _FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=f.name, type=_type(f),
                       **_FLAG_OPTIONS.get(f.name, {}))
    p.add_argument("--out", type=Path)
    p.add_argument("--format", choices=("json", "csv-summary"), default="json")
    p.add_argument("--threads", type=int, help="overrides STRATGAME_THREADS")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        for key, text in parse_config_file(args.config.read_text()).items():
            f = _FIELDS.get(key.replace("-", "_"))
            if f is None:
                raise ValueError(f"unknown config key {key!r}; keys are {list(_FIELDS)}")
            values[f.name] = _read(f, text)
    for f in _FIELDS.values():
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = _read(f, flag)
    if "env" not in values or "learner" not in values:
        raise ValueError("an experiment needs at least --env and --learner")
    return ExperimentConfig(**values)


def _emit(payload: bytes, args) -> None:
    if args.out:
        args.out.write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg, threads=args.threads)
    _emit(emit_report(report, args.format), args)
    return 0 if report.all_bounds_pass else 1


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    subs = [replace(cfg, **{args.param: v}) for v in _int_list(args.values, "--values")]
    reports = run_sweep(subs, threads=args.threads)
    results = [{args.param: getattr(sub, args.param), "aggregate": report.aggregate,
                "bounds": report.bounds} for sub, report in zip(subs, reports)]
    _emit((json.dumps(results, sort_keys=True, indent=2) + "\n").encode(), args)
    return 0 if all(report.all_bounds_pass for report in reports) else 1


def cmd_oracle(args) -> int:
    eps = _parse_eps(args.eps)
    check_family(args.env, args.n, eps, args.target)  # a bad --n is named before --indices
    if args.all_negative:
        region_points = []
    elif args.positive_at_anchor:
        if args.env == "appI":
            raise ValueError("--positive-at-anchor: appI has no anchor point")
        anchor = ("origin",) if args.env == "appG" else ("idx", 0)
        region_points = [anchor]
    else:
        idx = _int_list(args.indices, "--indices")
        if not all(0 <= i < args.n for i in idx):
            raise ValueError(f"--indices must be class indices in 0..{args.n - 1}, "
                             f"got {args.indices!r}")
        if args.env in ("appG", "appI"):
            region_points = [("basis", i) for i in idx]
        else:
            region_points = [("idx", i + 1) for i in idx]
    value = exact_loss(args.env, args.n, eps, args.target, region_points)
    print(f"exact loss = {value} = {float(value):.10g}")
    if args.indices:
        closed = analytic_union_loss(args.env, args.n, eps, args.target, idx)
        print(f"closed form = {closed} = {float(closed):.10g}")
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_all

    only = _int_list(args.only, "--only") if args.only else None
    results = run_all(only=only)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratgame",
        description="simulate classification against feature-manipulating agents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_experiment_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over T or n")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--param", choices=("T", "n"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma list")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exact loss queries")
    p_oracle.add_argument("--env", choices=("appG", "appI", "appJ", "appK"),
                          required=True)
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--eps", required=True, help="float or p/q")
    p_oracle.add_argument("--target", type=int, default=0)
    region = p_oracle.add_mutually_exclusive_group(required=True)
    region.add_argument("--indices", help="comma list of class indices")
    region.add_argument("--all-negative", action="store_true")
    region.add_argument("--positive-at-anchor", action="store_true")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--only", help="comma list of criterion numbers")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, ContractViolation, RealizabilityError,
            RecoveryError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands:
    run     one experiment from flags and/or a flat key=value config file
    sweep   grid over T or n, one experiment per value
    oracle  exact rational loss queries against the hard families
    verify  execute the built-in acceptance suite

Exit code 0 iff every requested bound check passes, 1 when one fails, and 2
for configuration errors and contract or realizability violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .environments import _STREAM_SPACES, environment_names
from .harness import (
    ExperimentConfig,
    emit_report,
    parse_config_file,
    run_experiment,
)
from .learners import learner_names
from .oracle import analytic_union_loss, exact_loss
from .protocol import ContractViolation, RealizabilityError, Setting

SETTINGS = tuple(s.value for s in Setting)

# config keys by annotated type ("int", "float | None", ...); seeds and
# bounds are not plain flags
_FIELD_TYPES = {f.name: f.type.split(" |")[0] for f in fields(ExperimentConfig)}
_INT_KEYS = {k for k, t in _FIELD_TYPES.items() if t == "int"}
_FLOAT_KEYS = {k for k, t in _FIELD_TYPES.items() if t == "float"}
_FLAG_KEYS = tuple(k for k in _FIELD_TYPES if k not in ("seeds", "bounds"))


def _parse_seeds(text: str) -> list:
    if "," in text:
        return [int(s) for s in text.split(",") if s]
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi)))
    return list(range(int(text)))


def _parse_bound(text: str) -> dict:
    name, _, rest = text.partition(":")
    spec = {"name": name}
    if rest:
        for pair in rest.split(","):
            key, value = pair.split("=")
            try:
                spec[key] = int(value)
            except ValueError:
                spec[key] = float(value)
    return spec


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file")
    p.add_argument("--env", choices=environment_names())
    p.add_argument("--learner", help=f"one of {learner_names()}")
    p.add_argument("--setting", choices=SETTINGS)
    p.add_argument("--n", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--env-eps", dest="env_eps", type=float,
                   help="family epsilon when it differs from the learner's")
    p.add_argument("--target", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float, help="probing threshold override")
    p.add_argument("--budget", type=int)
    p.add_argument("--base-rounds", dest="base_rounds", type=int)
    p.add_argument("--mode", choices=("auto", "online", "pac"))
    p.add_argument("--seeds", help="count, lo:hi, or comma list")
    p.add_argument("--stream-space", dest="stream_space",
                   choices=tuple(_STREAM_SPACES))
    p.add_argument("--radius-law", dest="radius_law",
                   help="uniform:<lo>:<hi> or const:<r>")
    p.add_argument("--estimation-samples", dest="estimation_samples", type=int)
    p.add_argument("--bound", action="append", default=None,
                   help="bound spec, e.g. loss-quantile:limit=0.4,fraction=0.9")
    p.add_argument("--out", type=Path)
    p.add_argument("--format", choices=("json", "csv-summary"), default="json")
    p.add_argument("--threads", type=int, help="overrides STRATGAME_THREADS")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        for key, raw in parse_config_file(args.config.read_text()).items():
            key = key.replace("-", "_")
            if key == "seeds":
                values[key] = _parse_seeds(raw)
            elif key == "bound":
                values.setdefault("bounds", []).append(_parse_bound(raw))
            elif key in _INT_KEYS:
                values[key] = int(raw)
            elif key in _FLOAT_KEYS:
                values[key] = float(raw)
            else:
                values[key] = raw
    for key in _FLAG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if args.seeds is not None:
        values["seeds"] = _parse_seeds(args.seeds)
    if args.bound:
        values["bounds"] = [_parse_bound(b) for b in args.bound]
    if "env" not in values or "learner" not in values:
        raise SystemExit("an experiment needs at least --env and --learner")
    values.setdefault("setting", "x-delta-after")
    return ExperimentConfig(**values)


def _emit(report, args) -> None:
    payload = emit_report(report, args.format)
    if args.out:
        args.out.write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg, threads=args.threads)
    _emit(report, args)
    return 0 if report.all_bounds_pass else 1


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    values = [int(v) for v in args.values.split(",")]
    results = []
    all_pass = True
    for v in values:
        sub = ExperimentConfig(**{**cfg.__dict__, args.param: v})
        report = run_experiment(sub, threads=args.threads)
        all_pass = all_pass and report.all_bounds_pass
        results.append({args.param: v, "aggregate": report.aggregate,
                        "bounds": report.bounds})
    payload = json.dumps(results, sort_keys=True, indent=2) + "\n"
    if args.out:
        args.out.write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0 if all_pass else 1


def _parse_eps(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(text)


def cmd_oracle(args) -> int:
    eps = _parse_eps(args.eps)
    if args.all_negative:
        region_points = []
    elif args.positive_at_anchor:
        anchor = ("origin",) if args.env in ("appG", "appI") else ("idx", 0)
        region_points = [anchor]
    elif args.indices:
        idx = [int(i) for i in args.indices.split(",")]
        if args.env in ("appG", "appI"):
            region_points = [("basis", i) for i in idx]
        else:
            region_points = [("idx", i + 1) for i in idx]
    else:
        raise SystemExit("give --indices, --all-negative or --positive-at-anchor")
    value = exact_loss(args.env, args.n, eps, args.target, region_points)
    print(f"exact loss = {value} = {float(value):.10g}")
    if args.indices:
        closed = analytic_union_loss(args.env, args.n, eps, args.target,
                                     [int(i) for i in args.indices.split(",")])
        print(f"closed form = {closed} = {float(closed):.10g}")
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_all

    only = [int(i) for i in args.only.split(",")] if args.only else None
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
    p_oracle.add_argument("--indices", help="comma list of class indices")
    p_oracle.add_argument("--all-negative", action="store_true")
    p_oracle.add_argument("--positive-at-anchor", action="store_true")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--only", help="comma list of criterion numbers")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, ContractViolation, RealizabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Mistake counts of the online learners as the class grows.

Runs halving / mwmr / seq-elim on random realizable star streams and prints
worst-case and mean mistakes per class size next to the analytic bounds
(the harness's bound formulas; n - 1 for seq-elim).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stratgame.harness import ExperimentConfig, run_experiment

SIZES = (8, 32, 128, 512)
SEEDS = 50
T = 2000


def main():
    print(f"{'learner':10} {'n':>5} {'max':>5} {'mean':>8} {'bound':>10}")
    for name, setting, bounds in (
            ("halving", "x-delta", [{"name": "halving-mistake-bound"}]),
            ("mwmr", "x-delta-after", [{"name": "mwmr-expected-mistake-bound"}]),
            ("seq-elim", "x-delta-after", [])):
        for n in SIZES:
            cfg = ExperimentConfig(
                env="random-realizable", learner=name, setting=setting,
                n=n, T=T, seeds=list(range(SEEDS)), stream_space="star",
                bounds=bounds)
            report = run_experiment(cfg)
            agg = report.aggregate
            bound = report.bounds[0]["value"] if report.bounds else n - 1
            print(f"{name:10} {n:>5} {agg['max_mistakes']:>5} "
                  f"{agg['mean_mistakes']:>8.2f} {bound:>10.1f}")


if __name__ == "__main__":
    main()

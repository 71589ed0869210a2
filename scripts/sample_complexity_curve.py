#!/usr/bin/env python3
"""Output loss of the random-union learner as the horizon grows.

Sweeps T on the radius-coded sphere family and prints the mean exact output
loss per horizon, next to the T >= 320 log2(n) ln(n) / eps budget.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stratgame.harness import ExperimentConfig, run_experiment
from stratgame.learners import default_union_rounds

N = 8
EPS = 0.04
SEEDS = 40


def main():
    budget = default_union_rounds(N, EPS)
    horizons = [budget // 64, budget // 16, budget // 4, budget]
    print(f"round budget for eps={EPS}: {budget}")
    print(f"{'T':>8} {'mean loss':>12} {'max loss':>10}")
    for T in horizons:
        cfg = ExperimentConfig(
            env="appG", learner="random-union", setting="x-delta-after",
            n=N, T=T, seeds=list(range(SEEDS)), eps=EPS, target=N - 1)
        report = run_experiment(cfg)
        agg = report.aggregate
        print(f"{T:>8} {agg['mean_output_loss']:>12.5f} "
              f"{agg['max_output_loss']:>10.5f}")


if __name__ == "__main__":
    main()

"""Simulation of online and PAC classification against strategic agents
with unknown, personalized manipulation sets."""

from .core import (
    Agent,
    Ball,
    Explicit,
    Hypothesis,
    HypothesisClass,
    MatrixSpace,
    MetricSpace,
    ORIGIN,
    PermutationSphereSpace,
    ScaledBasisSpace,
    StarSpace,
    TieBreak,
    basis,
    best_response,
    matrix_point,
    perm_point,
    population_loss,
    predict,
    scaled_basis,
    strategic_loss,
)
from .protocol import (
    ContractViolation,
    Feedback,
    Learner,
    RealizabilityError,
    RecoveryError,
    Setting,
    Transcript,
    run_online,
    run_pac,
    run_round,
)
from .learners import make_learner
from .environments import make_environment
from .harness import ExperimentConfig, emit_report, monte_carlo_loss, run_experiment
from .oracle import analytic_union_loss, exact_loss

__version__ = "0.1.0"

from .geometry import (
    MatrixSpace,
    MetricSpace,
    ORIGIN,
    PermutationSphereSpace,
    Point,
    PointNotInSpace,
    ScaledBasisSpace,
    StarSpace,
    TOL,
    basis,
    matrix_point,
    perm_point,
    scaled_basis,
)
from .predictors import (
    ALL_NEGATIVE,
    ClassDistanceIndex,
    Hypothesis,
    HypothesisClass,
    predict,
)
from .response import (
    Agent,
    Ball,
    Explicit,
    ManipulationSet,
    TieBreak,
    best_response,
    population_loss,
    strategic_loss,
)

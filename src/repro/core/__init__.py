"""CRH optimization framework — the paper's primary contribution.

The public entry points are :func:`crh` (one call), :class:`CRHSolver` /
:class:`CRHConfig` (configurable), the loss registry in
:mod:`repro.core.losses`, the weight schemes in
:mod:`repro.core.regularizers`, and the source-selection helpers in
:mod:`repro.core.selection`.  The per-property math every engine shares
lives in :mod:`repro.core.kernels`.
"""

from . import kernels
from .kernels import column_std
from .initialization import (
    initialize_random,
    initialize_vote_mean,
    initialize_vote_median,
    initializer_by_name,
)
from .losses import (
    Loss,
    NormalizedAbsoluteLoss,
    NormalizedSquaredLoss,
    ProbabilityVectorLoss,
    TruthState,
    ZeroOneLoss,
    available_losses,
    loss_by_name,
    register_loss,
)
from .objective import (
    ConvergenceCriterion,
    DeviationOptions,
    objective_value,
    per_source_deviations,
)
from .regularizers import (
    ExponentialWeights,
    LpNormWeights,
    TopJSelectionWeights,
    WeightScheme,
    weight_scheme_by_name,
)
from .bregman import (
    BregmanGenerator,
    BregmanLoss,
    GeneralizedIDivergenceLoss,
    ItakuraSaitoLoss,
    SquaredEuclideanBregmanLoss,
    bregman_divergence,
)
from .finegrained import (
    FineGrainedConfig,
    FineGrainedCRHSolver,
    FineGrainedResult,
    fine_grained_crh,
)
from .result import TruthDiscoveryResult, check_result_alignment
from .robust_loss import HuberLoss, huber_value
from .selection import (
    SelectionResult,
    select_best_source,
    select_top_j_sources,
    select_under_budget,
)
from .solver import CRHConfig, CRHSolver, crh, states_to_truth_table
from .text_loss import (
    EditDistanceLoss,
    levenshtein,
    normalized_edit_distance,
)

__all__ = [
    "CRHConfig",
    "CRHSolver",
    "BregmanGenerator",
    "BregmanLoss",
    "ConvergenceCriterion",
    "DeviationOptions",
    "EditDistanceLoss",
    "ExponentialWeights",
    "FineGrainedCRHSolver",
    "FineGrainedConfig",
    "FineGrainedResult",
    "GeneralizedIDivergenceLoss",
    "HuberLoss",
    "ItakuraSaitoLoss",
    "SquaredEuclideanBregmanLoss",
    "Loss",
    "LpNormWeights",
    "NormalizedAbsoluteLoss",
    "NormalizedSquaredLoss",
    "ProbabilityVectorLoss",
    "SelectionResult",
    "TopJSelectionWeights",
    "TruthDiscoveryResult",
    "TruthState",
    "WeightScheme",
    "ZeroOneLoss",
    "available_losses",
    "bregman_divergence",
    "check_result_alignment",
    "column_std",
    "crh",
    "initialize_random",
    "initialize_vote_mean",
    "initialize_vote_median",
    "fine_grained_crh",
    "initializer_by_name",
    "kernels",
    "levenshtein",
    "normalized_edit_distance",
    "loss_by_name",
    "objective_value",
    "per_source_deviations",
    "register_loss",
    "select_best_source",
    "select_top_j_sources",
    "select_under_budget",
    "states_to_truth_table",
    "weight_scheme_by_name",
    "huber_value",
]

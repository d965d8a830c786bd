"""Predictive low-rank matrix completion with side information.

Reconstructs a rank-k matrix from partial observations so that the
reconstruction also linearly predicts a fully observed side matrix,
via a mixed-projection ADMM solver, plus reference baselines, a
synthetic data generator, and a benchmark harness.
"""

from .admm import (IterateState, ObservationMasks, SolveReport,
                   dual_residual, first_order_check, solve)
from .baselines import BaselineResult, iterative_svd, scaled_gd, soft_impute
from .bench import SweepConfig, TrialRow, run_sweep
from .data import (GroundTruth, Hyperparams, PartialMatrix, SideInfo,
                   generate_synthetic, load_partial, load_side_info,
                   save_partial, save_side_info)
from .exceptions import (ConvergenceError, NumericalError, ParameterError,
                         ParseError)
from .linalg import (TruncatedSVD, apply_projection, build_pgram_operator,
                     pgram_compress, side_basis, soft_threshold_svd,
                     truncated_svd)
from .objective import (Metrics, ObjectiveBreakdown, err_l2, evaluate,
                        fitted_rank, objective_naive, objective_svd,
                        ols_alpha, r_squared, spectral_bound,
                        worst_case_delta)

__version__ = "0.1.0"

__all__ = [
    "IterateState", "ObservationMasks", "SolveReport", "dual_residual",
    "first_order_check", "solve",
    "BaselineResult", "iterative_svd", "scaled_gd", "soft_impute",
    "SweepConfig", "TrialRow", "run_sweep",
    "GroundTruth", "Hyperparams", "PartialMatrix", "SideInfo",
    "generate_synthetic", "load_partial", "load_side_info",
    "save_partial", "save_side_info",
    "ConvergenceError", "NumericalError", "ParameterError", "ParseError",
    "TruncatedSVD", "apply_projection", "build_pgram_operator",
    "pgram_compress", "side_basis", "soft_threshold_svd", "truncated_svd",
    "Metrics", "ObjectiveBreakdown", "err_l2", "evaluate", "fitted_rank",
    "objective_naive", "objective_svd", "ols_alpha", "r_squared",
    "spectral_bound", "worst_case_delta",
]

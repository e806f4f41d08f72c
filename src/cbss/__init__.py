"""Complex-valued blind source separation of weakly stationary series.

The estimator whitens the sample covariance and diagonalizes one
symmetrized lagged autocovariance, recovering latent components up to
row phases.  The package bundles the estimator, a generator for
Gaussian-subordinated (short- and long-range dependent) latent
processes, a Monte-Carlo lab for convergence-rate experiments, a
minimum-distance performance score, and an RGB image separation
pipeline that works through the complex plane.
"""

from .asymlab import (
    KSResult,
    RateExperimentConfig,
    RateExperimentReport,
    diagonal_limit_check,
    expansion_residual_check,
    fit_loglog_slope,
    mu_contribution_check,
    normality_diagnostic,
    run_rate_experiment,
    write_report,
)
from .estimators import autocov_sym, autocov_unsym, sample_mean
from .genproc import (
    Driver,
    LatentComponentSpec,
    ModelSpec,
    RateInfo,
    Transform,
    fgn_autocov,
    generate,
    hermite_poly,
    hermite_rank,
    population_lambdas,
    sample_stationary_gaussian,
    theoretical_gamma,
)
from .linalg import herm_inv_sqrt, hermitian_eig, inverse, is_hermitian
from .metrics import md_index, solve_assignment
from .unmixing import (
    UnmixingResult,
    align_phase_to,
    apply_unmixing,
    lag_sweep,
    standardize_phase,
    unmix,
    unmix_from_covariances,
)

__version__ = "0.1.0"

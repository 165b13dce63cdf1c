"""Numerical laboratory for second mixed moments of characteristic polynomials
of 1D Gaussian band matrices: ensemble sampling, overflow-safe determinant
evaluation, moment estimation with sine-kernel comparison, the dual Hermitian-
field representation, and the supporting closed-form toolkits."""

from .charpoly import tridiagonalize
from .dualrep import AccuracyError, DualMcEstimate, QuadratureGrid, dual_f2_n1, dual_f2_n2_mc
from .lattice import (
    CovarianceProfile,
    Lattice1D,
    charpoly_neumann,
    charpoly_neumann_closed,
    charpoly_pinned,
    charpoly_pinned_closed,
    covariance_profile,
    green_diag,
    log_gaussian_partition,
    neumann_laplacian,
)
from .moments import (
    EstimatorError,
    MomentEstimate,
    RatioResult,
    mc_f2,
    moment_scan,
    wick_exact_f2,
)
from .sampler import RngStream, gue_profile, sample_rbm
from .saddle import (
    SaddleData,
    SpectralParams,
    saddle_data,
    saddle_exponent,
    saddle_exponent_excess,
    scaled_lambdas,
    semicircle_cdf,
    semicircle_density,
    sine_kernel,
)
from .unitary import haar_u2_batch, hciz_2x2, v12_moment

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CovarianceProfile",
    "DualMcEstimate",
    "EstimatorError",
    "Lattice1D",
    "MomentEstimate",
    "QuadratureGrid",
    "RatioResult",
    "RngStream",
    "SaddleData",
    "SpectralParams",
    "charpoly_neumann",
    "charpoly_neumann_closed",
    "charpoly_pinned",
    "charpoly_pinned_closed",
    "covariance_profile",
    "dual_f2_n1",
    "dual_f2_n2_mc",
    "green_diag",
    "gue_profile",
    "haar_u2_batch",
    "hciz_2x2",
    "log_gaussian_partition",
    "mc_f2",
    "moment_scan",
    "neumann_laplacian",
    "saddle_data",
    "saddle_exponent",
    "saddle_exponent_excess",
    "sample_rbm",
    "scaled_lambdas",
    "semicircle_cdf",
    "semicircle_density",
    "sine_kernel",
    "tridiagonalize",
    "v12_moment",
    "wick_exact_f2",
]

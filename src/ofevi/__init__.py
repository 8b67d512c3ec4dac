"""Black-box variational inference with squared orthogonal-function expansions.

Fit q(z) = (sum_k alpha_k Phi_k(z))^2 to a differentiable target by solving
a single symmetric minimum-eigenvalue problem over importance-weighted score
evaluations, then sample exactly and read off moments in closed form.
"""

from .basis1d import (
    FOURIER,
    HERMITE,
    LAGUERRE,
    LEGENDRE,
    BasisFamily,
    basis_tables,
)
from .density import CdfTable, OfeDensity, build_cdf_table
from .estimator import (
    FitResult,
    ScoreTarget,
    assemble_moment_matrix,
    feature_vectors,
    fit,
    fit_from_batch,
    min_eigenpair,
)
from .exceptions import (
    ConfigError,
    OrderLimitError,
    PoleError,
    ProposalSupportError,
    ScoreRejectionError,
    SupportError,
    TableBuildError,
    TransformError,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    records_from_json,
    records_to_csv,
    records_to_json,
    run,
    write_outputs,
)
from .product_basis import ProductBasis
from .proposals import IsotropicGaussian, UniformBox
from .standardize import (
    StandardizedTarget,
    StandardizingTransform,
    estimate_moments,
    estimate_transform,
)
from .targets import (
    TARGET_REGISTRY,
    Funnel,
    Gaussian,
    GaussianMixture,
    SinhArcsinh,
    bimodal_1d,
    cross_2d,
    funnel_2d,
    make_target,
    mixture_2d,
    sinh_arcsinh_2d,
    sinh_arcsinh_5d,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily", "HERMITE", "LEGENDRE", "FOURIER", "LAGUERRE",
    "basis_tables",
    "ProductBasis",
    "UniformBox", "IsotropicGaussian",
    "Gaussian", "GaussianMixture", "Funnel", "SinhArcsinh",
    "bimodal_1d", "mixture_2d", "funnel_2d", "cross_2d",
    "sinh_arcsinh_2d", "sinh_arcsinh_5d", "make_target", "TARGET_REGISTRY",
    "StandardizingTransform", "StandardizedTarget",
    "estimate_moments", "estimate_transform",
    "OfeDensity", "CdfTable", "build_cdf_table",
    "ScoreTarget", "FitResult",
    "feature_vectors", "assemble_moment_matrix", "min_eigenpair",
    "fit", "fit_from_batch",
    "ExperimentConfig", "RunRecord", "run",
    "records_to_csv", "records_to_json", "records_from_json", "write_outputs",
    "SupportError", "OrderLimitError", "ProposalSupportError", "ScoreRejectionError",
    "PoleError", "TableBuildError", "TransformError", "ConfigError",
]

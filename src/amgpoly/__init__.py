"""AMG-preconditioned conjugate gradients with Chebyshev polynomial smoothers.

The library covers the full pipeline: sparse kernels (``sparse``), Chebyshev
polynomial evaluation (``chebyshev``), the offline minimax optimization of the
smoother parameters (``optimize``), the runtime smoother kernels
(``smoothers``), aggregation-based AMG hierarchies with dense bound oracles
(``amg``), PCG/FCG solvers (``krylov``), benchmark problem generators
(``problems``), and a reproducible experiment CLI (``cli``).
"""

from .amg import (
    AmgHierarchy,
    CoarseningConfig,
    Level,
    as_vcycle_preconditioner,
    build_hierarchy,
    estimate_lambda_max,
    galerkin_rap,
    matching_aggregate,
    sa_aggregate,
    smooth_prolongator,
    two_level_constants,
    vcycle_apply,
)
from .chebyshev import (
    ScaledChebParams,
    c1_coefficient,
    cheb1_eval,
    cheb4_eval,
    coefficient_roots,
    fourth_kind_basis,
    scaled_cheb_eval,
    smoothing_limit_at_zero,
    smoothing_objective,
)
from .krylov import KrylovConfig, SolveReport, solve
from .optimize import (
    BetaTable,
    brent_root,
    gamma_cheb4,
    lambda_of,
    load_beta_tables,
    optimal_a,
    optimize_beta,
    phi,
    solve_a_star,
    theorem_bounds,
)
from .problems import SpectralOperator, aniso2d_q1, poisson3d, spectral_synthetic
from .smoothers import (
    FAMILIES,
    PolySmootherConfig,
    as_preconditioner,
    error_polynomial_coeffs,
    l1_jacobi_diag,
    smoother_apply,
    smoother_error_apply,
    smoother_error_oracle,
    smoothing_constant,
)
from .sparse import (
    CsrMatrix,
    dense_sym_eig,
    fused_update,
    read_matrix_market,
    reset_spmv_count,
    spmv,
    spmv_count,
    write_matrix_market,
)

__version__ = "0.1.0"

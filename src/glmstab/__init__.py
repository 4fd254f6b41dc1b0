"""Strictly stable general linear methods and spectral stability diagnostics.

Fixed-step GLM integration of nonautonomous linear (and small nonlinear) ODEs,
extraction of the underlying one-step behavior via the eigenvalue-1 spectral
projection of the method's V matrix, and Lyapunov / Sacker-Sell exponent
estimation from discrete QR trails.
"""

from .errors import (
    ConfigError,
    DegenerateFit,
    GlmStabError,
    NewtonDiverged,
    NotStrictlyStable,
    NumericalError,
    OrthogonalityLost,
    ParameterOutsideGap,
    QuadratureUnderResolved,
    RankDeficient,
    Singular,
    StageSingular,
    WindowOutOfRange,
    ZeroVector,
)
from .glm import (
    GlmTableau,
    NewtonConfig,
    Trajectory,
    ab2_tableau,
    backward_euler_tableau,
    bdf2_tableau,
    check_strictly_stable,
    get_tableau,
    linear_transition,
    lte_probe,
    lte_series,
    run_linear,
    run_nonlinear,
    scalar_transition,
    stability_gap,
    start_from_reference,
    start_rk4,
    tau_series,
    transition_batch,
    validate_tableau,
)
from .linalg import QrFactors, qr_positive, solve
from .onestep import (
    DecayFit,
    SpectralSplit,
    WSequence,
    extract_w,
    initialization_decay,
    spectral_split,
)
from .problems import (
    LinearProblem,
    RotatingCosineParams,
    ScalarCosineParams,
    TanhForcedParams,
    constant_problem,
    propagate_exact,
    reference_batch,
    reference_solution,
    rotating_config,
    rotating_cosine_problem,
    scalar_cosine_problem,
    scalar_cosine_reference,
    tanh_jac,
    tanh_reference,
    tanh_rhs,
)
from .spectra import (
    IntegralSeparationReport,
    LyapunovEndpoints,
    LyapunovEstimate,
    OracleTrail,
    QrTrail,
    SackerSellEstimate,
    continuous_qr_oracle,
    integral_separation_logs,
    integrate_diag,
    lyapunov_endpoints,
    mu_appr,
    new_matrix_trail,
    qr_advance_series,
    sacker_sell_window,
    vector_trail_from_values,
)

__version__ = "0.1.0"

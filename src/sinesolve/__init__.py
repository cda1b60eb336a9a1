"""Spectral-Galerkin solver and verification suite for weakly coupled,
possibly indefinite two-component elliptic systems on box domains."""

from .domain import (
    BoxDomain,
    QuadratureGrid,
    ScalarField,
    SineBasis,
    eigenvalue,
    h1_inner,
    h1_norm,
    integrate,
    project,
    synthesize,
    unit_mode,
)
from .energy import (
    GalerkinSystem,
    PairField,
    ScalarProblem,
    SpectralSplit,
    SystemParams,
    bilinear_b,
    bilinear_bi,
    energy,
    gradient,
    scalar_energy,
    scalar_gradient,
    spectral_split,
    zero_pair,
)
from .estimates import (
    CutoffSpec,
    EstimateReport,
    calculus_inequalities,
    cutoff_bubble_integrals,
    fit_orders,
    linking_sweep,
    mixed_norm_constant,
    ray_maximum,
)
from .limit import (
    BubbleProfile,
    LimitParams,
    bubble_value,
    coupled_sobolev_constant,
    f_lambda,
    interior_threshold,
    minimizer_amplitudes,
    sobolev_constant,
)
from .nehari import (
    CriticalPoint,
    NehariResiduals,
    SolverConfig,
    ThresholdResult,
    classify,
    coupling_threshold,
    diagonal_sup,
    ground_state,
    multiplicity_search,
    nehari_project,
    nehari_residuals,
    orbit_dedup,
    rescale_diagonal_sup,
    scalar_ground_state,
    semitrivial_threshold,
    sphere_infimum,
)
from .synchronized import (
    SyncRoot,
    amplitudes,
    find_roots,
    make_sync_root,
    ratio_function,
    synchronized_solution,
    unit_coefficient_profile,
)

__version__ = "0.1.0"

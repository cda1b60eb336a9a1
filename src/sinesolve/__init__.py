"""Spectral-Galerkin solver and verification suite for weakly coupled,
possibly indefinite two-component elliptic systems on box domains."""

from .domain import (
    BoxDomain,
    QuadratureGrid,
    SineBasis,
    integrate,
    project,
    synthesize,
)
from .energy import (
    GalerkinSystem,
    ScalarProblem,
    SystemParams,
    nonpositive_modes,
)
from .estimates import (
    CutoffSpec,
    EstimateReport,
    calculus_inequalities,
    cutoff_bubble_integrals,
    fit_orders,
    linking_sweep,
    ray_maximum,
)
from .limit import (
    BubbleProfile,
    LimitParams,
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
    nehari_residuals,
    rescale_diagonal_sup,
    scalar_ground_state,
    semitrivial_threshold,
)
from .synchronized import (
    amplitudes,
    find_roots,
    ratio_function,
    synchronized_solution,
)

__version__ = "0.1.0"

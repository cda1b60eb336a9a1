"""Exception types shared across the package."""


class BasisMismatchError(ValueError):
    """A basis and a grid, or a basis and a problem, do not live on the same domain."""


class PreconditionError(ValueError):
    """An operation was called outside its documented domain of validity."""


class SolverError(RuntimeError):
    """Base class for numerical failures."""


class ConvergenceFailureError(SolverError):
    """No multistart seed converged; carries per-seed diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class NoProjectionError(SolverError):
    """The ray through the given point never meets the Nehari set."""


class BoundaryInfimumError(SolverError):
    """The quotient infimum is approached at the boundary (coupling too small)."""


class BracketFailureError(SolverError):
    """The requested crossing lies outside the allowed bracket."""


class InconsistencyError(SolverError):
    """A built-in cross-check failed beyond its tolerance."""


class ClassificationContradictionError(SolverError):
    """Energy-window and component-mass classification disagree for one point."""


class ConfigError(ValueError):
    """A run configuration failed validation."""

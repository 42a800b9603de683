"""Exception types shared across the package.

Each class carries the command-line exit code of its failure kind in
``exit_code``: 3 for invalid input, 4 for solver or pipeline failures and
5 for everything else (internal invariant violations).
"""


class MHessianError(Exception):
    """Base class for all library errors."""

    exit_code = 5


class DimensionMismatchError(MHessianError, ValueError):
    """Operands have incompatible dimensions."""

    exit_code = 3


class NotHermitianError(MHessianError, ValueError):
    """A matrix expected to be Hermitian (or real symmetric) is not."""

    exit_code = 3


class NotPositiveDefiniteError(MHessianError, ValueError):
    """A metric matrix is not positive definite at the working threshold."""

    exit_code = 3


class ConeBoundaryError(MHessianError, ValueError):
    """A spectrum lies on, or outside, the admissible eigenvalue-sum cone."""

    exit_code = 3


class HypothesisViolatedError(MHessianError, ValueError):
    """The curvature hypothesis required by a bound regime does not hold."""

    exit_code = 3


class StencilError(MHessianError, ValueError):
    """A finite-difference stencil leaves the grid domain."""


class NewtonDiverged(MHessianError, RuntimeError):
    """Newton iteration failed to reduce the residual below tolerance."""

    exit_code = 4


class ConeEscape(MHessianError, RuntimeError):
    """No admissible damping step keeps the iterate strictly inside the cone."""

    exit_code = 4


class IllPosedRHS(MHessianError, ValueError):
    """A right-hand side violated its positivity/monotonicity invariants."""

    exit_code = 4


class ChiNotPositive(MHessianError, ValueError):
    """The background form is not strictly m-positive for the metric."""

    exit_code = 3


class DirichletFailure(MHessianError, RuntimeError):
    """A sub-solve of a pipeline, Dirichlet or periodic, failed."""

    exit_code = 4

    def __init__(self, index, cause):
        super().__init__(f"solve at schedule index {index} failed: {cause}")
        self.index = index
        self.cause = cause


class ScheduleExhausted(MHessianError, RuntimeError):
    """No remaining schedule index satisfies the monotone envelope condition."""

    exit_code = 4


class TargetNotAdmissible(MHessianError, ValueError):
    """The target function fails its discrete cone admissibility test."""

    exit_code = 3


class ConfigError(MHessianError, ValueError):
    """A config file or a SolverConfig failed to parse or validate."""

    exit_code = 3

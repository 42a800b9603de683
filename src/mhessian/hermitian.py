"""Pointwise Hermitian form primitives.

A real (1,1)-form at a point is carried by the Hermitian matrix of its
coefficients in a fixed coordinate frame.  This module provides that
carrier, positive definite metrics, the generalized eigenproblem
``det(T - lambda * omega) = 0`` whose solutions are the eigenvalues of a
form relative to a metric, and the algebraic passage from a real Hessian
in coordinates ``x_1, y_1, ..., x_n, y_n`` to the complex Hessian
``u_{j kbar} = d2u / dz_j dzbar_k``.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveDefiniteError,
)

# Hermitian-symmetry defect tolerated on construction (relative to scale).
HERMITIAN_TOL = 1e-14
# Real-symmetry defect tolerated on real Hessian input.
SYMMETRY_TOL = 1e-10
# A metric is rejected when its smallest eigenvalue is below this fraction
# of the largest one.
POSDEF_TOL = 1e-12


def _as_square_complex(entries) -> np.ndarray:
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (..., n, n)."""
    return np.swapaxes(a, -1, -2).conj()


def hermitian_entries(a: np.ndarray) -> np.ndarray:
    """The symmetrized entries of a stack (..., n, n) of complex matrices.

    Each member must be finite with a Hermitian symmetry defect of at most
    ``HERMITIAN_TOL`` times its scale; the first member that is not raises
    NotHermitianError.  ``HermitianMatrix`` validates its one matrix here.
    """
    if not np.isfinite(a).all():
        raise NotHermitianError("matrix entries must be finite")
    ah = conj_transpose(a)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    defect = np.abs(a - ah).max(axis=(-2, -1))
    bad = defect > HERMITIAN_TOL * scale
    if bad.any():
        raise NotHermitianError(
            f"Hermitian symmetry defect {defect[bad][0]:.3e} exceeds tolerance"
        )
    return 0.5 * (a + ah)


def check_positive_definite(entries: np.ndarray) -> None:
    """Raise NotPositiveDefiniteError unless every member of a Hermitian
    stack (..., n, n) has its smallest eigenvalue above ``POSDEF_TOL``
    times its largest, which must be positive.  ``MetricMatrix``
    validates its one matrix here."""
    w = np.linalg.eigvalsh(entries)
    bad = (w[..., -1] <= 0) | (w[..., 0] <= POSDEF_TOL * w[..., -1])
    if bad.any():
        low, high = w[bad][0][[0, -1]]
        raise NotPositiveDefiniteError(
            f"metric eigenvalues [{low:.3e}, {high:.3e}] fail the "
            f"positive definiteness threshold"
        )


@dataclass(frozen=True)
class HermitianMatrix:
    """Coefficient matrix of a real (1,1)-form in a fixed frame."""

    entries: np.ndarray

    def __post_init__(self):
        a = hermitian_entries(_as_square_complex(self.entries))
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> "HermitianMatrix":
        return cls(np.eye(n))

    def scaled(self, alpha: float) -> "HermitianMatrix":
        return HermitianMatrix(float(alpha) * self.entries)

    def plus(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("cannot add forms of different dimension")
        return HermitianMatrix(self.entries + other.entries)


@dataclass(frozen=True)
class MetricMatrix:
    """Positive definite Hermitian matrix of a metric in a fixed frame."""

    base: HermitianMatrix

    def __post_init__(self):
        check_positive_definite(self.base.entries)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower triangular C with entries = C @ C^H."""
        return np.linalg.cholesky(self.base.entries)

    @classmethod
    def identity(cls, n: int) -> "MetricMatrix":
        return cls(HermitianMatrix.identity(n))

    @classmethod
    def diagonal(cls, values) -> "MetricMatrix":
        return cls(HermitianMatrix.diagonal(values))


@dataclass(frozen=True)
class RelativeSpectrum:
    """Eigenvalues of a form relative to a metric, with diagonalizing basis.

    The basis columns b_k satisfy ``basis^H omega basis = Id`` and
    ``basis^H T basis = diag(lambdas)``, with lambdas sorted ascending.
    """

    lambdas: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


@lru_cache(maxsize=None)
def _trsm(a_dtype: np.dtype, b_dtype: np.dtype):
    """The BLAS trsm routine for operands of these dtypes."""
    return scipy.linalg.get_blas_funcs(
        "trsm", (np.empty(0, a_dtype), np.empty(0, b_dtype)))


def _triangular_solve(A: np.ndarray, B: np.ndarray, lower: bool) -> np.ndarray:
    """A^{-1} B for triangular A by one BLAS trsm call.

    Unlike ``scipy.linalg.solve_triangular`` this skips the LAPACK driver,
    whose threaded OpenBLAS path costs milliseconds on tiny matrices.
    """
    return _trsm(A.dtype, B.dtype)(1.0, A, B, lower=lower)


def metric_frame(T_entries: np.ndarray, C: np.ndarray) -> np.ndarray:
    """C^{-1} T C^{-H}, symmetrized, for stacks (..., n, n) of forms T and
    of lower Cholesky factors C of metrics, broadcast against each other.

    The ordinary Hermitian spectrum of each member equals the spectrum of
    its form relative to its metric.  The triangular solves run one BLAS
    trsm call per member: a numpy substitution does not give trsm's bits.
    """
    shape = np.broadcast_shapes(T_entries.shape, C.shape)
    T_entries = np.broadcast_to(T_entries, shape)
    C = np.broadcast_to(C, shape)
    M = np.empty(shape, dtype=complex)
    for i in np.ndindex(shape[:-2]):
        Y = _triangular_solve(C[i], T_entries[i], lower=True)
        M[i] = _triangular_solve(C[i], Y.conj().T, lower=True).conj().T
    return 0.5 * (M + conj_transpose(M))


def relative_lambdas(T_entries: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Ascending spectra of stacked forms relative to stacked metrics given
    by their lower Cholesky factors: the ``lambdas`` of
    ``relative_eigenvalues`` member by member, without the basis."""
    # eigh, not eigvalsh: the LAPACK job of relative_eigenvalues, whose
    # bits eigvalsh does not reproduce
    return np.linalg.eigh(metric_frame(T_entries, C))[0]


def relative_eigenvalues(T: HermitianMatrix, omega: MetricMatrix) -> RelativeSpectrum:
    """Solve the pencil det(T - lambda*omega) = 0 via Cholesky reduction."""
    if T.dim != omega.dim:
        raise DimensionMismatchError(
            f"form has dimension {T.dim}, metric has dimension {omega.dim}"
        )
    M = metric_frame(T.entries, omega.cholesky)
    lam, V = np.linalg.eigh(M)
    basis = _triangular_solve(omega.cholesky.conj().T, V, lower=False)
    return RelativeSpectrum(lambdas=lam, basis=basis)


def complex_hessian_point(second_derivs) -> HermitianMatrix:
    """Complex Hessian u_{j kbar} from a real Hessian in x_1,y_1,...,x_n,y_n.

    Uses d/dz = (d/dx - i d/dy)/2, so
    ``u_{j kbar} = (u_{x_j x_k} + u_{y_j y_k} + i(u_{x_j y_k} - u_{y_j x_k})) / 4``.
    The output is Hermitian by construction.
    """
    S = np.asarray(second_derivs, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {S.shape}")
    if S.shape[0] % 2 != 0:
        raise DimensionMismatchError("real Hessian must have even size 2n")
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - S.T).max()) > SYMMETRY_TOL * scale:
        raise NotHermitianError("real Hessian is not symmetric within tolerance")
    xx = S[0::2, 0::2]
    yy = S[1::2, 1::2]
    xy = S[0::2, 1::2]
    yx = S[1::2, 0::2]
    H = 0.25 * (xx + yy + 1j * (xy - yx))
    return HermitianMatrix(0.5 * (H + H.conj().T))


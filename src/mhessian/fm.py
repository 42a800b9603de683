"""The F_m eigenvalue-sum operator and its calculus.

For a form T with eigenvalues lambda_1 <= ... <= lambda_n relative to a
metric, F_m is the C(n,m)-th root of the product of all m-fold eigenvalue
sums.  The module provides the value, the first derivatives at diagonal
matrices, the universal lower bound on the product of those derivatives,
the derivation operator on the m-th exterior power whose determinant
recovers F_m, the clamped extension F_m^+ that vanishes outside the cone,
and a segment probe for concavity.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConeBoundaryError, DimensionMismatchError
from .hermitian import HermitianMatrix, MetricMatrix, reduce_to_metric_frame, \
    relative_eigenvalues
from .multiindex import multi_indices, subset_sum_matrix, subset_sums

# Absolute tolerance on eigenvalue sums of order-1-normalized inputs; sums
# in [-CONE_TOL, 0) are treated as 0, sums below -CONE_TOL are rejected.
CONE_TOL = 1e-9
# Gradient evaluation refuses spectra whose smallest m-sum is this close
# to the cone boundary (the formula divides by the sums).
GRADIENT_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class FmValue:
    """F_m value together with all m-fold eigenvalue sums (lexicographic)."""

    value: float
    msums: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.msums, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "msums", s)


def geometric_mean_clamped(sums: np.ndarray) -> np.ndarray:
    """C(n,m)-th root of the product of m-sums, reading [-CONE_TOL, 0) as 0.

    Accepts shape (..., N) and returns shape (...).  Raises when any sum is
    below -CONE_TOL (spectrum outside the closed cone beyond tolerance).
    """
    sums = np.asarray(sums, dtype=float)
    low = sums.min(initial=np.inf)
    if low < -CONE_TOL:
        raise ConeBoundaryError(
            f"eigenvalue sum {low:.6e} lies outside the closed cone "
            f"(tolerance {CONE_TOL:.1e})"
        )
    clamped = np.maximum(sums, 0.0)
    # exp-mean-log for overflow safety; zero factors force a zero value.
    any_zero = (clamped == 0.0).any(axis=-1)
    safe = np.where(clamped > 0.0, clamped, 1.0)
    values = np.exp(np.mean(np.log(safe), axis=-1))
    return np.where(any_zero, 0.0, values)


def fm_from_lambdas(lambdas, m: int) -> FmValue:
    """F_m of a spectrum given directly as eigenvalues relative to the metric."""
    lambdas = np.asarray(lambdas, dtype=float)
    sums = subset_sums(lambdas, m)
    return FmValue(value=float(geometric_mean_clamped(sums)), msums=sums)


def _check_m(n: int, m: int):
    if not 1 <= m <= n:
        raise DimensionMismatchError(f"need 1 <= m <= n, got m={m}, n={n}")


def fm_value(T: HermitianMatrix, omega: MetricMatrix, m: int) -> FmValue:
    """Geometric mean of all m-fold relative eigenvalue sums of T against omega."""
    _check_m(T.dim, m)
    spec = relative_eigenvalues(T, omega)
    return fm_from_lambdas(spec.lambdas, m)


def fm_gradient_diagonal(lambdas, m: int) -> np.ndarray:
    """Diagonal first derivatives of F_m at a diagonal matrix.

    For eigenvalues lambda_p the p-th diagonal derivative is
    ``F_m / C(n,m) * sum over m-index sets J containing p of 1/sigma_J``
    with sigma_J the m-fold sums; off-diagonal derivatives vanish at a
    diagonal matrix and are not returned.  Requires all sigma_J strictly
    positive (cone interior).

    Accepts a single spectrum (n,) or a batch (..., n); returns the same
    leading shape with a trailing axis of length n.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = lambdas.shape[-1]
    _check_m(n, m)
    sums = subset_sums(lambdas, m)
    low = sums.min(initial=np.inf)
    if low <= GRADIENT_BOUNDARY_TOL:
        raise ConeBoundaryError(
            f"eigenvalue sum {low:.6e} is on or outside the cone boundary; "
            f"the gradient requires the open cone"
        )
    N = comb(n, m)
    value = np.exp(np.mean(np.log(sums), axis=-1))
    # membership[J, p] = 1 iff p in J, reusing the subset-sum indicator.
    member = subset_sum_matrix(n, m)
    inv_sum_per_p = (1.0 / sums) @ member
    return value[..., None] / N * inv_sum_per_p


def fm_product_bound(n: int, m: int) -> float:
    """Universal lower bound (m/n)^n for the product of diagonal derivatives."""
    _check_m(n, m)
    return (m / n) ** n


def derivation_entries(A: np.ndarray, m: int) -> np.ndarray:
    """Matrix of the derivation induced by A on the m-th exterior power.

    In the lexicographic wedge basis, the (I, J) entry is the sum of the
    diagonal of A over I when I == J, ``(-1)^(s+t) A[i, j]`` when I and J
    differ in exactly one index (i at position s of I, j at position t of
    J), and 0 otherwise.
    """
    A = np.asarray(A)
    n = A.shape[0]
    idx = multi_indices(n, m)
    N = len(idx)
    D = np.zeros((N, N), dtype=A.dtype)
    sets = [frozenset(J) for J in idx]
    for a, I in enumerate(idx):
        D[a, a] = sum(A[i, i] for i in I)
        for b, J in enumerate(idx):
            if a == b:
                continue
            diff_IJ = sets[a] - sets[b]
            if len(diff_IJ) != 1:
                continue
            i = next(iter(diff_IJ))
            j = next(iter(sets[b] - sets[a]))
            s = I.index(i)
            t = idx[b].index(j)
            D[a, b] = (-1) ** (s + t) * A[i, j]
    return D


@dataclass(frozen=True)
class DerivationMatrix:
    """Derivation operator on the m-th exterior power, lexicographic basis."""

    n: int
    m: int
    entries: np.ndarray


def derivation_matrix(A: HermitianMatrix, m: int) -> DerivationMatrix:
    """Derivation induced by a Hermitian matrix on the m-th exterior power."""
    _check_m(A.dim, m)
    return DerivationMatrix(n=A.dim, m=m, entries=derivation_entries(A.entries, m))


def fm_via_determinant(u_hessian: HermitianMatrix, g: MetricMatrix, m: int) -> float:
    """F_m as the C(n,m)-th root of det of the derivation of g^{-1} u_hessian."""
    n = u_hessian.dim
    _check_m(n, m)
    if g.dim != n:
        raise DimensionMismatchError("metric dimension does not match the Hessian")
    A = np.linalg.solve(g.entries, u_hessian.entries)
    D = derivation_entries(A, m)
    det = np.linalg.det(D)
    if abs(det.imag) > 1e-8 * max(1.0, abs(det.real)) or det.real <= 0.0:
        raise ConeBoundaryError(
            f"derivation determinant {det:.6e} is not positive; spectrum "
            f"outside the open cone"
        )
    return float(det.real ** (1.0 / comb(n, m)))


def fm_plus(T: HermitianMatrix, omega: MetricMatrix, m: int) -> float:
    """F_m where T is m-semipositive against omega, 0 outside that cone."""
    _check_m(T.dim, m)
    spec = relative_eigenvalues(T, omega)
    sums = subset_sums(spec.lambdas, m)
    if sums.min() < -CONE_TOL:
        return 0.0
    return float(geometric_mean_clamped(sums))


def concavity_probe(A: HermitianMatrix, B: HermitianMatrix, g: MetricMatrix,
                    m: int, steps: int = 11, slack: float = 1e-10) -> bool:
    """Check F_m[tA + (1-t)B] >= t F_m[A] + (1-t) F_m[B] - slack on a t-grid.

    The reduction to the metric frame is linear, so every tA + (1-t)B
    reduces to the same combination of the reduced endpoints, and the
    endpoints and all t-grid points share one batched eigensolve.
    """
    if A.dim != B.dim or A.dim != g.dim:
        raise DimensionMismatchError("operands must share one dimension")
    _check_m(A.dim, m)
    a = reduce_to_metric_frame(A.entries, g)
    b = reduce_to_metric_frame(B.entries, g)
    t = np.linspace(0.0, 1.0, steps)
    mids = t[:, None, None] * a + (1.0 - t)[:, None, None] * b
    # eigh, not eigvalsh: the LAPACK job of relative_eigenvalues
    lam, _ = np.linalg.eigh(np.concatenate([[a, b], mids]))
    # shape (steps + 2, 1, n): one vector-matrix product per spectrum, as
    # fm_value takes, keeps the endpoint sums bit for bit
    values = geometric_mean_clamped(subset_sums(lam[:, None, :], m))[:, 0]
    fa, fb = values[0], values[1]
    return not (values[2:] < t * fa + (1.0 - t) * fb - slack).any()

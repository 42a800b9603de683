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
from .hermitian import HermitianMatrix, MetricMatrix, metric_frame, \
    relative_eigenvalues
from .multiindex import multi_indices, spectrum_sums, subset_sum_matrix, \
    subset_sums

# Absolute tolerance on eigenvalue sums of order-1-normalized inputs; sums
# in [-CONE_TOL, 0) are treated as 0, sums below -CONE_TOL are rejected.
CONE_TOL = 1e-9
# Gradient evaluation refuses spectra whose smallest m-sum is this close
# to the cone boundary (the formula divides by the sums).
GRADIENT_BOUNDARY_TOL = 1e-12
# The concavity probe's t-grid size and the amount by which F_m on the
# segment may fall below the chord.
CONCAVITY_STEPS = 11
CONCAVITY_SLACK = 1e-10


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

    Accepts shape (..., N) and returns shape (...); a row with a NaN sum
    gives NaN.  Raises when any sum is below -CONE_TOL (spectrum outside
    the closed cone beyond tolerance), NaN sums or not.
    """
    sums = np.asarray(sums, dtype=float)
    # fmin skips NaN, so a NaN elsewhere cannot hide a sum outside the cone
    low = np.fmin.reduce(sums, axis=None, initial=np.inf)
    if low < -CONE_TOL:
        raise ConeBoundaryError(
            f"eigenvalue sum {low:.6e} lies outside the closed cone "
            f"(tolerance {CONE_TOL:.1e})"
        )
    # exp-mean-log for overflow safety: a zero factor's log is -inf, which
    # makes the value 0; a NaN factor's makes it NaN
    with np.errstate(divide="ignore"):
        return np.exp(np.mean(np.log(np.maximum(sums, 0.0)), axis=-1))


def cone_member(margins):
    """The closed-cone rule behind every m-cone verdict: a least m-sum is a
    member when it is at least -CONE_TOL (a NaN one is not)."""
    return margins >= -CONE_TOL


def fm_plus_from_sums(sums: np.ndarray) -> np.ndarray:
    """F_m^+ of each row of m-sums (..., N): F_m on the closed cone and 0
    outside it; a row whose least sum is NaN gives NaN."""
    margins = sums.min(axis=-1)
    # the clamp keeps rows outside the cone from raising
    values = geometric_mean_clamped(np.maximum(sums, -CONE_TOL))
    return np.where(cone_member(margins), values, np.maximum(margins, 0.0))


def fm_from_lambdas(lambdas, m: int) -> FmValue:
    """F_m of a spectrum given directly as eigenvalues relative to the metric."""
    sums = spectrum_sums(lambdas, m)
    return FmValue(value=float(geometric_mean_clamped(sums)), msums=sums)


def fm_values(lambdas, m: int) -> np.ndarray:
    """F_m of each spectrum of a stack (..., n) given as eigenvalues relative
    to the metric: ``fm_from_lambdas(...).value`` member by member."""
    lambdas = np.asarray(lambdas, dtype=float)
    _check_m(lambdas.shape[-1], m)
    return geometric_mean_clamped(spectrum_sums(lambdas, m))


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
    return fm_gradient_from_sums(subset_sums(lambdas, m), n, m)


def fm_gradient_from_sums(sums: np.ndarray, n: int, m: int,
                          value=None) -> np.ndarray:
    """``fm_gradient_diagonal`` from the m-sums (..., C(n,m)) of the
    spectra, in ``subset_sums`` order, and optionally their F_m ``value``
    (...), which is computed from the sums when not given.

    Raises ConeBoundaryError, before the value is computed, when a sum is
    at most GRADIENT_BOUNDARY_TOL.
    """
    low = sums.min(initial=np.inf)
    if low <= GRADIENT_BOUNDARY_TOL:
        raise ConeBoundaryError(
            f"eigenvalue sum {low:.6e} is on or outside the cone boundary; "
            f"the gradient requires the open cone"
        )
    if value is None:
        # on the open cone the clamp is the identity: the value is F_m itself
        value = geometric_mean_clamped(sums)
    # membership[J, p] = 1 iff p in J, reusing the subset-sum indicator.
    member = subset_sum_matrix(n, m)
    # value times (1 / sums) @ member, as written: value / sums would round
    # once instead of twice and give other bits
    inv_sum_per_p = (1.0 / sums) @ member
    return value[..., None] / comb(n, m) * inv_sum_per_p


def fm_product_bound(n: int, m: int) -> float:
    """Universal lower bound (m/n)^n for the product of diagonal derivatives."""
    _check_m(n, m)
    return (m / n) ** n


def derivation_entries(A: np.ndarray, m: int) -> np.ndarray:
    """Matrix of the derivation induced by A on the m-th exterior power.

    In the lexicographic wedge basis, the (I, J) entry is the sum of the
    diagonal of A over I when I == J, ``(-1)^(s+t) A[i, j]`` when I and J
    differ in exactly one index (i at position s of I, j at position t of
    J), and 0 otherwise.  Accepts one matrix (n, n) or a stack (..., n, n).
    """
    A = np.asarray(A)
    n = A.shape[-1]
    idx = multi_indices(n, m)
    N = len(idx)
    D = np.zeros(A.shape[:-2] + (N, N), dtype=A.dtype)
    sets = [frozenset(J) for J in idx]
    for a, I in enumerate(idx):
        D[..., a, a] = sum(A[..., i, i] for i in I)
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
            D[..., a, b] = (-1) ** (s + t) * A[..., i, j]
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


def determinant_fm_values(u_entries: np.ndarray, g_entries: np.ndarray,
                          m: int) -> np.ndarray:
    """``fm_via_determinant`` for stacks (..., n, n) of Hessians and of
    metrics; the first member outside the open cone raises."""
    n = u_entries.shape[-1]
    _check_m(n, m)
    if g_entries.shape[-1] != n:
        raise DimensionMismatchError("metric dimension does not match the Hessian")
    A = np.linalg.solve(g_entries, u_entries)
    det = np.linalg.det(derivation_entries(A, m))
    bad = ((np.abs(det.imag) > 1e-8 * np.maximum(1.0, np.abs(det.real)))
           | (det.real <= 0.0))
    if bad.any():
        raise ConeBoundaryError(
            f"derivation determinant {det[bad][0]:.6e} is not positive; "
            f"spectrum outside the open cone"
        )
    # one scalar power per member: numpy's array power may take a SIMD
    # routine whose last bit differs from the scalar pow
    exponent = 1.0 / comb(n, m)
    return np.array([d ** exponent for d in det.real.flat]).reshape(det.shape)


def fm_via_determinant(u_hessian: HermitianMatrix, g: MetricMatrix, m: int) -> float:
    """F_m as the C(n,m)-th root of det of the derivation of g^{-1} u_hessian."""
    return float(determinant_fm_values(u_hessian.entries, g.entries, m))


def fm_plus(T: HermitianMatrix, omega: MetricMatrix, m: int) -> float:
    """F_m where T is m-semipositive against omega, 0 outside that cone."""
    _check_m(T.dim, m)
    spec = relative_eigenvalues(T, omega)
    return float(fm_plus_from_sums(spectrum_sums(spec.lambdas, m)))


def concavity_holds(a: np.ndarray, b: np.ndarray, m: int,
                    steps: int = CONCAVITY_STEPS,
                    slack: float = CONCAVITY_SLACK) -> np.ndarray:
    """``concavity_probe`` for stacks (..., n, n) of endpoint pairs already
    reduced to the metric frame.

    The reduction is linear, so every tA + (1-t)B reduces to the same
    combination of the reduced endpoints, and the endpoints and all t-grid
    points of a pair share one batched eigensolve.
    """
    _check_m(a.shape[-1], m)
    a, b = a[..., None, :, :], b[..., None, :, :]
    t = np.linspace(0.0, 1.0, steps)
    mids = t[:, None, None] * a + (1.0 - t)[:, None, None] * b
    # eigh, not eigvalsh: the LAPACK job of relative_eigenvalues
    lam, _ = np.linalg.eigh(np.concatenate([a, b, mids], axis=-3))
    values = fm_values(lam, m)
    fa, fb = values[..., :1], values[..., 1:2]
    return ~(values[..., 2:] < t * fa + (1.0 - t) * fb - slack).any(axis=-1)


def concavity_probe(A: HermitianMatrix, B: HermitianMatrix, g: MetricMatrix,
                    m: int, steps: int = CONCAVITY_STEPS,
                    slack: float = CONCAVITY_SLACK) -> bool:
    """Check F_m[tA + (1-t)B] >= t F_m[A] + (1-t) F_m[B] - slack on a t-grid."""
    if A.dim != B.dim or A.dim != g.dim:
        raise DimensionMismatchError("operands must share one dimension")
    _check_m(A.dim, m)
    a = metric_frame(A.entries, g.cholesky)
    b = metric_frame(B.entries, g.cholesky)
    return bool(concavity_holds(a, b, m, steps, slack))

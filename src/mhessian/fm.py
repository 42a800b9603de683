"""The F_m eigenvalue-sum operator and its calculus.

For a form T with eigenvalues lambda_1 <= ... <= lambda_n relative to a
metric, F_m is the C(n,m)-th root of the product of all m-fold eigenvalue
sums.  The module provides the value, the first derivatives at diagonal
matrices, the universal lower bound on the product of those derivatives,
the derivation operator D_m on the m-th exterior power, the clamped
extension F_m^+ that vanishes outside the cone, and a segment probe for
concavity.

The eigenvalues of D_m(H) are the m-fold sums of H's, so F_m is also the
C(n,m)-th root of det D_m(H): ``determinant_route`` takes it, and the
cone test, from the Cholesky pivots of D_m(H), for Newton, the
subsolution seed and ``fm_via_determinant`` alike, and
``determinant_derivative`` Newton's derivative from the adjugate of that
D_m(H).
"""

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

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
    positive: a sum at most GRADIENT_BOUNDARY_TOL raises before F_m is
    formed, and a NaN sum gives NaN.

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
            if len(sets[a] - sets[b]) == 1:  # never at a == b
                (i,), (j,) = sets[a] - sets[b], sets[b] - sets[a]
                D[..., a, b] = (-1) ** (I.index(i) + J.index(j)) * A[..., i, j]
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


class DeterminantFm(NamedTuple):
    """F_m per member and, from ``determinant_route``, each member's scaled
    D_m(H) and det(D)^(1 / C(n, m)), which ``determinant_derivative``
    takes."""

    fm: np.ndarray
    D: np.ndarray = None
    root: np.ndarray = None


def _derivation(H: np.ndarray, m: int) -> np.ndarray:
    """D_m(H) of each member of the Hermitian stack H, (K, n, n): (K, N,
    N), N = C(n, m), whose eigenvalues are the m-fold sums of H's.  H
    itself at m = 1, the 1 x 1 trace at m = n, tr(H) I - H at m = n - 1,
    and ``derivation_entries`` in between (n = 4, m = 2)."""
    n = H.shape[-1]
    if m == 1:
        return H
    trace = np.einsum("kpp->k", H)[:, None, None]
    if m == n:
        return trace
    if m == n - 1:
        return trace * np.eye(n) - H
    return derivation_entries(H, m)


def _determinant(D: np.ndarray, shift):
    """det(D - shift I) of each member of the Hermitian stack D, (K, N, N),
    the product of its Cholesky pivots (ratios of leading minors), or None
    at the first pivot that is not positive, so exactly when some member
    is not positive definite.  The Schur complements, held as (N, N, K),
    keep D's diagonal, and the shift, one per member, comes off each
    pivot."""
    S, det = D.transpose(1, 2, 0).copy(), 1.0
    for j in range(S.shape[0]):
        p = S[j, j].real - shift
        if not (p > 0.0).all():
            return None
        det = det * p
        S[j + 1:, j + 1:] -= S[j + 1:, j, None] * S[None, j, j + 1:] / p
    return det


def determinant_route(H: np.ndarray, m: int, floor: float):
    """The ``DeterminantFm`` of the Hermitian stack H, (K, n, n), already
    in the metric frame, or None unless every member's least m-fold sum
    exceeds ``floor``: F_m = det(D)^(1/N), N = C(n, m), D = D_m(H), and the
    test is that D - floor I is positive definite, by its Cholesky pivots.
    Each member's D and floor are first scaled by the power of two that
    brings the largest diagonal entry of that D into [1/2, 1), which in a
    positive definite D is also the largest real or imaginary part of an
    entry: the scaling is exact, so F_m of 2^k H is 2^k F_m, a member's
    F_m does not depend on the rest of the stack, and the pivots and
    determinants neither overflow nor underflow."""
    D = _derivation(H, m)
    # one pass per diagonal slot: a max over each member's few entries
    # would cost a reduction per member
    top = np.maximum.reduce([D[:, i, i].real for i in range(D.shape[-1])])
    top = np.maximum(top, 1e-300)
    scale = np.ldexp(1.0, -np.frexp(top)[1])
    D = D * scale[:, None, None]
    det, N = _determinant(D, floor * scale), D.shape[-1]
    if det is None:
        return None
    if floor != 0.0:  # at floor 0 the cone test's pivots are det(D)'s
        det = _determinant(D, 0.0)
    root = (np.sqrt(det) if N == 2 else np.cbrt(det) if N == 3
            else det ** (1.0 / N))
    return DeterminantFm(root / scale, D, root)


def _adjugate(D: np.ndarray) -> np.ndarray:
    """The adjugate of each member of the Hermitian stack D, (K, N, N):
    its cofactors in closed form at N <= 3, else det(D) D^-1."""
    N = D.shape[-1]
    if N > 3:
        return np.linalg.det(D)[:, None, None] * np.linalg.inv(D)
    adj = np.empty_like(D)
    if N == 2:
        adj[:, 0, 0], adj[:, 1, 1] = D[:, 1, 1], D[:, 0, 0]
        adj[:, 0, 1], adj[:, 1, 0] = -D[:, 0, 1], -D[:, 1, 0]
        return adj
    a, d, f = D[:, 0, 0].real, D[:, 1, 1].real, D[:, 2, 2].real
    b, c, e = D[:, 0, 1], D[:, 0, 2], D[:, 1, 2]
    adj[:, 0, 0] = d * f - (e * e.conj()).real
    adj[:, 1, 1] = a * f - (c * c.conj()).real
    adj[:, 2, 2] = a * d - (b * b.conj()).real
    adj[:, 0, 1] = c * e.conj() - b * f
    adj[:, 0, 2] = b * e - c * d
    adj[:, 1, 2] = c * b.conj() - a * e
    # Hermitian: the lower triangle mirrors the upper one
    for i, j in ((1, 0), (2, 0), (2, 1)):
        adj[:, i, j] = adj[:, j, i].conj()
    return adj


def determinant_derivative(nodal: DeterminantFm, n: int,
                           m: int) -> np.ndarray:
    """M per member, (K, n, n), with dF_m = tr(M dH) at the stack H whose
    ``determinant_route`` at m < n is ``nodal``: the derivative X =
    adj(D) / (N F_m^(N-1)) of F_m in D = D_m(H), pulled back through the
    linear map D_m.  D_m is its own adjoint at m = 1 and m = n - 1, so M
    is adj(H) / (2 F_m) at n = 2, m = 1 and tr(X) I - X at m = n - 1.
    ``nodal``'s D and root both carry its member's power of two, which
    cancels."""
    N = nodal.D.shape[-1]
    X = _adjugate(nodal.D)
    # a real division of each part: X is complex, the divisor real
    X.view(float)[...] /= (N * nodal.root ** (N - 1))[:, None, None]
    if 1 < m < n - 1:
        basis = derivation_entries(np.eye(n * n).reshape(n, n, n, n), m)
        return np.einsum("kba,pqab->kqp", X, basis)
    return _derivation(X, m)


def determinant_fm_values(frames: np.ndarray, m: int) -> np.ndarray:
    """F_m of each member of a stack (..., n, n) of forms already reduced
    to the metric frame, by ``determinant_route`` at floor 0; raises
    ConeBoundaryError unless every member lies in the open cone."""
    frames = np.asarray(frames, dtype=complex)
    n = frames.shape[-1]
    _check_m(n, m)
    route = determinant_route(frames.reshape(-1, n, n), m, 0.0)
    if route is None:
        raise ConeBoundaryError("D_m(H) of a member is not positive "
                                "definite: spectrum outside the open cone")
    return route.fm.reshape(frames.shape[:-2])


def fm_via_determinant(u_hessian: HermitianMatrix, g: MetricMatrix, m: int) -> float:
    """F_m as the C(n,m)-th root of det D_m(H), H the form u_hessian in
    the metric frame of g."""
    if u_hessian.dim != g.dim:
        raise DimensionMismatchError("metric dimension does not match the Hessian")
    return float(determinant_fm_values(
        metric_frame(u_hessian.entries, g.cholesky), m))


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

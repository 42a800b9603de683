"""Membership tests for the m-fold eigenvalue-sum positivity cones.

A form T is m-semipositive relative to a metric omega exactly when the sum
of its m smallest relative eigenvalues is non-negative; equivalently every
coefficient of T wedged with the (m-1)-st metric power in a simultaneously
diagonalizing frame is non-negative.  Both routes are implemented; the
second serves as a brute-force oracle for the first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConeBoundaryError
from .fm import CONE_TOL, _check_m, fm_plus
from .hermitian import HermitianMatrix, MetricMatrix, relative_eigenvalues
from .multiindex import multi_indices, subset_sums


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of a cone membership test.

    ``margin`` is the minimal m-fold eigenvalue sum, ``witness`` the 1-based
    multi-index (into the ascending spectrum) achieving it.
    """

    member: bool
    margin: float
    witness: tuple

    def to_json(self) -> dict:
        return {
            "member": bool(self.member),
            "margin": float(self.margin),
            "witness": [int(i) for i in self.witness],
        }


def is_m_semipositive(T: HermitianMatrix, omega: MetricMatrix,
                      m: int) -> ConeVerdict:
    """Membership via the sum of the m smallest relative eigenvalues."""
    _check_m(T.dim, m)
    spec = relative_eigenvalues(T, omega)
    margin = float(np.sum(spec.lambdas[:m]))
    return ConeVerdict(member=margin >= -CONE_TOL, margin=margin,
                       witness=tuple(range(1, m + 1)))


def strong_positivity_oracle(T: HermitianMatrix, omega: MetricMatrix,
                             m: int) -> ConeVerdict:
    """Membership by enumerating every coefficient of T wedge omega^{m-1}.

    In a frame simultaneously diagonalizing T and omega those coefficients
    are exactly the m-fold eigenvalue sums, one per increasing multi-index.
    """
    _check_m(T.dim, m)
    spec = relative_eigenvalues(T, omega)
    sums = subset_sums(spec.lambdas, m)
    k = int(np.argmin(sums))
    witness = tuple(i + 1 for i in multi_indices(T.dim, m)[k])
    margin = float(sums[k])
    return ConeVerdict(member=margin >= -CONE_TOL, margin=margin,
                       witness=witness)


def cone_Pmk_membership(A_tilde: HermitianMatrix, g: MetricMatrix,
                        m: int) -> ConeVerdict:
    """Membership of the g-Hermitian matrix g^{-1} A_tilde in the k = dim cone.

    The matrix is passed through its Hermitian factor A_tilde; eigenvalues
    of g^{-1} A_tilde are the pencil eigenvalues of (A_tilde, g).  By the
    minimax principle the minimal trace over m-dimensional subspaces equals
    the sum of the m smallest eigenvalues, so the eigenvalue route decides
    the subspace-trace condition exactly.
    """
    return is_m_semipositive(A_tilde, g, m)


def cone_PmnB_membership(A_tilde: HermitianMatrix, B_tilde: HermitianMatrix,
                         g: MetricMatrix, m: int) -> bool:
    """Membership in the sublevel cone: A in the m-cone with F_m[A] >= F_m[B]."""
    if not cone_Pmk_membership(B_tilde, g, m).member:
        raise ConeBoundaryError("reference matrix B is not in the cone")
    if not cone_Pmk_membership(A_tilde, g, m).member:
        return False
    return fm_plus(A_tilde, g, m) >= fm_plus(B_tilde, g, m) - CONE_TOL

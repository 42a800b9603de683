import numpy as np
import pytest

from mhessian.hermitian import HermitianMatrix, MetricMatrix


def random_hermitian(rng, n, scale=1.0):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix(scale * 0.5 * (X + X.conj().T))


def random_metric(rng, n, spread=2.0):
    """Well-conditioned random metric with eigenvalues in [1/spread, spread]."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(Z)
    vals = rng.uniform(1.0 / spread, spread, size=n)
    return MetricMatrix(HermitianMatrix(Q @ np.diag(vals) @ Q.conj().T))


def random_interior_spectrum(rng, n, m, floor=0.1):
    """Sorted spectrum whose every m-fold sum is at least `floor`.

    Achieved by shifting a random draw so the smallest m-sum lands at or
    above the floor; the shift keeps the draw's shape.
    """
    lam = np.sort(rng.uniform(-1.0, 2.0, size=n))
    smallest = lam[:m].sum()
    if smallest < floor:
        lam = lam + (floor - smallest) / m
    return lam


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# A constant metric with complex off-diagonal entries, a positive form A and
# a background form chi.  The complex Hessian u_{j kbar} of z^H conj(A) z is
# A itself (that of z^H A z is its transpose, whose spectrum relative to
# OMEGA differs), so every metric-frame transform is pinned exactly.
OMEGA = MetricMatrix(HermitianMatrix([[2.0, 0.6 + 0.5j], [0.6 - 0.5j, 1.0]]))
FORM = HermitianMatrix([[1.2, 0.3 - 0.4j], [0.3 + 0.4j, 0.9]])
CHI = HermitianMatrix([[0.5, 0.1j], [-0.1j, 0.4]])


def hessian_is_form(coords):
    z = coords[:, 0::2] + 1j * coords[:, 1::2]
    return np.einsum("ki,ij,kj->k", z.conj(), FORM.entries.conj(), z).real

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mhessian.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveDefiniteError,
)
from mhessian.hermitian import (
    HermitianMatrix,
    MetricMatrix,
    complex_hessian_point,
    matrix_from_json,
    matrix_to_json,
    relative_eigenvalues,
)

from conftest import random_hermitian, random_metric


def charpoly_roots(T, omega):
    """Independent oracle: roots of det(T - lam*omega) via interpolation.

    Samples the characteristic polynomial at n+1 nodes, solves for its
    coefficients, and calls the companion-matrix root finder.  No symmetric
    eigensolver is involved.
    """
    n = T.shape[0]
    nodes = np.linspace(-3.0, 3.0, n + 1)
    vals = [np.linalg.det(T - lam * omega) for lam in nodes]
    V = np.vander(nodes, n + 1)
    coeffs = np.linalg.solve(V, np.real(vals))
    return np.sort(np.roots(coeffs).real)


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        entries = np.eye(2, dtype=complex)
        entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(NotHermitianError):
            HermitianMatrix(entries)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_metric_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            MetricMatrix(HermitianMatrix.diagonal([1.0, -0.5]))

    def test_metric_rejects_near_degenerate(self):
        with pytest.raises(NotPositiveDefiniteError):
            MetricMatrix(HermitianMatrix.diagonal([1.0, 1e-14]))

    def test_json_round_trip(self, rng):
        A = random_hermitian(rng, 3)
        B = matrix_from_json(matrix_to_json(A))
        np.testing.assert_allclose(B.entries, A.entries, atol=1e-15)


class TestRelativeEigenvalues:
    def test_diagonal_example(self):
        # diag(1,1,-1) against diag(1,1,3): entrywise ratios, sorted
        T = HermitianMatrix.diagonal([1.0, 1.0, -1.0])
        omega = MetricMatrix.diagonal([1.0, 1.0, 3.0])
        spec = relative_eigenvalues(T, omega)
        np.testing.assert_allclose(spec.lambdas, [-1.0 / 3.0, 1.0, 1.0], atol=1e-14)

    def test_identity_pencil(self, rng):
        omega = random_metric(rng, 4)
        spec = relative_eigenvalues(HermitianMatrix(omega.entries), omega)
        np.testing.assert_allclose(spec.lambdas, np.ones(4), atol=1e-12)

    def test_matches_charpoly_oracle(self, rng):
        for _ in range(25):
            T = random_hermitian(rng, 4)
            omega = random_metric(rng, 4)
            spec = relative_eigenvalues(T, omega)
            expected = charpoly_roots(T.entries, omega.entries)
            np.testing.assert_allclose(spec.lambdas, expected, atol=1e-7)

    def test_identity_metric_matches_plain_spectrum(self, rng):
        # cross-check against the general (non-symmetric) eigensolver
        for _ in range(10):
            T = random_hermitian(rng, 4)
            spec = relative_eigenvalues(T, MetricMatrix.identity(4))
            other = np.sort(scipy.linalg.eig(T.entries)[0].real)
            np.testing.assert_allclose(spec.lambdas, other, atol=1e-10)

    def test_basis_diagonalizes_both(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            T = random_hermitian(rng, n)
            omega = random_metric(rng, n)
            spec = relative_eigenvalues(T, omega)
            B = spec.basis
            gram = B.conj().T @ omega.entries @ B
            diag = B.conj().T @ T.entries @ B
            assert np.abs(gram - np.eye(n)).max() < 1e-10
            assert np.abs(diag - np.diag(spec.lambdas)).max() < 1e-10
            assert (np.diff(spec.lambdas) >= -1e-14).all()

    def test_trace_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            T = random_hermitian(rng, n)
            omega = random_metric(rng, n)
            spec = relative_eigenvalues(T, omega)
            tr = np.trace(np.linalg.solve(omega.entries, T.entries)).real
            assert abs(spec.lambdas.sum() - tr) <= 1e-10 * max(1.0, abs(tr))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            relative_eigenvalues(HermitianMatrix.identity(2), MetricMatrix.identity(3))

    @given(alpha=st.floats(min_value=-4.0, max_value=4.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_scaling_equivariance(self, alpha):
        rng = np.random.default_rng(99)
        T = random_hermitian(rng, 3)
        omega = random_metric(rng, 3)
        base = relative_eigenvalues(T, omega).lambdas
        scaled = relative_eigenvalues(T.scaled(alpha), omega).lambdas
        expected = np.sort(alpha * base)
        np.testing.assert_allclose(scaled, expected, atol=1e-10)


class TestComplexHessianPoint:
    def test_squared_norm(self):
        # |z|^2 on C^1 has real Hessian diag(2,2)
        H = complex_hessian_point(np.diag([2.0, 2.0]))
        np.testing.assert_allclose(H.entries, [[1.0]], atol=1e-15)

    def test_pluriharmonic(self):
        # Re(z^2) on C^1 has real Hessian diag(2,-2)
        H = complex_hessian_point(np.diag([2.0, -2.0]))
        np.testing.assert_allclose(H.entries, [[0.0]], atol=1e-15)

    def test_cross_term(self):
        # x1*x2 + y1*y2 on C^2: expected complex Hessian computed by central
        # finite differences of the function itself (independent oracle).
        def f(v):
            x1, y1, x2, y2 = v
            return x1 * x2 + y1 * y2

        h = 1e-4
        S = np.zeros((4, 4))
        base = np.array([0.3, -0.2, 0.1, 0.4])
        for a in range(4):
            for b in range(4):
                for sa, sb, w in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                    v = base.copy()
                    v[a] += sa * h
                    v[b] += sb * h
                    S[a, b] += w * f(v)
        S /= 4 * h * h
        S = 0.5 * (S + S.T)
        H = complex_hessian_point(S)
        expected = np.array([[0.0, 0.5], [0.5, 0.0]])
        np.testing.assert_allclose(H.entries, expected, atol=1e-7)

    def test_pluriharmonic_quadratic_is_zero(self, rng):
        # real part of a holomorphic quadratic sum a_jk z_j z_k
        n = 3
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)

        def f(v):
            z = v[0::2] + 1j * v[1::2]
            return (z @ A @ z).real

        S = np.zeros((2 * n, 2 * n))
        h = 1e-3
        base = rng.normal(size=2 * n)
        for a in range(2 * n):
            for b in range(2 * n):
                for sa, sb, w in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                    v = base.copy()
                    v[a] += sa * h
                    v[b] += sb * h
                    S[a, b] += w * f(v)
        S /= 4 * h * h
        S = 0.5 * (S + S.T)
        H = complex_hessian_point(S)
        assert np.abs(H.entries).max() < 1e-8

    def test_rejects_asymmetric(self):
        S = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotHermitianError):
            complex_hessian_point(S)

    def test_rejects_odd_size(self):
        with pytest.raises(DimensionMismatchError):
            complex_hessian_point(np.eye(3))

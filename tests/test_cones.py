import numpy as np
import pytest

from mhessian.cones import (
    cone_Pmk_membership,
    cone_PmnB_membership,
    is_m_semipositive,
    strong_positivity_oracle,
)
from mhessian.errors import ConeBoundaryError, DimensionMismatchError
from mhessian.fm import CONE_TOL
from mhessian.hermitian import HermitianMatrix, MetricMatrix

from conftest import random_hermitian, random_metric


def corpus(seed=42, size=1000, max_n=4):
    """Seeded random (T, omega, m) triples shared by the equivalence suites."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(size):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, n + 1))
        out.append((random_hermitian(rng, n), random_metric(rng, n), m))
    return out


class TestMotivatingExample:
    def test_membership_against_larger_metric(self):
        T = HermitianMatrix.diagonal([1.0, 1.0, -1.0])
        omega = MetricMatrix.diagonal([1.0, 1.0, 3.0])
        v = is_m_semipositive(T, omega, 2)
        assert v.member
        assert abs(v.margin - 2.0 / 3.0) < 1e-12

    def test_failure_against_smaller_metric(self):
        T = HermitianMatrix.diagonal([1.0, 1.0, -1.0])
        omega = MetricMatrix.diagonal([1.0, 1.0, 0.5])
        v = is_m_semipositive(T, omega, 2)
        assert not v.member
        # relative eigenvalues (-2, 1, 1): smallest pair sum is -1
        assert abs(v.margin + 1.0) < 1e-12

    def test_zero_form(self, rng):
        for n in (1, 2, 3):
            omega = random_metric(rng, n)
            for m in range(1, n + 1):
                v = is_m_semipositive(HermitianMatrix(np.zeros((n, n))), omega, m)
                assert v.member and abs(v.margin) < 1e-14

    def test_m_out_of_range(self):
        T = HermitianMatrix.identity(2)
        with pytest.raises(DimensionMismatchError):
            is_m_semipositive(T, MetricMatrix.identity(2), 3)
        with pytest.raises(DimensionMismatchError):
            strong_positivity_oracle(T, MetricMatrix.identity(2), 0)


class TestStrongPositivityOracle:
    def test_enumerates_pair_sums(self):
        # spectrum (-1/3, 1, 1): pair sums {2/3, 2/3, 2}
        T = HermitianMatrix.diagonal([1.0, 1.0, -1.0])
        omega = MetricMatrix.diagonal([1.0, 1.0, 3.0])
        v = strong_positivity_oracle(T, omega, 2)
        assert v.member
        assert abs(v.margin - 2.0 / 3.0) < 1e-12
        assert v.witness == (1, 2)

    def test_identity_spectrum(self):
        for n in (2, 3, 4):
            for m in range(1, n + 1):
                v = strong_positivity_oracle(
                    HermitianMatrix.identity(n), MetricMatrix.identity(n), m
                )
                assert v.member and abs(v.margin - m) < 1e-12

    def test_equivalence_on_corpus(self):
        for T, omega, m in corpus():
            a = is_m_semipositive(T, omega, m)
            b = strong_positivity_oracle(T, omega, m)
            assert a.member == b.member
            assert abs(a.margin - b.margin) < 1e-12

    def test_monotonicity_in_m(self):
        for T, omega, m in corpus():
            n = T.dim
            if m == n:
                continue
            if is_m_semipositive(T, omega, m).member:
                assert is_m_semipositive(T, omega, m + 1).member

    def test_m1_recovers_classical_semipositivity(self, rng):
        for _ in range(50):
            d = rng.uniform(-1.0, 1.0, size=3)
            w = rng.uniform(0.5, 2.0, size=3)
            v = is_m_semipositive(
                HermitianMatrix.diagonal(d), MetricMatrix.diagonal(w), 1
            )
            assert v.member == ((d / w).min() >= -CONE_TOL)


class TestConeConvexity:
    def _random_member(self, rng, n, m, omega):
        T = random_hermitian(rng, n)
        margin = is_m_semipositive(T, omega, m).margin
        if margin < 0.0:
            # shifting by s*omega moves every relative eigenvalue up by s
            T = T.plus(HermitianMatrix(omega.entries * (-margin / m + 0.01)))
        return T

    def test_segment_stays_in_cone(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            omega = random_metric(rng, n)
            A = self._random_member(rng, n, m, omega)
            B = self._random_member(rng, n, m, omega)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                M = HermitianMatrix(t * A.entries + (1.0 - t) * B.entries)
                assert is_m_semipositive(M, omega, m).member


class TestPmkCone:
    def test_identity(self):
        for m in (1, 2, 3):
            v = cone_Pmk_membership(
                HermitianMatrix.identity(3), MetricMatrix.identity(3), m
            )
            assert v.member and abs(v.margin - m) < 1e-12

    def test_negative_eigenvalue(self):
        v = cone_Pmk_membership(
            HermitianMatrix.diagonal([-1.0, 2.0]), MetricMatrix.identity(2), 1
        )
        assert not v.member
        assert abs(v.margin + 1.0) < 1e-12

    def test_monte_carlo_subspace_traces(self, rng):
        # the minimal trace over m-planes equals the sum of the m smallest
        # eigenvalues; 200 random frames bound it from above and approach it
        for _ in range(40):
            A = random_hermitian(rng, 3, scale=2.0)
            v = cone_Pmk_membership(A, MetricMatrix.identity(3), 2)
            best = np.inf
            for _ in range(200):
                Z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
                Q, _ = np.linalg.qr(Z)
                best = min(best, float(np.trace(Q.conj().T @ A.entries @ Q).real))
            assert best >= v.margin - 1e-9
            assert best <= v.margin + 1.5  # calibrated sampling slack
            if abs(v.margin) > 1.5:
                assert v.member == (best >= 0.0)

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("form_dim, metric_dim", [(3, 2), (2, 3)])
    def test_dimension_mismatch_rejected(self, form_dim, metric_dim, m):
        with pytest.raises(DimensionMismatchError):
            cone_Pmk_membership(HermitianMatrix.identity(form_dim),
                                MetricMatrix.identity(metric_dim), m)


class TestPmnBCone:
    def test_doubled_identity_dominates(self):
        g = MetricMatrix.identity(3)
        two = HermitianMatrix.diagonal([2.0, 2.0, 2.0])
        one = HermitianMatrix.identity(3)
        assert cone_PmnB_membership(two, one, g, 2)
        assert not cone_PmnB_membership(one, two, g, 2)

    def test_product_formula_case(self):
        # spectrum (0.5, 0.5, 4) at m=2: pair sums (1, 4.5, 4.5),
        # F_2 = 20.25**(1/3) ~ 2.7257 >= F_2[Id] = 2
        g = MetricMatrix.identity(3)
        A = HermitianMatrix.diagonal([0.5, 0.5, 4.0])
        assert abs(20.25 ** (1.0 / 3.0) - 2.7256808892482094) < 1e-12
        assert cone_PmnB_membership(A, HermitianMatrix.identity(3), g, 2)

    def test_reference_outside_cone_raises(self):
        g = MetricMatrix.identity(2)
        bad = HermitianMatrix.diagonal([-1.0, 0.0])
        with pytest.raises(ConeBoundaryError):
            cone_PmnB_membership(HermitianMatrix.identity(2), bad, g, 1)

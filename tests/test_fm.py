from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhessian import fm
from mhessian.cones import is_m_semipositive, strong_positivity_oracle
from mhessian.errors import ConeBoundaryError, DimensionMismatchError
from mhessian.fm import (
    concavity_probe,
    derivation_entries,
    derivation_matrix,
    fm_from_lambdas,
    fm_gradient_diagonal,
    fm_plus,
    fm_product_bound,
    fm_value,
    fm_via_determinant,
)
from mhessian.grids import GridDomain, GridFunction, MetricField, cone_field, \
    fm_field
from mhessian.hermitian import HermitianMatrix, MetricMatrix, relative_eigenvalues
from mhessian.multiindex import subset_sum_matrix, subset_sums
from mhessian.solver import CONE_FLOOR

from conftest import (
    OMEGA,
    random_hermitian,
    random_interior_spectrum,
    random_metric,
)


def gradient_fd_oracle(lambdas, m, h=1e-5):
    """Central finite differences of the F_m value along diagonal entries."""
    lam = np.asarray(lambdas, dtype=float)
    out = np.empty_like(lam)
    for p in range(lam.size):
        up = lam.copy()
        dn = lam.copy()
        up[p] += h
        dn[p] -= h
        out[p] = (fm_from_lambdas(up, m).value - fm_from_lambdas(dn, m).value) / (2 * h)
    return out


def hermitian_from_spectrum(rng, lambdas, omega):
    """Form with prescribed spectrum relative to omega (random eigenbasis)."""
    n = len(lambdas)
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(Z)
    C = omega.cholesky
    B = C @ Q  # columns orthonormal for the metric inner product
    return HermitianMatrix(B @ np.diag(np.asarray(lambdas, float)) @ B.conj().T)


class TestFmValue:
    def test_metric_spectrum_gives_m(self, rng):
        for n in (1, 2, 3, 4):
            omega = random_metric(rng, n)
            T = HermitianMatrix(omega.entries)
            for m in range(1, n + 1):
                fv = fm_value(T, omega, m)
                assert abs(fv.value - m) < 1e-12 * m

    def test_motivating_spectrum(self):
        fv = fm_from_lambdas([-1.0 / 3.0, 1.0, 1.0], 2)
        assert abs(fv.value - (8.0 / 9.0) ** (1.0 / 3.0)) < 1e-14
        np.testing.assert_allclose(np.sort(fv.msums), [2 / 3, 2 / 3, 2], atol=1e-14)

    def test_one_two_three(self):
        fv = fm_from_lambdas([1.0, 2.0, 3.0], 2)
        assert abs(fv.value - 60.0 ** (1.0 / 3.0)) < 1e-13
        np.testing.assert_allclose(fv.msums, [3.0, 4.0, 5.0], atol=1e-14)

    def test_outside_cone_raises(self):
        with pytest.raises(ConeBoundaryError):
            fm_from_lambdas([-1.0, 0.5, 0.5], 2)

    def test_boundary_clamps_to_zero(self):
        fv = fm_from_lambdas([-1.0, 1.0, 3.0], 2)
        assert fv.value == 0.0

    def test_nan_sum_gives_nan(self):
        # a NaN sum is NaN with or without a zero sum beside it, as in
        # fm_plus_from_sums; the other rows keep their values
        sums = np.array([[np.nan, 4.0], [0.0, np.nan], [1.0, 4.0], [0.0, 4.0]])
        values = fm.geometric_mean_clamped(sums)
        assert np.isnan(values[:2]).all()
        assert values[2:].tolist() == [2.0, 0.0]
        assert np.array_equal(fm.fm_plus_from_sums(sums), values,
                              equal_nan=True)
        assert np.isnan(fm.fm_values(np.array([[np.nan, 4.0]]), 1)).all()
        # a sum outside the cone raises, NaN sums or not
        with pytest.raises(ConeBoundaryError):
            fm.geometric_mean_clamped(np.array([[np.nan, 4.0], [-1.0, 4.0]]))

    def test_homogeneity(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            lam = random_interior_spectrum(rng, n, m)
            alpha = rng.uniform(0.1, 5.0)
            a = fm_from_lambdas(alpha * lam, m).value
            b = alpha * fm_from_lambdas(lam, m).value
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_monotonicity_under_cone_shifts(self, rng):
        # adding a cone element never decreases the value
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            omega = random_metric(rng, n)
            lam = random_interior_spectrum(rng, n, m)
            T = hermitian_from_spectrum(rng, lam, omega)
            bump = random_interior_spectrum(rng, n, m, floor=0.0)
            S = hermitian_from_spectrum(rng, bump, omega)
            a = fm_value(T, omega, m).value
            b = fm_value(T.plus(S), omega, m).value
            assert b >= a - 1e-9


@st.composite
def cone_member(draw, kinds=("interior", "boundary", "equal")):
    """(T, omega, m): a random form whose spectrum relative to a random
    metric lies in the closed m-cone: inside it with every m-sum at least
    0.1, on its boundary, or with every eigenvalue equal, where AM-GM is an
    equality."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    kind = draw(st.sampled_from(kinds))
    if kind == "equal":
        lam = np.full(n, rng.uniform(0.1, 2.0))
    else:
        lam = random_interior_spectrum(
            rng, n, m, floor=0.0 if kind == "boundary" else 0.1)
    omega = random_metric(rng, n)
    return hermitian_from_spectrum(rng, lam, omega), omega, m


class TestFmProperties:
    @given(cone_member())
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_the_trace(self, case):
        # AM-GM on the m-sums: F_m <= (m/n) sum of the relative eigenvalues,
        # the bound the Newton line search rejects trial steps with
        T, omega, m = case
        lam = relative_eigenvalues(T, omega).lambdas
        bound = m / T.dim * lam.sum()
        assert fm_value(T, omega, m).value <= bound + 1e-13 * np.abs(lam).sum()

    # off the boundary: the cone tolerance is absolute, so a scaled-up
    # boundary spectrum can fall outside it
    @given(cone_member(kinds=("interior", "equal")), st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_degree_one_homogeneous(self, case, log10_scale):
        T, omega, m = case
        s = 10.0 ** log10_scale
        expected = s * fm_value(T, omega, m).value
        got = fm_value(HermitianMatrix(s * T.entries), omega, m).value
        assert abs(got - expected) <= 1e-12 * expected


class TestGradient:
    def test_formula_example(self):
        g = fm_gradient_diagonal([1.0, 2.0, 3.0], 2)
        expected_first = 7.0 * 60.0 ** (1.0 / 3.0) / 36.0  # ~0.761224
        assert abs(g[0] - expected_first) < 1e-13
        fd = gradient_fd_oracle([1.0, 2.0, 3.0], 2)
        np.testing.assert_allclose(g, fd, rtol=1e-6)

    def test_top_order_gradient_is_ones(self, rng):
        for _ in range(10):
            lam = random_interior_spectrum(rng, 2, 2)
            np.testing.assert_allclose(fm_gradient_diagonal(lam, 2), [1.0, 1.0],
                                       atol=1e-13)

    def test_m1_two_dim_closed_form(self, rng):
        for _ in range(10):
            a, b = np.sort(rng.uniform(0.2, 3.0, size=2))
            g = fm_gradient_diagonal([a, b], 1)
            assert abs(g[0] - 0.5 * np.sqrt(b / a)) < 1e-12
            assert abs(g[1] - 0.5 * np.sqrt(a / b)) < 1e-12

    def test_finite_difference_consistency(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            lam = random_interior_spectrum(rng, n, m)
            g = fm_gradient_diagonal(lam, m)
            fd = gradient_fd_oracle(lam, m)
            np.testing.assert_allclose(g, fd, rtol=1e-6)

    def test_ellipticity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            lam = random_interior_spectrum(rng, n, m)
            assert (fm_gradient_diagonal(lam, m) > 0.0).all()

    def test_boundary_rejected(self):
        with pytest.raises(ConeBoundaryError):
            fm_gradient_diagonal([0.0, 1.0], 1)

    def test_from_sums_matches_the_spectrum_route(self, rng):
        # the gradient is F_m / C(n, m) times (1 / sums) @ membership, in
        # that order: F_m / sums would round once, not twice, and give
        # other bits
        for n in range(1, 6):
            for m in range(1, n + 1):
                lam = np.array([random_interior_spectrum(rng, n, m)
                                for _ in range(20)])
                sums = subset_sums(lam, m)
                value = fm.geometric_mean_clamped(sums)
                expected = value[:, None] / comb(n, m) * (
                    (1.0 / sums) @ subset_sum_matrix(n, m))
                assert np.array_equal(fm_gradient_diagonal(lam, m), expected)

    @pytest.mark.parametrize("low", [1e-12, 0.0, -1.0, np.nan])
    def test_from_sums_boundary_rejected(self, low):
        # (low/2, low/2, 5) has the 2-sum low, exactly: the boundary test
        # comes before F_m, so a sum below -CONE_TOL gets the gradient's
        # error, not the geometric mean's; a NaN sum is no boundary sum and
        # is not rejected
        lam = np.array([[1.0, 2.0, 3.0], [low / 2, low / 2, 5.0]])
        if np.isnan(low):
            assert np.isnan(fm_gradient_diagonal(lam, 2)[1]).all()
            return
        assert subset_sums(lam, 2).min() == low
        with pytest.raises(ConeBoundaryError,
                           match="the gradient requires the open cone"):
            fm_gradient_diagonal(lam, 2)


class TestProductBound:
    def test_constant_values(self):
        assert fm_product_bound(2, 1) == 0.25
        assert fm_product_bound(2, 2) == 1.0
        assert fm_product_bound(4, 2) == (0.5) ** 4

    def test_n2_m1_product_is_exactly_one_quarter(self, rng):
        # product = (1/4) F^2/(lam1*lam2) = 1/4 for every interior spectrum
        for _ in range(50):
            lam = random_interior_spectrum(rng, 2, 1)
            prod = np.prod(fm_gradient_diagonal(lam, 1))
            assert abs(prod - 0.25) < 1e-12

    def test_top_order_product_is_one(self, rng):
        for n in (2, 3, 4):
            lam = random_interior_spectrum(rng, n, n)
            assert abs(np.prod(fm_gradient_diagonal(lam, n)) - 1.0) < 1e-12

    def test_monte_carlo_minimization(self, rng):
        # random search never undercuts the bound
        for n in (2, 3, 4):
            for m in range(1, n + 1):
                lam = np.sort(rng.uniform(-1.0, 2.0, size=(5000, n)), axis=-1)
                smallest = lam[:, :m].sum(axis=-1)
                shift = np.maximum(0.0, 1e-3 - smallest) / m
                lam = lam + shift[:, None]
                prods = np.prod(fm_gradient_diagonal(lam, m), axis=-1)
                assert prods.min() >= fm_product_bound(n, m) - 1e-12


class TestDerivationMatrix:
    def test_diagonal_pair_sums(self):
        D = derivation_matrix(HermitianMatrix.diagonal([1.0, 2.0, 3.0]), 2)
        np.testing.assert_allclose(D.entries, np.diag([3.0, 4.0, 5.0]), atol=1e-15)

    def test_first_exterior_power_is_identity_action(self, rng):
        A = random_hermitian(rng, 4)
        D = derivation_matrix(A, 1)
        np.testing.assert_allclose(D.entries, A.entries, atol=1e-15)

    def test_top_exterior_power_is_trace(self, rng):
        A = random_hermitian(rng, 4)
        D = derivation_matrix(A, 4)
        assert D.entries.shape == (1, 1)
        assert abs(D.entries[0, 0] - np.trace(A.entries)) < 1e-12

    def test_hermitian_preserved(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            A = random_hermitian(rng, n)
            D = derivation_matrix(A, m).entries
            assert np.abs(D - D.conj().T).max() < 1e-14

    def test_spectrum_is_msums(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            A = random_hermitian(rng, n)
            D = derivation_matrix(A, m)
            lam = np.linalg.eigvalsh(A.entries)
            expected = np.sort(subset_sums(lam, m))
            got = np.sort(np.linalg.eigvalsh(D.entries))
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_stack_matches_member_by_member(self, rng):
        for n in range(1, 6):
            stack = rng.normal(size=(3, 2, n, n)) \
                + 1j * rng.normal(size=(3, 2, n, n))
            stack.real.flat[::3] = -0.0
            for m in range(1, n + 1):
                D = derivation_entries(stack, m)
                for i in np.ndindex(stack.shape[:-2]):
                    # bytes: np.array_equal would not see a zero's sign
                    assert D[i].tobytes() == \
                        derivation_entries(stack[i], m).tobytes()


class TestDeterminantRoute:
    def test_metric_hessian_gives_m(self, rng):
        for n in (2, 3, 4):
            g = random_metric(rng, n)
            for m in range(1, n + 1):
                assert abs(fm_via_determinant(HermitianMatrix(g.entries), g, m) - m) \
                    < 1e-10 * m

    def test_one_two_three(self):
        g = MetricMatrix.identity(3)
        u = HermitianMatrix.diagonal([1.0, 2.0, 3.0])
        v = fm_via_determinant(u, g, 2)
        assert abs(v - 60.0 ** (1.0 / 3.0)) < 1e-12

    def test_agrees_with_eigenvalue_route(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            g = random_metric(rng, n)
            lam = random_interior_spectrum(rng, n, m)
            u = hermitian_from_spectrum(rng, lam, g)
            a = fm_via_determinant(u, g, m)
            b = fm_value(u, g, m).value
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_outside_cone_raises(self):
        # the last two have an even number of negative m-sums and so a
        # positive determinant: the test is D_m(H)'s positive
        # definiteness, not det's sign
        for lam, m in (([-1.0, -2.0], 2), ([-1.0, -2.0], 1),
                       ([-1.0, -2.0, 3.0], 1)):
            T = HermitianMatrix.diagonal(lam)
            g = MetricMatrix.identity(len(lam))
            with pytest.raises(ConeBoundaryError):
                fm_value(T, g, m)
            with pytest.raises(ConeBoundaryError):
                fm_via_determinant(T, g, m)

    def test_one_pivot_pass_at_floor_zero(self, rng, monkeypatch):
        # at floor 0 the cone test's pivots are det(D)'s, so the route
        # takes one pass; at Newton's floor it takes a second at 0
        passes = []
        pivots = fm._determinant

        def counted(D, shift):
            passes.append(shift)
            return pivots(D, shift)

        monkeypatch.setattr(fm, "_determinant", counted)
        for n in range(1, 5):
            for m in range(1, n + 1):
                # forms in the frame of the flat metric, inside the cone
                H = np.stack([hermitian_from_spectrum(
                    rng, random_interior_spectrum(rng, n, m),
                    MetricMatrix.identity(n)).entries for _ in range(5)])
                passes.clear()
                at_zero = fm.determinant_route(H, m, 0.0)
                assert len(passes) == 1
                at_floor = fm.determinant_route(H, m, CONE_FLOOR)
                assert len(passes) == 3
                for a, b in zip(at_zero, at_floor):
                    assert a.tobytes() == b.tobytes()


def spectral_stack(rng, n, m, least, count):
    """``count`` random Hermitian matrices U diag(lambda) U^H, U unitary,
    each spectrum drawn on [-1, 2) and shifted so that its least m-fold sum
    is ``least``."""
    lam = rng.uniform(-1.0, 2.0, size=(count, n))
    lam += (least - subset_sums(lam, m).min(axis=-1))[:, None] / m
    U = np.linalg.qr(rng.normal(size=(count, n, n))
                     + 1j * rng.normal(size=(count, n, n)))[0]
    H = (U * lam[:, None, :]) @ U.conj().swapaxes(-1, -2)
    return 0.5 * (H + H.conj().swapaxes(-1, -2))


# (n, m) of every order below m = n that a grid can take, n <= 4
BELOW_N = [(n, m) for n in (2, 3, 4) for m in range(1, n)]
EPS = np.finfo(float).eps


class TestNodalDeterminant:
    """At m < n, F_m, the cone test and the derivative M of F_m come from
    D_m(H) with no eigenvalue; the eigenvalue route is the reference."""

    @given(nm=st.sampled_from(BELOW_N), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_eigenvalue_route(self, nm, seed):
        # inside the cone, each least m-sum at least a quarter of the
        # spectral scale: F within a few eps |H|, M within a few eps |M|;
        # n = 4 takes numpy's determinant and inverse
        n, m = nm
        rng = np.random.default_rng(seed)
        H = spectral_stack(rng, n, m, rng.uniform(0.25, 1.0), 64)
        lam, V = np.linalg.eigh(H)
        nodal = fm.determinant_route(H, m, CONE_FLOOR)
        M = fm.determinant_derivative(nodal, n, m)
        expected = np.einsum("kpi,ki,kqi->kpq", V,
                             fm_gradient_diagonal(lam, m), V.conj())
        value = fm.geometric_mean_clamped(subset_sums(lam, m))
        size = np.linalg.norm(H, axis=(1, 2))
        assert (np.abs(nodal.fm - value) <= 16 * EPS * size).all()
        assert (np.abs(M - expected).max(axis=(1, 2))
                <= 32 * EPS * np.abs(expected).max(axis=(1, 2))).all()

    @given(nm=st.sampled_from(BELOW_N), seed=st.integers(0, 2 ** 32 - 1),
           log_gap=st.floats(-16.0, 0.0), side=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_membership_is_the_least_sum_above_the_floor(self, nm, seed,
                                                         log_gap, side):
        # the least m-sum drawn at CONE_FLOOR +- 10^log_gap: every matrix
        # farther than 64 eps |H| from the floor is judged by its side
        n, m = nm
        rng = np.random.default_rng(seed)
        gap = side * 10.0 ** log_gap
        for H in spectral_stack(rng, n, m, CONE_FLOOR + gap, 8):
            member = fm.determinant_route(H[None], m,
                                          CONE_FLOOR) is not None
            if abs(gap) > 64 * EPS * np.linalg.norm(H):
                assert member == (gap > 0.0)

    @given(nm=st.sampled_from(BELOW_N), seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(-500, 500))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_is_exact(self, nm, seed, k):
        # the route scales each D by a power of two first: 2^k H gives
        # 2^k F_m and the same M, bit for bit; the floor is absolute, so
        # it is taken at 0 here, where no scale crosses it
        n, m = nm
        rng = np.random.default_rng(seed)
        H = spectral_stack(rng, n, m, rng.uniform(1e-3, 1.0), 16)
        nodal = fm.determinant_route(H, m, 0.0)
        scaled = fm.determinant_route(H * 2.0 ** k, m, 0.0)
        assert np.array_equal(scaled.fm, nodal.fm * 2.0 ** k)
        assert np.array_equal(fm.determinant_derivative(scaled, n, m),
                              fm.determinant_derivative(nodal, n, m))
        # the pointwise route, at every n <= 5 and every m
        for n, m in ((n, m) for n in range(1, 6) for m in range(1, n + 1)):
            H = spectral_stack(rng, n, m, rng.uniform(1e-3, 1.0), 16)
            assert np.array_equal(fm.determinant_fm_values(H * 2.0 ** k, m),
                                  fm.determinant_fm_values(H, m) * 2.0 ** k)


class TestFmPlus:
    def test_outside_cone_is_zero(self):
        T = HermitianMatrix.diagonal([-1.0, 0.0, 0.0])
        assert fm_plus(T, MetricMatrix.identity(3), 1) == 0.0

    def test_inside_cone_matches_value(self):
        T = HermitianMatrix.identity(3)
        assert abs(fm_plus(T, MetricMatrix.identity(3), 2) - 2.0) < 1e-12
        S = HermitianMatrix.diagonal([1.0, 1.0, -1.0])
        w = MetricMatrix.diagonal([1.0, 1.0, 3.0])
        assert abs(fm_plus(S, w, 2) - (8.0 / 9.0) ** (1.0 / 3.0)) < 1e-12

    def test_continuity_across_boundary(self):
        # value tends to 0 as the minimal pair sum tends to 0 from above
        for eps in (1e-2, 1e-4, 1e-6):
            T = HermitianMatrix.diagonal([-1.0 + eps, 1.0, 3.0])
            v = fm_plus(T, MetricMatrix.identity(3), 2)
            assert 0.0 < v < 2.1 * eps ** (1.0 / 3.0)


class TestToleranceBand:
    """T = diag(-delta, 1) against the identity at m = 1, on both sides of
    CONE_TOL: the pointwise verdicts, F_m, F_m^+ and the grid fields (the
    flat C^2 torus with u = 0 and chi = T) draw the boundary at one place."""

    @staticmethod
    def routes(delta):
        T = HermitianMatrix.diagonal([-delta, 1.0])
        omega = MetricMatrix.identity(2)
        domain = GridDomain.torus(2, points_per_axis=5)
        u = GridFunction.constant(domain, 0.0)
        g = MetricField.flat(domain)
        return T, omega, cone_field(u, g, 1, chi=T), fm_field(u, g, 1, chi=T)

    def test_slack_inside_tolerance_is_on_the_cone(self):
        T, omega, cones, field = self.routes(fm.CONE_TOL / 2)
        assert is_m_semipositive(T, omega, 1).member
        assert strong_positivity_oracle(T, omega, 1).member
        assert fm_value(T, omega, 1).value == 0.0
        assert fm_plus(T, omega, 1) == 0.0
        assert cones.all_member
        assert (field.flat == 0.0).all()

    def test_slack_beyond_tolerance_is_outside(self):
        T, omega, cones, field = self.routes(2 * fm.CONE_TOL)
        assert not is_m_semipositive(T, omega, 1).member
        assert not strong_positivity_oracle(T, omega, 1).member
        with pytest.raises(ConeBoundaryError):
            fm_value(T, omega, 1)
        assert fm_plus(T, omega, 1) == 0.0
        assert not cones.member.any()
        assert (field.flat == 0.0).all()  # F_m^+, not the signed margin
        np.testing.assert_allclose(cones.margin, -2 * fm.CONE_TOL, rtol=1e-6)

    @pytest.mark.parametrize("factor, inside", [(0.5, True), (2.0, False)],
                             ids=["inside", "outside"])
    def test_rule_has_one_home(self, monkeypatch, factor, inside):
        # every route takes the closed-cone rule from fm, so patching
        # fm.CONE_TOL alone moves each one's boundary.  F_m^+ is 0 on both
        # sides of it; fm_plus and fm_field show the rule by not raising.
        monkeypatch.setattr(fm, "CONE_TOL", 1e-3)
        T, omega, cones, field = self.routes(factor * 1e-3)
        assert is_m_semipositive(T, omega, 1).member == inside
        assert strong_positivity_oracle(T, omega, 1).member == inside
        assert fm_plus(T, omega, 1) == 0.0
        assert (cones.member == inside).all()
        assert cones.all_member == inside
        assert (field.flat == 0.0).all()

    @pytest.mark.parametrize("scale", [
        1.0,
        pytest.param(1e8, marks=pytest.mark.xfail(
            strict=True, raises=ConeBoundaryError,
            reason="CONE_TOL is absolute: the rounding of a boundary "
                   "spectrum at this scale lies beyond it")),
        1e12,
    ])
    def test_boundary_value_scales_with_the_spectrum(self, scale):
        # T is singular, so F_1(s T) is 0 at every scale s; what rounding
        # leaves of it must stay within a tolerance that scales with s
        T = HermitianMatrix(scale * np.array([[1.0, 0.3], [0.3, 0.09]]))
        assert fm_value(T, OMEGA, 1).value <= scale * 1e-8


class TestConcavity:
    def test_equal_arguments(self, rng):
        g = random_metric(rng, 3)
        A = hermitian_from_spectrum(rng, [0.5, 1.0, 2.0], g)
        assert concavity_probe(A, A, g, 2, steps=7)

    def test_midpoint_example(self):
        # F_1 on C^3: midpoint of Id and diag(4,1,1) evaluates to 2.5**(1/3),
        # above the chord value (1 + 4**(1/3))/2
        g = MetricMatrix.identity(3)
        A = HermitianMatrix.identity(3)
        B = HermitianMatrix.diagonal([4.0, 1.0, 1.0])
        mid = fm_from_lambdas([2.5, 1.0, 1.0], 1).value
        chord = 0.5 * (1.0 + 4.0 ** (1.0 / 3.0))
        assert abs(mid - 2.5 ** (1.0 / 3.0)) < 1e-14
        assert mid >= chord
        assert concavity_probe(A, B, g, 1, steps=11)

    def test_random_pairs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            g = random_metric(rng, n)
            A = hermitian_from_spectrum(rng, random_interior_spectrum(rng, n, m), g)
            B = hermitian_from_spectrum(rng, random_interior_spectrum(rng, n, m), g)
            assert concavity_probe(A, B, g, m, steps=9)
            # a negative slack puts the chord above every value: the probe
            # compares the t-grid values and fails
            assert not concavity_probe(A, B, g, m, steps=9, slack=-1.0)

    def test_values_match_the_per_t_route(self, rng, monkeypatch):
        batches = []
        geometric_mean = fm.geometric_mean_clamped

        def spy(sums):
            batches.append(geometric_mean(sums))
            return batches[-1]

        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            g = random_metric(rng, n)
            A = hermitian_from_spectrum(rng, random_interior_spectrum(rng, n, m), g)
            B = hermitian_from_spectrum(rng, random_interior_spectrum(rng, n, m), g)
            steps = int(rng.integers(2, 12))
            mids = [fm_value(HermitianMatrix(t * A.entries + (1.0 - t) * B.entries),
                             g, m).value for t in np.linspace(0.0, 1.0, steps)]
            with monkeypatch.context() as patch:
                patch.setattr(fm, "geometric_mean_clamped", spy)
                assert concavity_probe(A, B, g, m, steps=steps)
            values = batches.pop().ravel()
            # the endpoints take fm_value's arithmetic exactly; the t-grid
            # reduces t*A + (1-t)*B by linearity, which moves round-off
            assert values[0] == fm_value(A, g, m).value
            assert values[1] == fm_value(B, g, m).value
            np.testing.assert_allclose(values[2:], mids, rtol=1e-13, atol=0)

    def test_outside_cone_rejected(self):
        g = MetricMatrix.identity(2)
        A = HermitianMatrix.diagonal([-2.0, 1.0])
        with pytest.raises(ConeBoundaryError):
            concavity_probe(A, HermitianMatrix.identity(2), g, 1)
        with pytest.raises(ConeBoundaryError):
            concavity_probe(HermitianMatrix.identity(2), A, g, 1)


class TestBatchedHelpers:
    def test_msums_match_direct_enumeration(self, rng):
        from itertools import combinations

        lam = rng.normal(size=5)
        sums = subset_sums(lam, 3)
        expected = [sum(lam[list(J)]) for J in combinations(range(5), 3)]
        np.testing.assert_allclose(sums, expected, atol=1e-14)

    def test_derivation_entries_match_wedge_action(self, rng):
        # apply A as a derivation to decomposable wedges assembled from the
        # standard basis, independently of the combinatorial entry rule
        from itertools import combinations, permutations

        n, m = 4, 2
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        D = derivation_entries(A, m)
        idx = list(combinations(range(n), m))

        def wedge_coeff(vectors, I):
            # coefficient of e_I in v1 ^ v2 (m = 2): antisymmetrized product
            (i, j) = I
            return vectors[0][i] * vectors[1][j] - vectors[0][j] * vectors[1][i]

        for col, J in enumerate(idx):
            basis_vectors = [np.eye(n)[:, j] for j in J]
            total = {I: 0.0 + 0.0j for I in idx}
            for t in range(m):
                vs = [v.copy() for v in basis_vectors]
                vs[t] = A @ vs[t]
                for I in idx:
                    total[I] += wedge_coeff(vs, I)
            for row, I in enumerate(idx):
                assert abs(D[row, col] - total[I]) < 1e-12

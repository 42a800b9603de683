import functools
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mhessian
from mhessian import grids, regularize, solver
from mhessian.errors import (
    ChiNotPositive,
    ConeEscape,
    ConfigError,
    DimensionMismatchError,
    IllPosedRHS,
    NewtonDiverged,
)
from mhessian.fm import (
    determinant_fm_values,
    determinant_route,
    fm_gradient_diagonal,
    fm_value,
    geometric_mean_clamped,
)
from mhessian.grids import GridDomain, GridFunction, MetricField, fm_field
from mhessian.hermitian import HermitianMatrix, MetricMatrix
from mhessian.multiindex import subset_sums
from mhessian.solver import (
    ETA_MAX,
    RightHandSide,
    SolverConfig,
    _FmOperator,
    _linear_solve,
    continuity_path,
    max_principle_check,
    solve_dirichlet,
    solve_torus,
    subsolution_seed,
)

from conftest import CHI, FORM, OMEGA, hessian_is_form, random_metric


def sqn(coords):
    return (coords ** 2).sum(axis=-1)


def interior_error(report, exact_flat):
    mask = report.solution.domain.interior_mask
    return float(np.abs(report.solution.flat[mask] - exact_flat[mask]).max())


def quadratic_setup(n, points, m):
    domain = GridDomain.ball(n, radius=1.0, points_per_axis=points)
    g = MetricField.flat(domain)
    f = GridFunction.from_callable(domain, sqn)
    rhs = RightHandSide.manufactured_quadratic(m)
    return domain, g, f, rhs


# the ConeEscape of a continuity path whose start lies outside the cone
START_OUTSIDE = (r"^initial iterate has cone margin \S+, below the floor "
                 r"1\.0e-10 \(homotopy stage t=0\)$")


def seed_with_boundary(f, g, m=1):
    """The solver's initial iterate: the subsolution seed with f on the
    boundary."""
    seed, _ = subsolution_seed(f, g, m)
    u = seed.flat.copy()
    u[f.domain.boundary_mask] = f.flat[f.domain.boundary_mask]
    return u


def sampled(op, rhs):
    """``rhs`` at the unknowns of ``op``, as a solve samples it."""
    return rhs.sample(op.domain, op.nodes)


def newton_system(op, u, rhs):
    """The Jacobian at u, its diagonal and the residual, as _newton forms
    them."""
    nodal = op.evaluate(u)
    G, dG = op.rhs_values(u, sampled(op, rhs))
    return (*op.jacobian(nodal, dG), nodal.fm - G)


def ball_c2_system(points=9):
    """First Newton Jacobian, its diagonal and the residual of the C^2
    quadratic ball solve."""
    domain, g, f, rhs = quadratic_setup(2, points, 1)
    return newton_system(_FmOperator(domain, g, 1), seed_with_boundary(f, g),
                         rhs)


# (n, points per axis, m, metric, chi): a ball grid when chi is None, else
# a torus grid
JACOBIAN_CASES = {
    "c1_ball": (1, 9, 1, None, None),
    "c2_ball_m1": (2, 7, 1, None, None),
    "c2_ball_m2": (2, 7, 2, None, None),
    "c2_ball_omega": (2, 7, 1, OMEGA, None),
    "c3_ball_m2": (3, 7, 2, None, None),
    "c2_torus_chi": (2, 5, 1, None, CHI),
    "c2_torus_m2": (2, 5, 2, None, CHI),
    "c2_ball_omega_m2": (2, 7, 2, OMEGA, None),
    "c3_ball_m3": (3, 7, 3, None, None),
}


def jacobian_case(n, points, m, metric, chi):
    """An operator, an iterate strictly inside its cone and a right-hand
    side."""
    if chi is None:
        domain = GridDomain.ball(n, radius=1.0, points_per_axis=points)
    else:
        domain = GridDomain.torus(n, points_per_axis=points)
    g = MetricField(domain, metric) if metric else MetricField.flat(domain)
    op = _FmOperator(domain, g, m, chi)
    if chi is None:
        u = seed_with_boundary(GridFunction.from_callable(domain, sqn), g, m)
    else:
        u = 1e-4 * np.random.default_rng(5).normal(size=domain.node_count)
    assert op.sigma(u).min() > 0.0
    return op, u, RightHandSide.manufactured_quadratic(m)


@pytest.fixture
def krylov_runs(monkeypatch):
    """Counts the linear solves of the solver and the BiCGSTAB runs they
    make, one run a solve and two when the first misses and restarts:
    ``solves``, ``runs`` and ``rtols`` the rtol of every run in order."""
    counts = Counter()
    counts["rtols"] = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "runs":
                counts["rtols"].append(kwargs["rtol"])
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_linear_solve",
                        counted("solves", solver._linear_solve))
    monkeypatch.setattr(solver, "_bicgstab", counted("runs", solver._bicgstab))
    return counts


def meets_contract(J, delta, r, eta):
    """The step contract of a forcing term eta: |J delta + r|_inf <= eta
    |r|_2."""
    return np.abs(J @ delta + r).max() <= eta * np.linalg.norm(r)


# the NewtonDiverged errors of a linear solve: on a zero diagonal, and on
# a restart that misses too, naming BiCGSTAB's info, the true residual and
# the bound eta |r|_2, both relative to |r|
ZERO_DIAGONAL = r"^zero on the Jacobian diagonal: Jacobi-BiCGSTAB cannot run$"


def linear_failure(info):
    return (r"Jacobi-BiCGSTAB failed the residual contract after one "
            rf"restart \(BiCGSTAB info={info}, true residual (\S+) \|r\|, "
            r"bound (\S+) \|r\|\)")


# a failure of the line search or the linear solve, and where it happened
WHERE = re.compile(r"^(.*) at Newton iteration \d+ \(residual \S+, "
                   r"cone margin \S+\)$")


def penalized_torus(beta, n=1):
    """chi, G and the metric of a torus problem whose full Newton steps
    overshoot: G grows like exp(beta u); on the C^1 torus at 9 points, or
    on the C^2 torus at 5 points, whose m = 1 lies below m = n."""
    points, amplitude = (9, 0.05) if n == 1 else (5, 0.02)
    domain = GridDomain.torus(n, points_per_axis=points)
    f = GridFunction(domain, -2.0 + amplitude * np.cos(
        2 * np.pi * domain.coords[:, 0]))
    return (HermitianMatrix.identity(n),
            RightHandSide.penalized_distance(beta, f),
            MetricField.flat(domain))


def constant_start(rhs):
    """The configuration that starts a torus solve at the constant min f
    of the penalized f of ``rhs``, where solve_torus starts when the
    pointwise root of G = F_m[chi] is unusable."""
    return SolverConfig(initial=GridFunction.constant(
        rhs.reference.domain, float(rhs.reference.flat.min())))


class TestLinearSolve:
    def test_right_hand_side_scale_changes_nothing(self, krylov_runs):
        # unscaled, the absolute breakdown test of solver._bicgstab stops it
        # (info -10) on this right-hand side; at the forcing-term floor,
        # the strictest contract
        J, diag, r = ball_c2_system()
        delta = _linear_solve(J, r, diag, 1e-13)
        small = _linear_solve(J, r * 2.0 ** -40, diag, 1e-13)
        assert np.array_equal(small, delta * 2.0 ** -40)
        assert meets_contract(J, small, r * 2.0 ** -40, 1e-13)
        assert krylov_runs["runs"] == 2

    @pytest.mark.parametrize("case", list(JACOBIAN_CASES))
    def test_jacobian_diagonal_is_negative(self, case):
        # why Jacobi is always defined: the centre entry Re tr(W_0 M_k) -
        # dG_k pairs the negative definite folded centre weight W_0 with the
        # positive definite derivative M_k of F_m, and dG > 0
        J, diag, _ = newton_system(*jacobian_case(*JACOBIAN_CASES[case]))
        assert diag.max() < 0.0

    def test_zero_diagonal_diverges(self, krylov_runs):
        # Jacobi needs a nonzero diagonal
        J, _, r = ball_c2_system()
        J[0, 0] = 0.0
        with pytest.raises(NewtonDiverged,
                           match=ZERO_DIAGONAL):
            _linear_solve(J, r, J.diagonal(), ETA_MAX)
        assert krylov_runs["runs"] == 0

    @pytest.mark.parametrize("case", list(JACOBIAN_CASES))
    @pytest.mark.parametrize("eta", [ETA_MAX, 1e-13], ids=["eta_max", "floor"])
    def test_meets_the_inexact_contract(self, krylov_runs, case, eta):
        # every step, from C^1 to C^3, at m < n and m = n, at the cap on the
        # forcing term and at its floor: one run at rtol eta meets
        # |J delta + r|_inf <= eta |r|_2
        J, diag, r = newton_system(*jacobian_case(*JACOBIAN_CASES[case]))
        assert meets_contract(J, _linear_solve(J, r, diag, eta), r, eta)
        assert krylov_runs["rtols"] == [eta]

    @pytest.mark.parametrize("case", [*JACOBIAN_CASES, "c2_ball_13"])
    def test_ilu_fallback_meets_the_contract(self, monkeypatch, case):
        # every case the ILU fallback covered, from C^1 to C^3 and up to the
        # 2,665 unknowns of the 13-point C^2 ball, now with the restart: a
        # first run that misses is restarted on the true residual
        if case == "c2_ball_13":
            J, diag, r = ball_c2_system(13)
        else:
            J, diag, r = newton_system(*jacobian_case(*JACOBIAN_CASES[case]))
        bicgstab = solver._bicgstab

        def misses_once(J, b, psolve, rtol, atol, maxiter):
            # the first run's own step, off by a thousandth of its size
            x, info = bicgstab(J, b, psolve, rtol, atol, maxiter)
            if not runs:
                x = x + 1e-3 * np.abs(x).max() * np.cos(np.arange(x.size))
            # with BiCGSTAB's own stopping target
            runs.append((b, x, info, max(atol, rtol * np.sqrt(b.dot(b)))))
            return x, info

        monkeypatch.setattr(solver, "_bicgstab", misses_once)
        eta = 1e-6
        bound = eta * np.linalg.norm(r)
        runs = []
        delta = _linear_solve(J, r, diag, eta)
        assert len(runs) == 2
        (b, x, info, target), (_, _, _, restart_target) = runs
        assert restart_target == target
        assert info == 0
        # b is r scaled by a power of two
        assert (np.abs(J @ x - b).max()
                > bound * np.abs(b).max() / np.abs(r).max())
        assert np.abs(J @ delta + r).max() <= bound

    def test_singular_jacobian_diverges(self, krylov_runs):
        # an empty first row: exactly singular, and zero on the diagonal, so
        # Jacobi-BiCGSTAB does not run
        J, _, r = ball_c2_system()
        J = J.tolil()
        J[0, :] = 0.0
        J = J.tocsr()
        with pytest.raises(NewtonDiverged,
                           match=ZERO_DIAGONAL):
            _linear_solve(J, r, J.diagonal(), ETA_MAX)
        assert krylov_runs["runs"] == 0

    def test_residual_over_contract_diverges(self, monkeypatch):
        # each run returns half its step: the first leaves r / 2, the
        # restart r / 4, both with info 0, over a bound of 1e-6 |r|_2
        J, diag, r = ball_c2_system()
        eta = 1e-6
        bicgstab = solver._bicgstab
        runs = []

        def halves(*args, **kwargs):
            x, info = bicgstab(*args, **kwargs)
            runs.append(info)
            return 0.5 * x, info

        monkeypatch.setattr(solver, "_bicgstab", halves)
        with pytest.raises(NewtonDiverged) as failure:
            _linear_solve(J, r, diag, eta)
        assert runs == [0, 0]
        residual, bound = re.fullmatch(linear_failure(0),
                                       failure.value.args[0]).groups()
        assert float(residual) == pytest.approx(0.25, rel=1e-3)
        assert float(bound) == pytest.approx(
            eta * np.linalg.norm(r) / np.abs(r).max(), rel=1e-3)

    def test_bicgstab_failure_diverges_with_its_info(self, monkeypatch):
        # both runs break down with a zero step: the restart's info is named
        J, diag, r = ball_c2_system()
        runs = []

        def breaks_down(J, b, *args, **kwargs):
            runs.append(1)
            return np.zeros_like(b), -10

        monkeypatch.setattr(solver, "_bicgstab", breaks_down)
        with pytest.raises(NewtonDiverged) as failure:
            _linear_solve(J, r, diag, ETA_MAX)
        assert len(runs) == 2
        assert re.fullmatch(linear_failure(-10),
                            failure.value.args[0]).group(1) == "1.000e+00"

    def test_breakdown_is_met_by_the_restart(self, monkeypatch):
        J, diag, r = ball_c2_system()
        bicgstab = solver._bicgstab
        calls = []

        def breaks_down_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return np.zeros_like(r), -10
            return bicgstab(*args, **kwargs)

        monkeypatch.setattr(solver, "_bicgstab", breaks_down_once)
        assert meets_contract(J, _linear_solve(J, r, diag, 1e-13), r, 1e-13)
        assert len(calls) == 2

    def test_breakdown_at_m_equal_n_is_met_by_the_restart(self, monkeypatch):
        # the symmetric m = n system runs the same loop: a first run that
        # breaks down is restarted, and the restart meets the contract
        J, diag, r = newton_system(*jacobian_case(*JACOBIAN_CASES["c2_ball_m2"]))
        bicgstab = solver._bicgstab
        calls = []

        def breaks_down_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return np.zeros_like(r), -10
            return bicgstab(*args, **kwargs)

        monkeypatch.setattr(solver, "_bicgstab", breaks_down_once)
        assert meets_contract(J, _linear_solve(J, r, diag, ETA_MAX), r,
                              ETA_MAX)
        assert len(calls) == 2

    def test_failure_at_m_equal_n_diverges_with_its_info(self, monkeypatch):
        # at m = n both runs break down: the restart's info is named; a
        # zero on the diagonal diverges before any run
        J, diag, r = newton_system(*jacobian_case(*JACOBIAN_CASES["c2_ball_m2"]))
        runs = []

        def breaks_down(J, b, *args, **kwargs):
            runs.append(1)
            return np.zeros_like(b), -10

        monkeypatch.setattr(solver, "_bicgstab", breaks_down)
        with pytest.raises(NewtonDiverged) as failure:
            _linear_solve(J, r, diag, ETA_MAX)
        assert len(runs) == 2
        assert re.fullmatch(linear_failure(-10),
                            failure.value.args[0]).group(1) == "1.000e+00"
        diag = diag.copy()
        diag[0] = 0.0
        with pytest.raises(NewtonDiverged, match=ZERO_DIAGONAL):
            _linear_solve(J, r, diag, ETA_MAX)
        assert len(runs) == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_drifting_residual_is_met_by_the_restart(self, threads):
        # BiCGSTAB's recursively updated residual drifts from the true one:
        # at the floor eta = 1e-13 the first run stops at its own target
        # with info 0 and misses the 1e-13 |r|_2 contract; one restart on
        # the true residual meets it
        (runs, info, first, step), residual, factorizer = one_blas_thread(
            DRIFTING_RESIDUAL, threads)
        assert info == 0
        assert first > 1e-13
        assert runs == 2
        assert step <= 1e-13
        assert residual <= 1e-9
        assert not factorizer

    def test_converged_solve_logs_nothing(self, caplog):
        # the library configures no logger and writes no record
        domain, g, f, rhs = quadratic_setup(2, 7, 1)
        with caplog.at_level("DEBUG"):
            solve_dirichlet(f, rhs, g, 1)
        assert caplog.records == []

    def test_bicgstab_matches_scipy(self):
        # scipy's bicgstab behind a LinearOperator preconditioner is the
        # reference: equal bits and equal info on every path of the loop
        def check(J, b, psolve, info, rtol=1e-13, atol=None, maxiter=1000):
            if atol is None:
                atol = 1e-14 * np.abs(b).max()  # as _linear_solve sets it
            x, got = solver._bicgstab(J, b, psolve, rtol, atol, maxiter)
            x_ref, info_ref = scipy.sparse.linalg.bicgstab(
                J, b, M=scipy.sparse.linalg.LinearOperator(J.shape, psolve),
                rtol=rtol, atol=atol, maxiter=maxiter)
            assert got == info_ref == info
            assert np.array_equal(x, x_ref)
            return x_ref

        for case in JACOBIAN_CASES.values():
            J, diag, r = newton_system(*jacobian_case(*case))
            # the power of two _linear_solve scales r by
            scale = 2.0 ** (1 - np.frexp(np.abs(r).max())[1])
            for eta in (1e-13, ETA_MAX):
                x_ref = check(J, -r * scale, lambda x: x / diag, 0, rtol=eta)
                assert np.array_equal(_linear_solve(J, r, diag, eta),
                                      x_ref / scale)
        J, diag, r = ball_c2_system()
        b = -r / np.abs(r).max()
        # unscaled r * 2^-40: rho breakdown
        check(J, -r * 2.0 ** -40, lambda x: x / diag, -10)
        check(J, b, lambda x: x / diag, 3, maxiter=3)
        check(J, np.zeros_like(r), lambda x: x / diag, 0)
        # J p = 0 on the first search direction: rv breakdown
        nilpotent = scipy.sparse.csr_matrix([[0.0, 1.0], [0.0, 0.0]])
        check(nilpotent, np.array([1.0, 0.0]), np.copy, -11)
        # both stopping tests are strict: a residual norm equal to atol,
        # before the first step (rtol = 1) or after its first half, goes on
        J = scipy.sparse.csr_matrix(np.diag([1.0, 2.0]))
        b = np.array([1.0, 1.0])
        check(J, b, np.copy, 0, rtol=1.0)
        v = J @ b
        half = np.linalg.norm(b - np.dot(b, b) / np.dot(b, v) * v)
        check(J, b, np.copy, 0, rtol=0.0, atol=half)

    def test_bicgstab_refuses_non_csr(self):
        # csr_matvec on a CSC matrix's arrays would compute J^T x
        J, diag, r = ball_c2_system()
        with pytest.raises(ValueError, match="CSR"):
            solver._bicgstab(J.tocsc(), -r, lambda x: x / diag, rtol=1e-13,
                             atol=0.0, maxiter=10)
        with pytest.raises(ValueError, match="right-hand side"):
            solver._bicgstab(J, -r[1:], lambda x: x / diag[1:], rtol=1e-13,
                             atol=0.0, maxiter=10)

    def test_raw_matvec_matches_matmul(self, rng):
        # the loop's kernel call against scipy's public product, on the
        # shared int32 pattern of every operator Jacobian; two products
        # per matrix, so that an output buffer left over from the first
        # would show in the second
        systems = [newton_system(*jacobian_case(*case))[0]
                   for case in JACOBIAN_CASES.values()]
        systems.append(ball_c2_system()[0])
        for J in systems:
            assert J.indices.dtype == J.indptr.dtype == np.int32
            for x in rng.normal(size=(2, J.shape[0])):
                assert np.array_equal(solver._matvec(J, x), J @ x)

    @pytest.mark.parametrize("case", list(JACOBIAN_CASES))
    def test_jacobian_matches_per_stencil_assembly(self, case):
        op, u, rhs = jacobian_case(*JACOBIAN_CASES[case])
        lam, V = np.linalg.eigh(op.hessians(u))
        grad = fm_gradient_diagonal(lam, op.m)
        M = np.einsum("kpi,ki,kqi->kpq", V, grad, np.conj(V))
        _, dG = sampled(op, rhs)(u[op.nodes])
        unknown = np.full(op.domain.node_count, -1)
        unknown[op.nodes] = np.arange(op.nodes.size)
        expected = np.zeros((op.nodes.size,) * 2)
        for s, W in enumerate(op.weights):
            entry = np.einsum("kpq,qp->k", M, W).real
            if (op.neighbors[s] == op.nodes).all():
                entry = entry - dG
            for k, col in enumerate(unknown[op.neighbors[s]]):
                if col >= 0:
                    expected[k, col] += entry[k]
        J, diag, _ = newton_system(op, u, rhs)
        assert np.array_equal(diag, J.diagonal())
        np.testing.assert_allclose(J.toarray(), expected, rtol=0,
                                   atol=1e-14 * np.abs(expected).max())


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
        nodal = determinant_route(H, m, solver.CONE_FLOOR)
        M = solver._derivative(nodal, n, m)
        expected = np.einsum("kpi,ki,kqi->kpq", V,
                             fm_gradient_diagonal(lam, m), V.conj())
        fm = geometric_mean_clamped(subset_sums(lam, m))
        size = np.linalg.norm(H, axis=(1, 2))
        assert (np.abs(nodal.fm - fm) <= 16 * EPS * size).all()
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
        for H in spectral_stack(rng, n, m, solver.CONE_FLOOR + gap, 8):
            member = determinant_route(H[None], m,
                                       solver.CONE_FLOOR) is not None
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
        nodal = determinant_route(H, m, 0.0)
        scaled = determinant_route(H * 2.0 ** k, m, 0.0)
        assert np.array_equal(scaled.fm, nodal.fm * 2.0 ** k)
        assert np.array_equal(solver._derivative(scaled, n, m),
                              solver._derivative(nodal, n, m))
        # the pointwise route, at every n <= 5 and every m
        for n, m in ((n, m) for n in range(1, 6) for m in range(1, n + 1)):
            H = spectral_stack(rng, n, m, rng.uniform(1e-3, 1.0), 16)
            assert np.array_equal(determinant_fm_values(H * 2.0 ** k, m),
                                  determinant_fm_values(H, m) * 2.0 ** k)


# the cases of JACOBIAN_CASES at m = n, whose Jacobians are symmetric
SYMMETRIC_CASES = [case for case, (n, _, m, _, _) in JACOBIAN_CASES.items()
                   if m == n]


def full_stencil_jacobian(op, M, dG):
    """The Jacobian as assembled over every stencil row from the derivative
    matrices M of F_m, (K, n, n), in CSR form with each entry of the dropped
    rows kept as an explicit zero."""
    K = op.nodes.size
    entries = (op.weights.reshape(len(op.weights), -1).view(float)
               @ M.reshape(K, -1).view(float).T)
    rows = np.arange(len(op.weights))
    indices, indptr, _, center, _ = op.domain.jacobian_pattern(rows)
    src = op.domain.jacobian_gather(rows)
    entries[center] -= dG
    return scipy.sparse.csr_matrix((entries.ravel()[src], indices, indptr),
                                   shape=(K, K))


def repeat_and_gather_jacobian(op, dG):
    """The m = n Jacobian and its diagonal as built before the operator
    held L: the trace weights repeated across the nodes, dG taken off the
    centre row and the CSR entries gathered."""
    K = op.nodes.size
    entries = np.repeat(op.trace_weights[:, None], K, axis=1)
    entries[op.center] -= dG
    src = op.domain.jacobian_gather(op.rows)
    J = scipy.sparse.csr_matrix((entries.ravel()[src], op.indices,
                                 op.indptr), shape=(K, K))
    return J, entries[op.center].copy()


# (n, domain kind, points per axis) of the m = n Jacobians whose symmetry
# and definiteness are pinned, each with a random metric
SEMILINEAR_CASES = {
    "c1_ball": (1, "ball", 9),
    "c1_torus": (1, "torus", 9),
    "c2_ball": (2, "ball", 9),
    "c2_torus": (2, "torus", 5),
    "c3_ball": (3, "ball", 7),
}


class TestTraceStencil:
    """At m = n, F_n = tr H is linear in u: the Jacobian is the trace
    stencil L - diag(dG), on the trace rows alone."""

    @pytest.mark.parametrize("case", ["c1_ball", "c2_ball_m2", "c2_torus_m2",
                                      "c2_ball_omega_m2"])
    def test_matches_the_full_stencil_exactly(self, case):
        op, u, rhs = jacobian_case(*JACOBIAN_CASES[case])
        n = op.domain.n
        assert op.m == n
        # a non-diagonal metric gives every folded weight a nonzero trace
        assert (len(op.rows) == 25) == (case == "c2_ball_omega_m2")
        nodal = op.evaluate(u)
        G, dG = op.rhs_values(u, sampled(op, rhs))
        J, diag = op.jacobian(nodal, dG)
        # the derivative of F_n = tr H is M = I at every node, contracted
        # with every stencil row; at n <= 2 the trace of each folded weight
        # has at most two terms, so the GEMM rounds it as the trace does
        full = full_stencil_jacobian(
            op, np.broadcast_to(np.eye(n, dtype=complex),
                                (op.nodes.size, n, n)).copy(), dG)
        assert np.array_equal(J.toarray(), full.toarray())
        assert np.array_equal(diag, full.diagonal())
        # dropping exact zeros changes no product, so no BiCGSTAB iterate
        r = nodal.fm - G
        x, info = solver._bicgstab(J, -r, lambda y: y / diag, rtol=1e-13,
                                   atol=0.0, maxiter=1000)
        x_full, info_full = solver._bicgstab(
            full, -r, lambda y: y / diag, rtol=1e-13, atol=0.0, maxiter=1000)
        assert info == info_full == 0
        assert np.array_equal(x, x_full)

    @pytest.mark.parametrize("m, per_row", [(1, 25), (2, 9)])
    def test_flat_c2_torus_entries_per_row(self, m, per_row):
        op, u, rhs = jacobian_case(2, 5, m, None, CHI)
        J, _, _ = newton_system(op, u, rhs)
        assert J.nnz == per_row * op.nodes.size

    @pytest.mark.parametrize("case", ["c1_ball", "c2_torus_m2",
                                      "c2_ball_omega_m2", "c3_ball_m3"])
    def test_reuses_the_iterate_sums_bit_for_bit(self, monkeypatch, case):
        # the m = n Jacobian reads nothing of the iterate, its m-sums
        # included: at another iterate with the same slope dG it has the
        # same bits, and it forms no Hessian, eigensolve, derivative M or
        # GEMM
        op, u, rhs = jacobian_case(*JACOBIAN_CASES[case])
        assert op.m == op.domain.n
        _, dG = op.rhs_values(u, sampled(op, rhs))
        other = op.evaluate(
            u + 1e-4 * np.random.default_rng(9).normal(size=u.size))
        # a copy: both Jacobians live on the operator's held data
        expected, expected_diag = op.jacobian(other, dG)
        expected = expected.copy()
        nodal = op.evaluate(u)
        assert not np.array_equal(nodal.fm, other.fm)
        calls = spied(monkeypatch, (grids, "_eigh"),
                      (solver, "_derivative"), (_FmOperator, "hessians"))
        J, diag = op.jacobian(nodal, dG)
        assert calls == []
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(J, name), getattr(expected, name))
        assert np.array_equal(diag, expected_diag)

    @pytest.mark.parametrize("case", SYMMETRIC_CASES)
    def test_held_stencil_matches_repeat_and_gather(self, rng, case):
        # the operator holds L's CSR data once and each call writes its
        # diagonal there: two calls in a row, with slopes that differ at
        # every node, each give the bits of the construction that repeated
        # the trace weights and gathered the entries at every call
        op, u, rhs = jacobian_case(*JACOBIAN_CASES[case])
        _, dG = op.rhs_values(u, sampled(op, rhs))
        for slope in (dG, dG * rng.uniform(1.5, 2.0, dG.size)):
            J, diag = op.jacobian(None, slope)
            expected, expected_diag = repeat_and_gather_jacobian(op, slope)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(J, name),
                                      getattr(expected, name))
            assert np.array_equal(diag, expected_diag)
            assert np.shares_memory(J.data, op.stencil)

    @pytest.mark.parametrize("case", list(SEMILINEAR_CASES))
    def test_is_symmetric_and_negative_definite(self, rng, case):
        # L is symmetric, since the folded weights of the offsets s and -s
        # are equal, and -L is positive semidefinite for a constant metric;
        # dG > 0 makes -J = -L + diag(dG) definite
        n, kind, points = SEMILINEAR_CASES[case]
        if kind == "ball":
            domain = GridDomain.ball(n, radius=1.0, points_per_axis=points)
        else:
            domain = GridDomain.torus(n, points_per_axis=points)
        g = MetricField(domain, random_metric(rng, n))
        chi = None if kind == "ball" else g.constant.base
        op = _FmOperator(domain, g, n, chi)
        dG = rng.uniform(0.1, 2.0, op.nodes.size)
        J, diag = op.jacobian(None, dG)
        assert np.array_equal(diag, J.diagonal())
        assert (J != J.T).nnz == 0
        np.linalg.cholesky(-J.toarray())

    def test_c3_torus_stencil_is_negative_semidefinite(self, rng):
        # the C^3 torus at 5 points has 15,625 unknowns, too many for a
        # dense Cholesky factorization; L is a symmetric circulant there,
        # whose eigenvalues are its symbol sum_s tr W_s cos(theta . s) at
        # the grid frequencies theta, so -J = -L + diag(dG) is definite
        # when none of them is positive
        domain = GridDomain.torus(3, points_per_axis=5)
        g = MetricField(domain, random_metric(rng, 3))
        op = _FmOperator(domain, g, 3, g.constant.base)
        J, _ = op.jacobian(None, np.zeros(op.nodes.size))
        assert (J != J.T).nnz == 0
        offsets = grids.stencil(3)[0][op.trace_rows]
        theta = 2 * np.pi / 5 * domain.coords / domain.spacing
        symbol = np.cos(theta @ offsets.T) @ op.trace_weights
        assert symbol.max() <= 1e-12 * np.abs(op.trace_weights).sum()

    @pytest.mark.parametrize("case", ["c1_ball", "c2_torus_m2",
                                      "c2_ball_omega_m2", "c3_ball_m3"])
    def test_evaluation_reads_the_trace_alone(self, monkeypatch, case):
        # at m = n neither the Hessians nor an eigensolve are formed, in
        # the solver or in the grid layer
        op, u, _ = jacobian_case(*JACOBIAN_CASES[case])
        expected = op.traces(u)
        calls = []
        monkeypatch.setattr(grids, "_eigh",
                            lambda *args, **kwargs: calls.append("_eigh"))
        monkeypatch.setattr(_FmOperator, "hessians",
                            lambda *args: calls.append("hessians"))
        nodal = op.evaluate(u)
        assert calls == []
        assert nodal.D is None
        assert np.array_equal(nodal.fm, expected)


class GemmSpy:
    """Stands in for ``_FmOperator.row_weights``, the left factor of the
    Jacobian's GEMM at m < n: a product taken with it fails the test."""

    def __matmul__(self, other):
        raise AssertionError("the Jacobian ran its GEMM")


def spied(monkeypatch, *targets):
    """The list of the names of the ``(owner, name)`` targets called from
    now on, each replaced by a recorder; the Jacobian's GEMM fails."""
    calls = []
    for owner, name in targets:
        monkeypatch.setattr(owner, name, functools.partial(
            lambda name, *args, **kwargs: calls.append(name), name))
    monkeypatch.setattr(_FmOperator, "row_weights", GemmSpy(), raising=False)
    return calls


def forcing_rule_holds(rnorms, ratios, tolerance):
    """Asserts the forcing terms _newton takes along the residuals whose
    max norms are ``rnorms`` and whose 2-norms are ``ratios`` times those:
    ETA_MAX = 0.1 first, then 0.9 (rnorm_k / rnorm_{k-1})^2 clipped to
    [max(1e-13, 0.5 tolerance / |r_k|_2), 0.1], and 0.1 where that
    interval is empty."""
    for k, (rnorm, ratio) in enumerate(zip(rnorms, ratios)):
        prev = rnorms[k - 1] if k else None
        r2norm = rnorm * ratio
        eta = solver._forcing_term(rnorm, prev, r2norm, tolerance)
        floor = max(1e-13, 0.5 * tolerance / r2norm)
        assert min(floor, 0.1) <= eta <= 0.1
        if prev is None:
            assert eta == 0.1
            continue
        choice = 0.9 * (rnorm / prev) ** 2
        if floor <= choice <= 0.1:
            assert eta == choice
        elif choice < floor <= 0.1:
            assert eta == floor


def torus_c2_problem(points):
    """chi, G, the metric and m of the first schedule index of criterion
    15 on the C^2 torus: G = exp(50 (t - f)) + 1/100 with f = -2.1 + 0.04
    sum_p cos(2 pi x_p)."""
    domain = GridDomain.torus(2, points_per_axis=points)
    c = domain.coords
    f = GridFunction(domain, -2.1 + 0.04 * sum(np.cos(2 * np.pi * c[:, 2 * p])
                                               for p in range(2)))
    return (HermitianMatrix.identity(2),
            RightHandSide.penalized_distance(50.0, f),
            MetricField.flat(domain), 2)


# the first penalized solve of global_regularize on the torus_c2_global
# inputs at 11^4 with phases from seed 5, from the start solve_torus picks
# or, with CONSTANT = True, from the constant min f; prints [iterations,
# residual]
FIRST_GLOBAL_SUB_SOLVE = """
import json
import numpy as np
from mhessian import regularize
from mhessian.grids import GridDomain, GridFunction, MetricField
from mhessian.hermitian import HermitianMatrix
from mhessian.solver import SolverConfig, solve_torus

CONSTANT = {constant}

domain = GridDomain.torus(2, points_per_axis=11)
theta = np.random.default_rng(5).integers(0, 11, size=2) * domain.spacing
c = domain.coords
phi = GridFunction(domain, -2.6 + 0.04 * sum(
    np.cos(2 * np.pi * (c[:, 2 * p] + theta[p])) for p in range(2)))
schedule = regularize.ApproximationSchedule.geometric(
    [GridFunction(domain, phi.flat + eta)
     for eta in (0.5, 0.2, 0.05, 0.0125, 0.003, 0.001)],
    beta_start=50.0, growth=2.0)
reports = []


def recorded(chi, rhs, g, m, cfg):
    if CONSTANT:
        cfg = SolverConfig(initial=GridFunction.constant(
            domain, float(rhs.reference.flat.min())))
    reports.append(solve_torus(chi, rhs, g, m, cfg))
    return reports[-1]


regularize.solve_torus = recorded
regularize.global_regularize(phi, HermitianMatrix.identity(2),
                             MetricField.flat(domain), 2, schedule,
                             iterates=1)
[report] = reports
print(json.dumps([report.iterations, report.final_residual]))
"""


def one_blas_thread(code, threads=1):
    """The JSON that ``code`` prints, run in a child Python whose BLAS has
    one thread, or ``threads`` (a BLAS reads its thread count once, when it
    loads), and which imports this mhessian."""
    package_root = os.path.dirname(os.path.dirname(mhessian.__file__))
    count = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count,
               MKL_NUM_THREADS=count,
               PYTHONPATH=os.pathsep.join(
                   [package_root, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


# the C^1 torus solve of the artifact gate's solve_torus_penalized_c1
# config, at m = n; prints the iterations and a digest of the solution bytes
C1_TORUS_PENALIZED = """
import hashlib
import json
import numpy as np
from mhessian.grids import GridDomain, GridFunction, MetricField
from mhessian.hermitian import HermitianMatrix
from mhessian.solver import RightHandSide, solve_torus

domain = GridDomain.torus(1, points_per_axis=33)
f = GridFunction(domain, np.cos(2 * np.pi * domain.coords[:, 0]))
report = solve_torus(HermitianMatrix.identity(1),
                     RightHandSide.penalized_distance(50.0, f),
                     MetricField.flat(domain), 1)
print(json.dumps([report.iterations,
                  hashlib.sha256(report.solution.values).hexdigest()]))
"""


# a 9^4 C^2 torus at m = 1 with a metric of condition number 2,702 and
# chi = 1.29 times it, solved from the constant min f, on whose first
# Newton system Jacobi-BiCGSTAB at rtol 1e-13 stops with info 0 at a true
# residual of 1.39e-12 |r|_2 (1.47e-12 at two BLAS threads), where the
# forcing-term floor asks for 1e-13 |r|_2; prints, for that system solved
# at the floor, the runs of the linear solve, the first run's info and its
# true residual and the step's, both relative to |r|_2, then the solve's
# residual and whether scipy's sparse linalg module, home of every
# factorization, was ever imported
DRIFTING_RESIDUAL = """
import json
import sys
import numpy as np
import mhessian.cli
from mhessian import solver
from mhessian.grids import GridDomain, GridFunction, MetricField
from mhessian.hermitian import HermitianMatrix, MetricMatrix
from mhessian.multiindex import subset_sums

W = np.array([[463.237055127294, -765.7855616506956 + 669.5782337128992j],
              [-765.7855616506956 - 669.5782337128992j, 2239.597113790016]])
domain = GridDomain.torus(2, points_per_axis=9)
theta = (0.6404276876816221, 0.8360906655201187, 0.1359151502060031,
         0.5245636569324721)
a = (0.41002832204901635, 0.7663089808167121, 0.8729539306754275,
     0.6255852488250306)
c = domain.coords
f = GridFunction(domain, -2.0 + 0.05 * sum(
    a[p] * np.cos(2 * np.pi * (c[:, p] + theta[p])) for p in range(4)))
bicgstab, linear_solve = solver._bicgstab, solver._linear_solve
runs, systems = [], []


def recorded_bicgstab(J, b, *args, **kwargs):
    x, info = bicgstab(J, b, *args, **kwargs)
    runs.append([info, float(np.abs(J @ x - b).max() / np.linalg.norm(b))])
    return x, info


def recorded_solve(J, r, diag, eta):
    if not systems:
        systems.append((J, r, diag))
    return linear_solve(J, r, diag, eta)


solver._linear_solve = recorded_solve
report = solver.solve_torus(
    HermitianMatrix(1.2942710039829863 * W),
    solver.RightHandSide.penalized_distance(112.60409697386827, f),
    MetricField(domain, MetricMatrix(HermitianMatrix(W))), 1,
    solver.SolverConfig(initial=GridFunction.constant(domain,
                                                      float(f.flat.min()))))
[(J, r, diag)] = systems
solver._bicgstab = recorded_bicgstab
delta = linear_solve(J, r, diag, 1e-13)
print(json.dumps([[len(runs), *runs[0],
                   float(np.abs(J @ delta + r).max() / np.linalg.norm(r))],
                  report.final_residual,
                  "scipy.sparse.linalg" in sys.modules]))
"""


class TestInexactNewton:
    # Newton's residuals fall at every accepted step; |r|_2 / |r|_inf lies
    # in [1, sqrt(K)] on K unknowns, and K <= MAX_NODES = 2^20
    @given(steps=st.lists(st.tuples(st.floats(1e-300, 1e300),
                                    st.floats(1.0, 2.0 ** 10)),
                          min_size=1, max_size=8,
                          unique_by=lambda step: step[0]).map(
                              lambda xs: sorted(xs, reverse=True)),
           tolerance=st.one_of(st.just(0.0), st.floats(1e-300, 1e300)))
    @settings(max_examples=300, deadline=None)
    def test_forcing_rule(self, steps, tolerance):
        rnorms, ratios = zip(*steps)
        forcing_rule_holds(rnorms, ratios, tolerance)

    @pytest.mark.parametrize("name, value", [("FORCING_GAMMA", 0.8),
                                             ("FORCING_ALPHA", 1.5),
                                             ("ETA_MAX", 0.5)])
    def test_forcing_rule_sees_a_changed_constant(self, monkeypatch, name,
                                                  value):
        forcing_rule_holds([1.0, 0.1, 1e-3], [1.0, 1.0, 1.0], 0.0)
        monkeypatch.setattr(solver, name, value)
        with pytest.raises(AssertionError):
            forcing_rule_holds([1.0, 0.1, 1e-3], [1.0, 1.0, 1.0], 0.0)

    def test_floor_is_in_the_two_norm(self):
        # near the root the floor binds: at it the step contract
        # |J delta + r|_inf <= eta |r|_2 leaves half the tolerance, where a
        # floor on |r|_inf = 2e-9 would leave 100 times that
        eta = solver._forcing_term(2e-9, 1e-6, 2e-7, 1e-9)
        assert eta == 0.5 * 1e-9 / 2e-7
        forcing_rule_holds([1e-6, 2e-9], [1.0, 100.0], 1e-9)

    def test_two_norm_of_a_scaled_residual(self, rng):
        # r^2 overflows at 2^600 and underflows at 2^-600; the norm taken on
        # r / |r|_inf scales exactly with a power of two
        r = rng.uniform(-1.0, 1.0, size=1000)
        rnorm = float(np.abs(r).max())
        base = solver._two_norm(r, rnorm)
        assert base == pytest.approx(np.linalg.norm(r), rel=1e-15)
        for k in (-600, 600):
            scale = 2.0 ** k
            with np.errstate(all="raise"):
                assert solver._two_norm(r * scale, rnorm * scale) == base * scale

    @pytest.mark.parametrize("problem", [
        "c1_torus", "c2_torus_m1", "c2_ball_m1", "c2_ball_m2",
        "c2_ball_13_m1", "c2_ball_13_m2", "c2_ball_17_m2"])
    def test_every_step_is_inexact(self, krylov_runs, problem):
        # at every size and every m, m = n among them: each Newton step's
        # first run stops at its forcing term, ETA_MAX on the first step
        # and within [1e-13, ETA_MAX] after it; a restart (rtol 0) stops
        # at its first run's target.  The C^2 balls have 305, 2,665 and
        # 10,425 unknowns, and recover the quadratic
        if problem == "c1_torus":
            report = solve_torus(*penalized_torus(40.0), 1)
        elif problem == "c2_torus_m1":
            report = solve_torus(*penalized_torus(10.0, n=2), 1)
        else:
            # c2_ball_m<m> at 9 points, or c2_ball_<points>_m<m>
            parts = problem.split("_")
            points = int(parts[2]) if len(parts) == 4 else 9
            m = int(problem[-1])
            domain, g, f, rhs = quadratic_setup(2, points, m)
            report = solve_dirichlet(f, rhs, g, m)
            assert interior_error(report, f.flat) <= 1e-10
        assert report.final_residual <= 1e-9
        rtols = krylov_runs["rtols"]
        assert krylov_runs["solves"] == report.iterations > 0
        assert rtols[0] == ETA_MAX
        assert all(1e-13 <= rtol <= ETA_MAX or rtol == 0.0 for rtol in rtols)

    def test_torus_at_11_points_takes_inexact_steps(self, monkeypatch):
        # 14,641 unknowns: the forcing terms reach the solution that steps
        # at the 1e-13 floor reach, with fewer matvecs
        problem = torus_c2_problem(11)
        matvec = solver._matvec

        def solve():
            calls = []

            def counted(J, x):
                calls.append(1)
                return matvec(J, x)

            with monkeypatch.context() as patch:
                patch.setattr(solver, "_matvec", counted)
                return solve_torus(*problem), len(calls)

        inexact, inexact_calls = solve()
        # every step at the floor
        monkeypatch.setattr(solver, "_forcing_term", lambda *args: 1e-13)
        exact, exact_calls = solve()
        assert inexact.final_residual <= 1e-9
        assert exact.final_residual <= 1e-9
        assert np.abs(inexact.solution.flat
                      - exact.solution.flat).max() <= 1e-10
        assert inexact_calls < exact_calls

    def test_first_global_sub_solve_takes_six_iterations(self):
        # the torus_c2_global benchmark inputs at 11^4 with phases from seed
        # 5, from the constant min f, a path the pointwise start leaves:
        # with the floor on |r|_inf the last inexact step left a max-norm
        # residual of 1.19e-9, above the tolerance, and Newton took 7.
        # Counted at one BLAS thread, as CI and the benchmark run: a threaded
        # dot product rounds otherwise, and BiCGSTAB's early steps magnify
        # that (6 iterations at two threads too, ending at 9.62e-10 where
        # one thread ends at 9.68e-10)
        iterations, residual = one_blas_thread(
            FIRST_GLOBAL_SUB_SOLVE.format(constant=True))
        assert residual <= 1e-9
        assert iterations == 6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_global_sub_solve_takes_four_from_the_pointwise_root(
            self, threads):
        # the same sub-solve from the pointwise root of G = F_m[chi] takes
        # 4 iterations at either thread count, with no damped step
        iterations, residual = one_blas_thread(
            FIRST_GLOBAL_SUB_SOLVE.format(constant=False), threads)
        assert residual <= 1e-9
        assert iterations == 4

    @pytest.mark.parametrize("above", [False, True])
    def test_step_over_its_forcing_bound_falls_back(self, monkeypatch,
                                                    above):
        # a forcing term at the 1e-13 floor, or above it
        J, diag, r = ball_c2_system()
        # above the floor a zero step leaves the residual r, just under 10
        # times the bound |J delta + r| <= eta |r|_2: a bound loosened 10
        # times accepts it
        eta = (0.1001 * np.abs(r).max() / np.linalg.norm(r) if above
               else 1e-13)
        bicgstab = solver._bicgstab
        targets = []

        def misses_once(J, b, psolve, rtol, atol, maxiter):
            # BiCGSTAB's own stopping target
            targets.append(max(atol, rtol * np.sqrt(b.dot(b))))
            if len(targets) == 1:
                return np.zeros_like(b), 0
            return bicgstab(J, b, psolve, rtol, atol, maxiter)

        monkeypatch.setattr(solver, "_bicgstab", misses_once)
        delta = _linear_solve(J, r, diag, eta)
        # the restart of a zero step solves the first run's system again,
        # to the same target: rtol |b|_2 with rtol = eta
        b = r * 2.0 ** (1 - np.frexp(np.abs(r).max())[1])
        assert targets == [eta * np.sqrt(b.dot(b))] * 2
        assert meets_contract(J, delta, r, eta)


class TestManufacturedQuadratic:
    def test_c1_exact_recovery(self):
        domain, g, f, rhs = quadratic_setup(1, 33, 1)
        report = solve_dirichlet(f, rhs, g, 1)
        assert report.final_residual <= 1e-9
        assert report.min_cone_margin > 0
        assert interior_error(report, f.flat) <= 1e-10

    def test_c2_exact_recovery_both_orders(self, krylov_runs):
        for m in (1, 2):
            domain, g, f, rhs = quadratic_setup(2, 9, m)
            report = solve_dirichlet(f, rhs, g, m)
            assert interior_error(report, f.flat) <= 1e-10
        # one BiCGSTAB run a linear solve, at m = 1 and at m = 2: no
        # restart, and every run at a forcing term
        assert krylov_runs["runs"] == krylov_runs["solves"] > 0
        assert ETA_MAX in krylov_runs["rtols"]
        assert all(1e-13 <= rtol <= ETA_MAX for rtol in krylov_runs["rtols"])

    @pytest.mark.parametrize("points", [7, 9])
    def test_c3_exact_recovery_every_order(self, points):
        # from n = 3 on, the m = 2 cone lies strictly between the classical
        # ones; one domain serves all three orders
        domain, g, f, _ = quadratic_setup(3, points, 1)
        for m in (1, 2, 3):
            rhs = RightHandSide.manufactured_quadratic(m)
            report = solve_dirichlet(f, rhs, g, m)
            assert report.min_cone_margin > 0
            assert interior_error(report, f.flat) <= 1e-8

    def test_boundary_values_exact(self):
        domain, g, f, rhs = quadratic_setup(1, 17, 1)
        report = solve_dirichlet(f, rhs, g, 1)
        np.testing.assert_array_equal(
            report.solution.flat[domain.boundary_mask],
            f.flat[domain.boundary_mask],
        )


    def test_c2_exact_recovery_under_nonflat_metric(self):
        domain = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField(domain=domain, constant=OMEGA)
        f = GridFunction.from_callable(domain, hessian_is_form)
        for m in (1, 2):
            value = fm_value(FORM, OMEGA, m).value
            rhs = RightHandSide.scaled_exponential(
                lambda c, v=value: np.full(c.shape[0], v), hessian_is_form)
            report = solve_dirichlet(f, rhs, g, m)
            assert report.final_residual <= 1e-9
            assert interior_error(report, f.flat) <= 1e-8


class TestManufacturedNonQuadratic:
    @staticmethod
    def setup(points):
        # u* = |z|^2 + 0.05 exp(x_1) on the C^1 unit ball, m = 1;
        # G is manufactured from the analytic Hessian of u*
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=points)
        g = MetricField.flat(domain)

        def ustar(c):
            return sqn(c) + 0.05 * np.exp(c[:, 0])

        def amplitude(c):
            return 1.0 + 0.05 * np.exp(c[:, 0]) / 4.0

        f = GridFunction.from_callable(domain, ustar)
        rhs = RightHandSide.scaled_exponential(amplitude, ustar)
        return domain, g, f, rhs, ustar

    def test_second_order_convergence(self):
        errors = {}
        for points in (17, 33, 65):
            domain, g, f, rhs, ustar = self.setup(points)
            report = solve_dirichlet(f, rhs, g, 1)
            errors[points] = interior_error(report, f.flat)
        assert errors[17] / errors[33] >= 3.5
        assert errors[33] / errors[65] >= 3.5

    def test_residual_uses_field_evaluation(self):
        domain, g, f, rhs, ustar = self.setup(17)
        report = solve_dirichlet(f, rhs, g, 1)
        field = fm_field(report.solution, g, 1)
        u = report.solution.flat[domain.interior_mask]
        G, _ = rhs.sample(domain, np.flatnonzero(domain.interior_mask))(u)
        res = np.abs(field.flat[domain.interior_mask] - G).max()
        assert res <= 1e-9


def manufactured(chi, metric, m, quadratic, waves):
    """u* = quadratic |z|^2 + sum_j A_j cos(omega_j k_j . x + phi_j), for
    waves (A, omega, k, phi) with k in the real coordinates x_1, y_1, ...,
    and a = F_m[chi + dd^c u*] relative to the metric, both coordinate
    callables, computed without the grid stencil or the metric frame: the
    complex Hessian of cos(omega k . x) is -omega^2 cos(omega k . x) / 4
    times kappa kappa^H with kappa = k_x - i k_y, and the relative
    eigenvalues are those of g^{-1} T.  Then u* solves F_m = a exp(beta
    (u - u*)) for every beta."""
    n = len(metric)

    def ustar(c):
        u = quadratic * (c ** 2).sum(axis=-1)
        for A, omega, k, phi in waves:
            u = u + A * np.cos(omega * c @ np.array(k, float) + phi)
        return u

    def amplitude(c):
        T = np.broadcast_to(chi + quadratic * np.eye(n), (len(c), n, n))
        for A, omega, k, phi in waves:
            k = np.array(k, float)
            kappa = k[0::2] - 1j * k[1::2]
            scale = -A * omega ** 2 / 4 * np.cos(omega * c @ k + phi)
            T = T + scale[:, None, None] * np.outer(kappa, kappa.conj())
        lam = np.linalg.eigvals(np.linalg.solve(metric, T)).real
        sums = np.stack([lam[:, list(J)].sum(axis=-1)
                         for J in itertools.combinations(range(n), m)], -1)
        return np.prod(sums, axis=-1) ** (1.0 / sums.shape[-1])

    return ustar, amplitude


# (n, m, metric, chi, quadratic, waves, points per axis): a ball grid when
# chi is None, else a torus grid; every torus wave has a cross term between
# two real axes, and the C^2 ones between the two complex coordinates
TWO_PI = 2.0 * np.pi
C2_TORUS_WAVES = [(0.01, TWO_PI, (1, 0, 0, 1), 0.3),
                  (0.01, TWO_PI, (1, 0, -1, 0), 1.1),
                  (0.01, TWO_PI, (0, 1, 1, 0), 2.0)]
REFINEMENT_CASES = {
    "c1_torus": (1, 1, [[1.7]], [[1.7]], 0.0,
                 [(0.02, TWO_PI, (1, 1), 0.3), (0.01, TWO_PI, (1, -2), 1.1)],
                 (9, 17, 33)),
    "c2_torus_m1": (2, 1, OMEGA.entries, OMEGA.entries, 0.0, C2_TORUS_WAVES,
                    (7, 9, 11)),
    "c2_torus_m2": (2, 2, OMEGA.entries, OMEGA.entries, 0.0, C2_TORUS_WAVES,
                    (7, 9, 11)),
    "c2_ball_m2": (2, 2, OMEGA.entries, None, 1.0,
                   [(0.1, 2.0, (1, 0, 0, 1), 0.3),
                    (0.1, 2.0, (1, 0, -1, 0), 1.1)],
                   (9, 13, 17)),
}


class TestRefinementOrder:
    """Second-order convergence to a manufactured solution under a
    non-diagonal metric, checked against the continuum equation and not
    against an earlier commit."""

    @pytest.mark.parametrize("case", list(REFINEMENT_CASES))
    def test_observed_order_is_two(self, case):
        # G = a exp(20 (u - u*)): the zero-order term keeps the error near
        # the local truncation error, so three small grids already show the
        # asymptotic order.  On a torus the error is the root mean square
        # over the nodes (the periodic trapezoid rule, exact to high order,
        # where a maximum over nodes adds an O(h^2) sampling error); on a
        # ball it is the maximum over the interior nodes
        n, m, metric, chi, quadratic, waves, grid = REFINEMENT_CASES[case]
        ustar, amplitude = manufactured(np.zeros((n, n)) if chi is None
                                        else np.array(chi), np.array(metric),
                                        m, quadratic, waves)
        rhs = RightHandSide(amplitude, ustar, beta=20.0)
        errors, spacings = [], []
        for points in grid:
            if chi is None:
                domain = GridDomain.ball(n, radius=1.0, points_per_axis=points)
            else:
                domain = GridDomain.torus(n, points_per_axis=points)
            g = MetricField(domain, MetricMatrix(HermitianMatrix(metric)))
            exact = ustar(domain.coords)
            if chi is None:
                report = solve_dirichlet(GridFunction(domain, exact), rhs, g,
                                         m)
                error = np.abs(report.solution.flat
                               - exact)[domain.interior_mask].max()
            else:
                report = solve_torus(HermitianMatrix(chi), rhs, g, m)
                error = np.sqrt(np.mean((report.solution.flat - exact) ** 2))
            assert report.final_residual <= 1e-9
            errors.append(error)
            spacings.append(domain.spacing)
        orders = np.diff(np.log(errors)) / np.diff(np.log(spacings))
        assert ((1.8 <= orders) & (orders <= 2.2)).all(), orders


def rolled(field, shift):
    """The grid function whose value at node x is ``field``'s at x +
    shift, in whole grid steps."""
    return GridFunction(field.domain, np.roll(field.values,
                                              [-s for s in shift],
                                              axis=range(len(shift))))


def swapped(field):
    """The grid function whose value at (z_1, z_2) is ``field``'s at
    (z_2, z_1)."""
    return GridFunction(field.domain, field.values.transpose(2, 3, 0, 1))


class TestLatticeSymmetries:
    """solve_torus commutes with the exact symmetries of the C^2 torus
    grid: translation by whole grid steps, and swapping z_1 and z_2 with
    the metric and chi swapped too."""

    @staticmethod
    def solve(reference, chi, metric, m):
        g = MetricField(reference.domain, MetricMatrix(HermitianMatrix(metric)))
        report = solve_torus(HermitianMatrix(chi),
                             RightHandSide.penalized_distance(50.0, reference),
                             g, m)
        return report.solution

    @pytest.mark.parametrize("m", [1, 2])
    def test_translation_and_swap(self, m):
        # a reference with cross terms and random phases, a non-diagonal
        # metric and a non-diagonal chi
        domain = GridDomain.torus(2, points_per_axis=7)
        theta = np.random.default_rng(m).uniform(0.0, 1.0, 4)
        x = domain.coords + theta
        reference = GridFunction(domain, -2.1 + 0.04 * (
            np.cos(TWO_PI * (x[:, 0] + x[:, 3])) + np.sin(TWO_PI * x[:, 1])
            + np.cos(TWO_PI * (x[:, 1] - x[:, 2]))))
        metric, chi = OMEGA.entries, CHI.entries
        u = self.solve(reference, chi, metric, m)
        scale = np.abs(u.values).max()
        shift = (3, 5, 1, 6)
        translated = self.solve(rolled(reference, shift), chi, metric, m)
        assert (np.abs(translated.values - rolled(u, shift).values).max()
                <= 1e-12 * scale)
        swap = np.array([[0, 1], [1, 0]])
        exchanged = self.solve(swapped(reference), swap @ chi @ swap,
                               swap @ metric @ swap, m)
        assert (np.abs(exchanged.values - swapped(u).values).max()
                <= 1e-12 * scale)


# (n, points per axis, m) of the balls whose comparison principle is pinned
COMPARISON_CASES = {
    "c1_ball": (1, 33, 1),
    "c2_ball_m1": (2, 13, 1),
    "c2_ball_m2": (2, 13, 2),
}


def comparison_pair(domain, seed):
    """Seeded boundary data f1 <= f2 on ``domain``: f1 = |z|^2 plus a small
    sine per real coordinate, f2 = f1 plus a Gaussian bump, positive at
    every node."""
    rng = np.random.default_rng(seed)
    x = domain.coords
    dims = x.shape[1]
    amplitude, frequency, phase = (rng.uniform(-0.1, 0.1, dims),
                                   rng.uniform(0.5, 2.0, dims),
                                   rng.uniform(0.0, TWO_PI, dims))
    f1 = sqn(x) + (amplitude * np.sin(frequency * x + phase)).sum(axis=1)
    centre = rng.uniform(-0.5, 0.5, dims)
    height, width = rng.uniform(0.05, 0.2), rng.uniform(0.5, 1.0)
    bump = height * np.exp(-sqn(x - centre) / width ** 2)
    return GridFunction(domain, f1), GridFunction(domain, f1 + bump)


class TestComparison:
    """G is increasing in u, so boundary data f1 <= f2 give solutions
    u1 <= u2.  Central differences for the mixed derivatives do not make a
    monotone scheme in general, so the discrete contract is pinned rather
    than assumed.  It reads no output of an earlier version of the solver."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", list(COMPARISON_CASES))
    def test_ordered_boundary_data_give_ordered_solutions(self, case, seed):
        n, points, m = COMPARISON_CASES[case]
        domain = GridDomain.ball(n, radius=1.0, points_per_axis=points)
        g = MetricField.flat(domain)
        rhs = RightHandSide.manufactured_quadratic(m)
        u1, u2 = (solve_dirichlet(f, rhs, g, m).solution.flat
                  for f in comparison_pair(domain, seed))
        assert (u1 <= u2).all()


class TestPenalizedBallSolve:
    def test_solution_below_reference_plus_log_slack(self):
        # rhs e^{beta (u - f)} + 1/(2 beta) with beta = 10: the solution obeys
        # u <= f + log(c)/beta with c = max(sup F_m^+[Hess f], e)
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=33)
        g = MetricField.flat(domain)
        beta = 10.0
        f = GridFunction.from_callable(domain, lambda c: sqn(c) - 3.0)
        rhs = RightHandSide.penalized_distance(beta, f)
        report = solve_dirichlet(f, rhs, g, 1)
        plus = fm_field(f, g, 1).flat[domain.interior_mask]
        c_const = max(float(plus.max()), np.e)
        mask = ~domain.exterior_mask
        bound = f.flat[mask] + np.log(c_const) / beta
        assert (report.solution.flat[mask] <= bound + 1e-8).all()
        assert report.min_cone_margin > 0


class TestMaxPrinciple:
    def test_quadratic_gap_negative(self):
        domain, g, f, rhs = quadratic_setup(1, 33, 1)
        report = solve_dirichlet(f, rhs, g, 1)
        gap = max_principle_check(report, f)
        assert gap < 0.0

    def test_constant_boundary_dominates_interior(self):
        # constant boundary data with an attainable right-hand side: the
        # m-subharmonic solution stays below the boundary value
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        g = MetricField.flat(domain)
        f = GridFunction.constant(domain, 2.0)
        rhs = RightHandSide.scaled_exponential(
            lambda c: np.ones(c.shape[0]), lambda c: np.zeros(c.shape[0])
        )
        report = solve_dirichlet(f, rhs, g, 1)
        assert report.solution.flat[domain.interior_mask].max() <= 2.0 + 1e-8
        assert max_principle_check(report, f) <= 1e-8


def perturbed_seed(f, g):
    """The subsolution seed lowered and bent: another start in the cone."""
    seed, _ = subsolution_seed(f, g, 1)
    c = f.domain.coords
    bump = 0.02 * np.cos(np.pi * c[:, 0] / 2) * np.cos(np.pi * c[:, 1] / 2)
    return GridFunction(f.domain, seed.flat + bump - 0.05)


class TestSeedsAndUniqueness:
    def test_two_seeds_agree(self):
        domain, g, f, rhs = quadratic_setup(1, 33, 1)
        cfg = SolverConfig()
        a = continuity_path(f, rhs, g, 1, cfg)
        # direct Newton from a perturbed subsolution
        b = solve_dirichlet(f, rhs, g, 1,
                            SolverConfig(initial=perturbed_seed(f, g)))
        mask = domain.interior_mask
        agree = np.abs(a.solution.flat[mask] - b.solution.flat[mask]).max()
        assert agree <= 1e-8

    def test_monotone_in_boundary_data(self):
        # raising the boundary/reference data raises the solution
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        g = MetricField.flat(domain)
        beta = 10.0
        lo = GridFunction.from_callable(domain, lambda c: sqn(c) - 3.0)
        hi = GridFunction.from_callable(domain, lambda c: sqn(c) - 2.5)
        rep_lo = solve_dirichlet(lo, RightHandSide.penalized_distance(beta, lo),
                                 g, 1)
        rep_hi = solve_dirichlet(hi, RightHandSide.penalized_distance(beta, hi),
                                 g, 1)
        mask = ~domain.exterior_mask
        assert (rep_lo.solution.flat[mask]
                <= rep_hi.solution.flat[mask] + 1e-8).all()

    def test_subsolution_stays_below(self):
        domain, g, f, rhs = quadratic_setup(1, 17, 1)
        seed, C = subsolution_seed(f, g, 1)
        # the seed solves with a larger operator value, so it is a discrete
        # subsolution wherever F_m[seed] >= G(z, seed)
        report = solve_dirichlet(f, rhs, g, 1)
        field = fm_field(seed, g, 1)
        mask = domain.interior_mask
        idx = np.flatnonzero(mask)
        G, _ = rhs.sample(domain, idx)(seed.flat[idx])
        is_sub = (field.flat[idx] >= G - 1e-12).all()
        assert is_sub
        assert (seed.flat[idx] <= report.solution.flat[idx] + 1e-8).all()


class TestContinuityPath:
    def test_t0_seed_is_exact(self):
        domain, g, f, rhs = quadratic_setup(1, 17, 1)
        from mhessian.solver import _FmOperator

        op = _FmOperator(domain, g, 1)
        u = seed_with_boundary(f, g)
        base = op.evaluate(u).fm
        G, _ = op.rhs_values(u, sampled(op, rhs), homotopy=(0.0, base))
        assert np.abs(op.evaluate(u).fm - G).max() == 0.0

    def test_path_matches_direct(self):
        domain, g, f, rhs, ustar = TestManufacturedNonQuadratic.setup(17)
        a = continuity_path(f, rhs, g, 1, t_steps=8)
        b = solve_dirichlet(f, rhs, g, 1)
        mask = domain.interior_mask
        assert np.abs(a.solution.flat[mask] - b.solution.flat[mask]).max() <= 1e-8

    @pytest.mark.parametrize("t_steps", [1, 4])
    def test_start_outside_the_cone_is_stage_zero(self, monkeypatch,
                                                   t_steps):
        # the start is tested once, before any stage: its failure names
        # stage t = 0 and no Newton iteration runs
        domain, g, f, rhs = quadratic_setup(1, 9, 1)
        outside = GridFunction.from_callable(domain, lambda c: -sqn(c))
        monkeypatch.setattr(solver, "_newton", None)
        with pytest.raises(ConeEscape, match=START_OUTSIDE):
            continuity_path(f, rhs, g, 1, SolverConfig(initial=outside),
                            t_steps=t_steps)

    def test_single_step_is_direct_newton(self):
        # C^1 at 17 points, C^2 at 13 points for m = 1 and m = 2
        for n, points, m in [(1, 17, 1), (2, 13, 1), (2, 13, 2)]:
            domain, g, f, rhs = quadratic_setup(n, points, m)
            a = continuity_path(f, rhs, g, m, t_steps=1)
            b = solve_dirichlet(f, rhs, g, m)
            assert np.array_equal(a.solution.flat, b.solution.flat)
            assert (a.iterations, a.final_residual, a.min_cone_margin) == (
                b.iterations, b.final_residual, b.min_cone_margin)

    def test_path_starts_from_the_given_iterate(self):
        domain, g, f, rhs = quadratic_setup(1, 33, 1)
        seeded = continuity_path(f, rhs, g, 1)
        outside = GridFunction.from_callable(domain, lambda c: -sqn(c))
        with pytest.raises(ConeEscape, match=START_OUTSIDE):
            continuity_path(f, rhs, g, 1, SolverConfig(initial=outside))
        perturbed = continuity_path(
            f, rhs, g, 1, SolverConfig(initial=perturbed_seed(f, g)))
        assert not np.array_equal(perturbed.solution.flat,
                                  seeded.solution.flat)
        mask = domain.interior_mask
        assert np.abs(perturbed.solution.flat[mask]
                      - seeded.solution.flat[mask]).max() <= 1e-8


class TestTorus:
    def test_constant_closed_form(self):
        # constant data: the solution is the constant root of
        # F_m[chi] = exp(beta (t - K)) Fj + F_m[chi] / (2 beta)
        domain = GridDomain.torus(1, points_per_axis=9)
        g = MetricField.flat(domain)
        chi = HermitianMatrix.diagonal([0.5])
        beta, K, Fj = 10.0, -2.0, 1.25
        fm_chi = 0.5
        rhs = RightHandSide.penalized_corridor(
            beta, GridFunction.constant(domain, K),
            GridFunction.constant(domain, Fj), fm_chi,
        )
        report = solve_torus(chi, rhs, g, 1)
        expected = K + np.log((1.0 - 1.0 / (2 * beta)) * fm_chi / Fj) / beta
        np.testing.assert_allclose(report.solution.flat, expected, atol=1e-9)
        assert report.final_residual <= 1e-9

    def test_large_beta_pins_to_reference(self):
        # chi = Id, reference 0: solutions approach 0 from below as beta grows
        domain = GridDomain.torus(1, points_per_axis=9)
        g = MetricField.flat(domain)
        chi = HermitianMatrix.identity(1)
        sups = []
        for beta in (10.0, 40.0, 160.0):
            zero = GridFunction.constant(domain, 0.0)
            corridor = GridFunction.constant(domain, 1.75)  # F_m[chi] + 3/4
            rhs = RightHandSide.penalized_corridor(beta, zero, corridor, 1.0)
            report = solve_torus(chi, rhs, g, 1)
            sups.append(float(report.solution.flat.max()))
        assert all(s < 0.0 for s in sups)
        assert sups[0] < sups[1] < sups[2]
        assert abs(sups[2]) < 0.01

    def test_nonconstant_reference(self):
        domain = GridDomain.torus(1, points_per_axis=17)
        g = MetricField.flat(domain)
        chi = HermitianMatrix.identity(1)
        fvals = -2.0 + 0.05 * np.cos(2 * np.pi * domain.coords[:, 0])
        f = GridFunction(domain, fvals)
        rhs = RightHandSide.penalized_distance(10.0, f)
        report = solve_torus(chi, rhs, g, 1)
        assert report.final_residual <= 1e-9
        assert report.min_cone_margin > 0
        # penalty keeps the solution below the reference plus the log slack
        assert (report.solution.flat <= f.flat + np.log(10.0) / 10.0).all()

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # at m = n every nodal product is real: the complex trace product
        # that this solve once took rounded otherwise at two BLAS threads
        assert (one_blas_thread(C1_TORUS_PENALIZED, threads=2)
                == one_blas_thread(C1_TORUS_PENALIZED))

    def test_chi_not_positive(self):
        domain = GridDomain.torus(1, points_per_axis=9)
        g = MetricField.flat(domain)
        chi = HermitianMatrix.diagonal([-0.1])
        rhs = RightHandSide.penalized_distance(
            10.0, GridFunction.constant(domain, 0.0)
        )
        with pytest.raises(ChiNotPositive):
            solve_torus(chi, rhs, g, 1)

    @pytest.mark.parametrize("m", [0, 2])
    def test_m_outside_one_to_n(self, m):
        domain = GridDomain.torus(1, points_per_axis=9)
        rhs = RightHandSide.penalized_distance(
            10.0, GridFunction.constant(domain, 0.0))
        with pytest.raises(DimensionMismatchError, match="need 1 <= m <= n"):
            solve_torus(HermitianMatrix.identity(1), rhs,
                        MetricField.flat(domain), m)

    def test_chi_dimension_mismatch(self):
        domain = GridDomain.torus(2, points_per_axis=5)
        rhs = RightHandSide.penalized_distance(
            10.0, GridFunction.constant(domain, 0.0))
        with pytest.raises(DimensionMismatchError):
            solve_torus(HermitianMatrix.identity(1), rhs,
                        MetricField.flat(domain), 1)


def pointwise_root_margin(chi, rhs, g, m):
    """The least m-sum at the pointwise root of G = F_m[chi], the start
    solve_torus takes when that margin is above the cone floor."""
    op = _FmOperator(g.domain, g, m, chi)
    root = sampled(op, rhs).root(solver.check_chi_positive(chi, g, m))
    return op.sigma(root).min()


def same_report(a, b):
    return (a.solution.values.tobytes() == b.solution.values.tobytes()
            and (a.iterations, a.final_residual, a.min_cone_margin)
            == (b.iterations, b.final_residual, b.min_cone_margin))


class TestTorusStart:
    """With no initial iterate, solve_torus starts at the pointwise root of
    G(z, t) = F_m[chi], t = s + log((F_m[chi] - c) / a) / beta, or at the
    constant min f where that root is not finite or not strictly inside
    the cone."""

    def test_fallback_is_the_constant_start(self):
        # the artifact gate's C^1 cos_wave torus: the root's Hessian, about
        # -(2 pi)^2 / 4 cos, leaves the cone of chi = I
        domain = GridDomain.torus(1, points_per_axis=33)
        f = GridFunction(domain, np.cos(2 * np.pi * domain.coords[:, 0]))
        chi, g = HermitianMatrix.identity(1), MetricField.flat(domain)
        rhs = RightHandSide.penalized_distance(50.0, f)
        assert pointwise_root_margin(chi, rhs, g, 1) <= solver.CONE_FLOOR
        assert same_report(solve_torus(chi, rhs, g, 1),
                           solve_torus(chi, rhs, g, 1, constant_start(rhs)))

    @pytest.mark.parametrize("case", ["c1", "c2_m1", "c2_m2"])
    def test_both_starts_reach_one_solution(self, case):
        # the C^1 torus under chi = I, and the C^2 torus under OMEGA and CHI
        # with a reference that has cross terms, small enough that the
        # pointwise root stays inside the cone at m = 1
        if case == "c1":
            chi, rhs, g = penalized_torus(40.0)
            m = 1
        else:
            domain = GridDomain.torus(2, points_per_axis=7)
            x = domain.coords
            reference = GridFunction(domain, -2.1 + 0.02 * (
                np.cos(TWO_PI * (x[:, 0] + x[:, 3]))
                + np.sin(TWO_PI * x[:, 1])))
            chi, rhs = CHI, RightHandSide.penalized_distance(50.0, reference)
            g, m = MetricField(domain, OMEGA), int(case[-1])
        assert pointwise_root_margin(chi, rhs, g, m) > solver.CONE_FLOOR
        pointwise = solve_torus(chi, rhs, g, m)
        constant = solve_torus(chi, rhs, g, m, constant_start(rhs))
        for report in (pointwise, constant):
            assert report.final_residual <= 1e-9
        u = pointwise.solution.flat
        assert (np.abs(u - constant.solution.flat).max()
                <= 1e-10 * np.abs(u).max())

    @pytest.mark.usefixtures("warnings_are_errors")
    @pytest.mark.parametrize("amplitude, offset", [
        (0.0, 0.05), (-1.0, 0.05), (1.0, 1.0), (1.0, 2.0)],
        ids=["zero", "negative", "offset_at_fm_chi", "offset_above"])
    def test_no_root_falls_back_silently(self, amplitude, offset):
        # a <= 0, or c >= F_m[chi] = 1, leaves no pointwise root: the solve
        # ends as it does from the constant start, and numpy warns of
        # nothing on the way.  Every case but c = F_m[chi] fails; that one
        # is reported as converged from both starts (see
        # test_problem_with_no_solution_is_not_converged)
        domain, chi, g = unit_torus_problem()
        rhs = RightHandSide(GridFunction.constant(domain, amplitude),
                            GridFunction.constant(domain, -2.0), 10.0, offset)
        assert not np.isfinite(
            sampled(_FmOperator(domain, g, 1, chi), rhs).root(1.0)).all()
        outcomes = []
        for cfg in (SolverConfig(), constant_start(rhs)):
            try:
                report = solve_torus(chi, rhs, g, 1, cfg)
            except (IllPosedRHS, NewtonDiverged, ConeEscape) as exc:
                outcomes.append((type(exc), exc.args))
            else:
                outcomes.append((report.solution.values.tobytes(),
                                 report.iterations, report.final_residual))
        assert outcomes[0] == outcomes[1]
        failed = outcomes[0][0] in (IllPosedRHS, NewtonDiverged, ConeEscape)
        assert failed == (offset != 1.0)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="the Newton tolerance is absolute: G - c = "
                              "exp(10 (u + 2)) falls below it at u = -4.1, "
                              "where the residual reads 7.7e-10")
    def test_problem_with_no_solution_is_not_converged(self):
        # G = exp(10 (u + 2)) + F_m[chi] exceeds F_m[chi] everywhere, while
        # F_m[chi + dd^c u] = 1 + tr dd^c u averages to F_m[chi] = 1 over
        # the C^1 torus: the equation has no solution, and no solve may be
        # reported as converged
        domain, chi, g = unit_torus_problem()
        rhs = RightHandSide(GridFunction.constant(domain, 1.0),
                            GridFunction.constant(domain, -2.0), 10.0, 1.0)
        with pytest.raises((NewtonDiverged, ConeEscape)):
            solve_torus(chi, rhs, g, 1)


# reference right-hand sides, one closure per factory giving G and dG as
# functions of (coords, t, flat_idx), each evaluated in its own operand
# order: the closed family must reproduce them bit for bit
def closure_scaled_exponential(amplitude, shift):
    def evaluator(coords, t, idx):
        a = np.asarray(amplitude(coords), dtype=float)
        e = np.exp(np.clip(t - np.asarray(shift(coords), dtype=float),
                           solver.EXP_CLAMP_LO, solver.EXP_CLAMP_HI))
        return a * e, a * e
    return evaluator


def closure_manufactured_quadratic(m):
    return closure_scaled_exponential(
        lambda c: np.full(c.shape[0], float(m)),
        lambda c: (c ** 2).sum(axis=-1))


def closure_penalized_distance(beta, reference):
    ref_flat = reference.flat

    def evaluator(coords, t, idx):
        e = np.exp(np.clip(beta * (t - ref_flat[idx]),
                           solver.EXP_CLAMP_LO, solver.EXP_CLAMP_HI))
        return e + 1.0 / (2.0 * beta), beta * e
    return evaluator


def closure_penalized_corridor(beta, reference, corridor, background_value):
    ref_flat = reference.flat
    cor_flat = corridor.flat

    def evaluator(coords, t, idx):
        e = np.exp(np.clip(beta * (t - ref_flat[idx]),
                           solver.EXP_CLAMP_LO, solver.EXP_CLAMP_HI))
        c = cor_flat[idx]
        return e * c + background_value / (2.0 * beta), beta * e * c
    return evaluator


def family_cases(domain, rng):
    """(name, right-hand side, reference closure, beta) for every factory
    on ``domain``."""
    def amplitude(c):
        return 1.0 + 0.05 * np.exp(c[:, 0]) / 4.0

    def ustar(c):
        return sqn(c) + 0.05 * np.exp(c[:, 0])

    reference = GridFunction(domain, rng.uniform(-3.0, -1.0, domain.shape))
    corridor = GridFunction(domain, rng.uniform(0.5, 2.0, domain.shape))
    return [
        ("scaled_exponential",
         RightHandSide.scaled_exponential(amplitude, ustar),
         closure_scaled_exponential(amplitude, ustar), 1.0),
        ("manufactured_quadratic", RightHandSide.manufactured_quadratic(2),
         closure_manufactured_quadratic(2), 1.0),
        ("penalized_distance",
         RightHandSide.penalized_distance(50.0, reference),
         closure_penalized_distance(50.0, reference), 50.0),
        ("penalized_corridor",
         RightHandSide.penalized_corridor(10.0, reference, corridor, 0.7),
         closure_penalized_corridor(10.0, reference, corridor, 0.7), 10.0),
    ]


class TestRightHandSideFamily:
    @pytest.mark.parametrize("kind", ["ball", "torus"])
    def test_factories_match_the_closures(self, rng, kind):
        # beta (t - s) spans both clamps: far below, at and just past
        # EXP_CLAMP_LO, the open window, at and far beyond EXP_CLAMP_HI
        if kind == "ball":
            domain = GridDomain.ball(2, radius=1.0, points_per_axis=7)
        else:
            domain = GridDomain.torus(2, points_per_axis=5)
        nodes = _FmOperator(domain, MetricField.flat(domain), 1).nodes
        coords = domain.coords[nodes]
        exponents = np.concatenate([
            [-900.0, -500.0, -500.0 - 1e-9, -499.999, 40.0, 40.0 + 1e-9,
             39.999, 300.0],
            rng.uniform(-700.0, 100.0, 200)])
        for name, rhs, closure, beta in family_cases(domain, rng):
            sample = rhs.sample(domain, nodes)
            for x in exponents:
                t = sample.s + x / beta + rng.normal(size=nodes.size) * 1e-12
                G, dG = sample(t)
                G_ref, dG_ref = closure(coords, t, nodes)
                assert np.array_equal(G, G_ref), (name, x)
                assert np.array_equal(dG, dG_ref), (name, x)

    def test_coordinate_callables_run_once_per_solve(self):
        calls = Counter()

        def counted(name, field):
            def wrapper(c):
                calls[name] += 1
                return field(c)
            return wrapper

        def amplitude(c):
            return 1.0 + 0.05 * np.exp(c[:, 0]) / 4.0

        def ustar(c):
            return sqn(c) + 0.05 * np.exp(c[:, 0])

        domain = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        g = MetricField.flat(domain)
        f = GridFunction.from_callable(domain, ustar)
        rhs = RightHandSide.scaled_exponential(counted("a", amplitude),
                                               counted("s", ustar))
        for t_steps in (1, 4):
            calls.clear()
            report = continuity_path(f, rhs, g, 1, t_steps=t_steps)
            assert report.iterations > 1
            assert calls == {"a": 1, "s": 1}
        tdomain, chi, tg = unit_torus_problem()
        rhs = RightHandSide.scaled_exponential(
            counted("a", lambda c: np.ones(c.shape[0])),
            counted("s", lambda c: 0.1 * np.cos(2 * np.pi * c[:, 0])))
        calls.clear()
        assert solve_torus(chi, rhs, tg, 1).iterations > 1
        assert calls == {"a": 1, "s": 1}


class TestGridMismatch:
    # every grid function a solve reads must live on the solve's grid: a
    # different size or a different radius is a DimensionMismatchError,
    # never an IndexError or a solve on the wrong nodes

    def test_rhs_on_another_grid(self):
        domain, g, f, _ = quadratic_setup(1, 17, 1)
        other = GridDomain.ball(1, radius=1.0, points_per_axis=21)
        far = GridFunction.constant(other, -2.0)
        with pytest.raises(DimensionMismatchError, match=(
                "^right-hand side lives on a different grid$")):
            solve_dirichlet(f, RightHandSide.penalized_distance(10.0, far),
                            g, 1)
        tdomain, chi, tg = unit_torus_problem()
        near = GridFunction.constant(tdomain, -2.0)
        ref = GridFunction.constant(GridDomain.torus(1, points_per_axis=11),
                                    -2.0)
        with pytest.raises(DimensionMismatchError, match="right-hand side"):
            solve_torus(chi, RightHandSide.penalized_distance(10.0, ref),
                        tg, 1)
        corridor = GridFunction.constant(ref.domain, 1.5)
        with pytest.raises(DimensionMismatchError, match="right-hand side"):
            solve_torus(chi, RightHandSide.penalized_corridor(
                10.0, near, corridor, 1.0), tg, 1)

    def test_boundary_data_on_another_grid(self):
        domain, g, f, rhs = quadratic_setup(1, 17, 1)
        report = solve_dirichlet(f, rhs, g, 1)
        for other in (GridDomain.ball(1, radius=1.2, points_per_axis=17),
                      GridDomain.ball(1, points_per_axis=21)):
            with pytest.raises(DimensionMismatchError, match=(
                    "^boundary data lives on a different grid$")):
                max_principle_check(report,
                                    GridFunction.from_callable(other, sqn))

    @pytest.mark.parametrize("radius, points", [(1.2, 17), (1.0, 21)],
                             ids=["other_radius", "other_size"])
    def test_initial_on_another_grid(self, radius, points):
        domain, g, f, rhs = quadratic_setup(1, 17, 1)
        other = GridDomain.ball(1, radius=radius, points_per_axis=points)
        cfg = SolverConfig(initial=GridFunction.from_callable(other, sqn))
        for t_steps in (1, 4):
            with pytest.raises(DimensionMismatchError, match=(
                    "^initial iterate lives on a different grid$")):
                continuity_path(f, rhs, g, 1, cfg, t_steps=t_steps)
        tdomain, chi, tg = unit_torus_problem()
        rhs = RightHandSide.penalized_distance(
            10.0, GridFunction.constant(tdomain, -2.0))
        initial = GridFunction.constant(
            GridDomain.torus(1, points_per_axis=points - 6), -2.0)
        with pytest.raises(DimensionMismatchError, match="initial iterate"):
            solve_torus(chi, rhs, tg, 1, SolverConfig(initial=initial))


def unit_torus_problem():
    """chi = I and the flat metric on the C^1 torus at 9 points."""
    domain = GridDomain.torus(1, points_per_axis=9)
    return domain, HermitianMatrix.identity(1), MetricField.flat(domain)


class TestFailureModes:
    def test_ill_posed_rhs(self):
        # a NaN or non-positive amplitude and a non-finite shift, as
        # coordinate callables on a ball and as grid functions on a torus
        domain, g, f, _ = quadratic_setup(1, 9, 1)
        tdomain, chi, tg = unit_torus_problem()
        for a, s, message in [
                (np.nan, 0.0, "non-finite values"),
                (0.0, 0.0, "must be strictly positive|increasing in t"),
                (-1.0, 0.0, "must be strictly positive|increasing in t"),
                (1.0, np.inf, "shift must be finite"),
                (1.0, -np.inf, "shift must be finite"),
                (1.0, np.nan, "shift must be finite")]:
            rhs = RightHandSide.scaled_exponential(
                lambda c, a=a: np.full(c.shape[0], a),
                lambda c, s=s: np.full(c.shape[0], s))
            with pytest.raises(IllPosedRHS, match=message):
                solve_dirichlet(f, rhs, g, 1)
            # GridFunction's own constructor refuses non-finite values
            amplitude, shift = (
                GridFunction._unchecked(tdomain, np.full(tdomain.shape, v))
                for v in (a, s))
            with pytest.raises(IllPosedRHS, match=message):
                solve_torus(chi, RightHandSide(amplitude, shift, 10.0, 0.05),
                            tg, 1)

    # dG > 0 on both domain kinds: a flat slope is as ill-posed as a
    # falling one
    @pytest.mark.parametrize("slope", [-1.0, 0.0], ids=["falling", "flat"])
    def test_decreasing_rhs_rejected(self, slope):
        domain, g, f, _ = quadratic_setup(1, 9, 1)
        rhs = RightHandSide(lambda c: np.ones(c.shape[0]),
                            lambda c: np.zeros(c.shape[0]), beta=slope)
        with pytest.raises(IllPosedRHS,
                           match="right-hand side must be increasing in t"):
            solve_dirichlet(f, rhs, g, 1)
        tdomain, chi, tg = unit_torus_problem()
        rhs = RightHandSide(GridFunction.constant(tdomain, 1.0),
                            GridFunction.constant(tdomain, 0.0), beta=slope,
                            offset=0.5)
        with pytest.raises(IllPosedRHS,
                           match="right-hand side must be increasing in t"):
            solve_torus(chi, rhs, tg, 1)

    def test_newton_diverges_on_budget(self, monkeypatch):
        domain, g, f, rhs = quadratic_setup(1, 17, 1)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        with pytest.raises(NewtonDiverged, match=(
                r"^residual \S+ above tolerance 1\.0e-14 after 1 iterations "
                r"\(cone margin \S+\)$")):
            solve_dirichlet(f, rhs, g, 1, SolverConfig(tolerance=1e-14))

    def test_cone_escape_on_bad_initial(self):
        domain, g, f, rhs = quadratic_setup(1, 9, 1)
        bad = GridFunction.from_callable(domain, lambda c: -sqn(c))
        with pytest.raises(ConeEscape):
            solve_dirichlet(f, rhs, g, 1, SolverConfig(initial=bad))

    # the two damping-exhaustion branches of _newton, at m = n and at
    # m < n; their messages say where the solve stopped

    @staticmethod
    def exhaust(monkeypatch, solve):
        """The exception ``solve`` raises and the number of trials it
        evaluated."""
        evaluated = []
        evaluate = _FmOperator.evaluate

        def counted(op, u):
            evaluated.append(1)
            return evaluate(op, u)

        monkeypatch.setattr(_FmOperator, "evaluate", counted)
        with pytest.raises((ConeEscape, NewtonDiverged)) as info:
            solve()
        # the first evaluation is the initial iterate's
        return info.value, len(evaluated) - 1

    def test_every_step_leaving_the_cone_is_a_cone_escape(self, monkeypatch):
        # a floor just below the initial margin of 1 (chi = I, u constant):
        # every damped Newton step bends u and leaves the cone
        chi, rhs, g = penalized_torus(10.0)
        monkeypatch.setattr(solver, "CONE_FLOOR", 1.0 - 1e-6)
        exc, trials = self.exhaust(monkeypatch,
                                   lambda: solve_torus(chi, rhs, g, 1))
        assert isinstance(exc, ConeEscape)
        assert WHERE.match(exc.args[0]).group(1) == (
            "no damping step keeps the iterate strictly inside the cone")
        assert trials > 0

    @pytest.mark.parametrize("floor, error", [
        (1.0 - 1e-6, ConeEscape), (solver.CONE_FLOOR, NewtonDiverged)])
    def test_one_trial_below_m_equal_n_decides(self, monkeypatch, floor,
                                               error):
        # on the C^2 torus at m = 1 the only step, the full one from the
        # constant start, is evaluated: under a floor just below the start's
        # margin of 1 it leaves the cone, and under the solver's floor it
        # stays inside and raises the residual
        chi, rhs, g = penalized_torus(40.0, n=2)
        monkeypatch.setattr(solver, "CONE_FLOOR", floor)
        monkeypatch.setattr(solver, "DAMPING_MIN_STEP", 1.0)
        exc, trials = self.exhaust(
            monkeypatch,
            lambda: solve_torus(chi, rhs, g, 1, constant_start(rhs)))
        assert type(exc) is error
        assert trials == 1

    def test_steps_that_never_lower_the_residual_diverge(self, monkeypatch):
        # with a zero tolerance Newton reaches the rounding floor, where
        # every damped step stays in the cone and none lowers the residual
        domain, g, f, rhs = quadratic_setup(2, 7, 1)
        exc, trials = self.exhaust(
            monkeypatch,
            lambda: solve_dirichlet(f, rhs, g, 1, SolverConfig(tolerance=0.0)))
        assert isinstance(exc, NewtonDiverged)
        assert WHERE.match(exc.args[0]).group(1) == (
            "no damped step reduced the residual")
        assert trials > 21

    def test_linear_solve_failure_says_where(self, monkeypatch):
        # both runs of the first linear solve miss with a zero step
        domain, g, f, rhs = quadratic_setup(2, 7, 1)
        monkeypatch.setattr(solver, "_bicgstab",
                            lambda J, b, *args, **kwargs: (np.zeros_like(b),
                                                           0))
        with pytest.raises(NewtonDiverged) as failure:
            solve_dirichlet(f, rhs, g, 1)
        message = failure.value.args[0]
        assert re.fullmatch(linear_failure(0), WHERE.match(message).group(1))
        assert " at Newton iteration 0 (" in message


@pytest.fixture
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("warnings_are_errors")
class TestTypedErrors:
    """Unusable inputs that reached numpy or a whole solve before they
    were typed errors."""

    @pytest.mark.parametrize("tolerance", [np.nan, -1.0, np.inf, -np.inf])
    def test_unusable_tolerance_is_rejected(self, tolerance):
        with pytest.raises(ConfigError, match=(
                "^solver tolerance must be finite and >= 0")) as info:
            SolverConfig(tolerance=tolerance)
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("part", ["amplitude", "shift"])
    def test_wrong_shape_callable(self, part):
        domain, g, f, _ = quadratic_setup(1, 17, 1)
        parts = {"amplitude": lambda c: np.ones(c.shape[0]), "shift": sqn}
        parts[part] = lambda c: np.ones(3)
        rhs = RightHandSide.scaled_exponential(**parts)
        with pytest.raises(IllPosedRHS, match=(
                rf"^right-hand side {part} has shape \(3,\), expected "
                rf"\({domain.interior_mask.sum()},\)$")):
            solve_dirichlet(f, rhs, g, 1)

    def test_huge_chi_fails_silently(self):
        domain, _, g = unit_torus_problem()
        rhs = RightHandSide.penalized_distance(
            50.0, GridFunction.constant(domain, -2.5))
        with pytest.raises(NewtonDiverged):
            solve_torus(HermitianMatrix.diagonal([1e200]), rhs, g, 1)


def solve_counted(monkeypatch, chi, rhs, g):
    """The calls of each nodal method during solve_torus at m = 1 from the
    constant start, whose one evaluation the counts include; every trial
    calls G once and is evaluated, and the Jacobian reuses the accepted
    trial's nodal quantities and slope, so it neither gathers nor calls G.
    The report's cone margin takes one more m-sum of the solution."""
    counts = dict.fromkeys(
        ("rhs", "evaluate", "hessians", "traces", "jacobian"), 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for cls, attr, name in (
            (solver._SampledRHS, "__call__", "rhs"),
            (_FmOperator, "evaluate", "evaluate"),
            (_FmOperator, "hessians", "hessians"),
            (_FmOperator, "traces", "traces"),
            (_FmOperator, "jacobian", "jacobian")):
        monkeypatch.setattr(cls, attr, counted(name, getattr(cls, attr)))
    report = solve_torus(chi, rhs, g, 1, constant_start(rhs))
    assert counts["jacobian"] == report.iterations
    # each accepted trial was evaluated
    assert report.iterations <= counts["evaluate"] - 1
    assert counts["rhs"] == counts["evaluate"]
    return counts


def eigensolves(monkeypatch):
    """The list of (name, argument shape) of every call from now on to the
    eigensolvers a solve can reach: ``grids._eigh`` and numpy's ``eigh``
    and ``eigvalsh``, which ``_eigh`` calls at n >= 3."""
    calls = []
    for owner, name in ((grids, "_eigh"), (np.linalg, "eigh"),
                        (np.linalg, "eigvalsh")):
        def recorded(H, *args, _name=name, _original=getattr(owner, name),
                     **kwargs):
            calls.append((_name, np.shape(H)))
            return _original(H, *args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    return calls


class TestNodalWork:
    def test_each_iterate_is_gathered_once(self, monkeypatch):
        # at m = n (the C^1 torus) an evaluation takes one trace product
        # and no Hessians, and the report's margin one more
        counts = solve_counted(monkeypatch, *penalized_torus(40.0))
        assert counts["traces"] == counts["evaluate"] + 1
        assert counts["hessians"] == 0

    def test_each_iterate_at_m_below_n_is_gathered_once(self, monkeypatch):
        # at m < n (the C^2 torus at m = 1) an evaluation gathers the
        # Hessians once and takes no trace product, and the report's
        # margin gathers them once more
        counts = solve_counted(monkeypatch, *torus_c2_problem(5)[:3])
        assert counts["hessians"] == counts["evaluate"] + 1
        assert counts["traces"] == 0

    @pytest.mark.parametrize("problem", ["c2_ball_m1", "c2_torus_m1",
                                         "c3_ball_m1", "c3_ball_m2",
                                         "c2_ball_m1_seeded",
                                         "c3_ball_m2_seeded"])
    def test_newton_below_m_equal_n_solves_no_eigenproblem(
            self, monkeypatch, problem):
        # F_m, the cone test and M come from D_m(H): a whole solve makes
        # one eigensolve of its nodes, for the report's cone margin; a
        # torus solve also solves chi's n x n pencil once, and a ball solve
        # is given its start or, seeded, builds it by the subsolution seed,
        # whose cone test is the same determinant route
        n, m = int(problem[1]), int(problem[problem.index("_m") + 2])
        if problem.startswith("c2_torus"):
            chi, rhs, g, _ = torus_c2_problem(5)
            calls = eigensolves(monkeypatch)
            report = solve_torus(chi, rhs, g, m)
            stacks = [call for call in calls if call[1] != (n, n)]
            assert calls.count(("eigh", (n, n))) == 1
        else:
            domain, g, f, rhs = quadratic_setup(n, 9 if n == 2 else 7, m)
            start = SolverConfig()
            if not problem.endswith("seeded"):
                start = SolverConfig(initial=GridFunction(
                    domain, seed_with_boundary(f, g, m)))
            calls = eigensolves(monkeypatch)
            report = solve_dirichlet(f, rhs, g, m, start)
            stacks = calls
        assert report.iterations > 1
        K = report.solution.domain.interior_mask.sum()
        expected = [("_eigh", (K, n, n))]
        if n == 3:
            expected.append(("eigvalsh", (K, n, n)))
        assert stacks == expected

    @pytest.mark.parametrize("problem", ["c1_torus", "c2_torus_m2",
                                         "c2_ball_m2"])
    def test_semilinear_solve_takes_no_derivative_or_gemm(
            self, monkeypatch, problem):
        # at m = n the Jacobian is the trace stencil: neither the derivative
        # M of F_m nor the Jacobian's GEMM runs in a whole solve
        calls = spied(monkeypatch, (solver, "_derivative"),
                      (solver, "_adjugate"))
        if problem == "c1_torus":
            report = solve_torus(*penalized_torus(40.0), 1)
        elif problem == "c2_torus_m2":
            report = solve_torus(*torus_c2_problem(5))
        else:
            domain, g, f, rhs = quadratic_setup(2, 9, 2)
            report = solve_dirichlet(f, rhs, g, 2)
        assert report.iterations > 1
        assert calls == []

    def test_jacobian_takes_the_accepted_trial(self, monkeypatch):
        # each Jacobian gets the nodal quantities of an evaluated iterate,
        # whose m-sums and F_m it reads at m = n, and the slope of G at
        # that same iterate
        evaluated, jacobians = [], []
        evaluate, jacobian = _FmOperator.evaluate, _FmOperator.jacobian

        def recorded_evaluate(op, u):
            nodal = evaluate(op, u)
            evaluated.append((u.copy(), nodal))
            return nodal

        def recorded_jacobian(op, nodal, dG):
            jacobians.append((op, nodal, dG.copy()))
            return jacobian(op, nodal, dG)

        monkeypatch.setattr(_FmOperator, "evaluate", recorded_evaluate)
        monkeypatch.setattr(_FmOperator, "jacobian", recorded_jacobian)
        chi, rhs, g = penalized_torus(40.0)
        solve_torus(chi, rhs, g, 1)
        assert len(jacobians) > 1
        for op, nodal, dG in jacobians:
            [u] = [u for u, evaluated_nodal in evaluated
                   if evaluated_nodal is nodal]
            assert np.array_equal(dG, op.rhs_values(u, sampled(op, rhs))[1])

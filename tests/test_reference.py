"""An independent reference discretization of the nodal equation.

At each node the reference forms the real Hessian from textbook central
differences, 3 points on each axis and 4 for each mixed pair, wrapping on
a torus, turns it into the complex Hessian with ``complex_hessian_point``,
adds chi and takes ``fm_value`` against the metric.  It shares no code with
``GridDomain.fold``, ``NodalOperator`` or the offsets and weights of
``grids.stencil``, so the solver's residual and Jacobian are checked
against a second computation of the same discrete operator.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhessian.fm import fm_value
from mhessian.grids import GridDomain, GridFunction, MetricField
from mhessian.hermitian import HermitianMatrix, complex_hessian_point
from mhessian.solver import RightHandSide, SolverConfig, _FmOperator, \
    continuity_path, solve_dirichlet, solve_torus

from conftest import random_hermitian, random_metric

# nodes the reference evaluates per example beyond n = 2, where it takes
# them all: a C^3 torus has 15,625
SAMPLED_NODES = 40


def reference_fm(domain, u_flat, omega, m, chi, nodes):
    """F_m of chi plus the textbook discrete complex Hessian of u at each
    of ``nodes``, given by flat index."""
    U = u_flat.reshape(domain.shape)
    d2, h = 2 * domain.n, domain.spacing

    def at(*steps):
        # u at each node moved by +-1 along the axes of ``steps``, (axis,
        # sign), wrapping around the grid
        moved = U
        for axis, sign in steps:
            moved = np.roll(moved, -sign, axis=axis)
        return moved.ravel()[nodes]

    S = np.empty((len(nodes), d2, d2))
    for a in range(d2):
        S[:, a, a] = (at((a, 1)) - 2.0 * at() + at((a, -1))) / h ** 2
        for b in range(a + 1, d2):
            S[:, a, b] = S[:, b, a] = (
                at((a, 1), (b, 1)) - at((a, 1), (b, -1))
                - at((a, -1), (b, 1)) + at((a, -1), (b, -1))) / (4 * h ** 2)
    out = []
    for S_node in S:
        T = complex_hessian_point(S_node)
        if chi is not None:
            T = T.plus(chi)
        out.append(fm_value(T, omega, m).value)
    return np.array(out)


@functools.lru_cache(maxsize=None)
def domain_of(n, kind):
    """Small grids, one object each, so that their tables are built once."""
    if kind == "ball":
        return GridDomain.ball(n, radius=1.0, points_per_axis=9 if n < 3 else 7)
    return GridDomain.torus(n, points_per_axis=9 if n == 1 else 5)


def drawn_case(n, kind, m, seed):
    """An operator with a random metric (and on a torus a random chi well
    inside the cone), an iterate strictly inside the cone, a right-hand
    side, the rows of the nodes the reference takes and the generator."""
    rng = np.random.default_rng(seed)
    domain = domain_of(n, kind)
    g = MetricField(domain, random_metric(rng, n))
    chi = None
    noise = 1e-3 * rng.normal(size=domain.node_count)
    if kind == "ball":
        # |z|^2 has the complex Hessian I, inside every cone of g
        u = (domain.coords ** 2).sum(axis=-1) + noise
    else:
        chi = HermitianMatrix(random_hermitian(rng, n, 0.2).entries
                              + 3.0 * g.constant.entries)
        u = noise
    op = _FmOperator(domain, g, m, chi)
    nodes = (np.arange(op.nodes.size) if n <= 2 else
             rng.choice(op.nodes.size, SAMPLED_NODES, replace=False))
    return op, u, g.constant, chi, nodes, rng


cases = dict(n=st.integers(1, 3), kind=st.sampled_from(["ball", "torus"]),
             m=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))


@given(**cases)
@settings(max_examples=25, deadline=None)
def test_evaluate_matches_the_reference(n, kind, m, seed):
    m = min(m, n)
    op, u, omega, chi, rows, _ = drawn_case(n, kind, m, seed)
    fm = op.evaluate(u).fm[rows]
    expected = reference_fm(op.domain, u, omega, m, chi, op.nodes[rows])
    assert np.abs(fm - expected).max() <= 1e-13 * np.abs(expected).max()


@given(**cases)
@settings(max_examples=15, deadline=None)
def test_jacobian_is_the_derivative_of_the_reference(n, kind, m, seed):
    # J v against the central difference of the reference residual F_m - G
    # along v, whose error is O(eps^2) in the step and rounding / eps
    m = min(m, n)
    op, u, omega, chi, rows, rng = drawn_case(n, kind, m, seed)
    rows = rng.permutation(rows)[:SAMPLED_NODES]
    rhs = RightHandSide.manufactured_quadratic(m).sample(op.domain, op.nodes)
    v = rng.normal(size=op.nodes.size)
    _, dG = rhs(u[op.nodes])
    J, _ = op.jacobian(op.evaluate(u), dG)
    eps = 1e-5 * op.domain.spacing ** 2

    at_rows = rhs._replace(a=rhs.a[rows], s=rhs.s[rows])

    def residual(sign):
        w = u.copy()
        w[op.nodes] += sign * eps * v
        return (reference_fm(op.domain, w, omega, m, chi, op.nodes[rows])
                - at_rows(w[op.nodes[rows]])[0])

    expected = (residual(1.0) - residual(-1.0)) / (2.0 * eps)
    got = (J @ v)[rows]
    assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()


@pytest.mark.parametrize("solve", ["solve_dirichlet", "continuity_path",
                                   "solve_torus"])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
def test_solutions_solve_the_reference_equation(n, m, solve):
    # a converged solve's output satisfies the reference's equation to the
    # Newton tolerance, plus the reference's rounding (within 1e-13 of F_m,
    # see test_evaluate_matches_the_reference); the metric is random, and
    # so is chi on the torus
    rng = np.random.default_rng(10 * n + m)
    omega = random_metric(rng, n)
    chi = None
    tolerance = SolverConfig().tolerance
    if solve == "solve_torus":
        domain = GridDomain.torus(n, points_per_axis=9 if n == 1 else 5)
        chi = HermitianMatrix(random_hermitian(rng, n, 0.2).entries
                              + 3.0 * omega.entries)
        f = GridFunction(domain, -2.0 + 0.05 * np.cos(
            2 * np.pi * domain.coords[:, 0]))
        rhs = RightHandSide.penalized_distance(10.0, f)
        report = solve_torus(chi, rhs, MetricField(domain, omega), m)
    else:
        domain = GridDomain.ball(n, radius=1.0, points_per_axis=9)

        def squared_norm(c):
            return (c ** 2).sum(axis=-1)

        f = GridFunction.from_callable(
            domain, lambda c: squared_norm(c) + 0.1 * np.sin(np.pi * c[:, 0]))
        rhs = RightHandSide(lambda c: m * (1.0 + 0.3 * np.cos(np.pi * c[:, -1])),
                            squared_norm)
        g = MetricField(domain, omega)
        report = (solve_dirichlet(f, rhs, g, m) if solve == "solve_dirichlet"
                  else continuity_path(f, rhs, g, m, t_steps=3))
    assert report.final_residual <= tolerance
    nodes = domain.interior_nodes
    u = report.solution.flat
    G = rhs.sample(domain, nodes)(u[nodes])[0]
    residual = reference_fm(domain, u, omega, m, chi, nodes) - G
    assert np.abs(residual).max() <= tolerance + 1e-13 * np.abs(G).max()

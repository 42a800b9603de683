import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from mhessian.cones import is_m_semipositive
from mhessian.errors import DimensionMismatchError, StencilError
from mhessian.fm import fm_value
from mhessian.grids import (
    MAX_NODES,
    ConeFieldReport,
    GridDomain,
    GridFunction,
    MetricField,
    NodalOperator,
    _eigh,
    cone_field,
    fd_complex_hessian,
    fm_field,
    hessian_stack,
    stencil,
)
from mhessian.hermitian import HermitianMatrix
from mhessian.solver import RightHandSide, _FmOperator, solve_dirichlet

from conftest import (
    CHI,
    FORM,
    OMEGA,
    hessian_is_form,
    random_hermitian,
    random_metric,
)

EPS = np.finfo(float).eps


def squared_norm(coords):
    return (coords ** 2).sum(axis=-1)


def center_node(domain):
    return (domain.points_per_axis // 2,) * (2 * domain.n)


class TestDomain:
    def test_spacing(self):
        ball = GridDomain.ball(1, radius=1.0, points_per_axis=33)
        assert ball.spacing == pytest.approx(2.0 / 32.0)
        torus = GridDomain.torus(1, points_per_axis=33)
        assert torus.spacing == pytest.approx(1.0 / 33.0)

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            GridDomain(n=1, kind="ball", points_per_axis=6)
        with pytest.raises(DimensionMismatchError):
            GridDomain(n=1, kind="disc", points_per_axis=9)
        with pytest.raises(DimensionMismatchError):
            GridDomain(n=0, kind="ball", points_per_axis=9)

    @pytest.mark.parametrize("radius", [0.5, 2.0, float("nan")])
    def test_torus_radius_is_one(self, radius):
        # the torus has period 1 whatever its radius field says, so any
        # other radius would only make two equal grids compare unequal
        assert GridDomain(n=1, kind="torus", points_per_axis=9,
                          radius=1.0) == GridDomain.torus(1, 9)
        with pytest.raises(DimensionMismatchError,
                           match="torus radius must be 1.0"):
            GridDomain(n=1, kind="torus", points_per_axis=9, radius=radius)

    def test_node_count_limit(self):
        assert 1023 ** 2 <= MAX_NODES < 1025 ** 2
        GridDomain(n=1, kind="torus", points_per_axis=1023)
        for n, points in ((1, 1025), (99, 9), (10 ** 9, 5)):
            with pytest.raises(DimensionMismatchError, match="exceeds"):
                GridDomain(n=n, kind="ball", points_per_axis=points)

    def test_interior_neighbor_table_is_built_once(self):
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField.flat(d)
        assert NodalOperator(d, g, 1).neighbors is NodalOperator(d, g, 2).neighbors
        nodes, table = d.interior_neighbors
        assert np.array_equal(nodes, np.flatnonzero(d.interior_mask))
        # row s holds each node shifted by stencil offset s
        shifts = (np.array(np.unravel_index(table, d.shape))
                  - np.array(np.unravel_index(nodes, d.shape))[:, None, :])
        assert np.array_equal(shifts, np.broadcast_to(
            stencil(d.n)[0].T[:, :, None], shifts.shape))
        assert not nodes.flags.writeable and not table.flags.writeable

    def test_jacobian_pattern_is_built_once(self):
        for d in (GridDomain.ball(1, radius=1.0, points_per_axis=9),
                  GridDomain.torus(1, points_per_axis=9),
                  GridDomain.ball(2, radius=1.0, points_per_axis=9),
                  GridDomain.torus(2, points_per_axis=5),
                  GridDomain.ball(3, radius=1.0, points_per_axis=7)):
            g = MetricField.flat(d)
            offsets, weights = stencil(d.n)
            # m < n holds every stencil row, m = n only the trace rows; on
            # C^1 they are the same five
            trace_rows = np.flatnonzero(np.einsum("spp->s", weights).real)
            assert (len(offsets), len(trace_rows)) == \
                {1: (5, 5), 2: (25, 9), 3: (61, 13)}[d.n]
            for m, rows in ((1, np.arange(len(offsets))), (d.n, trace_rows)):
                first, second = _FmOperator(d, g, m), _FmOperator(d, g, m)
                assert np.array_equal(first.rows, rows)
                indices, indptr, slot, center, diagonal = \
                    d.jacobian_pattern(rows)
                src = d.jacobian_gather(rows)
                assert d.jacobian_gather(rows) is src
                # the operator at m < n gathers its entries through src;
                # at m = n it holds L's data instead
                held = (("indices", indices), ("indptr", indptr),
                        ("diagonal", diagonal))
                if m < d.n:
                    held += (("src", src),)
                for name, array in held:
                    assert getattr(first, name) is array
                    assert getattr(second, name) is array
                # the fold reads the trace rows' table, with no copy
                assert first.trace_neighbors is d.neighbour_table(trace_rows)
                for array in (indices, indptr, slot, diagonal, src):
                    assert not array.flags.writeable
                assert indices.dtype == indptr.dtype == np.int32
                assert slot.dtype == np.int8 and src.dtype == np.int64
                assert first.center == center
                assert not offsets[rows[center]].any()
                # the couplings of the rows between unknowns, each carrying
                # the flat (i, k) position it comes from, plus one
                nodes, table = d.interior_neighbors
                K = nodes.size
                unknown = np.full(d.node_count, -1)
                unknown[nodes] = np.arange(K)
                cols = unknown[table[rows]].ravel()
                keep = cols >= 0
                flat = np.arange(cols.size)
                expected = scipy.sparse.coo_matrix(
                    ((flat + 1.0)[keep], (flat[keep] % K, cols[keep])),
                    shape=(K, K)).tocsr()
                assert np.array_equal(indices, expected.indices)
                assert np.array_equal(indptr, expected.indptr)
                assert np.array_equal(src + 1.0, expected.data)
                assert np.array_equal(slot, src // K)
                # the diagonal, row by row, at the zero offset's entries
                assert np.array_equal(diagonal, np.flatnonzero(slot == center))
                assert np.array_equal(indices[diagonal], np.arange(K))
                assert np.array_equal(
                    np.searchsorted(indptr, diagonal, side="right") - 1,
                    np.arange(K))

    def test_semilinear_operator_builds_no_gather(self):
        # at m = n an operator reads the int8 rows of its pattern alone: no
        # int64 gather of its entries is built or held on the domain
        d = GridDomain.torus(2, points_per_axis=5)
        op = _FmOperator(d, MetricField.flat(d), 2)
        assert not hasattr(op, "src")
        assert [array.dtype for pattern in d._jacobian_patterns.values()
                for array in pattern[:3]] == [np.int32, np.int32, np.int8]

    @pytest.mark.parametrize("kind", ["ball", "torus"])
    def test_m_equal_n_builds_only_the_trace_table(self, rng, kind):
        # an m = n operator, cone_field and fm_field read the trace rows
        # alone, so the table of every stencil row is never built; the
        # first Hessian builds it
        d = (GridDomain.ball(2, radius=1.0, points_per_axis=9)
             if kind == "ball" else GridDomain.torus(2, points_per_axis=5))
        g = MetricField.flat(d)
        u = GridFunction(d, 1e-3 * rng.normal(size=d.node_count)
                         + (squared_norm(d.coords) if kind == "ball" else 0.0))
        op = _FmOperator(d, g, 2, CHI)
        assert cone_field(u, g, 2, CHI).all_member
        assert np.isfinite(fm_field(u, g, 2, CHI).values.ravel()[
            d.interior_mask]).all()
        trace_rows = tuple(int(s) for s in op.trace_rows)
        assert len(trace_rows) == 9
        assert list(d._neighbour_tables) == [trace_rows]
        op.hessians(u.flat)
        assert list(d._neighbour_tables) == [trace_rows, tuple(range(25))]

    def test_shared_tables_do_not_interact(self):
        # m = 1 and then m = 2 on one domain, which share its read-only
        # tables and patterns, give the bytes of each on a fresh domain
        def solve(domain, m):
            f = GridFunction.from_callable(domain, squared_norm)
            return solve_dirichlet(f, RightHandSide.manufactured_quadratic(m),
                                   MetricField(domain, OMEGA), m)

        def fresh():
            return GridDomain.ball(2, radius=1.0, points_per_axis=9)

        shared = fresh()
        for m in (1, 2):
            a, b = solve(shared, m), solve(fresh(), m)
            assert a.solution.values.tobytes() == b.solution.values.tobytes()
            assert a.to_json() == b.to_json()

    def test_trace_operator_construction_peak(self):
        # a fresh m = n operator on a 9^4 torus holds the trace rows'
        # table, its int32 and int8 pattern and L's float64 data, about 23
        # bytes per stored entry, and building it peaks at about 30 (72
        # with a table of every stencil row and a whole-pattern lexsort)
        d = GridDomain.torus(2, points_per_axis=9)
        d.interior_mask
        g = MetricField.flat(d)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op = _FmOperator(d, g, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 40 * op.indices.size

    def test_ball_masks_partition(self):
        d = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        total = d.interior_mask | d.boundary_mask | d.exterior_mask
        assert total.all()
        assert not (d.interior_mask & d.boundary_mask).any()
        assert not (d.interior_mask & d.exterior_mask).any()
        # corners of the box are outside the ball
        assert d.exterior_mask[0]
        # center has full margin
        c = int(np.ravel_multi_index(center_node(d), d.shape))
        assert d.interior_mask[c]
        # interior nodes have all their stencil neighbors inside the ball
        offs, _ = stencil(d.n)
        norms = np.sqrt(d.norms_squared)
        for nb in d.interior_neighbors[1].T[::7]:
            assert (norms[nb] <= d.radius + 1e-12).all()

    @pytest.mark.parametrize("n, points", [(1, 5), (1, 7), (1, 9), (2, 5),
                                           (2, 7), (2, 9), (3, 5)])
    @pytest.mark.parametrize("radius", [0.7, 1.0])
    def test_masks_match_per_node_brute_force(self, n, points, radius):
        d = GridDomain.ball(n, radius=radius, points_per_axis=points)
        norms = np.sqrt(d.norms_squared)
        assert not d.exterior_mask[norms <= radius].any()
        assert d.exterior_mask[norms > radius * (1 + 1e-12)].all()
        inside = ~d.exterior_mask.reshape(d.shape)
        offsets, _ = stencil(n)
        interior = np.zeros(d.shape, dtype=bool)
        for node in np.ndindex(d.shape):
            nb = np.array(node) + offsets
            in_box = ((nb >= 0) & (nb < points)).all(axis=1)
            interior[node] = inside[node] and in_box.all() and all(
                inside[tuple(k)] for k in nb)
        assert np.array_equal(d.interior_mask, interior.ravel())
        assert np.array_equal(d.boundary_mask, inside.ravel() & ~interior.ravel())

    def test_torus_all_interior(self):
        d = GridDomain.torus(1, points_per_axis=9)
        assert d.interior_mask.all()
        assert not d.boundary_mask.any()

    def test_stencil_sizes(self):
        offs1, w1 = stencil(1)
        assert offs1.shape[0] == 5  # 5-point Laplacian stencil in C^1
        offs2, w2 = stencil(2)
        assert offs2.shape[0] == 25  # axis pairs across distinct coordinates


class TestGridFunction:
    def test_rejects_nonfinite_inside(self):
        d = GridDomain.ball(1, points_per_axis=9)
        vals = np.zeros(d.shape)
        vals[tuple(center_node(d))] = np.nan
        with pytest.raises(DimensionMismatchError):
            GridFunction(d, vals)

    def test_accepts_nonfinite_outside(self):
        d = GridDomain.ball(1, points_per_axis=9)
        vals = np.zeros(d.node_count)
        vals[np.flatnonzero(d.exterior_mask)[0]] = np.inf
        GridFunction(d, vals)  # must not raise

    def test_from_callable_shape(self):
        d = GridDomain.torus(1, points_per_axis=9)
        u = GridFunction.from_callable(d, squared_norm)
        assert u.values.shape == d.shape


class TestDiscreteHessian:
    def test_squared_norm_exact(self):
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        u = GridFunction.from_callable(d, squared_norm)
        H = fd_complex_hessian(u, center_node(d))
        np.testing.assert_allclose(H.entries, np.eye(2), atol=1e-12)

    def test_pluriharmonic_exact(self):
        d = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        u = GridFunction.from_callable(d, lambda c: c[:, 0] ** 2 - c[:, 1] ** 2)
        H = fd_complex_hessian(u, center_node(d))
        np.testing.assert_allclose(H.entries, [[0.0]], atol=1e-12)

    def test_random_quadratic_exact(self, rng):
        # discrete Hessian of any real quadratic equals its exact complex
        # Hessian at every interior node
        d = GridDomain.ball(2, radius=0.7, points_per_axis=9)
        S = rng.normal(size=(4, 4))
        S = 0.5 * (S + S.T)
        u = GridFunction(d, 0.5 * np.einsum("ka,ab,kb->k", d.coords, S, d.coords))
        from mhessian.hermitian import complex_hessian_point

        expected = complex_hessian_point(S).entries
        nodes = np.flatnonzero(d.interior_mask)
        H = hessian_stack(u, nodes)
        assert np.abs(H - expected).max() < 1e-11

    def test_exponential_truncation(self):
        # u = exp(x_1) on a C^1 grid: u_{1 1bar} = exp(x_1)/4 + O(h^2)
        d = GridDomain.ball(1, radius=1.0, points_per_axis=41)  # h = 0.05
        u = GridFunction.from_callable(d, lambda c: np.exp(c[:, 0]))
        node = center_node(d)
        x = 0.0
        H = fd_complex_hessian(u, node)
        err = abs(H.entries[0, 0].real - np.exp(x) / 4.0)
        assert err <= 0.05 ** 2 * np.exp(x)

    def test_second_order_convergence(self):
        # u = exp(x_1) cos(y_2) on C^2; halving h cuts the max error by >3.5
        def f(c):
            return np.exp(c[:, 0]) * np.cos(c[:, 3])

        def analytic(c):
            e, s, co = np.exp(c[:, 0]), np.sin(c[:, 3]), np.cos(c[:, 3])
            H = np.zeros((c.shape[0], 2, 2), dtype=complex)
            H[:, 0, 0] = e * co / 4.0
            H[:, 1, 1] = -e * co / 4.0
            H[:, 0, 1] = -1j * e * s / 4.0
            H[:, 1, 0] = 1j * e * s / 4.0
            return H

        # compare at matched physical nodes: coarse node i maps to fine 2i
        coarse = GridDomain.ball(2, radius=0.8, points_per_axis=9)
        fine = GridDomain.ball(2, radius=0.8, points_per_axis=17)
        nodes_c = np.flatnonzero(coarse.interior_mask)
        multi_c = np.array(np.unravel_index(nodes_c, coarse.shape))
        nodes_f = np.ravel_multi_index(tuple(2 * multi_c), fine.shape)
        errs = []
        for d, nodes in ((coarse, nodes_c), (fine, nodes_f)):
            u = GridFunction.from_callable(d, f)
            H = hessian_stack(u, nodes)
            errs.append(np.abs(H - analytic(d.coords[nodes])).max())
        assert errs[0] / errs[1] >= 3.5

    def test_boundary_node_rejected(self):
        d = GridDomain.ball(1, points_per_axis=9)
        u = GridFunction.from_callable(d, squared_norm)
        flat = int(np.flatnonzero(d.boundary_mask)[0])
        node = np.unravel_index(flat, d.shape)
        with pytest.raises(StencilError):
            fd_complex_hessian(u, node)

    def test_stack_rejects_non_interior_nodes(self):
        # the stack is gathered on the interior nodes only: a boundary or
        # exterior node, or an index past the grid, has no Hessian there
        d = GridDomain.ball(2, points_per_axis=9)
        u = GridFunction.from_callable(d, squared_norm)
        inner = np.flatnonzero(d.interior_mask)[[0, -1]]
        for bad in (np.flatnonzero(d.boundary_mask)[0],
                    np.flatnonzero(d.exterior_mask)[-1], d.node_count):
            with pytest.raises(StencilError, match=f"node {bad} "):
                hessian_stack(u, np.array([inner[0], bad, inner[1]]))
        H = hessian_stack(u, inner[::-1])
        np.testing.assert_allclose(H, np.broadcast_to(np.eye(2), H.shape),
                                   atol=1e-12)

    def test_torus_wraps(self):
        d = GridDomain.torus(1, points_per_axis=9)
        u = GridFunction.from_callable(
            d, lambda c: np.cos(2 * np.pi * c[:, 0])
        )
        H0 = fd_complex_hessian(u, (0, 0))
        # wrap-around stencil sees the periodic continuation; compare with
        # the analytic value -(2 pi)^2 cos(0)/4 up to O(h^2)
        expected = -(2 * np.pi) ** 2 / 4.0
        assert abs(H0.entries[0, 0].real - expected) < 0.1 * abs(expected)


class TestFields:
    def test_fm_field_of_squared_norm(self):
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField.flat(d)
        u = GridFunction.from_callable(d, squared_norm)
        for m in (1, 2):
            field = fm_field(u, g, m)
            vals = field.flat[d.interior_mask]
            np.testing.assert_allclose(vals, m, atol=1e-11)

    def test_fm_field_homogeneity(self):
        d = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        g = MetricField.flat(d)
        alpha = 1.7
        u = GridFunction.from_callable(d, lambda c: alpha * squared_norm(c))
        field = fm_field(u, g, 1)
        vals = field.flat[d.interior_mask]
        np.testing.assert_allclose(vals, alpha, atol=1e-11)

    def test_fm_field_trace_invariant_perturbation(self):
        # |z|^2 plus a pluriharmonic term keeps F_2 = 2 exactly; so does a
        # traceless rescaling of the two coordinates
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField.flat(d)
        u1 = GridFunction.from_callable(
            d, lambda c: squared_norm(c) + 0.1 * (c[:, 0] ** 2 - c[:, 1] ** 2)
        )
        f1 = fm_field(u1, g, 2)
        np.testing.assert_allclose(f1.flat[d.interior_mask], 2.0, atol=1e-11)
        u2 = GridFunction.from_callable(
            d,
            lambda c: 1.1 * (c[:, 0] ** 2 + c[:, 1] ** 2)
            + 0.9 * (c[:, 2] ** 2 + c[:, 3] ** 2),
        )
        f2 = fm_field(u2, g, 2)
        np.testing.assert_allclose(f2.flat[d.interior_mask], 2.0, atol=1e-11)

    def test_fm_field_flags_cone_exit(self):
        d = GridDomain.ball(1, radius=1.0, points_per_axis=9)
        g = MetricField.flat(d)
        u = GridFunction.from_callable(d, lambda c: -squared_norm(c))
        field = fm_field(u, g, 1)
        assert (field.flat[d.interior_mask] == 0.0).all()  # F_m^+ vanishes
        margins = cone_field(u, g, 1).margin.ravel()[d.interior_mask]
        np.testing.assert_allclose(margins, -1.0, atol=1e-11)

    def test_cone_field_membership(self):
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField.flat(d)
        up = GridFunction.from_callable(d, squared_norm)
        down = GridFunction.from_callable(d, lambda c: -squared_norm(c))
        for m in (1, 2):
            rep = cone_field(up, g, m)
            assert rep.all_member
            assert abs(rep.min_margin - m) < 1e-11
            rep = cone_field(down, g, m)
            assert not rep.member.any()
            assert np.isnan(rep.margin.ravel()[~d.interior_mask]).all()

    def test_smoothed_max_is_psh(self):
        # max(Re z1, Re z2) after one averaging pass stays 2-psh within
        # tolerance on the C^2 grid
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField.flat(d)
        raw = np.maximum(d.coords[:, 0], d.coords[:, 2]).reshape(d.shape)
        smooth = raw.copy()
        for axis in range(4):
            smooth = (np.roll(smooth, 1, axis) + np.roll(smooth, -1, axis)
                      + 2 * smooth) / 4.0
        u = GridFunction(d, smooth)
        assert cone_field(u, g, 2).min_margin >= -1e-6

    def test_torus_constant_with_chi(self):
        # constant function on the torus: the field reduces to F_m of chi
        d = GridDomain.torus(1, points_per_axis=9)
        g = MetricField.flat(d)
        u = GridFunction.constant(d, -3.0)
        chi = HermitianMatrix.diagonal([1.5])
        field = fm_field(u, g, 1, chi=chi)
        np.testing.assert_allclose(field.flat, 1.5, atol=1e-12)

    def test_metric_field_validation(self):
        d = GridDomain.torus(1, points_per_axis=9)
        with pytest.raises(DimensionMismatchError):
            MetricField(domain=d)


class TestNonFlatMetric:
    def test_form_is_not_its_transpose_for_this_metric(self):
        transpose = HermitianMatrix(FORM.entries.T)
        assert abs(fm_value(FORM, OMEGA, 2).value
                   - fm_value(transpose, OMEGA, 2).value) > 0.1

    def test_fm_field_on_ball(self):
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField(domain=d, constant=OMEGA)
        u = GridFunction.from_callable(d, hessian_is_form)
        for m in (1, 2):
            vals = fm_field(u, g, m).flat[d.interior_mask]
            expected = fm_value(FORM, OMEGA, m).value
            assert np.abs(vals - expected).max() <= 1e-12

    def test_cone_field_margin_is_minimal_msum(self):
        d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        g = MetricField(domain=d, constant=OMEGA)
        u = GridFunction.from_callable(d, hessian_is_form)
        for m in (1, 2):
            rep = cone_field(u, g, m)
            margins = rep.margin.ravel()[d.interior_mask]
            expected = is_m_semipositive(FORM, OMEGA, m).margin
            assert rep.all_member
            assert np.abs(margins - expected).max() <= 1e-12

    def test_fm_field_on_torus_with_chi(self):
        # a quadratic is not periodic: compare where the stencil does not
        # wrap around the torus
        d = GridDomain.torus(2, points_per_axis=7)
        g = MetricField(domain=d, constant=OMEGA)
        u = GridFunction.from_callable(d, hessian_is_form)
        idx = np.indices(d.shape).reshape(4, -1)
        inner = ((idx >= 1) & (idx <= d.points_per_axis - 2)).all(axis=0)
        for m in (1, 2):
            vals = fm_field(u, g, m, chi=CHI).flat[inner]
            expected = fm_value(FORM.plus(CHI), OMEGA, m).value
            assert np.abs(vals - expected).max() <= 1e-12


def hermitian_2x2(a, d, b):
    """Batch of [[a, b], [conj b, d]] from broadcastable entries."""
    a, d, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                  np.asarray(d, dtype=float),
                                  np.asarray(b, dtype=complex))
    H = np.empty(a.shape + (2, 2), dtype=complex)
    H[:, 0, 0] = a
    H[:, 1, 1] = d
    H[:, 0, 1] = b
    H[:, 1, 0] = np.conj(b)
    return H


def assert_matches_lapack(H):
    """Ascending eigenvalues within 8 eps ||H|| + 8 subnormal ulps of
    LAPACK's, per matrix."""
    ref = np.linalg.eigvalsh(H)
    # the relative term underflows to 0 at subnormal scale, where LAPACK's
    # own residual is a subnormal ulp or two; at normal scale the floor
    # rounds away
    bound = 8 * EPS * np.abs(ref).max(axis=-1) + 8 * 2.0 ** -1074
    lam = _eigh(H)
    assert (np.diff(lam, axis=-1) >= 0.0).all()
    assert (np.abs(lam - ref).max(axis=-1) <= bound).all()


def _random_2x2(scale):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    return scale * 0.5 * (X + np.conj(np.swapaxes(X, -1, -2)))


_PHASES = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
_LEVELS = np.array([0.0, 1.0, -2.5, 1e-150, 1e150])
EDGE_CASES = {
    "multiples_of_identity": hermitian_2x2(_LEVELS, _LEVELS, 0.0),
    "diagonal_a_above_d": hermitian_2x2([3.0, 1.0, 2e-150, 2e150],
                                        [-1.0, 1.0 - EPS, 1e-150, -1e150],
                                        0.0),
    "diagonal_a_below_d": hermitian_2x2([-1.0, 1.0 - EPS, 1e-150, -1e150],
                                        [3.0, 1.0, 2e-150, 2e150], 0.0),
    "tiny_off_diagonal": np.concatenate([
        hermitian_2x2(a, d, 1e-300 * _PHASES)
        for a, d in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.0, 0.0))]),
    "scaled_down": _random_2x2(1e-150),
    "scaled_up": _random_2x2(1e150),
}

_entry = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestHermitianHessians:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_metric_keeps_the_stencil_weights(self, n):
        d = GridDomain.ball(n, radius=1.0, points_per_axis=5)
        weights = NodalOperator(d, MetricField.flat(d), 1).weights
        expected = stencil(n)[1] / d.spacing ** 2
        # bit for bit, signed zeros included
        assert np.array_equal(weights.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", [2, 3])
    def test_hessians_are_exactly_hermitian(self, rng, n):
        if n == 2:
            d = GridDomain.ball(2, radius=1.0, points_per_axis=9)
            g, chi = MetricField(domain=d, constant=OMEGA), None
        else:
            d = GridDomain.ball(3, radius=1.0, points_per_axis=7)
            g = MetricField(domain=d, constant=random_metric(rng, 3))
            chi = random_hermitian(rng, 3)
        u = rng.normal(size=d.node_count)
        H = NodalOperator(d, g, 1, chi).hessians(u)
        assert np.abs(H.imag).max() > 0.0
        assert np.array_equal(H, H.conj().swapaxes(-1, -2))


class TestEigensolver:
    @given(rows=st.lists(st.tuples(_entry, _entry, _entry, _entry),
                         min_size=1, max_size=16),
           scale=st.sampled_from([1e-150, 1.0, 1e150]))
    @settings(max_examples=200, deadline=None)
    def test_random_2x2_batches_match_lapack(self, rows, scale):
        a, d, re, im = (np.array(col) for col in zip(*rows))
        assert_matches_lapack(scale * hermitian_2x2(a, d, re + 1j * im))

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_edge_cases_match_lapack(self, case):
        assert_matches_lapack(EDGE_CASES[case])

    def test_degenerate_matrices_keep_the_identity(self):
        # a multiple h I of the identity has the double eigenvalue h
        # exactly, at every scale
        lam = _eigh(EDGE_CASES["multiples_of_identity"])
        assert np.array_equal(lam, np.stack([_LEVELS, _LEVELS], axis=-1))

    def test_c1_operator_is_lapack_bit_for_bit(self, rng):
        # n = 1 has no closed form: no solve or field reaches an eigensolve
        # there, since m = n
        d = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        g = MetricField(domain=d, constant=random_metric(rng, 1))
        u = rng.normal(size=d.node_count)
        op = NodalOperator(d, g, 1, chi=HermitianMatrix([[0.3]]))
        H = op.hessians(u)
        assert np.array_equal(_eigh(H), np.linalg.eigvalsh(H))

    def test_lapack_runs_except_at_n_2(self, rng, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counted(H, _name=name, _original=getattr(np.linalg, name)):
                calls.append((_name, H.shape[-1]))
                return _original(H)

            monkeypatch.setattr(np.linalg, name, counted)
        for n in (1, 2, 3):
            H = np.stack([random_hermitian(rng, n).entries for _ in range(5)])
            _eigh(H)
        assert calls == [("eigvalsh", 1), ("eigvalsh", 3)]


def trace_case(rng, n, kind, metric, chi):
    """A NodalOperator at m = n on a small ball or torus, with a flat or
    random metric and an optional random background form."""
    if kind == "ball":
        domain = GridDomain.ball(n, radius=1.0, points_per_axis=9 if n < 3
                                 else 7)
    else:
        domain = GridDomain.torus(n, points_per_axis=9 if n < 3 else 5)
    g = (MetricField.flat(domain) if metric == "flat"
         else MetricField(domain=domain, constant=random_metric(rng, n)))
    return NodalOperator(domain, g, n,
                         None if chi is None else random_hermitian(rng, n))


class TestTraceRoute:
    """At m = n the one m-sum is read from the trace rows of the stencil."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ball", "torus"])
    @pytest.mark.parametrize("metric", ["flat", "random"])
    @pytest.mark.parametrize("chi", [None, "random"])
    def test_sigma_is_the_eigenvalue_sum(self, rng, n, kind, metric, chi):
        # within a few eps B, B = U sum_s |W_s|_F + |chi|_F the bound on
        # every |H|_F, U the largest |u| gathered
        op = trace_case(rng, n, kind, metric, chi)
        if metric == "random" and n > 1:
            # a non-diagonal metric gives every folded weight a trace
            assert op.trace_rows.size == op.weights.shape[0]
        d = op.domain
        chi_norm = 0.0 if op.chi is None else np.linalg.norm(op.chi)
        for log_scale in (-3.0, 0.0, 3.0):
            u = 10.0 ** log_scale * rng.normal(size=d.node_count)
            sums = op.sigma(u)
            assert sums.shape == (op.nodes.size, 1)
            expected = _eigh(op.hessians(u)).sum(axis=-1)
            B = (np.abs(u[~d.exterior_mask]).max()
                 * np.linalg.norm(op.weights, axis=(1, 2)).sum() + chi_norm)
            assert np.abs(sums[:, 0] - expected).max() <= 16 * EPS * B

    @pytest.mark.parametrize("points", [9, 33, 65])
    @pytest.mark.parametrize("kind", ["ball", "torus"])
    def test_c1_sigma_is_the_hessian_bit_for_bit(self, rng, points, kind):
        # at n = 1 the Hessian is its trace: sigma is, bit for bit, the one
        # real product of the trace rows that the solver's evaluation
        # takes, and the gathered complex entry within a few ulps of the
        # scale B of test_sigma_is_the_eigenvalue_sum
        d = (GridDomain.ball(1, radius=1.0, points_per_axis=points)
             if kind == "ball" else GridDomain.torus(1, points))
        for g, chi in ((MetricField.flat(d), None),
                       (MetricField.flat(d), HermitianMatrix([[0.3]])),
                       (MetricField(domain=d, constant=random_metric(rng, 1)),
                        HermitianMatrix([[-0.7]]))):
            op = NodalOperator(d, g, 1, chi)
            weights = op.weights[op.trace_rows, 0, 0].real
            chi_value = 0.0 if chi is None else op.chi[0, 0].real
            for _ in range(4):
                u = rng.normal(size=d.node_count)
                sums = op.sigma(u)[:, 0]
                assert np.array_equal(
                    sums, weights @ u[op.trace_neighbors] + chi_value)
                B = (np.abs(u[~d.exterior_mask]).max() * np.abs(weights).sum()
                     + abs(chi_value))
                entry = op.hessians(u)[:, 0, 0].real
                assert np.abs(sums - entry).max() <= 16 * EPS * B

    def test_fields_take_the_trace_route(self, rng, monkeypatch):
        # cone_field and fm_field at m = n form no Hessian
        d = GridDomain.torus(2, points_per_axis=7)
        u = GridFunction(d, 1e-3 * rng.normal(size=d.node_count))
        g = MetricField(domain=d, constant=OMEGA)
        calls = []
        monkeypatch.setattr(NodalOperator, "hessians",
                            lambda *args: calls.append("hessians"))
        assert cone_field(u, g, 2, chi=CHI).all_member
        assert np.isfinite(fm_field(u, g, 2, chi=CHI).values).all()
        assert calls == []

from collections import Counter

import numpy as np
import pytest

from mhessian import grids, regularize
from mhessian.errors import (
    ChiNotPositive,
    DimensionMismatchError,
    DirichletFailure,
    NewtonDiverged,
    ScheduleExhausted,
    TargetNotAdmissible,
)
from mhessian.grids import GridDomain, GridFunction, MetricField, cone_field
from mhessian.hermitian import HermitianMatrix
from mhessian.regularize import (
    NEG_INFINITY_FLOOR,
    ApproximationSchedule,
    RegularizationResult,
    global_regularize,
    local_regularize,
    upper_smooth_sequence,
    verify_monotone_convergence,
)
from mhessian.solver import SolverConfig


def sqn(c):
    return (c ** 2).sum(axis=-1)


def inside_mask(domain):
    return ~domain.exterior_mask


@pytest.fixture
def field_evaluations(monkeypatch):
    """Count the pipelines' fm_field calls per evaluated grid function."""
    counts = Counter()
    real = regularize.fm_field

    def counting(u, *args, **kwargs):
        counts[id(u)] += 1
        return real(u, *args, **kwargs)

    monkeypatch.setattr(regularize, "fm_field", counting)
    return counts


class TestUpperSmoothSequence:
    def test_smooth_target_postconditions(self):
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        target = GridFunction.from_callable(domain, lambda c: sqn(c) - 4.0)
        fs = upper_smooth_sequence(target, 4)
        ins = inside_mask(domain)
        for k, f in enumerate(fs):
            assert np.isfinite(f.flat[ins]).all()
            assert (f.flat[ins] >= target.flat[ins] - 1e-12).all()
            if k:
                assert (f.flat[ins] <= fs[k - 1].flat[ins] + 1e-12).all()
        gaps = [float((f.flat - target.flat)[ins].max()) for f in fs]
        assert gaps[-1] < gaps[0]

    def test_max_of_pluriharmonic_target(self):
        domain = GridDomain.ball(2, radius=1.0, points_per_axis=9)
        target = GridFunction.from_callable(
            domain, lambda c: np.maximum(c[:, 0], c[:, 2]) - 4.0
        )
        fs = upper_smooth_sequence(target, 5)
        ins = inside_mask(domain)
        for k, f in enumerate(fs):
            assert (f.flat[ins] >= target.flat[ins] - 1e-12).all()
            if k:
                assert (f.flat[ins] <= fs[k - 1].flat[ins] + 1e-12).all()
        gaps = [float((f.flat - target.flat)[ins].max()) for f in fs]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.5 * gaps[0]

    def test_clipped_pole(self):
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        vals = sqn(domain.coords) - 4.0
        center = domain.node_count // 2
        vals[center] = NEG_INFINITY_FLOOR  # sampled log-pole marker
        target = GridFunction(domain, vals)
        fs = upper_smooth_sequence(target, 5)
        pole_vals = [float(f.flat[center]) for f in fs]
        assert all(np.isfinite(v) for v in pole_vals)
        assert all(b <= a + 1e-12 for a, b in zip(pole_vals, pole_vals[1:]))
        assert pole_vals[-1] < pole_vals[0]

    def test_identically_minus_infinity_rejected(self):
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=9)
        target = GridFunction.constant(domain, NEG_INFINITY_FLOOR)
        with pytest.raises(TargetNotAdmissible):
            upper_smooth_sequence(target, 2)


class TestSmoothPass:
    @pytest.mark.parametrize("domain", [
        GridDomain.ball(1, radius=0.8, points_per_axis=17),
        GridDomain.ball(2, radius=0.8, points_per_axis=7),
        GridDomain.torus(1, points_per_axis=9),
        GridDomain.torus(2, points_per_axis=5),
    ], ids=lambda d: f"{d.kind}-{d.n}-{d.points_per_axis}")
    def test_matches_per_node_average(self, rng, domain):
        v = rng.normal(size=domain.shape)
        inside = ~domain.exterior_mask.reshape(domain.shape)
        pp, d2 = domain.points_per_axis, 2 * domain.n
        expected = v.copy()
        for node in np.ndindex(domain.shape):
            star = [tuple(np.add(node, step * np.eye(d2, dtype=int)[a]))
                    for a in range(d2) for step in (1, -1)]
            if domain.kind == "torus":
                star = [tuple(k % pp for k in nb) for nb in star]
            elif not all(0 <= k < pp for nb in star for k in nb):
                continue
            if inside[node] and all(inside[nb] for nb in star):
                expected[node] = 0.5 * v[node] + 0.5 * sum(
                    v[nb] for nb in star) / (2 * d2)
        got = regularize._smooth_pass(v.ravel(), domain)
        np.testing.assert_allclose(got, expected.ravel(), rtol=0,
                                   atol=1e-14)


class TestScheduleValidation:
    def test_rejects_increasing_sequence(self):
        domain = GridDomain.ball(1, points_per_axis=9)
        lo = GridFunction.constant(domain, -3.0)
        hi = GridFunction.constant(domain, -2.0)
        with pytest.raises(DimensionMismatchError):
            ApproximationSchedule(f_sequence=(lo, hi), beta_schedule=(10.0, 20.0))

    def test_rejects_small_beta(self):
        domain = GridDomain.ball(1, points_per_axis=9)
        f = GridFunction.constant(domain, -2.0)
        with pytest.raises(DimensionMismatchError):
            ApproximationSchedule(f_sequence=(f,), beta_schedule=(2.0,))

    def test_rejects_approximants_on_two_grids(self):
        f = GridFunction.constant(GridDomain.ball(1, points_per_axis=17), -2.0)
        g = GridFunction.constant(GridDomain.ball(1, points_per_axis=21), -2.0)
        with pytest.raises(DimensionMismatchError, match=(
                "^approximant 1 lives on a different grid$")):
            ApproximationSchedule(f_sequence=(f, g), beta_schedule=(10.0, 20.0))

    def test_rejects_unnormalized_approximant(self):
        domain = GridDomain.ball(1, points_per_axis=9)
        f = GridFunction.constant(domain, -0.5)
        with pytest.raises(DimensionMismatchError):
            ApproximationSchedule(f_sequence=(f,), beta_schedule=(10.0,))


class TestLocalPipeline:
    @staticmethod
    def smooth_setup(points=33, count=6):
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=points)
        g = MetricField.flat(domain)
        target = GridFunction.from_callable(domain, lambda c: sqn(c) - 3.5)
        fs = [GridFunction(domain, target.flat + 0.5 * 0.25 ** k)
              for k in range(count)]
        sched = ApproximationSchedule.geometric(fs, beta_start=10.0, growth=2.0)
        return domain, g, target, sched

    def test_smooth_target_run(self):
        domain, g, target, sched = self.smooth_setup()
        res = local_regularize(target, g, 1, sched, SolverConfig(), iterates=3)
        assert res.monotone_gap <= 1e-8
        assert res.lower_gap <= 1e-8
        assert all(m > 0 for m in res.cone_margins)
        assert all(v <= 1e-8 for v in res.diagnostics["upper_bound_gaps"].values())
        assert all(v <= 1e-8 for v in res.diagnostics["lower_bound_gaps"].values())
        devs = res.sup_deviation
        assert all(b <= a + 1e-8 for a, b in zip(devs, devs[1:]))
        # the final deviation obeys the schedule's correction-term budget
        j = res.indices[-1]
        beta = sched.beta_schedule[j]
        C = res.diagnostics["subsolution_constant"]
        c_j = res.diagnostics["c_constants"][j]
        budget = 3.0 * (2.0 * C + np.log(c_j) + np.log(2.0 * beta)
                        + np.log(beta)) / beta
        gap_f = float((sched.f_sequence[j].flat - target.flat).max())
        assert devs[-1] <= budget + gap_f

    def test_each_approximant_is_evaluated_once(self, field_evaluations):
        domain, g, target, sched = self.smooth_setup(points=17)
        res = local_regularize(target, g, 1, sched, SolverConfig(), iterates=3)
        per_index = [field_evaluations[id(f)] for f in sched.f_sequence]
        assert max(per_index) == 1
        assert all(per_index[j] == 1 for j in res.indices)

    def test_greedy_selection_is_deterministic(self):
        domain, g, target, sched = self.smooth_setup(points=17)
        a = local_regularize(target, g, 1, sched, SolverConfig(), iterates=3)
        b = local_regularize(target, g, 1, sched, SolverConfig(), iterates=3)
        assert a.indices == b.indices
        for u, v in zip(a.u_sequence, b.u_sequence):
            np.testing.assert_array_equal(u.values, v.values)

    def test_iterates_are_strictly_cone_interior(self):
        domain, g, target, sched = self.smooth_setup(points=17)
        res = local_regularize(target, g, 1, sched, SolverConfig(), iterates=2)
        for u in res.u_sequence:
            rep = cone_field(u, g, 1)
            assert rep.min_margin > 0

    def test_schedule_exhausted_on_flat_schedule(self):
        # identical approximants and penalties: the envelope can never drop
        # below the first iterate
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=17)
        g = MetricField.flat(domain)
        target = GridFunction.from_callable(domain, lambda c: sqn(c) - 3.5)
        f = GridFunction(domain, target.flat + 0.1)
        sched = ApproximationSchedule(f_sequence=(f, f, f),
                                      beta_schedule=(10.0, 10.0, 10.0))
        with pytest.raises(ScheduleExhausted):
            local_regularize(target, g, 1, sched, SolverConfig(), iterates=3)

    def test_unnormalized_target_rejected(self):
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=9)
        g = MetricField.flat(domain)
        target = GridFunction.from_callable(domain, sqn)  # sup 0 > -2
        f = GridFunction(domain, target.flat - 0.0)
        with pytest.raises(TargetNotAdmissible):
            local_regularize(
                target, g, 1,
                ApproximationSchedule(f_sequence=(GridFunction.constant(domain, -2.0),),
                                      beta_schedule=(10.0,)),
                SolverConfig(),
            )

    @pytest.mark.parametrize("radius, points", [(1.2, 17), (1.0, 21)],
                             ids=["other_radius", "other_size"])
    def test_schedule_on_another_grid(self, radius, points):
        domain, g, target, _ = self.smooth_setup(points=17)
        other = GridDomain.ball(1, radius=radius, points_per_axis=points)
        sched = ApproximationSchedule.geometric(
            [GridFunction.constant(other, -1.5)])
        with pytest.raises(DimensionMismatchError, match=(
                "^the schedule lives on a different grid$")):
            local_regularize(target, g, 1, sched, SolverConfig())

    def test_non_psh_target_rejected(self):
        domain = GridDomain.ball(1, radius=1.0, points_per_axis=9)
        g = MetricField.flat(domain)
        target = GridFunction.from_callable(domain, lambda c: -sqn(c) - 3.0)
        f = GridFunction(domain, target.flat + 0.5)
        sched = ApproximationSchedule(f_sequence=(f,), beta_schedule=(10.0,))
        with pytest.raises(TargetNotAdmissible):
            local_regularize(target, g, 1, sched, SolverConfig())


class TestGlobalPipeline:
    @staticmethod
    def constants_setup(points=33):
        domain = GridDomain.torus(1, points_per_axis=points)
        g = MetricField.flat(domain)
        chi = HermitianMatrix.identity(1)
        phi = GridFunction.constant(domain, -2.5)
        etas = [0.5, 0.2, 0.05, 0.0125, 0.003, 0.001]
        fs = [GridFunction(domain, phi.flat + e) for e in etas]
        sched = ApproximationSchedule.geometric(fs, beta_start=50.0, growth=2.0)
        return domain, g, chi, phi, sched

    def test_constant_target(self):
        domain, g, chi, phi, sched = self.constants_setup()
        res = global_regularize(phi, chi, g, 1, sched, SolverConfig(), iterates=3)
        assert res.monotone_gap <= 1e-8
        assert res.lower_gap <= 1e-8
        # iterates are constants converging to the target from above
        for u in res.u_sequence:
            assert np.ptp(u.flat) < 1e-7
            assert u.flat.min() >= phi.flat.max() - 1e-8
        devs = res.sup_deviation
        assert all(b <= a for a, b in zip(devs, devs[1:]))
        for gaps in res.diagnostics["sandwich"].values():
            assert gaps["first_gap"] >= -1e-12
            assert gaps["middle_slack"] > 0.0
            assert gaps["third_gap"] <= 1e-8

    def test_each_approximant_is_evaluated_once(self, field_evaluations):
        domain, g, chi, phi, sched = self.constants_setup()
        res = global_regularize(phi, chi, g, 1, sched, SolverConfig(), iterates=3)
        per_index = [field_evaluations[id(f)] for f in sched.f_sequence]
        assert max(per_index) == 1
        assert all(per_index[j] == 1 for j in res.indices)

    def test_stencil_is_folded_once(self, monkeypatch):
        # the target's cone test, each approximant's F_m field and each
        # sub-solve build an operator on one (domain, metric, chi): the
        # stencil enters the metric frame once, and so does chi
        domain, g, chi, phi, sched = self.constants_setup(points=9)
        folded = Counter()
        metric_frame = grids.metric_frame

        def counted(T, C):
            folded[T.ndim] += 1
            return metric_frame(T, C)

        monkeypatch.setattr(grids, "metric_frame", counted)
        built = Counter()
        init = grids.NodalOperator.__init__

        def counted_init(op, *args, **kwargs):
            built[type(op).__name__] += 1
            init(op, *args, **kwargs)

        monkeypatch.setattr(grids.NodalOperator, "__init__", counted_init)
        res = global_regularize(phi, chi, g, 1, sched, SolverConfig(),
                                iterates=3)
        # one cone field, three F_m fields and three sub-solves
        assert built == {"NodalOperator": 4, "_FmOperator": 3}
        assert len(res.indices) == 3
        assert folded == {3: 1, 2: 1}

    def test_wavy_target(self):
        domain = GridDomain.torus(1, points_per_axis=33)
        g = MetricField.flat(domain)
        chi = HermitianMatrix.identity(1)
        c = domain.coords
        smooth = 0.05 * np.cos(2 * np.pi * c[:, 0])
        phi = GridFunction(domain, -2.5 + smooth)
        etas = [0.5, 0.2, 0.05, 0.0125, 0.003, 0.001]
        fs = [GridFunction(domain, phi.flat + e) for e in etas]
        sched = ApproximationSchedule.geometric(fs, beta_start=50.0, growth=2.0)
        res = global_regularize(phi, chi, g, 1, sched, SolverConfig(), iterates=3)
        assert res.monotone_gap <= 1e-8
        assert res.lower_gap <= 1e-8
        assert all(m > 0 for m in res.cone_margins)
        rep = verify_monotone_convergence(res, phi)
        assert rep.passed

    def test_chi_not_positive(self):
        domain, g, chi, phi, sched = self.constants_setup(points=9)
        bad = HermitianMatrix.diagonal([-0.5])
        with pytest.raises(ChiNotPositive):
            global_regularize(phi, bad, g, 1, sched, SolverConfig())

    @pytest.mark.parametrize("m", [0, 2])
    def test_m_outside_one_to_n(self, m):
        domain, g, chi, phi, sched = self.constants_setup(points=9)
        with pytest.raises(DimensionMismatchError, match="need 1 <= m <= n"):
            global_regularize(phi, chi, g, m, sched, SolverConfig())

    def test_chi_dimension_mismatch(self):
        domain = GridDomain.torus(2, points_per_axis=5)
        phi = GridFunction.constant(domain, -2.5)
        sched = ApproximationSchedule.geometric(
            [GridFunction(domain, phi.flat + 0.5)], beta_start=50.0,
            growth=2.0)
        with pytest.raises(DimensionMismatchError):
            global_regularize(phi, HermitianMatrix.identity(1),
                              MetricField.flat(domain), 1, sched,
                              SolverConfig())

    def test_inadmissible_target(self):
        domain, g, chi, phi, sched = self.constants_setup(points=9)
        c = domain.coords
        rough = -2.5 + 0.5 * np.cos(2 * np.pi * c[:, 0])  # Hessian beats chi
        bad_phi = GridFunction(domain, rough)
        fs = [GridFunction(domain, rough + 0.5)]
        bad_sched = ApproximationSchedule(f_sequence=tuple(fs),
                                          beta_schedule=(50.0,))
        with pytest.raises(TargetNotAdmissible):
            global_regularize(bad_phi, chi, g, 1, bad_sched, SolverConfig())

    def test_small_beta_schedule_exhausts(self):
        domain, g, chi, phi, _ = self.constants_setup(points=9)
        fs = [GridFunction(domain, phi.flat + 0.5)]
        sched = ApproximationSchedule(f_sequence=tuple(fs), beta_schedule=(3.0,))
        with pytest.raises(ScheduleExhausted):
            global_regularize(phi, chi, g, 1, sched, SolverConfig())


def small_run(mode, cfg=SolverConfig(), skip_first=False):
    """A three-iterate run of the ``mode`` pipeline on a 9-point C^1 grid;
    ``skip_first`` makes index 0 of the torus schedule inadmissible."""
    if mode == "local":
        domain, g, target, sched = TestLocalPipeline.smooth_setup(points=9)
        return local_regularize(target, g, 1, sched, cfg, iterates=3)
    domain, g, chi, phi, sched = TestGlobalPipeline.constants_setup(points=9)
    if skip_first:
        sched = ApproximationSchedule(sched.f_sequence,
                                      (3.0,) + sched.beta_schedule[1:])
    return global_regularize(phi, chi, g, 1, sched, cfg, iterates=3)


class TestGreedyScheduleLoop:
    PER_INDEX = {
        "local": {"upper_bound_gaps", "lower_bound_gaps", "c_constants",
                  "max_principle_gaps"},
        "global": {"sandwich", "corridor_constants"},
    }

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_per_index_diagnostics_are_keyed_by_the_indices(self, mode):
        res = small_run(mode, skip_first=True)
        per_index = {key for key, value in res.diagnostics.items()
                     if isinstance(value, dict)}
        assert per_index == self.PER_INDEX[mode]
        for key in per_index:
            assert tuple(res.diagnostics[key]) == res.indices
        assert res.diagnostics["mode"] == mode
        assert res.indices[0] == (0 if mode == "local" else 1)

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_failed_sub_solve_names_its_index(self, mode):
        # a zero tolerance is out of reach of the rounding floor
        with pytest.raises(DirichletFailure, match=(
                "^solve at schedule index 0 failed: no damped step")) as info:
            small_run(mode, SolverConfig(tolerance=0.0))
        assert info.value.index == 0
        assert isinstance(info.value.cause, NewtonDiverged)
        assert info.value.__cause__ is info.value.cause


class TestVerifyMonotoneConvergence:
    def test_trivial_sequence_passes(self):
        domain = GridDomain.torus(1, points_per_axis=9)
        target = GridFunction.constant(domain, -3.0)
        seq = tuple(
            GridFunction(domain, target.flat + 1.0 / j) for j in (1, 2, 3)
        )
        res = RegularizationResult(
            u_sequence=seq, monotone_gap=0.0, lower_gap=0.0,
            sup_deviation=(1.0, 0.5, 1.0 / 3.0), indices=(0, 1, 2),
            cone_margins=(1.0, 1.0, 1.0),
        )
        rep = verify_monotone_convergence(res, target)
        assert rep.passed
        np.testing.assert_allclose(rep.sup_deviations, [1.0, 0.5, 1.0 / 3.0])

    def test_injected_inversion_is_located(self):
        domain = GridDomain.torus(1, points_per_axis=9)
        target = GridFunction.constant(domain, -3.0)
        u1 = GridFunction(domain, target.flat + 0.5)
        bad_vals = target.flat + 0.25
        bad_flat = 17
        bad_vals = bad_vals.copy()
        bad_vals[bad_flat] = target.flat[bad_flat] + 0.9  # above u1 here
        u2 = GridFunction(domain, bad_vals)
        res = RegularizationResult(
            u_sequence=(u1, u2), monotone_gap=0.0, lower_gap=0.0,
            sup_deviation=(0.5, 0.25), indices=(0, 1),
            cone_margins=(1.0, 1.0),
        )
        rep = verify_monotone_convergence(res, target)
        assert not rep.passed
        assert rep.violation_node == tuple(
            int(i) for i in np.unravel_index(bad_flat, domain.shape)
        )

    @pytest.mark.parametrize("radius, points", [(1.3, 17), (1.0, 21)],
                             ids=["other_radius", "other_size"])
    def test_target_on_another_grid(self, radius, points):
        # the first gave a failed verdict, the second a raw IndexError
        domain, g, target, sched = TestLocalPipeline.smooth_setup(points=17)
        res = local_regularize(target, g, 1, sched, SolverConfig(), iterates=3)
        other = GridDomain.ball(1, radius=radius, points_per_axis=points)
        moved = GridFunction.from_callable(other, lambda c: sqn(c) - 3.5)
        with pytest.raises(DimensionMismatchError, match=(
                "^iterate 0 lives on a different grid$")):
            verify_monotone_convergence(res, moved)

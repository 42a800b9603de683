"""Monotone smooth approximation pipelines on ball and torus grids.

Both pipelines approximate an upper semi-continuous admissible target from
above by smooth strictly cone-interior iterates.  The ball pipeline solves
penalized Dirichlet problems against a decreasing sequence of smooth upper
approximants and shifts each solution by explicit correction terms; the
torus pipeline solves the periodic penalized equation against a corridor
field built from the clamped operator value of each approximant.  In both
cases a greedy index selection turns the corrected solutions into a
nodewise nonincreasing sequence squeezed onto the target.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConeEscape,
    DimensionMismatchError,
    DirichletFailure,
    NewtonDiverged,
    ScheduleExhausted,
    TargetNotAdmissible,
)
from .grids import BALL, TORUS, GridDomain, GridFunction, MetricField, \
    _on_grid, cone_field, fm_field
from .hermitian import HermitianMatrix
from .solver import RightHandSide, SolverConfig, check_chi_positive, \
    solve_dirichlet, solve_torus

# nodes at or below this value model negative infinity on the grid
NEG_INFINITY_FLOOR = -1e6
# admissibility tolerance for sampled cone membership of targets
TARGET_CONE_TOL = 1e-6
MONOTONE_TOL = 1e-12
# slack of the sup <= -1 (approximants) and sup <= -2 (targets) checks
NORMALIZATION_TOL = 1e-9
# slack of the convergence report on monotone, lower and deviation gaps
GAP_TOL = 1e-8


@dataclass(frozen=True)
class ApproximationSchedule:
    """Smooth upper approximants with their penalty parameters."""

    f_sequence: tuple
    beta_schedule: tuple

    def __post_init__(self):
        fs = tuple(self.f_sequence)
        betas = tuple(float(b) for b in self.beta_schedule)
        if len(fs) == 0 or len(fs) != len(betas):
            raise DimensionMismatchError(
                "need one penalty parameter per approximant"
            )
        for b in betas:
            if not b > math.e:
                raise DimensionMismatchError(
                    f"penalty parameters must exceed e, got {b}"
                )
        usable = ~fs[0].domain.exterior_mask
        for k, f in enumerate(fs):
            _on_grid(f, fs[0].domain, f"approximant {k}")
            if float(f.flat[usable].max()) > -1.0 + NORMALIZATION_TOL:
                raise DimensionMismatchError(
                    f"approximant {k} violates the sup <= -1 normalization"
                )
            if k > 0 and (fs[k].flat[usable]
                          > fs[k - 1].flat[usable] + MONOTONE_TOL).any():
                raise DimensionMismatchError(
                    f"approximant sequence increases at index {k}"
                )
        object.__setattr__(self, "f_sequence", fs)
        object.__setattr__(self, "beta_schedule", betas)

    def __len__(self):
        return len(self.f_sequence)

    @classmethod
    def geometric(cls, f_sequence, beta_start: float = 10.0,
                  growth: float = 2.0):
        betas = [beta_start * growth ** k for k in range(len(f_sequence))]
        return cls(f_sequence=tuple(f_sequence), beta_schedule=tuple(betas))


@dataclass(frozen=True)
class RegularizationResult:
    """Monotone approximation run: iterates plus verification data."""

    u_sequence: tuple
    monotone_gap: float
    lower_gap: float
    sup_deviation: tuple
    indices: tuple
    cone_margins: tuple
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConvergenceReport:
    monotone_gap: float
    lower_gap: float
    sup_deviations: tuple
    deviations_nonincreasing: bool
    passed: bool
    violation_node: tuple = None


def _inside(domain: GridDomain) -> np.ndarray:
    return ~domain.exterior_mask


def _smooth_pass(values: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Average each node with its axis neighbors where the full axis star
    stays inside; other nodes keep their value."""
    v = values.reshape(domain.shape)
    acc = np.zeros_like(v)
    for axis in range(2 * domain.n):
        acc += np.roll(v, 1, axis) + np.roll(v, -1, axis)
    mean = (0.5 * v + 0.5 * acc / (4 * domain.n)).ravel()
    axes = np.eye(2 * domain.n, dtype=int)
    ok = (domain.neighbours_inside(np.concatenate([axes, -axes]))
          & _inside(domain))
    return np.where(ok, mean, values.ravel())


def _sup_convolve(values: np.ndarray, domain: GridDomain,
                  eps: float) -> np.ndarray:
    """Quadratic sup-convolution, separable across the 2n axes."""
    out = values.reshape(domain.shape).copy()
    x = domain.axis
    diff = np.abs(x[:, None] - x[None, :])
    if domain.kind == TORUS:
        diff = np.minimum(diff, 1.0 - diff)
    penalty = diff ** 2 / (2.0 * eps)
    for axis in range(2 * domain.n):
        arr = np.moveaxis(out, axis, -1)
        arr = np.max(arr[..., None, :] - penalty, axis=-1)
        out = np.moveaxis(arr, -1, axis)
    return out.ravel()


def upper_smooth_sequence(target: GridFunction, count: int) -> list:
    """Nodewise nonincreasing smooth upper approximants of a sampled target.

    Approximant j is a quadratic sup-convolution of radius parameter
    (4h)^2 / 2^j on grid spacing h, followed by two grid smoothing passes
    and a strict offset 2^-(j+1).  Nodes at or below the negative-infinity
    floor are clipped at a cutoff that starts at twice the largest |target|
    (at least 2) and doubles with j.  Both mechanisms are monotone, so the
    sequence decreases by construction; a final nodewise clamp guards
    rounding.
    """
    domain = target.domain
    inside = _inside(domain)
    finite_vals = target.flat[inside]
    real_vals = finite_vals[finite_vals > NEG_INFINITY_FLOOR]
    if real_vals.size == 0:
        raise TargetNotAdmissible("target is identically negative infinity")
    eps_start = (4.0 * domain.spacing) ** 2
    clip_start = 2.0 * max(1.0, float(np.abs(real_vals).max()))
    base = target.flat.copy()
    base[~inside] = -1e18  # exterior never wins a sup-convolution
    out = []
    prev = None
    for j in range(count):
        clip = min(clip_start * 2.0 ** j, -NEG_INFINITY_FLOOR)
        eps = eps_start * 0.5 ** j
        vals = np.maximum(base, -clip)
        vals = _sup_convolve(vals, domain, eps)
        for _ in range(2):
            vals = _smooth_pass(vals, domain)
        defect = float(np.max((np.maximum(base, -clip) - vals)[inside],
                              initial=0.0))
        vals = vals + max(0.0, defect) + 0.5 ** (j + 1)
        if prev is not None:
            vals = np.minimum(vals, prev)  # rounding guard, usually inactive
        vals[~inside] = vals[inside].max()
        out.append(GridFunction(domain, vals))
        prev = vals
    return out


def _check_target(target: GridFunction, g: MetricField, m: int,
                  chi: HermitianMatrix = None):
    domain = target.domain
    inside = _inside(domain)
    if float(target.flat[inside].max()) > -2.0 + NORMALIZATION_TOL:
        raise TargetNotAdmissible("target violates the sup <= -2 normalization")
    worst = cone_field(target, g, m, chi=chi).min_margin
    if not worst >= -TARGET_CONE_TOL:  # so that a NaN margin fails
        raise TargetNotAdmissible(
            f"target fails the sampled cone test (worst margin {worst:.3e})"
        )


def _check_dominates(schedule: ApproximationSchedule, target: GridFunction):
    inside = _inside(target.domain)
    _on_grid(schedule.f_sequence[0], target.domain, "the schedule")
    for k, f in enumerate(schedule.f_sequence):
        if (f.flat[inside] < target.flat[inside] - MONOTONE_TOL).any():
            raise TargetNotAdmissible(
                f"approximant {k} drops below the target somewhere"
            )


def _bump_domination_constant(domain: GridDomain, g: MetricField, m: int) -> float:
    """Smallest doubling constant with C * F_m[Hessian of (|z|^2 - r^2)] >= 1."""
    bump = GridFunction(domain, domain.norms_squared - domain.radius ** 2)
    vals = fm_field(bump, g, m).flat[domain.interior_mask]
    if (vals <= 0.0).any():
        raise ConeEscape("the radial bump is not in the cone for this metric")
    C = 1.0
    while C * float(vals.min()) < 1.0:
        C *= 2.0
        if C > 2.0 ** 60:
            raise ConeEscape("no doubling constant satisfies the bump bound")
    return C


def _sequence_gaps(seq, target: GridFunction, inside: np.ndarray):
    """Differences of consecutive iterates with their worst value on
    ``inside``, the worst excess of the target over an iterate, and each
    iterate's sup deviation from the target where the target is finite."""
    diffs = [b.flat - a.flat for a, b in zip(seq, seq[1:])]
    worst = [float(d[inside].max()) for d in diffs]
    lower = max(float((target.flat - u.flat)[inside].max()) for u in seq)
    finite = inside & (target.flat > NEG_INFINITY_FLOOR)
    deviations = tuple(float(np.abs(u.flat - target.flat)[finite].max())
                       for u in seq)
    return diffs, worst, lower, deviations


def _greedy_schedule(target, schedule, iterates, diagnostics, prepare,
                     solve) -> RegularizationResult:
    """The one loop of both pipelines: selection, sub-solves, assembly.

    ``prepare(f_j, beta_j)`` returns ``(admissible, envelope, data)`` and
    runs at most once per index j.  The first admissible index is solved,
    then each first admissible index after the last chosen one whose
    envelope stays below the current shifted solution inside the grid.
    ``solve(f_j, beta_j, data)`` returns the sub-solve's report, the shift
    of its solution and a dict filed under ``diagnostics[key][j]``; its
    NewtonDiverged or ConeEscape is a DirichletFailure naming j.
    """
    domain = target.domain
    inside = _inside(domain)
    prepared = {}
    order, shifted, margins = [], [], []
    while len(order) < max(iterates, 1):
        for j in range(order[-1] + 1 if order else 0, len(schedule)):
            f_j, beta_j = schedule.f_sequence[j], schedule.beta_schedule[j]
            if j not in prepared:
                prepared[j] = prepare(f_j, beta_j)
            admissible, envelope, data = prepared[j]
            if admissible and (not shifted or (
                    envelope[inside]
                    <= shifted[-1][inside] + MONOTONE_TOL).all()):
                break
        else:
            if not order:
                raise ScheduleExhausted(
                    "no penalty parameter is large enough for its approximant"
                )
            raise ScheduleExhausted(
                f"no admissible index after {order[-1]} for iterate "
                f"{len(order) + 1}; extend the penalty schedule"
            )
        try:
            report, shift, per_index = solve(f_j, beta_j, data)
        except (NewtonDiverged, ConeEscape) as exc:
            raise DirichletFailure(j, exc) from exc
        for key, value in per_index.items():
            diagnostics.setdefault(key, {})[j] = value
        shifted.append(report.solution.flat + shift)
        margins.append(report.min_cone_margin)
        order.append(j)
    seq = [GridFunction(domain, values) for values in shifted]
    _, worst, lower, deviations = _sequence_gaps(seq, target, inside)
    return RegularizationResult(
        u_sequence=tuple(seq),
        monotone_gap=max(worst, default=0.0),
        lower_gap=lower,
        sup_deviation=deviations,
        indices=tuple(order),
        cone_margins=tuple(margins),
        diagnostics=diagnostics,
    )


def local_regularize(u: GridFunction, g: MetricField, m: int,
                     schedule: ApproximationSchedule,
                     cfg: SolverConfig = SolverConfig(),
                     iterates: int = 3) -> RegularizationResult:
    """Decreasing smooth strictly cone-interior approximation on a ball.

    Solves the penalized Dirichlet problem for selected schedule indices,
    shifts each solution by its correction terms, and selects indices
    greedily so the shifted solutions decrease nodewise while staying above
    the target.  Every index is admissible, so the first one is index 0.
    """
    domain = u.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("local regularization runs on a ball grid")
    _check_target(u, g, m)
    _check_dominates(schedule, u)
    r = domain.radius
    C = _bump_domination_constant(domain, g, m)
    inside = _inside(domain)
    interior = domain.interior_mask

    def prepare(f_j, beta):
        plus = fm_field(f_j, g, m).flat[interior]
        c_j = max(float(plus.max()), math.e)
        envelope = f_j.flat + (2.0 * C * r ** 2 + math.log(c_j)
                               + math.log(2.0 * beta)) / beta
        return True, envelope, c_j

    def solve(f_j, beta, c_j):
        report = solve_dirichlet(
            f_j, RightHandSide.penalized_distance(beta, f_j), g, m, cfg)
        sol = report.solution.flat
        shift = 2.0 * C * r ** 2 / beta + math.log(2.0 * beta) / beta
        return report, shift, {
            "upper_bound_gaps": float(
                (sol - f_j.flat - math.log(c_j) / beta)[inside].max()),
            "lower_bound_gaps": float(
                (u.flat - sol - C * r ** 2 / beta
                 - math.log(2.0 * beta) / beta)[inside].max()),
            "c_constants": c_j,
            "max_principle_gaps": report.max_principle_gap,
        }

    return _greedy_schedule(u, schedule, iterates,
                            {"subsolution_constant": C, "mode": "local"},
                            prepare, solve)


def global_regularize(phi: GridFunction, chi: HermitianMatrix, g: MetricField,
                      m: int, schedule: ApproximationSchedule,
                      cfg: SolverConfig = SolverConfig(),
                      iterates: int = 3) -> RegularizationResult:
    """Decreasing approximation on the torus for a chi-shifted target.

    An index is admissible when its penalty parameter beats the corridor
    constant of its approximant; the selection skips the others.
    """
    domain = phi.domain
    if domain.kind != TORUS:
        raise DimensionMismatchError("global regularization runs on a torus grid")
    fm_chi = check_chi_positive(chi, g, m)
    _check_target(phi, g, m, chi=chi)
    _check_dominates(schedule, phi)

    def prepare(f_j, beta):
        plus = fm_field(f_j, g, m, chi=chi).flat
        corridor = np.clip(_smooth_pass(plus + 0.75, domain), plus + 0.5,
                           plus + 1.0)
        C_j = float(np.log(2.0 * corridor / fm_chi).max())
        needed = -float(f_j.flat.min()) + C_j
        envelope = f_j.flat + 2.0 * math.log(beta) / beta
        return math.log(beta) > needed, envelope, (corridor, C_j)

    def solve(f_j, beta, data):
        corridor, C_j = data
        report = solve_torus(chi, RightHandSide.penalized_corridor(
            beta, f_j, GridFunction(domain, corridor), fm_chi), g, m, cfg)
        sol = report.solution.flat
        shift = 2.0 * math.log(beta) / beta
        scaled = (1.0 - 1.0 / beta) * phi.flat
        return report, shift, {
            "sandwich": {
                "first_gap": float((scaled - phi.flat).min()),
                "middle_slack": float((sol + shift - scaled).min()),
                "third_gap": float((sol - f_j.flat).max()),
            },
            "corridor_constants": C_j,
        }

    return _greedy_schedule(phi, schedule, iterates, {"mode": "global"},
                            prepare, solve)


def verify_monotone_convergence(result: RegularizationResult,
                                target: GridFunction) -> ConvergenceReport:
    """Check monotonicity, domination of the target, and shrinking deviation."""
    domain = target.domain
    for k, u in enumerate(result.u_sequence):
        _on_grid(u, domain, f"iterate {k}")
    inside = _inside(domain)
    diffs, worsts, lower, deviations = _sequence_gaps(result.u_sequence,
                                                      target, inside)
    mono = 0.0
    violation = None
    for diff, worst in zip(diffs, worsts):
        if worst > mono:
            mono = worst
            if worst > GAP_TOL:
                flat = int(np.flatnonzero(inside & (diff >= worst - 1e-15))[0])
                violation = tuple(int(i) for i
                                  in np.unravel_index(flat, domain.shape))
    nonincreasing = all(b <= a + GAP_TOL
                        for a, b in zip(deviations, deviations[1:]))
    passed = mono <= GAP_TOL and lower <= GAP_TOL and nonincreasing
    return ConvergenceReport(
        monotone_gap=mono,
        lower_gap=lower,
        sup_deviations=deviations,
        deviations_nonincreasing=nonincreasing,
        passed=passed,
        violation_node=violation,
    )

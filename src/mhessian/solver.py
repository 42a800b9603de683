"""Damped Newton solver for the nodewise eigenvalue-sum equation.

Solves ``F_m[discrete complex Hessian of u] = G(z, u)`` on ball grids with
Dirichlet boundary data and the periodic analogue ``F_m[chi + Hessian] =
G(z, u)`` on torus grids.  At m < n each node's F_m is the C(n, m)-th root
of det D_m(H), the derivation of its folded Hessian H on the m-th exterior
power, whose eigenvalues are the m-fold sums (``fm.determinant_route``);
its cone test is the positive definiteness of D_m(H) less the floor, and
the Newton linearization combines the adjugate of D_m(H) with the
finite-difference stencil weights, so neither Newton nor the subsolution
seed solves an eigenproblem.  Steps are damped by
halving until every node's Hessian keeps its minimal m-fold eigenvalue sum
above the cone floor.  Every Newton step is inexact: Jacobi-preconditioned
BiCGSTAB solves the linearization only to an Eisenstat-Walker forcing
term, at every grid size and every m.  A Dirichlet solve is a homotopy
from its start, a given iterate or the subsolution ``C(|z|^2 - r^2) + f``,
to the target equation; with one stage it is Newton on the target equation
itself.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .errors import (
    ChiNotPositive,
    ConeEscape,
    ConfigError,
    DimensionMismatchError,
    IllPosedRHS,
    NewtonDiverged,
)
from .fm import DeterminantFm, _check_m, determinant_derivative, \
    geometric_mean_clamped
from .grids import (
    BALL,
    TORUS,
    GridDomain,
    GridFunction,
    MetricField,
    NodalOperator,
    _on_grid,
)
from .hermitian import HermitianMatrix, relative_eigenvalues
from .multiindex import subset_sums

# exponent window of every right-hand side; the upper clamp only affects
# transient Newton states, the lower one avoids spurious zero slopes
EXP_CLAMP_LO = -500.0
EXP_CLAMP_HI = 40.0
# Newton's iteration budget, floor on every iterate's least m-sum and
# smallest line-search step: no caller sets them
MAX_ITERATIONS = 100
CONE_FLOOR = 1e-10
DAMPING_MIN_STEP = 2.0 ** -20
# least m-sum the subsolution seed must reach before the boundary write-back
SEED_MARGIN = 1e-8
# the inexact Newton steps: the cap on every forcing term and the
# constants of Eisenstat and Walker's choice 2
ETA_MAX = 0.1
FORCING_GAMMA = 0.9
FORCING_ALPHA = 2


@dataclass(frozen=True)
class SolverConfig:
    """Newton's residual tolerance, finite and >= 0, and an optional start."""

    tolerance: float = 1e-9
    initial: GridFunction = None

    def __post_init__(self):
        if not 0.0 <= self.tolerance < math.inf:
            raise ConfigError("solver tolerance must be finite and >= 0, "
                              f"got {self.tolerance}")


class _SampledRHS(NamedTuple):
    """A right-hand side at the unknowns of one solve."""

    a: np.ndarray
    s: np.ndarray
    beta: float
    c: float

    def __call__(self, t):
        """G and dG/dt at the values t of the unknowns."""
        e = np.exp(np.clip(self.beta * (t - self.s),
                           EXP_CLAMP_LO, EXP_CLAMP_HI))
        G = self.a * e + self.c
        dG = self.beta * e * self.a
        if not np.isfinite(G).all() or not np.isfinite(dG).all():
            raise IllPosedRHS("right-hand side returned non-finite values")
        if (G <= 0.0).any():
            raise IllPosedRHS("right-hand side must be strictly positive")
        if (dG <= 0.0).any():
            raise IllPosedRHS("right-hand side must be increasing in t")
        return G, dG

    def root(self, value):
        """The t at which G(z, t) = value at every unknown, read without
        the exponent clamp: s + log((value - c) / a) / beta.  It is not
        finite where there is none, as where a <= 0 or value <= c, and
        numpy warns of nothing."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self.s + np.log((value - self.c) / self.a) / self.beta


@dataclass(frozen=True)
class RightHandSide:
    """G(z, t) = a(z) exp(beta (t - s(z))) + c, exponent clipped to
    [EXP_CLAMP_LO, EXP_CLAMP_HI], positive and increasing in t at every
    iterate.  a and s are each a grid function or a coordinate callable,
    mapping coordinate arrays (K, 2n) to (K,), sampled once per solve."""

    amplitude: object
    shift: object
    beta: float = 1.0
    offset: float = 0.0

    @property
    def reference(self) -> GridFunction:
        """The penalized f of a penalized kind, where a torus solve starts."""
        return self.shift if isinstance(self.shift, GridFunction) else None

    def sample(self, domain: GridDomain, nodes: np.ndarray) -> _SampledRHS:
        """The right-hand side at ``nodes`` of ``domain``; s must be finite."""
        a, s = (_on_grid(part, domain, "right-hand side").flat[nodes]
                if isinstance(part, GridFunction)
                else np.asarray(part(domain.coords[nodes]), dtype=float)
                for part in (self.amplitude, self.shift))
        for name, part in (("amplitude", a), ("shift", s)):
            if part.shape != nodes.shape:
                raise IllPosedRHS(f"right-hand side {name} has shape "
                                  f"{part.shape}, expected {nodes.shape}")
        if not np.isfinite(s).all():
            raise IllPosedRHS("right-hand side shift must be finite")
        return _SampledRHS(a, s, self.beta, self.offset)

    @classmethod
    def scaled_exponential(cls, amplitude, shift) -> "RightHandSide":
        """G(z, t) = amplitude(z) * exp(t - shift(z)), both callables."""
        return cls(amplitude, shift)

    @classmethod
    def manufactured_quadratic(cls, m: int) -> "RightHandSide":
        """G(z, t) = m * exp(t - |z|^2); the squared norm solves the equation."""
        return cls(lambda c: np.full(c.shape[0], float(m)),
                   lambda c: (c ** 2).sum(axis=-1))

    @classmethod
    def penalized_distance(cls, beta: float,
                           reference: GridFunction) -> "RightHandSide":
        """G(z, t) = exp(beta (t - f(z))) + 1 / (2 beta), unit corridor."""
        return cls.penalized_corridor(
            beta, reference, GridFunction.constant(reference.domain, 1.0), 1.0)

    @classmethod
    def penalized_corridor(cls, beta: float, reference: GridFunction,
                           corridor: GridFunction,
                           background_value: float) -> "RightHandSide":
        """G(z, t) = corridor(z) * exp(beta (t - f(z))) + background/(2 beta)."""
        if not beta > math.e:
            raise IllPosedRHS(f"penalty parameter must exceed e, got {beta}")
        if not background_value > 0:
            raise IllPosedRHS("background operator value must be positive")
        return cls(corridor, reference, beta, background_value / (2.0 * beta))


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction
    iterations: int
    final_residual: float
    min_cone_margin: float
    max_principle_gap: float

    def to_json(self) -> dict:
        return {
            "iterations": int(self.iterations),
            "final_residual": float(self.final_residual),
            "min_cone_margin": float(self.min_cone_margin),
            "max_principle_gap": (None if np.isnan(self.max_principle_gap)
                                  else float(self.max_principle_gap)),
        }


class _FmOperator(NodalOperator):
    """Vectorized residual/Jacobian assembly over the evaluation nodes."""

    def __init__(self, domain: GridDomain, g: MetricField, m: int,
                 chi: HermitianMatrix = None):
        super().__init__(domain, g, m, chi)
        # at m = n, F_n = tr H is linear in u and the Jacobian is the fixed
        # trace stencil, exactly symmetric with -J positive definite (see
        # ``jacobian``)
        self.symmetric = m == domain.n
        if self.symmetric:
            self.rows = self.trace_rows
        else:
            self.rows = np.arange(len(self.weights))
            self.row_weights = self.weights.reshape(len(self.rows),
                                                    -1).view(float)
        # unknowns: interior nodes (ball) or every node (torus)
        self.indices, self.indptr, slot, self.center, self.diagonal = \
            domain.jacobian_pattern(self.rows)
        if self.symmetric:
            # L's CSR data, whose diagonal ``jacobian`` overwrites, gathered
            # from the trace weights through the int8 rows: ``take`` costs
            # half of indexing with them, and in blocks of 2^14 entries the
            # intp copy of the rows it makes stays small
            self.stencil = np.empty(slot.size)
            for i in range(0, slot.size, 2 ** 14):
                np.take(self.trace_weights, slot[i:i + 2 ** 14],
                        out=self.stencil[i:i + 2 ** 14])
        else:
            self.src = domain.jacobian_gather(self.rows)

    def rhs_values(self, u_flat, rhs: _SampledRHS, homotopy=None):
        """G(z, u) and its slope in u at the evaluation nodes.

        ``homotopy = (t, base_field)`` blends the right-hand side as
        t*G + (1-t)*base_field, and its slope as t*dG.
        """
        G, dG = rhs(u_flat[self.nodes])
        if homotopy is not None:
            t, base = homotopy
            G = t * G + (1.0 - t) * base
            dG = t * dG
        return G, dG

    def jacobian(self, nodal: DeterminantFm, dG):
        """The Jacobian in CSR form and its diagonal, the centre entries, at
        the iterate whose nodal quantities, from ``evaluate``, are ``nodal``
        and whose right-hand side slope is ``dG``.

        Node k's row holds the entries Re tr(W_s M_k) - [s = 0] dG_k over
        the operator's stencil rows s, with M_k the derivative of F_m at
        H_k, dF_m = tr(M_k dH).  At m < n, M_k is
        ``fm.determinant_derivative``'s, from the adjugate of the
        iterate's own D_m(H_k) and its F_m, with no eigenvector.  At m = n, F_n = tr H is linear in u: M_k = I, the
        entries are tr W_s, the same at every iterate, and J is the trace
        stencil L - diag(dG), exactly symmetric since W_{-s} = W_s.  The
        rows whose folded weight has zero trace hold only zeros and are
        left out.  There neither the Hessians nor M are needed.  The
        operator holds L's CSR data once, and each call writes the diagonal
        of L - diag(dG) into it and returns J on that data: a J holds until
        the next call, as ``_newton`` keeps it.  A copy per call would keep
        a second (nnz,) array alive through every linear solve.
        """
        K = self.nodes.size
        if self.symmetric:
            diag = self.trace_weights[self.center] - dG
            self.stencil[self.diagonal] = diag
            return scipy.sparse.csr_matrix(
                (self.stencil, self.indices, self.indptr), shape=(K, K)), diag
        M = determinant_derivative(nodal, self.domain.n, self.m)
        # entry (i, k) is Re sum_pq W_s[q, p] M_k[p, q], s = rows[i]: the
        # real dot product of the Hermitian W_s with M_k, one real GEMM
        entries = self.row_weights @ M.reshape(K, -1).view(float).T
        entries[self.center] -= dG
        J = scipy.sparse.csr_matrix(
            (entries.ravel()[self.src], self.indices, self.indptr),
            shape=(K, K))
        # a copy: a view would keep every stencil row alive through the solve
        return J, entries[self.center].copy()


def _matvec(J, x):
    """``J @ x`` for a CSR matrix J: the compiled kernel that scipy's
    ``__matmul__`` runs after its dispatch, called directly."""
    y = np.zeros(J.shape[0])
    csr_matvec(J.shape[0], J.shape[1], J.indptr, J.indices, J.data, x, y)
    return y


def _bicgstab(J, b, psolve, rtol, atol, maxiter):
    """Right-preconditioned BiCGSTAB (van der Vorst 1992) for J x = b.

    Statement by statement the arithmetic of scipy 1.17's sparse
    ``bicgstab`` from a zero initial guess, so ``(x, info)`` are
    bit-identical to it.  On the small Jacobians of C^1 grids the Python
    overhead around the arithmetic took most of the solve, so the loop
    skips all of it: no LinearOperator, products through scipy's
    ``csr_matvec`` kernel with no ``__matmul__`` dispatch, norms as
    ``sqrt(v.dot(v))`` (what ``np.linalg.norm`` computes for a real
    vector), scalars as Python floats and every ``a -= s * b`` through one
    work vector.  J must be CSR, since the kernel would read a CSC
    matrix's arrays as its transpose, and b of J's size, since it checks no
    lengths.  ``psolve`` applies the preconditioner.  ``info`` is 0 on
    convergence, -10 on rho breakdown, -11 on omega breakdown and
    ``maxiter`` when the iterations run out.
    """
    if J.format != "csr":
        raise ValueError(f"_bicgstab needs a CSR matrix, got {J.format}")
    if J.shape != b.shape * 2:
        raise ValueError(f"_bicgstab got a {J.shape} matrix and a "
                         f"right-hand side of shape {b.shape}")
    bnrm2 = math.sqrt(b.dot(b))
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b, 0
    # scipy's tolerance for both breakdowns (eps squared, as in the
    # original Fortran)
    rhotol = omegatol = float(np.finfo(b.dtype).eps) ** 2
    x = np.zeros_like(b)
    r = b.copy()
    rtilde = r.copy()
    work = np.empty_like(b)
    for iteration in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:
            return x, 0
        rho = float(rtilde.dot(r))
        if abs(rho) < rhotol:
            return x, -10
        if iteration > 0:
            if abs(omega) < omegatol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= np.multiply(v, omega, out=work)
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = _matvec(J, phat)
        rv = float(rtilde.dot(v))
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= np.multiply(v, alpha, out=work)
        # scipy copies r into a vector s here; r itself holds the same
        # values until the last update below
        if math.sqrt(r.dot(r)) < atol:
            x += np.multiply(phat, alpha, out=work)
            return x, 0
        shat = psolve(r)
        t = _matvec(J, shat)
        # numpy scalars divide as scipy's do: t = 0 gives nan, not an error
        omega = float(t.dot(r) / t.dot(t))
        x += np.multiply(phat, alpha, out=work)
        x += np.multiply(shat, omega, out=work)
        r -= np.multiply(t, omega, out=work)
        rho_prev = rho
    return x, maxiter


def _forcing_term(rnorm, rnorm_prev, r2norm, tolerance):
    """Eisenstat and Walker's choice 2 of the forcing term of an inexact
    Newton step: gamma (rnorm / rnorm_prev)^alpha, or ETA_MAX on the first
    step (``rnorm_prev`` None), clipped to [max(1e-13, 0.5 tolerance /
    r2norm), ETA_MAX]; ETA_MAX wins when that interval is empty.  rnorm
    and rnorm_prev are the max-norm Newton residuals of the step and of the
    one before, r2norm the 2-norm of the step's residual.

    The floor is in the norm of the step contract |J delta + r|_inf <=
    eta |r|_2, so a step at the floor leaves a linear residual of at most
    tolerance / 2 in the max norm; a floor on the max norm of r would let
    it leave up to sqrt(K) tolerance / 2 on K unknowns, and cost a Newton
    iteration.
    """
    eta = (ETA_MAX if rnorm_prev is None
           else FORCING_GAMMA * (rnorm / rnorm_prev) ** FORCING_ALPHA)
    # EW's safeguard (gamma eta_prev^alpha when that exceeds 0.1) is left
    # out: with ETA_MAX = 0.1 it can never bind, since 0.9 * 0.01 < 0.1
    return min(max(eta, 1e-13, 0.5 * tolerance / r2norm), ETA_MAX)


def _two_norm(r, rnorm):
    """|r|_2 of r, whose max norm is rnorm > 0, taken on r / rnorm: its
    squares sum to between 1 and r.size, so they neither overflow nor all
    underflow."""
    s = r / rnorm
    return rnorm * math.sqrt(s.dot(s))


def _linear_solve(J, r, diag, eta):
    """Inexact Newton step delta for J delta = -r: |J delta + r| in the max
    norm is at most the forcing term ``eta`` times the 2-norm of r, a bound
    that BiCGSTAB's own stopping test at rtol = eta implies.
    ``_forcing_term`` floors eta in that same 2-norm, so at the floor the
    bound is half the Newton tolerance.

    Jacobi-preconditioned BiCGSTAB on ``diag``, the diagonal of J, solves
    it, stopping at max(1e-14 |r|, eta |r|_2).  Its recursively updated
    residual can drift from the true one, J delta + r (van der Vorst and Ye
    2000), so a run may stop and still miss the bound.  It then restarts
    once from its step delta_1, on the true residual: J delta_2 = -(J
    delta_1 + r), with the same preconditioner and stopping target, and the
    step is delta_1 + delta_2.  A miss of the restart, or a zero on the
    diagonal, is a NewtonDiverged; the operator Jacobians have a negative
    diagonal, so only an overflow or underflow makes a zero.
    """
    if not (diag != 0.0).all():
        raise NewtonDiverged("zero on the Jacobian diagonal: Jacobi-BiCGSTAB "
                             "cannot run")
    denom = max(float(np.abs(r).max()), 1e-300)
    # the breakdown tests are absolute, so the loop solves for r scaled by
    # the power of two that brings |r| into [1, 2); the scaling is exact
    # and the tolerances mean the same at every scale of r
    scale = math.ldexp(1.0, 1 - math.frexp(denom)[1])
    r = r * scale
    denom = denom * scale
    bound = eta * math.sqrt(r.dot(r))
    rtol, atol = eta, 1e-14 * denom
    # -0.0 is the identity of IEEE addition: the first step keeps its bits
    delta, residual = -0.0, r
    for _ in range(2):
        # a division: multiplying by a cached reciprocal rounds differently
        # and would lose bit identity with scipy's loop
        step, info = _bicgstab(J, -residual, lambda x: x / diag, rtol=rtol,
                               atol=atol, maxiter=1000)
        delta = delta + step
        residual = _matvec(J, delta) + r
        miss = float(np.abs(residual).max())
        if info == 0 and miss <= bound:
            return delta / scale
        # the restart stops at the first run's absolute target
        rtol, atol = 0.0, max(atol, bound)
    raise NewtonDiverged(
        "Jacobi-BiCGSTAB failed the residual contract after one restart "
        f"(BiCGSTAB info={info}, true residual {miss / denom:.3e} |r|, "
        f"bound {bound / denom:.3e} |r|)")


def _margin(op: _FmOperator, u_flat: np.ndarray) -> float:
    """The least m-fold relative eigenvalue sum of ``u_flat`` over the
    evaluation nodes, for reports and messages: Newton itself takes none."""
    return float(op.sigma(u_flat).min())


def _start(op: _FmOperator, u_flat: np.ndarray,
           where: str = "") -> DeterminantFm:
    """The nodal quantities of a solve's start, which must lie strictly
    inside the cone: the right-hand side may be undefined outside it."""
    nodal = op.evaluate(u_flat, CONE_FLOOR)
    if nodal is None:
        raise ConeEscape(
            f"initial iterate has cone margin {_margin(op, u_flat):.3e}, "
            f"below the floor {CONE_FLOOR:.1e}{where}"
        )
    return nodal


def _newton(op: _FmOperator, rhs: _SampledRHS, u0_flat: np.ndarray,
            nodal: DeterminantFm, cfg: SolverConfig, homotopy=None):
    """Damped Newton from ``u0_flat`` and its nodal quantities ``nodal``,
    strictly inside the cone: (u, iterations, residual, nodal quantities
    of u).

    Each Newton iteration evaluates every nodal quantity once.  Every trial
    step evaluates G, then F_m; a trial outside the cone, or whose residual
    does not drop, is halved.  The accepted trial's nodal quantities and
    right-hand side slope give the next Jacobian; the least m-sum, an
    eigensolve at m < n, is taken only for a failure message.  Each
    step's forcing term comes from the residuals of this call alone,
    ETA_MAX on its first step, and bounds that step's linear residual (see
    ``_linear_solve``).  The solve converges when the max-norm residual is
    at most ``cfg.tolerance``, whichever steps it took.
    """
    u = u0_flat.copy()
    G, dG = op.rhs_values(u, rhs, homotopy)
    r = nodal.fm - G
    rnorm = float(np.abs(r).max())
    rnorm_prev = None

    def where():
        return (f"at Newton iteration {it} (residual {rnorm:.3e}, "
                f"cone margin {_margin(op, u):.3e})")

    for it in range(MAX_ITERATIONS):
        if rnorm <= cfg.tolerance:
            return u, it, rnorm, nodal
        eta = _forcing_term(rnorm, rnorm_prev, _two_norm(r, rnorm),
                            cfg.tolerance)
        J, diag = op.jacobian(nodal, dG)
        try:
            delta_unknown = _linear_solve(J, r, diag, eta)
        except NewtonDiverged as exc:
            exc.args = (f"{exc.args[0]} {where()}",)
            raise
        del J, diag  # not needed through the line search
        step = 1.0
        cone_blocked = True
        while step >= DAMPING_MIN_STEP:
            trial = u.copy()
            trial[op.nodes] += step * delta_unknown
            G_trial, dG_trial = op.rhs_values(trial, rhs, homotopy)
            trial_nodal = op.evaluate(trial, CONE_FLOOR)
            if trial_nodal is not None:
                cone_blocked = False
                r_trial = trial_nodal.fm - G_trial
                r_trial_norm = float(np.abs(r_trial).max())
                if r_trial_norm < rnorm:
                    u, nodal, dG = trial, trial_nodal, dG_trial
                    r, rnorm, rnorm_prev = r_trial, r_trial_norm, rnorm
                    break
            step *= 0.5
        else:
            if cone_blocked:
                raise ConeEscape(
                    "no damping step keeps the iterate strictly inside the "
                    f"cone {where()}"
                )
            raise NewtonDiverged(
                f"no damped step reduced the residual {where()}"
            )
    if rnorm <= cfg.tolerance:
        return u, MAX_ITERATIONS, rnorm, nodal
    raise NewtonDiverged(
        f"residual {rnorm:.3e} above tolerance {cfg.tolerance:.1e} after "
        f"{MAX_ITERATIONS} iterations (cone margin {_margin(op, u):.3e})"
    )


def _max_principle_gap(domain: GridDomain, u_flat, f: GridFunction) -> float:
    if domain.kind != BALL:
        return float("nan")
    boundary = _on_grid(f, domain, "boundary data").flat[domain.boundary_mask]
    return float(u_flat[domain.interior_mask].max()) - float(boundary.max())


def _report(domain: GridDomain, u_flat, iterations, rnorm, margin,
            f: GridFunction = None) -> SolveReport:
    """The report of a solve that ended at ``u_flat``, zero on the
    exterior; a ball solve passes its boundary data f."""
    return SolveReport(
        solution=GridFunction(domain,
                              np.where(domain.exterior_mask, 0.0, u_flat)),
        iterations=iterations,
        final_residual=rnorm,
        min_cone_margin=margin,
        max_principle_gap=_max_principle_gap(domain, u_flat, f),
    )


def subsolution_seed(f: GridFunction, g: MetricField, m: int):
    """Seed C(|z|^2 - r^2) + f, doubling C until ``NodalOperator.evaluate``
    finds every least m-fold sum above SEED_MARGIN, as Newton tests
    iterates.

    The cone test sees the seed as built, before ``continuity_path`` writes
    f back onto the boundary layer.  Writing it back changes the Hessians
    of the interior nodes next to that layer, by an amount that grows with
    C, so the iterate the solve starts from can still leave the cone: on
    the C^2 unit ball with f = |z|^2 it does from 17 points per axis, and
    the solve raises ConeEscape.
    """
    domain = f.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("the subsolution seed is a ball construction")
    op = NodalOperator(domain, g, m)
    bump = domain.norms_squared - domain.radius ** 2
    C = 1.0
    while C < 2.0 ** 60:
        u = f.flat + C * bump
        if op.evaluate(u, SEED_MARGIN) is not None:
            return GridFunction(domain, u), C
        C *= 2.0
    raise ConeEscape("no doubling of the subsolution constant entered the cone")


def solve_dirichlet(f: GridFunction, rhs: RightHandSide, g: MetricField,
                    m: int, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Solve the nodewise equation on a ball with boundary values from f:
    damped Newton from the start, the one-stage ``continuity_path``."""
    return continuity_path(f, rhs, g, m, cfg, t_steps=1)


def check_chi_positive(chi: HermitianMatrix, g: MetricField, m: int) -> float:
    """F_m[chi] relative to the metric; raise ChiNotPositive unless chi
    lies in the open m-cone of the metric."""
    _check_m(g.domain.n, m)
    sums = subset_sums(relative_eigenvalues(chi, g.constant).lambdas, m)
    margin = float(sums.min())
    if not margin > 0.0:
        raise ChiNotPositive(
            f"background form has minimal m-sum {margin:.3e} <= 0"
        )
    return float(geometric_mean_clamped(sums))


def _torus_start(op: _FmOperator, rhs: RightHandSide, sampled: _SampledRHS,
                 fm_chi: float):
    """The start of a torus solve given none, and its nodal quantities.

    It is the pointwise root of G(z, t) = F_m[chi] at every node, the
    leading term of the solution for a large penalty beta: it solves the
    equation but for its own Hessian, so Newton starts where G, whose
    exponent is beta t, already takes about the values it must reach.
    Where that root is not finite, or not strictly inside the cone, the
    start is the constant min f of a penalized f, or 0.  The root is
    tested with numpy's warnings off: an overflow only sends it to the
    constant.
    """
    u0 = sampled.root(fm_chi)  # every torus node is an unknown, in order
    if np.isfinite(u0).all():
        with np.errstate(all="ignore"):
            nodal = op.evaluate(u0, CONE_FLOOR)
        if nodal is not None:
            return u0, nodal
    u0 = np.full(op.domain.node_count, 0.0 if rhs.reference is None
                 else float(rhs.reference.flat.min()))
    return u0, _start(op, u0)


def solve_torus(chi: HermitianMatrix, rhs: RightHandSide, g: MetricField,
                m: int, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Solve the periodic equation for the chi-shifted Hessian, from
    ``cfg.initial`` or else from ``_torus_start``."""
    domain = g.domain
    if domain.kind != TORUS:
        raise DimensionMismatchError("solve_torus expects a torus grid")
    fm_chi = check_chi_positive(chi, g, m)
    op = _FmOperator(domain, g, m, chi=chi)
    sampled = rhs.sample(domain, op.nodes)
    if cfg.initial is not None:
        u0 = _on_grid(cfg.initial, domain, "initial iterate").flat.copy()
        nodal = _start(op, u0)
    else:
        u0, nodal = _torus_start(op, rhs, sampled, fm_chi)
    u, iters, rnorm, nodal = _newton(op, sampled, u0, nodal, cfg)
    return _report(domain, u, iters, rnorm, _margin(op, u))


def continuity_path(f: GridFunction, rhs: RightHandSide, g: MetricField,
                    m: int, cfg: SolverConfig = SolverConfig(),
                    t_steps: int = 8) -> SolveReport:
    """Homotopy from the start to the target equation on a ball.

    The start is ``cfg.initial``, or else the subsolution seed, with f
    written onto the boundary layer.  Solves the blend ``F_m = t G +
    (1 - t) F_m[start]`` on a uniform t-grid, warm-starting each stage; the
    t = 0 stage is exact by construction.  ``t_steps = 1`` is damped Newton
    on the target equation itself, with no blend.  A start not strictly
    inside the cone raises ConeEscape naming stage t = 0.
    """
    domain = f.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("a Dirichlet solve expects a ball grid")
    if t_steps < 1:
        raise DimensionMismatchError("need at least one homotopy step")
    op = _FmOperator(domain, g, m)
    sampled = rhs.sample(domain, op.nodes)
    if cfg.initial is not None:
        u = _on_grid(cfg.initial, domain, "initial iterate").flat.copy()
    else:
        u = subsolution_seed(f, g, m)[0].flat.copy()
    u[domain.boundary_mask] = f.flat[domain.boundary_mask]
    # the start is tested once, as stage t = 0, whatever t_steps is
    nodal = _start(op, u, " (homotopy stage t=0)")
    stages = [None]
    if t_steps > 1:
        stages = [(float(t), nodal.fm)
                  for t in np.linspace(0.0, 1.0, t_steps + 1)[1:]]
    iters_total = 0
    for homotopy in stages:
        try:
            u, iters, rnorm, nodal = _newton(op, sampled, u, nodal, cfg,
                                             homotopy)
        except (NewtonDiverged, ConeEscape) as exc:
            if homotopy is not None:
                exc.args = (f"{exc.args[0]} (homotopy stage "
                            f"t={homotopy[0]:.3f})",)
            raise
        iters_total += iters
    return _report(domain, u, iters_total, rnorm, _margin(op, u), f)


def max_principle_check(report: SolveReport, f: GridFunction) -> float:
    """Sup over interior nodes of u minus the boundary sup of f.

    Non-positive (within 1e-8) certifies the discrete maximum principle.
    """
    domain = report.solution.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("the maximum principle check needs a ball solve")
    return _max_principle_gap(domain, report.solution.flat, f)

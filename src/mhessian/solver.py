"""Damped Newton solver for the nodewise eigenvalue-sum equation.

Solves ``F_m[discrete complex Hessian of u] = G(z, u)`` on ball grids with
Dirichlet boundary data and the periodic analogue ``F_m[chi + Hessian] =
G(z, u)`` on torus grids.  The Newton linearization at a node combines the
diagonal derivative formula of the operator, transported through the nodal
eigenbasis, with the finite-difference stencil weights; steps are damped by
halving until every node's Hessian keeps a strictly positive minimal m-fold
eigenvalue sum.  An optional homotopy interpolates from the exactly known
subsolution ``C(|z|^2 - r^2) + f`` to the target equation.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse._sparsetools import csr_matvec

from .errors import (
    ChiNotPositive,
    ConeEscape,
    DimensionMismatchError,
    IllPosedRHS,
    NewtonDiverged,
)
from .fm import fm_gradient_diagonal, geometric_mean_clamped
from .grids import (
    BALL,
    TORUS,
    GridDomain,
    GridFunction,
    MetricField,
    NodalOperator,
    _eigh,
)
from .hermitian import HermitianMatrix, relative_eigenvalues
from .multiindex import subset_sums

logger = logging.getLogger(__name__)

# exponent window for exponential right-hand sides; the upper clamp only
# affects transient Newton states, the lower one avoids spurious zero slopes
EXP_CLAMP_LO = -500.0
EXP_CLAMP_HI = 40.0


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-9
    max_iterations: int = 100
    cone_floor: float = 1e-10
    damping_min_step: float = 2.0 ** -20
    initial: GridFunction = None


@dataclass(frozen=True)
class RightHandSide:
    """Positive right-hand side G(z, t) increasing in t.

    ``evaluator(coords, t, flat_idx)`` returns (G, dG/dt) as arrays; ball
    solves (``strict``) require dG/dt strictly positive, torus solves only
    non-negative.
    """

    evaluator: callable
    reference: GridFunction = None

    def __call__(self, coords, t, flat_idx, strict=True):
        G, dG = self.evaluator(coords, np.asarray(t, dtype=float), flat_idx)
        G = np.asarray(G, dtype=float)
        dG = np.asarray(dG, dtype=float)
        if not np.isfinite(G).all() or not np.isfinite(dG).all():
            raise IllPosedRHS("right-hand side returned non-finite values")
        if (G <= 0.0).any():
            raise IllPosedRHS("right-hand side must be strictly positive")
        if strict:
            if (dG <= 0.0).any():
                raise IllPosedRHS("right-hand side must be increasing in t")
        elif (dG < 0.0).any():
            raise IllPosedRHS("right-hand side slope must be non-negative")
        return G, dG

    @classmethod
    def scaled_exponential(cls, amplitude, shift) -> "RightHandSide":
        """G(z, t) = amplitude(z) * exp(t - shift(z)).

        ``amplitude`` and ``shift`` map coordinate arrays (K, 2n) to (K,).
        """

        def evaluator(coords, t, idx):
            a = np.asarray(amplitude(coords), dtype=float)
            e = np.exp(np.clip(t - np.asarray(shift(coords), dtype=float),
                               EXP_CLAMP_LO, EXP_CLAMP_HI))
            return a * e, a * e

        return cls(evaluator=evaluator)

    @classmethod
    def manufactured_quadratic(cls, m: int) -> "RightHandSide":
        """G(z, t) = m * exp(t - |z|^2); the squared norm solves the equation."""
        return cls.scaled_exponential(
            lambda c: np.full(c.shape[0], float(m)),
            lambda c: (c ** 2).sum(axis=-1),
        )

    @classmethod
    def penalized_distance(cls, beta: float,
                           reference: GridFunction) -> "RightHandSide":
        """G(z, t) = exp(beta (t - f(z))) + 1 / (2 beta)."""
        if not beta > math.e:
            raise IllPosedRHS(f"penalty parameter must exceed e, got {beta}")
        ref_flat = reference.flat

        def evaluator(coords, t, idx):
            e = np.exp(np.clip(beta * (t - ref_flat[idx]),
                               EXP_CLAMP_LO, EXP_CLAMP_HI))
            return e + 1.0 / (2.0 * beta), beta * e

        return cls(evaluator=evaluator, reference=reference)

    @classmethod
    def penalized_corridor(cls, beta: float, reference: GridFunction,
                           corridor: GridFunction,
                           background_value: float) -> "RightHandSide":
        """G(z, t) = exp(beta (t - f(z))) * corridor(z) + background/(2 beta)."""
        if not beta > math.e:
            raise IllPosedRHS(f"penalty parameter must exceed e, got {beta}")
        if not background_value > 0:
            raise IllPosedRHS("background operator value must be positive")
        ref_flat = reference.flat
        cor_flat = corridor.flat
        if (cor_flat <= 0).any():
            raise IllPosedRHS("corridor field must be strictly positive")

        def evaluator(coords, t, idx):
            e = np.exp(np.clip(beta * (t - ref_flat[idx]),
                               EXP_CLAMP_LO, EXP_CLAMP_HI))
            c = cor_flat[idx]
            return e * c + background_value / (2.0 * beta), beta * e * c

        return cls(evaluator=evaluator, reference=reference)


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


class _Nodal(NamedTuple):
    """The nodal quantities of one iterate at the evaluation nodes."""

    H: np.ndarray      # folded Hessians, (K, n, n)
    margin: float      # the least m-fold relative eigenvalue sum
    fm: np.ndarray     # F_m per node; None unless the margin is positive


class _FmOperator(NodalOperator):
    """Vectorized residual/Jacobian assembly over the evaluation nodes."""

    def __init__(self, domain: GridDomain, g: MetricField, m: int,
                 chi: HermitianMatrix = None):
        super().__init__(domain, g, m, chi)
        self.coords = domain.coords[self.nodes]
        # unknowns: interior nodes (ball) or every node (torus)
        self.indices, self.indptr, self.src, self.center = \
            domain.jacobian_pattern
        # the trace of a Hessian takes only the stencil rows whose folded
        # weight has a nonzero trace: 9 of 25 at n = 2 with a diagonal metric
        traces = np.einsum("spp->s", self.weights).real
        rows = np.flatnonzero(traces)
        self.trace_weights = traces[rows]
        self.trace_neighbors = self.neighbors[rows]
        self.chi_trace = (0.0 if self.chi is None
                          else float(np.einsum("pp->", self.chi).real))
        # every value a Hessian gathers lies on these nodes
        self.support = np.flatnonzero(~domain.exterior_mask)
        self.weight_norm = float(np.linalg.norm(self.weights,
                                                axis=(1, 2)).sum())
        self.chi_norm = (0.0 if self.chi is None
                         else float(np.linalg.norm(self.chi)))

    def evaluate(self, u_flat: np.ndarray) -> _Nodal:
        """Hessians, cone margin and F_m of ``u_flat``, from one gather and
        one eigensolve."""
        H = self.hessians(u_flat)
        sums = subset_sums(_eigh(H, vectors=False), self.m)
        margin = float(sums.min())
        fm = geometric_mean_clamped(sums) if margin > 0.0 else None
        return _Nodal(H, margin, fm)

    def rhs_values(self, u_flat, rhs: RightHandSide, homotopy=None):
        """G(z, u) and its slope in u at the evaluation nodes.

        ``homotopy = (t, base_field)`` blends the right-hand side as
        t*G + (1-t)*base_field, and its slope as t*dG.
        """
        G, dG = rhs(self.coords, u_flat[self.nodes], self.nodes,
                    strict=self.domain.kind == BALL)
        if homotopy is not None:
            t, base = homotopy
            G = t * G + (1.0 - t) * base
            dG = t * dG
        return G, dG

    def residual_lower_bound(self, u_flat, G) -> float:
        """A number that the residual max |F_m - G| of ``u_flat``, as
        ``_newton`` computes it, reaches whenever every computed m-sum is
        positive; it needs no Hessian.

        By AM-GM on the m-sums, F_m <= (m/n) tr H on the cone, and the
        trace is linear in u.  The slack covers the rounding.  With U the
        largest |u| a Hessian gathers and B = U sum_s |W_s|_F + |chi|_F,
        every Hessian has |H|_F <= B; eps = 2^-53, n <= 4 (MAX_NODES), so
        at most 113 stencil rows and C(n, m) <= 6 sums:
        - the gathered Hessian is within sqrt(2) gamma_115 B <= 2^8 eps B
          of H in the Frobenius norm;
        - each computed eigenvalue is within 2^6 eps |H| of one of the
          gathered Hessian (backward stability; the closed forms at n <= 2
          are within a few ulps of the spectral radius), so the eigenvalues
          sum to tr H within 2^10 eps B, and the mean of their m-sums is
          (m/n) times that sum within 2^4 eps B;
        - the geometric mean exp(mean(log)) is within a factor
          1 + 2^13.1 eps of the exact one: every |log| of a positive double
          is below 745, and log, the mean and exp round it by at most
          11 eps (4-ulp log and exp); by AM-GM the mean of the sums, at
          most 2.1 B, bounds it, so this adds 2^14.2 eps B;
        - the trace here is within 2^8 eps B of tr H, (m/n) rounds it by
          2^2.1 eps B, and G - (m/n) tr and F_m - G round by eps each.
        Together the computed |F_m - G| at the node of the largest excess
        is at least excess (1 - 2 eps) - 2^14.3 eps B.  2^16 eps B covers
        that with room for the rounding of B, and 2^-50 of the excess the
        relative part with the rounding of the bound itself.
        """
        trace = (self.trace_weights @ u_flat[self.trace_neighbors]
                 + self.chi_trace)
        excess = float((G - self.m / self.domain.n * trace).max())
        scale = (float(np.abs(u_flat[self.support]).max()) * self.weight_norm
                 + self.chi_norm)
        return excess * (1.0 - 2.0 ** -50) - 2.0 ** -37 * scale

    def jacobian(self, H, dG):
        """The Jacobian in CSR form and its diagonal, the centre entries, at
        the iterate whose folded Hessians are ``H`` and whose right-hand side
        slope is ``dG``."""
        # eigh, not the eigenvalues behind the iterate's m-sums: at n >= 3
        # LAPACK's eigh and eigvalsh may differ in the last bit
        lam, V = _eigh(H, vectors=True)
        grad = fm_gradient_diagonal(lam, self.m)  # (K, n)
        # eigenvectors and folded weights share the metric frame; V being
        # unitary, M = V diag(grad) V^H = g_1 I + sum_{i>1} (g_i - g_1)
        # v_i v_i^H, which takes at most one outer product at n <= 2
        v = V[:, :, 1:]
        M = np.einsum("kpi,kqi->kpq",
                      v * (grad[:, 1:] - grad[:, :1])[:, None, :], v.conj())
        M[:, range(self.domain.n), range(self.domain.n)] += grad[:, :1]
        K = self.nodes.size
        # entry (s, k) is Re sum_pq W_s[q, p] M_k[p, q], the real dot
        # product of the Hermitian W_s with M_k: one real GEMM
        entries = (self.weights.reshape(len(self.weights), -1).view(float)
                   @ M.reshape(K, -1).view(float).T)  # (S, K)
        entries[self.center] -= dG
        J = scipy.sparse.csr_matrix(
            (entries.ravel()[self.src], self.indices, self.indptr),
            shape=(K, K))
        # a copy: a view would keep every stencil row alive through the solve
        return J, entries[self.center].copy()


# Every Jacobian tries Jacobi-preconditioned BiCGSTAB first; this limit only
# picks the factorization behind it.  Up to the limit SuperLU factorizes
# directly; above it fill-in makes that far slower than ILU + BiCGSTAB.  On an
# 11^4 torus Jacobian (14641 unknowns, 25-point stencil; 2-vCPU Xeon, one
# BLAS thread) SuperLU with MMD ordering took 40 s and 4.8e7 fill entries,
# ILU + BiCGSTAB 9.2-9.7 s and Jacobi-BiCGSTAB 0.03-0.06 s.
DIRECT_SOLVE_LIMIT = 8000


def _matvec(J, x):
    """``J @ x`` for a CSR matrix J: the compiled kernel that scipy's
    ``__matmul__`` runs after its dispatch, called directly."""
    y = np.zeros(J.shape[0])
    csr_matvec(J.shape[0], J.shape[1], J.indptr, J.indices, J.data, x, y)
    return y


def _bicgstab(J, b, psolve, rtol, atol, maxiter):
    """Right-preconditioned BiCGSTAB (van der Vorst 1992) for J x = b.

    Statement by statement the arithmetic of scipy 1.17's
    ``scipy.sparse.linalg.bicgstab`` from a zero initial guess, so ``(x,
    info)`` are bit-identical to it.  On the small Jacobians of C^1 grids
    the Python overhead around the arithmetic took most of the solve, so
    the loop skips all of it: no LinearOperator, products through scipy's
    ``csr_matvec`` kernel with no ``__matmul__`` dispatch, norms as
    ``sqrt(v.dot(v))`` (what ``np.linalg.norm`` computes for a real
    vector), scalars as Python floats and every ``a -= s * b`` through one
    work vector.  J must be CSR: the kernel would read a CSC matrix's
    arrays as its transpose.  ``psolve`` applies the preconditioner.
    ``info`` is 0 on convergence, -10 on rho breakdown, -11 on omega
    breakdown and ``maxiter`` when the iterations run out.
    """
    if J.format != "csr":
        raise ValueError(f"_bicgstab needs a CSR matrix, got {J.format}")
    # the kernel checks no lengths
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


def _check_linear_residual(J, delta, r, denom):
    return float(np.abs(J @ delta + r).max()) <= 1e-10 * denom


def _linear_solve(J, r, diag):
    """Newton step delta with |J delta + r| <= 1e-10 |r| in the max norm.

    Jacobi-preconditioned BiCGSTAB, on ``diag``, the diagonal of J, runs
    first.  Only when it fails does a factorization run: SuperLU up to
    DIRECT_SOLVE_LIMIT unknowns, ILU preconditioned BiCGSTAB above it.  A
    failure of that one fallback, a singular factorization included, is a
    NewtonDiverged.
    """
    denom = max(float(np.abs(r).max()), 1e-300)
    # BiCGSTAB's breakdown test is absolute, so every path solves for r
    # scaled by the power of two that brings |r| into [1, 2); the scaling
    # is exact and the tolerances mean the same at every scale of r
    scale = math.ldexp(1.0, 1 - math.frexp(denom)[1])
    r = r * scale
    denom = denom * scale
    atol = 1e-14 * denom
    if (diag != 0.0).all():
        # a division: multiplying by a cached reciprocal rounds differently
        # and would lose bit identity with scipy's bicgstab
        delta, info = _bicgstab(J, -r, lambda x: x / diag, rtol=1e-13,
                                atol=atol, maxiter=1000)
        if info == 0 and _check_linear_residual(J, delta, r, denom):
            return delta / scale
        failure = f"BiCGSTAB info={info}"
    else:
        failure = "zero on the diagonal, BiCGSTAB not run"
    direct = J.shape[0] <= DIRECT_SOLVE_LIMIT
    # INFO, not WARNING: Python's last-resort handler keeps it off stderr
    logger.info("Jacobi-BiCGSTAB failed on %d unknowns (%s); falling back "
                "to %s", J.shape[0], failure, "splu" if direct else "spilu")
    if direct:
        try:
            lu = scipy.sparse.linalg.splu(J.tocsc(),
                                          permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # exactly singular
            raise NewtonDiverged(f"splu factorization failed: {exc}") from exc
        delta = lu.solve(-r)
        if not _check_linear_residual(J, delta, r, denom):
            # one step of iterative refinement before giving up
            delta = delta + lu.solve(-(J @ delta + r))
        if _check_linear_residual(J, delta, r, denom):
            return delta / scale
        raise NewtonDiverged(
            "splu solve failed the residual contract after refinement")
    try:
        ilu = scipy.sparse.linalg.spilu(J.tocsc(), drop_tol=1e-5,
                                        fill_factor=12.0)
    except RuntimeError as exc:  # exactly singular
        raise NewtonDiverged(f"spilu factorization failed: {exc}") from exc
    delta, info = _bicgstab(J, -r, ilu.solve, rtol=1e-12, atol=atol,
                            maxiter=400)
    if info == 0 and _check_linear_residual(J, delta, r, denom):
        return delta / scale
    raise NewtonDiverged(
        f"ILU-BiCGSTAB failed the residual contract (BiCGSTAB info={info})")


def _damped(u, nodes, step, delta):
    """The trial iterate u + step * delta, delta given at ``nodes``."""
    trial = u.copy()
    trial[nodes] += step * delta
    return trial


def _newton(op: _FmOperator, rhs: RightHandSide, u0_flat: np.ndarray,
            cfg: SolverConfig, homotopy=None):
    """Damped Newton from ``u0_flat``: (u, iterations, residual, margin).

    Each Newton iteration evaluates every nodal quantity once.  A trial
    step evaluates G first; a trial whose trace bound already shows that
    its residual cannot drop is halved without forming its Hessians.  The
    accepted trial's Hessians and right-hand side slope give the next
    Jacobian.
    """
    u = u0_flat.copy()
    # the cone test comes before the right-hand side, which may be
    # undefined outside the cone
    nodal = op.evaluate(u)
    if nodal.margin <= cfg.cone_floor:
        raise ConeEscape(
            f"initial iterate has cone margin {nodal.margin:.3e}, below the "
            f"floor {cfg.cone_floor:.1e}"
        )
    G, dG = op.rhs_values(u, rhs, homotopy)
    r = nodal.fm - G
    rnorm = float(np.abs(r).max())
    for it in range(cfg.max_iterations):
        if rnorm <= cfg.tolerance:
            return u, it, rnorm, nodal.margin
        J, diag = op.jacobian(nodal.H, dG)
        delta_unknown = _linear_solve(J, r, diag)
        del J, diag  # not needed through the line search
        step = 1.0
        cone_blocked = True
        skipped = []  # steps the trace bound rejected
        while step >= cfg.damping_min_step:
            trial = _damped(u, op.nodes, step, delta_unknown)
            G_trial, dG_trial = op.rhs_values(trial, rhs, homotopy)
            if op.residual_lower_bound(trial, G_trial) >= rnorm:
                skipped.append(step)
            else:
                trial_nodal = op.evaluate(trial)
                if trial_nodal.margin > cfg.cone_floor:
                    cone_blocked = False
                    r_trial = trial_nodal.fm - G_trial
                    r_trial_norm = float(np.abs(r_trial).max())
                    if r_trial_norm < rnorm:
                        u, nodal, dG = trial, trial_nodal, dG_trial
                        r, rnorm = r_trial, r_trial_norm
                        break
            step *= 0.5
        else:
            where = (f"at Newton iteration {it} (residual {rnorm:.3e}, "
                     f"cone margin {nodal.margin:.3e})")
            # the skipped trials decide the failure as the cone test would
            # have: ConeEscape only if none of them is inside the cone
            if cone_blocked and not any(
                    op.sigma(_damped(u, op.nodes, s, delta_unknown)).min()
                    > cfg.cone_floor for s in skipped):
                raise ConeEscape(
                    "no damping step keeps the iterate strictly inside the "
                    f"cone {where}"
                )
            raise NewtonDiverged(
                f"no damped step reduced the residual {where}"
            )
    if rnorm <= cfg.tolerance:
        return u, cfg.max_iterations, rnorm, nodal.margin
    raise NewtonDiverged(
        f"residual {rnorm:.3e} above tolerance {cfg.tolerance:.1e} after "
        f"{cfg.max_iterations} iterations (cone margin {nodal.margin:.3e})"
    )


def _max_principle_gap(domain: GridDomain, u_flat, f: GridFunction) -> float:
    if domain.kind != BALL:
        return float("nan")
    sup_boundary = float(f.flat[domain.boundary_mask].max())
    sup_interior = float(u_flat[domain.interior_mask].max())
    return sup_interior - sup_boundary


def subsolution_seed(f: GridFunction, g: MetricField, m: int,
                     cone_floor: float = SolverConfig.cone_floor):
    """Seed C(|z|^2 - r^2) + f, doubling C until strictly in the cone.

    The cone test sees the seed as built, before ``solve_dirichlet`` and
    ``continuity_path`` write f back onto the boundary layer.  Writing it
    back changes the Hessians of the interior nodes next to that layer, by
    an amount that grows with C, so the iterate those solvers start from
    can still leave the cone: on the C^2 unit ball with f = |z|^2 it does
    from 17 points per axis, and the solve raises ConeEscape.
    """
    domain = f.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("the subsolution seed is a ball construction")
    op = NodalOperator(domain, g, m)
    bump = domain.norms_squared - domain.radius ** 2
    C = 1.0
    while C < 2.0 ** 60:
        u = f.flat + C * bump
        if op.sigma(u).min() > max(cone_floor * 10.0, 1e-8):
            return GridFunction(domain, u), C
        C *= 2.0
    raise ConeEscape("no doubling of the subsolution constant entered the cone")


def solve_dirichlet(f: GridFunction, rhs: RightHandSide, g: MetricField,
                    m: int, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Solve the nodewise equation on a ball with boundary values from f."""
    domain = f.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("solve_dirichlet expects a ball grid")
    op = _FmOperator(domain, g, m)
    if cfg.initial is not None:
        u0 = cfg.initial.flat.copy()
    else:
        seed, _ = subsolution_seed(f, g, m, cfg.cone_floor)
        u0 = seed.flat.copy()
    u0[domain.boundary_mask] = f.flat[domain.boundary_mask]
    u, iters, rnorm, margin = _newton(op, rhs, u0, cfg)
    sol = GridFunction(domain, np.where(domain.exterior_mask, 0.0, u))
    return SolveReport(
        solution=sol,
        iterations=iters,
        final_residual=rnorm,
        min_cone_margin=margin,
        max_principle_gap=_max_principle_gap(domain, u, f),
    )


def check_chi_positive(chi: HermitianMatrix, g: MetricField, m: int):
    """Raise ChiNotPositive unless chi lies in the open m-cone of the metric."""
    margin = float(subset_sums(relative_eigenvalues(chi, g.constant).lambdas,
                               m).min())
    if not margin > 0.0:
        raise ChiNotPositive(
            f"background form has minimal m-sum {margin:.3e} <= 0"
        )


def solve_torus(chi: HermitianMatrix, rhs: RightHandSide, g: MetricField,
                m: int, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Solve the periodic equation for the chi-shifted Hessian."""
    domain = g.domain
    if domain.kind != TORUS:
        raise DimensionMismatchError("solve_torus expects a torus grid")
    if chi.dim != domain.n:
        raise DimensionMismatchError("background form dimension mismatch")
    check_chi_positive(chi, g, m)
    op = _FmOperator(domain, g, m, chi=chi)
    if cfg.initial is not None:
        u0 = cfg.initial.flat.copy()
    elif rhs.reference is not None:
        u0 = np.full(domain.node_count, float(rhs.reference.flat.min()))
    else:
        u0 = np.zeros(domain.node_count)
    u, iters, rnorm, margin = _newton(op, rhs, u0, cfg)
    return SolveReport(
        solution=GridFunction(domain, u),
        iterations=iters,
        final_residual=rnorm,
        min_cone_margin=margin,
        max_principle_gap=float("nan"),
    )


def continuity_path(f: GridFunction, rhs: RightHandSide, g: MetricField,
                    m: int, cfg: SolverConfig = SolverConfig(),
                    t_steps: int = 8) -> SolveReport:
    """Homotopy from the exact subsolution seed to the target equation.

    Solves the blend ``F_m = t G + (1 - t) F_m[seed]`` on a uniform t-grid,
    warm-starting each stage; the t = 0 stage is exact by construction and
    ``t_steps = 1`` degenerates to direct Newton from the seed.
    """
    domain = f.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("continuity_path expects a ball grid")
    if t_steps < 1:
        raise DimensionMismatchError("need at least one homotopy step")
    op = _FmOperator(domain, g, m)
    seed, _ = subsolution_seed(f, g, m, cfg.cone_floor)
    u = seed.flat.copy()
    u[domain.boundary_mask] = f.flat[domain.boundary_mask]
    base = op.evaluate(u).fm
    iters_total = 0
    for t in np.linspace(0.0, 1.0, t_steps + 1)[1:]:
        try:
            u, iters, rnorm, margin = _newton(op, rhs, u, cfg,
                                              homotopy=(float(t), base))
        except (NewtonDiverged, ConeEscape) as exc:
            exc.t_failed = float(t)
            exc.args = (f"{exc.args[0]} (homotopy stage t={t:.3f})",)
            raise
        iters_total += iters
    sol = GridFunction(domain, np.where(domain.exterior_mask, 0.0, u))
    return SolveReport(
        solution=sol,
        iterations=iters_total,
        final_residual=rnorm,
        min_cone_margin=margin,
        max_principle_gap=_max_principle_gap(domain, u, f),
    )


def max_principle_check(report: SolveReport, f: GridFunction) -> float:
    """Sup over interior nodes of u minus the boundary sup of f.

    Non-positive (within 1e-8) certifies the discrete maximum principle.
    """
    domain = report.solution.domain
    if domain.kind != BALL:
        raise DimensionMismatchError("the maximum principle check needs a ball solve")
    return _max_principle_gap(domain, report.solution.flat, f)

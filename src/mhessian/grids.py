"""Uniform grids on coordinate balls in C^n and flat tori.

A grid covers the 2n real coordinates x_1, y_1, ..., x_n, y_n.  Ball grids
tag nodes as interior (the full finite-difference stencil stays inside the
closed ball), boundary (inside the ball but without full stencil margin;
Dirichlet data lives here) or exterior (unused).  Torus grids wrap.

Complex Hessians are assembled from second-order central differences of
the real Hessian; each stencil weight is `complex_hessian_point` of the
real difference weights at its offset, so quadratics are reproduced
exactly.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, StencilError
from .fm import CONE_TOL, _check_m, geometric_mean_clamped
from .hermitian import HermitianMatrix, MetricMatrix, complex_hessian_point
from .multiindex import subset_sums

BALL = "ball"
TORUS = "torus"

# Largest grid a domain may have.  Per node, a field evaluation holds a
# float64 value, 2n coordinates, an int64 neighbour table entry per stencil
# point (25 on C^2) and the n x n complex Hessian, and a solve the Jacobian
# pattern, an int32 and an int64 index per stencil entry: at 2^20 nodes
# about 0.7 GB on C^2, and Newton solves on far smaller grids take minutes.
MAX_NODES = 2 ** 20


@lru_cache(maxsize=None)
def stencil(n: int):
    """Finite-difference stencil for the complex Hessian at unit spacing.

    Returns (offsets, weights): integer offsets of shape (S, 2n) and the
    complex weight matrices of shape (S, n, n), such that the complex
    Hessian at a node equals sum_s weights[s] * u[node + offsets[s]] / h^2.
    Offsets whose weight matrix vanishes (mixed differences within one
    complex coordinate) are dropped.
    """
    d2 = 2 * n
    entries = {}  # offset tuple -> real Hessian weight matrix

    def add(offset, a, b, w):
        mat = entries.setdefault(tuple(offset), np.zeros((d2, d2)))
        mat[a, b] += w
        if a != b:
            mat[b, a] += w

    zero = [0] * d2
    for a in range(d2):
        e = zero.copy()
        e[a] = 1
        add(e, a, a, 1.0)
        e = zero.copy()
        e[a] = -1
        add(e, a, a, 1.0)
        add(zero, a, a, -2.0)
    for a in range(d2):
        for b in range(a + 1, d2):
            for sa in (1, -1):
                for sb in (1, -1):
                    e = zero.copy()
                    e[a] = sa
                    e[b] = sb
                    add(e, a, b, sa * sb / 4.0)

    offsets, weights = [], []
    for off, S in entries.items():
        W = complex_hessian_point(S).entries
        if np.abs(W).max() > 0.0:
            offsets.append(off)
            weights.append(W)
    off_arr = np.array(offsets, dtype=int)
    w_arr = np.array(weights, dtype=complex)
    off_arr.setflags(write=False)
    w_arr.setflags(write=False)
    return off_arr, w_arr


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid over a ball of given radius or a period-1 torus."""

    n: int
    kind: str
    points_per_axis: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in (BALL, TORUS):
            raise DimensionMismatchError(f"unknown domain kind {self.kind!r}")
        if self.points_per_axis < 5 or self.points_per_axis % 2 == 0:
            raise DimensionMismatchError("points_per_axis must be odd and >= 5")
        if self.n < 1:
            raise DimensionMismatchError("complex dimension must be >= 1")
        # in logarithms, so that a huge n costs nothing to reject
        if 2 * self.n * math.log(self.points_per_axis) > math.log(MAX_NODES):
            raise DimensionMismatchError(
                f"grid of {self.points_per_axis}^{2 * self.n} nodes exceeds "
                f"the limit of {MAX_NODES} nodes"
            )
        if self.kind == BALL and not self.radius > 0:
            raise DimensionMismatchError("ball radius must be positive")

    @classmethod
    def ball(cls, n: int, radius: float = 1.0, points_per_axis: int = None):
        if points_per_axis is None:
            points_per_axis = 33 if n == 1 else 13
        return cls(n=n, kind=BALL, points_per_axis=points_per_axis, radius=radius)

    @classmethod
    def torus(cls, n: int, points_per_axis: int = None):
        if points_per_axis is None:
            points_per_axis = 33 if n == 1 else 13
        return cls(n=n, kind=TORUS, points_per_axis=points_per_axis, radius=1.0)

    @property
    def spacing(self) -> float:
        if self.kind == BALL:
            return 2.0 * self.radius / (self.points_per_axis - 1)
        return 1.0 / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * (2 * self.n)

    @property
    def node_count(self) -> int:
        return self.points_per_axis ** (2 * self.n)

    @cached_property
    def axis(self) -> np.ndarray:
        if self.kind == BALL:
            return np.linspace(-self.radius, self.radius, self.points_per_axis)
        return np.arange(self.points_per_axis) * self.spacing

    @cached_property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (node_count, 2n), C-order over the grid."""
        grids = np.meshgrid(*([self.axis] * (2 * self.n)), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @cached_property
    def norms_squared(self) -> np.ndarray:
        return (self.coords ** 2).sum(axis=-1)

    @cached_property
    def _masks(self):
        offsets, _ = stencil(self.n)
        if self.kind == TORUS:
            interior = np.ones(self.node_count, dtype=bool)
            return interior, np.zeros_like(interior), np.zeros_like(interior)
        tie = 4.0 * np.finfo(float).eps * max(1.0, self.radius)
        inside = np.sqrt(self.norms_squared) <= self.radius + tie
        inside_grid = inside.reshape(self.shape)
        interior_grid = inside_grid.copy()
        pp = self.points_per_axis
        idx = np.indices(self.shape)
        for d in offsets:
            if not d.any():
                continue
            shifted = idx + d.reshape((-1,) + (1,) * (2 * self.n))
            valid = ((shifted >= 0) & (shifted < pp)).all(axis=0)
            ok = np.zeros(self.shape, dtype=bool)
            sh = tuple(shifted[k][valid] for k in range(2 * self.n))
            ok[valid] = inside_grid[sh]
            interior_grid &= ok
        interior = interior_grid.ravel()
        boundary = inside & ~interior
        exterior = ~inside
        return interior, boundary, exterior

    @property
    def interior_mask(self) -> np.ndarray:
        return self._masks[0]

    @property
    def boundary_mask(self) -> np.ndarray:
        return self._masks[1]

    @property
    def exterior_mask(self) -> np.ndarray:
        return self._masks[2]

    @cached_property
    def interior_neighbors(self):
        """Interior nodes and their neighbour table, both read-only.

        Returns (nodes, table) with ``table = neighbor_indices(nodes)``.
        """
        nodes = np.flatnonzero(self.interior_mask)
        table = self.neighbor_indices(nodes)
        nodes.setflags(write=False)
        table.setflags(write=False)
        return nodes, table

    @cached_property
    def jacobian_pattern(self):
        """Read-only CSR pattern of a stencil Jacobian on the interior nodes:
        int32 indices and indptr, the position s * K + k of the stencil
        entry behind each CSR entry, and the zero offset's row s."""
        nodes, table = self.interior_neighbors
        K = nodes.size
        # an interior node's unknown is its rank among the interior nodes
        cols = (np.cumsum(self.interior_mask) - 1)[table].ravel()
        src = np.flatnonzero(self.interior_mask[table].ravel())
        src = src[np.lexsort((cols[src], src % K))]  # by row, then column
        keys = src % K * K + cols[src]
        # five or more points per axis keep a node's neighbours distinct
        assert (np.diff(keys) > 0).all(), "two stencil entries share a slot"
        indices = cols[src].astype(np.int32)
        indptr = np.searchsorted(keys // K, np.arange(K + 1)).astype(np.int32)
        for array in (indices, indptr, src):
            array.setflags(write=False)
        center = np.flatnonzero(~stencil(self.n)[0].any(axis=1))[0]
        return indices, indptr, src, int(center)

    def neighbor_indices(self, flat_nodes: np.ndarray) -> np.ndarray:
        """Flat indices of every stencil neighbor, shape (S, len(flat_nodes))."""
        offsets, _ = stencil(self.n)
        multi = np.array(np.unravel_index(flat_nodes, self.shape))
        out = np.empty((offsets.shape[0], flat_nodes.size), dtype=np.int64)
        pp = self.points_per_axis
        for s, d in enumerate(offsets):
            shifted = multi + d[:, None]
            if self.kind == TORUS:
                shifted %= pp
            elif (shifted < 0).any() or (shifted >= pp).any():
                raise StencilError("stencil leaves the grid box")
            out[s] = np.ravel_multi_index(shifted, self.shape)
        return out


@dataclass(frozen=True)
class GridFunction:
    """Real scalar field sampled on a grid."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape == (self.domain.node_count,):
            v = v.reshape(self.domain.shape)
        if v.shape != self.domain.shape:
            raise DimensionMismatchError(
                f"values shape {v.shape} does not match grid {self.domain.shape}"
            )
        usable = ~self.domain.exterior_mask
        if not np.isfinite(v.ravel()[usable]).all():
            raise DimensionMismatchError(
                "grid function must be finite at interior and boundary nodes"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    @classmethod
    def from_callable(cls, domain: GridDomain, func) -> "GridFunction":
        """Sample ``func(coords) -> values`` with coords of shape (K, 2n)."""
        return cls(domain, np.asarray(func(domain.coords), dtype=float))

    @classmethod
    def constant(cls, domain: GridDomain, value: float) -> "GridFunction":
        return cls(domain, np.full(domain.shape, float(value)))

    @classmethod
    def _unchecked(cls, domain: GridDomain, values: np.ndarray) -> "GridFunction":
        """Wrap raw values without the finiteness invariant (field outputs
        legitimately carry NaN at nodes lacking stencil margin)."""
        gf = object.__new__(cls)
        object.__setattr__(gf, "domain", domain)
        arr = np.asarray(values, dtype=float).reshape(domain.shape).copy()
        arr.setflags(write=False)
        object.__setattr__(gf, "values", arr)
        return gf

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.domain, values)


@dataclass(frozen=True)
class MetricField:
    """Constant metric shared by every node of a grid."""

    domain: GridDomain
    constant: MetricMatrix = None

    def __post_init__(self):
        if self.constant is None:
            raise DimensionMismatchError("a grid metric needs a constant metric")
        if self.constant.dim != self.domain.n:
            raise DimensionMismatchError("metric dimension does not match grid")

    @classmethod
    def flat(cls, domain: GridDomain) -> "MetricField":
        return cls(domain=domain, constant=MetricMatrix.identity(domain.n))


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


def _eigh(H: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the Hermitian batch H, shape (K, n, n), and
    with ``vectors`` the unitary eigenvector matrices, as ``np.linalg.eigh``
    returns them.

    LAPACK spends almost all its time on per-matrix overhead at n <= 2, so
    those sizes are solved in closed form; at n = 1 the result is
    bit-identical to LAPACK's.
    """
    n = H.shape[-1]
    if n >= 3:
        return np.linalg.eigh(H) if vectors else np.linalg.eigvalsh(H)
    if n == 1:
        lam = H[:, 0].real.copy()
        return (lam, np.ones_like(H)) if vectors else lam
    # H = [[a, b], [conj b, d]] has eigenvalues h -+ r
    a = H[:, 0, 0].real
    d = H[:, 1, 1].real
    b = H[:, 0, 1]
    delta = 0.5 * (a - d)
    abs_b = np.abs(b)
    r = np.hypot(delta, abs_b)
    h = 0.5 * (a + d)
    rho = np.abs(h) + r  # the spectral radius
    tiny = (rho < 2.0 ** -958) & (rho > 0.0)
    if tiny.any():  # solved scaled up by 2^1000, exactly: no subnormals
        out = _eigh(np.where(tiny[:, None, None], H * 2.0 ** 1000, H),
                    vectors)
        (out[0] if vectors else out)[tiny] *= 2.0 ** -1000
        return out
    lam = np.stack([h - r, h + r], axis=-1)
    if not vectors:
        return lam
    # the eigenvector (x, y) of h + r, read off the row of H - (h + r) I
    # that has no cancellation: (delta + r, conj b) for delta >= 0, else
    # (b, r - delta); the other eigenvector is its unitary complement
    p = np.abs(delta) + r
    norm = np.hypot(p, abs_b)
    degenerate = norm < 2.0 ** -1020  # H = h I within eps rho: any V fits
    norm[degenerate] = 1.0
    upper = delta >= 0.0
    x = np.where(upper, p, b) / norm
    y = np.where(upper, b.conj(), p) / norm
    y[degenerate] = 1.0
    V = np.empty_like(H)
    V[:, 0, 0] = y.conj()
    V[:, 1, 0] = -x.conj()
    V[:, 0, 1] = x
    V[:, 1, 1] = y
    return lam, V


class NodalOperator:
    """Discrete complex Hessians in the metric frame over a fixed node set.

    The metric is folded into the stencil once: with C the Cholesky factor
    of the metric, the weights are C^{-1} W_s C^{-H} / h^2 and the optional
    background form is C^{-1} chi C^{-H}.  The ordinary Hermitian spectrum
    of a folded Hessian is its spectrum relative to the metric, so
    ``sigma`` returns the m-fold relative eigenvalue sums at every node.
    The folded weights are Hermitized once, so every Hessian is exactly
    Hermitian: entries [p, q] and [q, p] are the same sums, conjugated.
    The nodes default to the interior nodes, whose neighbour table the
    domain builds once.
    """

    def __init__(self, domain: GridDomain, g: MetricField, m: int,
                 chi: HermitianMatrix = None, nodes: np.ndarray = None):
        if g.domain != domain:
            raise DimensionMismatchError("metric field lives on a different grid")
        _check_m(domain.n, m)
        self.domain = domain
        self.m = m
        if nodes is None:
            self.nodes, self.neighbors = domain.interior_neighbors
        else:
            self.nodes = nodes
            self.neighbors = domain.neighbor_indices(nodes)  # (S, K)
        Cinv = np.linalg.inv(g.constant.cholesky)
        def fold(A):  # C^{-1} A C^{-H}, Hermitized
            return _hermitian_part(Cinv @ A @ Cinv.conj().T)
        self.weights = fold(stencil(domain.n)[1] / domain.spacing ** 2)
        self.chi = None if chi is None else fold(chi.entries)

    def hessians(self, u_flat: np.ndarray) -> np.ndarray:
        """Folded Hessians (plus the folded background form), (K, n, n)."""
        # gathered from a complex copy of u: the matrix product would
        # otherwise cast the (S, K) gather, S times larger, to complex
        vals = u_flat.astype(complex)[self.neighbors]  # (S, K)
        H = np.tensordot(vals.T, self.weights, axes=(1, 0))
        if self.chi is not None:
            H += self.chi
        return H

    def sigma(self, u_flat: np.ndarray) -> np.ndarray:
        """All m-fold relative eigenvalue sums per node, (K, C(n, m))."""
        return subset_sums(_eigh(self.hessians(u_flat), vectors=False),
                           self.m)


def hessian_stack(u: GridFunction, flat_nodes: np.ndarray,
                  chi: HermitianMatrix = None) -> np.ndarray:
    """Discrete complex Hessians (plus an optional constant shift) at nodes."""
    g = MetricField.flat(u.domain)
    # the order m plays no part in the Hessians themselves
    return NodalOperator(u.domain, g, 1, chi, flat_nodes).hessians(u.flat)


def fd_complex_hessian(u: GridFunction, node) -> HermitianMatrix:
    """Second-order discrete complex Hessian at one grid node."""
    domain = u.domain
    flat = int(np.ravel_multi_index(tuple(node), domain.shape))
    if domain.kind == BALL and not domain.interior_mask[flat]:
        raise StencilError(f"node {tuple(node)} lacks the one-cell stencil margin")
    H = hessian_stack(u, np.array([flat]))[0]
    return HermitianMatrix(H)


@dataclass(frozen=True)
class ConeFieldReport:
    """Per-node cone verdicts for a sampled function."""

    domain: GridDomain
    member: np.ndarray   # bool, grid shaped; False at non-evaluable nodes
    margin: np.ndarray   # float, grid shaped; NaN at non-evaluable nodes
    evaluable: np.ndarray

    @property
    def all_member(self) -> bool:
        return bool(self.member[self.evaluable.reshape(self.domain.shape)].all())

    @property
    def min_margin(self) -> float:
        vals = self.margin[self.evaluable.reshape(self.domain.shape)]
        return float(vals.min()) if vals.size else np.nan


def cone_field(u: GridFunction, g: MetricField, m: int,
               chi: HermitianMatrix = None,
               tol: float = CONE_TOL) -> ConeFieldReport:
    """Nodewise m-cone membership of (chi +) the discrete Hessian of u."""
    domain = u.domain
    op = NodalOperator(domain, g, m, chi)
    margin = op.sigma(u.flat).min(axis=-1)
    member_flat = np.zeros(domain.node_count, dtype=bool)
    margin_flat = np.full(domain.node_count, np.nan)
    member_flat[op.nodes] = margin >= -tol
    margin_flat[op.nodes] = margin
    return ConeFieldReport(domain=domain,
                           member=member_flat.reshape(domain.shape),
                           margin=margin_flat.reshape(domain.shape),
                           evaluable=domain.interior_mask.copy())


def fm_field(u: GridFunction, g: MetricField, m: int,
             chi: HermitianMatrix = None) -> GridFunction:
    """Nodewise F_m of (chi +) the discrete Hessian of u.

    Nodes where the Hessian exits the m-cone carry the (negative) cone
    margin instead of an operator value; nodes without stencil margin
    carry NaN and are excluded from the grid-function finiteness check by
    construction (they are boundary or exterior).
    """
    domain = u.domain
    op = NodalOperator(domain, g, m, chi)
    sums = op.sigma(u.flat)
    margin = sums.min(axis=-1)
    values = np.where(
        margin >= -CONE_TOL,
        geometric_mean_clamped(np.maximum(sums, -CONE_TOL)),
        margin,
    )
    out = np.full(domain.node_count, np.nan)
    out[op.nodes] = values
    if domain.kind == TORUS:
        return GridFunction(domain, out)
    return GridFunction._unchecked(domain, out)

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
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, StencilError
from .fm import DeterminantFm, _check_m, cone_member, \
    determinant_route, fm_plus_from_sums
from .hermitian import HermitianMatrix, MetricMatrix, complex_hessian_point, \
    metric_frame
from .multiindex import subset_sums

BALL = "ball"
TORUS = "torus"

# Largest grid a domain may have.  Memory sets the bound, not time.  A
# domain builds one int64 neighbour table per set of stencil rows its
# operators read: the trace rows alone at m = n (9 of 25 on C^2 with a
# diagonal metric), and every row as well at m < n.  A solve adds the
# Jacobian pattern of its row set, an int32 and an int8 index per entry,
# with an int64 gather at m < n and L's float64 data at m = n.  Traced
# per node on a 19^4 torus (numpy's allocations, coordinates excluded), a
# C^2 operator at m = n holds about 210 bytes, its construction peaks
# there too, and a Newton iteration peaks at about 300; at m < n it holds
# 620, its construction peaks at 840 and an iteration at 1,190, where the
# complex gather of every row, tensordot's copy of it and the Jacobian
# entries set the peak.  At 2^20 nodes that is about 0.3 GB on C^2 at
# m = n and 1.2 GB at m < n; on C^3 at m = 2 an iteration peaks at about
# 2,700 bytes a node, 1.4 GB on a 9^6 torus.  A global_regularize run on
# a 13^4 torus, three Newton solves, takes under a second.
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
        if self.kind == TORUS and self.radius != 1.0:  # the period is 1
            raise DimensionMismatchError(
                f"torus radius must be 1.0, got {self.radius}")

    @classmethod
    def ball(cls, n: int, radius: float = 1.0, *, points_per_axis: int):
        return cls(n=n, kind=BALL, points_per_axis=points_per_axis, radius=radius)

    @classmethod
    def torus(cls, n: int, points_per_axis: int):
        return cls(n=n, kind=TORUS, points_per_axis=points_per_axis)

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
    def exterior_mask(self) -> np.ndarray:
        """Nodes outside the closed ball (up to a rounding tie); none on a
        torus."""
        if self.kind == TORUS:
            return np.zeros(self.node_count, dtype=bool)
        tie = 4.0 * np.finfo(float).eps * max(1.0, self.radius)
        return np.sqrt(self.norms_squared) > self.radius + tie

    def neighbours_inside(self, offsets) -> np.ndarray:
        """Nodes whose neighbour at every offset (entries -1, 0 or 1) lies
        in the box and outside the exterior; every node on a torus."""
        if self.kind == TORUS:
            return np.ones(self.node_count, dtype=bool)
        inside = np.pad(~self.exterior_mask.reshape(self.shape), 1)
        pp = self.points_per_axis
        ok = np.ones(self.shape, dtype=bool)
        for d in offsets:
            ok &= inside[tuple(slice(1 + k, 1 + k + pp) for k in d)]
        return ok.ravel()

    @cached_property
    def _masks(self):
        interior = self.neighbours_inside(stencil(self.n)[0])
        return interior, ~interior & ~self.exterior_mask

    @property
    def interior_mask(self) -> np.ndarray:
        return self._masks[0]

    @property
    def boundary_mask(self) -> np.ndarray:
        return self._masks[1]

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        """Flat indices of the interior nodes, ascending and read-only."""
        nodes = np.flatnonzero(self.interior_mask)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def _neighbour_tables(self) -> dict:
        return {}

    def neighbour_table(self, rows) -> np.ndarray:
        """The flat indices of the neighbours of every interior node at the
        stencil rows ``rows``, shape (len(rows), K), int64 and read-only,
        built once per row set, on its first read."""
        key = tuple(int(s) for s in rows)
        if key not in self._neighbour_tables:
            nodes = self.interior_nodes
            multi = np.array(np.unravel_index(nodes, self.shape))
            offsets = stencil(self.n)[0]
            table = np.empty((len(key), nodes.size), dtype=np.int64)
            for i, s in enumerate(key):
                # wraps on a torus; an interior ball node's stencil stays
                # in the box
                table[i] = np.ravel_multi_index(
                    multi + offsets[s][:, None], self.shape, mode="wrap")
            table.setflags(write=False)
            self._neighbour_tables[key] = table
        return self._neighbour_tables[key]

    @cached_property
    def _jacobian_patterns(self) -> dict:
        return {}

    def jacobian_pattern(self, rows):
        """Read-only CSR pattern of a Jacobian on the interior nodes that
        holds the stencil rows ``rows``, built once per row set: int32
        indices and indptr, the int8 i of the stencil row rows[i] behind
        each CSR entry (at most 113 rows, at n <= 4), the i of the zero
        offset, and the CSR positions of the diagonal in row order."""
        key = tuple(int(s) for s in rows)
        if key in self._jacobian_patterns:
            return self._jacobian_patterns[key]
        nodes = self.interior_nodes
        K = nodes.size
        # an interior node's unknown is its rank among the interior nodes
        unknown = np.full(self.node_count, -1, dtype=np.int32)
        unknown[nodes] = np.arange(K, dtype=np.int32)
        cols = unknown[self.neighbour_table(key).T]  # (K, len(rows))
        # each node's row in column order, no unknown (-1) first, sorted in
        # place in blocks of 2^14 nodes, so that the intp order of argsort
        # stays small
        order = np.empty(cols.shape, dtype=np.int8)
        for i in range(0, K, 2 ** 14):
            block = cols[i:i + 2 ** 14]
            order[i:i + 2 ** 14] = sort = np.argsort(block, axis=1)
            block[...] = np.take_along_axis(block, sort, axis=1)
        keep = cols >= 0
        # five or more points per axis keep a node's neighbours distinct
        # (a kept entry's right neighbour is kept too)
        assert (np.diff(cols, axis=1)[keep[:, :-1]] > 0).all(), \
            "two stencil entries share a slot"
        indices, slot = cols[keep], order[keep]
        indptr = np.zeros(K + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        center = np.flatnonzero(~stencil(self.n)[0][list(key)].any(axis=1))[0]
        diagonal = np.flatnonzero(slot == center)
        for array in (indices, indptr, slot, diagonal):
            array.setflags(write=False)
        pattern = indices, indptr, slot, int(center), diagonal
        self._jacobian_patterns[key] = pattern
        return pattern

    def jacobian_gather(self, rows):
        """The position i * K + k, in a (len(rows), K) array of row entries
        per unknown, of the entry behind each CSR entry of
        ``jacobian_pattern(rows)``: int64 and read-only, built once per row
        set, and only for a Jacobian gathered from such entries."""
        key = ("gather", *(int(s) for s in rows))
        if key not in self._jacobian_patterns:
            _, indptr, slot, _, _ = self.jacobian_pattern(rows)
            K = indptr.size - 1
            src = slot.astype(np.int64)
            src *= K
            src += np.repeat(np.arange(K), np.diff(indptr))
            src.setflags(write=False)
            self._jacobian_patterns[key] = src
        return self._jacobian_patterns[key]

    @cached_property
    def _folds(self) -> dict:
        return {}

    def fold(self, C: np.ndarray, chi: np.ndarray = None) -> "Fold":
        """The stencil folded into the metric frame of the lower Cholesky
        factor C, with the background form chi if one is given, built once
        per (C, chi) and read-only: see ``Fold``."""
        key = (C.tobytes(), None if chi is None else chi.tobytes())
        if key in self._folds:
            return self._folds[key]
        weights = metric_frame(stencil(self.n)[1] / self.spacing ** 2, C)
        chi = None if chi is None else metric_frame(chi, C)
        traces = np.einsum("spp->s", weights).real
        rows = np.flatnonzero(traces)
        fold = Fold(weights, chi, rows, traces[rows],
                    self.neighbour_table(rows),
                    0.0 if chi is None else float(np.einsum("pp->", chi).real))
        for array in fold[:5]:
            if array is not None:
                array.setflags(write=False)
        self._folds[key] = fold
        return fold


class Fold(NamedTuple):
    """The stencil of a domain in one metric frame (see ``NodalOperator``)."""

    weights: np.ndarray          # folded weights, (S, n, n)
    chi: np.ndarray              # folded background form, (n, n), or None
    trace_rows: np.ndarray       # the rows whose weight has nonzero trace
    trace_weights: np.ndarray    # their traces
    trace_neighbors: np.ndarray  # their neighbour table, (len(rows), K)
    chi_trace: float             # the trace of the folded form, or 0


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


def _on_grid(field, domain: GridDomain, what: str):
    """``field``, a grid function or metric field living on ``domain``."""
    if field.domain != domain:
        raise DimensionMismatchError(f"{what} lives on a different grid")
    return field


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


def _eigh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian batch H, shape (K, n, n), as
    ``np.linalg.eigvalsh`` returns them.

    LAPACK spends almost all its time on per-matrix overhead at n = 2, so
    that size is solved in closed form.  No field reaches an eigensolve at
    n = 1, where m = n.
    """
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    # H = [[a, b], [conj b, d]] has eigenvalues h -+ r
    a = H[:, 0, 0].real
    d = H[:, 1, 1].real
    r = np.hypot(0.5 * (a - d), np.abs(H[:, 0, 1]))
    h = 0.5 * (a + d)
    rho = np.abs(h) + r  # the spectral radius
    tiny = (rho < 2.0 ** -958) & (rho > 0.0)
    if tiny.any():  # solved scaled up by 2^1000, exactly: no subnormals
        lam = _eigh(np.where(tiny[:, None, None], H * 2.0 ** 1000, H))
        lam[tiny] *= 2.0 ** -1000
        return lam
    return np.stack([h - r, h + r], axis=-1)


class NodalOperator:
    """Discrete complex Hessians in the metric frame over a fixed node set.

    The domain folds the metric into the stencil once per metric and chi
    (``GridDomain.fold``) by ``metric_frame``, the pointwise reduction:
    with C the Cholesky factor of the metric, the weights are
    C^{-1} W_s C^{-H} / h^2 and the optional background form is
    C^{-1} chi C^{-H}.  The ordinary Hermitian spectrum of a folded
    Hessian is its spectrum relative to the metric, so ``sigma`` returns
    the m-fold relative eigenvalue sums at every node.  The folded weights
    are Hermitian, so every Hessian is exactly Hermitian: entries [p, q]
    and [q, p] are the same sums, conjugated.
    The trace of a Hessian takes only the trace rows, the stencil rows
    whose folded weight has a nonzero trace: 9 of 25 at n = 2 with a
    diagonal metric, every row at n = 1.  At m = n the one m-sum is the
    trace, so ``sigma`` reads it from those rows alone, with no Hessian
    and no eigensolve.  ``evaluate`` takes F_m and the cone test against a
    floor for Newton and the subsolution seed: the trace at m = n, else
    ``fm.determinant_route`` of the Hessians, with no eigensolve either.
    The nodes are the interior nodes.  The domain builds one neighbour
    table per row set, on its first read: the trace rows' table with the
    fold, and the table of every row only when ``hessians`` first runs, so
    an operator at m = n never builds it.
    """

    def __init__(self, domain: GridDomain, g: MetricField, m: int,
                 chi: HermitianMatrix = None):
        _on_grid(g, domain, "metric field")
        _check_m(domain.n, m)
        self.domain = domain
        self.m = m
        self.nodes = domain.interior_nodes  # (K,)
        (self.weights, self.chi, self.trace_rows, self.trace_weights,
         self.trace_neighbors, self.chi_trace) = domain.fold(
             g.constant.cholesky, None if chi is None else chi.entries)

    @property
    def neighbors(self) -> np.ndarray:
        """The neighbour table of every stencil row, (S, K)."""
        return self.domain.neighbour_table(range(len(self.weights)))

    def hessians(self, u_flat: np.ndarray) -> np.ndarray:
        """Folded Hessians (plus the folded background form), (K, n, n)."""
        # gathered from a complex copy of u: the matrix product would
        # otherwise cast the (S, K) gather, S times larger, to complex
        vals = u_flat.astype(complex)[self.neighbors]  # (S, K)
        H = np.tensordot(vals.T, self.weights, axes=(1, 0))
        if self.chi is not None:
            H += self.chi
        return H

    def traces(self, u_flat: np.ndarray) -> np.ndarray:
        """Traces of the folded Hessians (plus the folded background form),
        (K,), from the trace rows alone."""
        return (self.trace_weights @ u_flat[self.trace_neighbors]
                + self.chi_trace)

    def sigma(self, u_flat: np.ndarray) -> np.ndarray:
        """All m-fold relative eigenvalue sums per node, (K, C(n, m))."""
        if self.m == self.domain.n:
            return self.traces(u_flat)[:, None]
        return subset_sums(_eigh(self.hessians(u_flat)), self.m)

    def evaluate(self, u_flat: np.ndarray, floor: float):
        """The ``DeterminantFm`` of ``u_flat`` at the nodes, or None unless
        every node's least m-fold sum exceeds ``floor``: at m = n F_n is
        the trace, from the trace rows alone with no Hessian, else
        ``determinant_route`` of the folded Hessians."""
        if self.m == self.domain.n:
            fm = self.traces(u_flat)
            return DeterminantFm(fm) if fm.min() > floor else None
        return determinant_route(self.hessians(u_flat), self.m, floor)


def hessian_stack(u: GridFunction, flat_nodes: np.ndarray) -> np.ndarray:
    """Discrete complex Hessians at interior nodes, given by flat index;
    any other node raises."""
    # the order m plays no part in the Hessians themselves
    op = NodalOperator(u.domain, MetricField.flat(u.domain), 1)
    # a node's row is its rank among the (sorted) interior nodes
    rank = np.minimum(np.searchsorted(op.nodes, flat_nodes), op.nodes.size - 1)
    missing = op.nodes[rank] != flat_nodes
    if missing.any():
        raise StencilError(f"node {np.asarray(flat_nodes)[missing][0]} "
                           f"lacks the one-cell stencil margin")
    return op.hessians(u.flat)[rank]


def fd_complex_hessian(u: GridFunction, node) -> HermitianMatrix:
    """Second-order discrete complex Hessian at one grid node."""
    flat = np.ravel_multi_index(tuple(node), u.domain.shape)
    return HermitianMatrix(hessian_stack(u, np.array([flat]))[0])


@dataclass(frozen=True)
class ConeFieldReport:
    """Per-node cone margins of a sampled function: the least m-fold
    relative eigenvalue sum, grid shaped, and NaN off the interior nodes,
    which alone are evaluated."""

    domain: GridDomain
    margin: np.ndarray

    @property
    def member(self) -> np.ndarray:
        """Closed-cone membership per node; False off the interior."""
        return cone_member(self.margin)

    @property
    def min_margin(self) -> float:
        vals = self.margin.ravel()[self.domain.interior_mask]
        return float(vals.min()) if vals.size else np.nan

    @property
    def all_member(self) -> bool:
        return bool(cone_member(self.min_margin))


def cone_field(u: GridFunction, g: MetricField, m: int,
               chi: HermitianMatrix = None) -> ConeFieldReport:
    """Nodewise m-cone margins of (chi +) the discrete Hessian of u."""
    domain = u.domain
    op = NodalOperator(domain, g, m, chi)
    margin = np.full(domain.node_count, np.nan)
    margin[op.nodes] = op.sigma(u.flat).min(axis=-1)
    return ConeFieldReport(domain=domain, margin=margin.reshape(domain.shape))


def fm_field(u: GridFunction, g: MetricField, m: int,
             chi: HermitianMatrix = None) -> GridFunction:
    """Nodewise F_m^+ of (chi +) the discrete Hessian of u.

    Nodes where the Hessian exits the closed m-cone carry 0 (the signed
    margins are ``cone_field``'s); nodes without stencil margin carry NaN
    and are excluded from the grid-function finiteness check by
    construction (they are boundary or exterior).
    """
    domain = u.domain
    op = NodalOperator(domain, g, m, chi)
    out = np.full(domain.node_count, np.nan)
    out[op.nodes] = fm_plus_from_sums(op.sigma(u.flat))
    if domain.kind == TORUS:
        return GridFunction(domain, out)
    return GridFunction._unchecked(domain, out)

"""The verify-suite: seeded checks of the pointwise calculus.

On a corpus drawn from one generator the suite checks that the cone
verdicts of the eigenvalue route and of the oracle agree and grow with m,
that the gradient of F_m matches finite differences, that the determinant
route gives F_m, that F_m is concave along segments, the four curvature
bound regimes, and the lower bound on the product of the gradient.

Every section draws its cases a block of at most ``BLOCK`` (1000) cases
at a time, so memory does not grow with the corpus.  A block draws its
cases' dimension fields at once (n and m, or n, level and c), groups its
cases by (n, m) or (n, level), and draws each group's matrices and
spectra as one stack (the bound regimes' by rejection from the smallest
box that holds each hypothesis), checked straight away through the
stacked entry points of ``hermitian``, ``cones``, ``fm`` and
``curvature``.  A seed so fixes the corpus for a given version of this
module; the rows depend only on the failure counts.
"""

from functools import partial

import numpy as np

from .cones import oracle_margins, semipositive_margins
from .curvature import CASES, bound_regime_holds
from .fm import concavity_holds, cone_member, determinant_fm_values, \
    fm_gradient_diagonal, fm_product_bound, fm_values
from .hermitian import check_positive_definite, conj_transpose, \
    hermitian_entries, metric_frame, relative_lambdas
from .multiindex import subset_sums

# cases per block: a block's draws and stacks are all the suite holds
BLOCK = 1000
CANDIDATES = 2 ** 16  # rows a round of _hypothesis_spectra draws in all


def _row(name, cases, failures):
    return (name, cases, int(failures), "pass" if failures == 0 else "FAIL")


def _blocks(cases):
    """The sizes of the blocks that make up ``cases`` cases."""
    for start in range(0, cases, BLOCK):
        yield min(BLOCK, cases - start)


def _groups(n, second):
    """(n, second, positions) for each distinct pair of a block's fields,
    in lexicographic order; both fields are below 64."""
    keys, inverse = np.unique(n * 64 + second, return_inverse=True)
    for group, key in enumerate(keys.tolist()):
        yield key // 64, key % 64, np.flatnonzero(inverse == group)


def _dimension_groups(rng, cases, low, high):
    """(n, m, k) for each group of k cases of a block, n uniform on
    [low, high) and m uniform on [1, n]."""
    for size in _blocks(cases):
        dims = rng.integers(low, high, size=size)
        for n, m, at in _groups(dims, rng.integers(1, dims + 1)):
            yield n, m, at.size


# ---------------------------------------------------------------------------
# stacked draws

def _diag(values):
    """np.diag of each row of a stack (..., n)."""
    n = values.shape[-1]
    D = np.zeros(values.shape + (n,))
    D[..., range(n), range(n)] = values
    return D


def _complex(rng, k, n):
    return rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))


def _forms(rng, k, n):
    """k Hermitian parts 0.5 (X + X^H) of complex normal X, validated."""
    X = _complex(rng, k, n)
    return hermitian_entries(0.5 * (X + conj_transpose(X)))


def _metrics(rng, k, n):
    """k metrics Q diag(vals) Q^H, with Q the unitary QR factor of a complex
    normal matrix and vals uniform on [0.5, 2), validated as metrics."""
    Q = np.linalg.qr(_complex(rng, k, n))[0]
    vals = rng.uniform(0.5, 2.0, size=(k, n))
    g = hermitian_entries(Q @ _diag(vals) @ conj_transpose(Q))
    check_positive_definite(g)
    return g


def _interior_spectra(rng, k, n, m):
    """k sorted spectra uniform on [-1, 2)^n, shifted up where needed so
    that the sum of the m smallest is at least 0.1."""
    lam = np.sort(rng.uniform(-1.0, 2.0, size=(k, n)), axis=-1)
    smallest = lam[..., :m].sum(axis=-1)
    shifted = lam + ((0.1 - smallest) / m)[..., None]
    return np.where((smallest < 0.1)[..., None], shifted, lam)


def _interior_forms(rng, C, m):
    """B diag(lam) B^H with B = C Q, Q a random unitary: forms whose spectra
    relative to the metrics C C^H are ``_interior_spectra``."""
    k, n = C.shape[:2]
    lam = _interior_spectra(rng, k, n, m)
    B = C @ np.linalg.qr(_complex(rng, k, n))[0]
    return hermitian_entries(B @ _diag(lam) @ conj_transpose(B))


def _hypothesis_spectra(rng, case, n, level, c):
    """For each constant of ``c``, in (0, 3), a uniform draw on the part of
    [-3, 3)^n that meets the hypothesis of bound regime ``case`` at that
    constant and ``level``.

    That part lies in a box: with the other k - 1 entries in [-3, 3), an
    entry is at most 3 (k - 1) - k c if every k-fold sum of lambda + c is
    at most 0 (p0, 0q), and at least k c - 3 (k - 1) if every such sum of
    lambda - c is at least 0 (nq, pn).  Each open case draws candidates
    uniform on that box, 64 at first and twice as many each round, at most
    ``CANDIDATES`` over all open cases, and keeps its first that passes.
    """
    upper = case in ("p0", "0q")  # the hypothesis bounds the sums above
    k = n - level if upper else level
    bad = c[~((0 < c) & (c < 3))]
    if bad.size:
        raise ValueError(f"case {case} at level {level}: the constant c "
                         f"must be in (0, 3), got {bad[0]}")
    if k == 0:
        return rng.uniform(-3.0, 3.0, size=(c.size, n))
    edge = np.minimum(3.0 * (k - 1) - k * c, 3.0)[:, None, None]
    low, high = np.where(upper, -3.0, -edge), np.where(upper, edge, 3.0)
    shift = np.where(upper, c, -c)[:, None, None]
    lam = np.empty((c.size, n))
    todo = np.arange(c.size)
    rows = 64
    while todo.size:
        rows = min(rows, max(1, CANDIDATES // todo.size))
        block = rng.uniform(low[todo], high[todo], size=(todo.size, rows, n))
        sums = subset_sums(block + shift[todo], k)
        passed = sums.max(-1) <= 0 if upper else sums.min(-1) >= 0
        hit = passed.any(axis=-1)
        lam[todo[hit]] = block[hit, passed[hit].argmax(axis=-1)]
        todo = todo[~hit]
        rows *= 2
    return lam


# ---------------------------------------------------------------------------
# sections: each rng -> rows of (name, cases, failures, status)

def oracle_section(rng, cases=1000):
    """The eigenvalue route and the oracle agree on membership and margin,
    and membership in the m-cone implies membership in the (m+1)-cone."""
    fails_eq = fails_mono = 0
    for n, m, k in _dimension_groups(rng, cases, 1, 5):
        T = _forms(rng, k, n)
        lam = relative_lambdas(T, np.linalg.cholesky(_metrics(rng, k, n)))
        a = semipositive_margins(lam, m)
        b = oracle_margins(lam, m)[0]
        member = cone_member(a)
        fails_eq += np.sum((member != cone_member(b))
                           | (np.abs(a - b) > 1e-12))
        if m < n:
            next_member = cone_member(semipositive_margins(lam, m + 1))
            fails_mono += np.sum(member & ~next_member)
    return [_row("oracle_equivalence", cases, fails_eq),
            _row("membership_monotonicity", cases, fails_mono)]


def gradient_section(rng, cases=200):
    """The diagonal gradient of F_m matches central differences."""
    h = 1e-5
    fails = 0
    for n, m, k in _dimension_groups(rng, cases, 1, 6):
        lam = _interior_spectra(rng, k, n, m)
        grad = fm_gradient_diagonal(lam, m)
        # row p of up[i] (dn[i]) is lam[i] with h added to (taken from)
        # its entry p
        up = np.repeat(lam[:, None, :], n, axis=1)
        dn = up.copy()
        up[:, range(n), range(n)] += h
        dn[:, range(n), range(n)] -= h
        fd = (fm_values(up, m) - fm_values(dn, m)) / (2 * h)
        fails += np.sum(np.abs(fd - grad) > 1e-6 * np.maximum(1.0, np.abs(fd)))
    return [_row("gradient_finite_differences", cases, fails)]


def determinant_section(rng, cases=500):
    """The determinant route gives the F_m of the eigenvalue route."""
    fails = 0
    for n, m, k in _dimension_groups(rng, cases, 2, 5):
        C = np.linalg.cholesky(_metrics(rng, k, n))
        # one fold for both routes: relative_lambdas is eigh of this frame
        frames = metric_frame(_interior_forms(rng, C, m), C)
        a = determinant_fm_values(frames, m)
        b = fm_values(np.linalg.eigh(frames)[0], m)
        fails += np.sum(np.abs(a - b) > 1e-9 * np.abs(b))
    return [_row("determinant_route", cases, fails)]


def concavity_section(rng, cases=500):
    """F_m is concave on the segment between two interior forms."""
    fails = 0
    for n, m, k in _dimension_groups(rng, cases, 2, 5):
        C = np.linalg.cholesky(_metrics(rng, k, n))
        a = metric_frame(_interior_forms(rng, C, m), C)
        b = metric_frame(_interior_forms(rng, C, m), C)
        fails += np.sum(~concavity_holds(a, b, m, steps=7))
    return [_row("concavity_probe", cases, fails)]


def bound_regime_section(rng, cases=500):
    """Each curvature bound regime holds on spectra meeting its hypothesis."""
    rows = []
    for case in CASES:
        fails = 0
        for size in _blocks(cases):
            dims = rng.integers(2, 6, size=size)
            c = rng.uniform(0.2, 1.5, size=size)
            low = 1 if case in ("nq", "pn") else 0
            levels = rng.integers(low, dims + low)
            for n, level, at in _groups(dims, levels):
                lam = _hypothesis_spectra(rng, case, n, level, c[at])
                fails += np.sum(~bound_regime_holds(case, lam, c[at], level))
        rows.append(_row(f"bound_regime_{case}", cases, fails))
    return rows


def product_bound_section(rng):
    """The product of the diagonal gradient is at least (m/n)^n."""
    fails = 0
    for n in (2, 3, 4):
        for m in range(1, n + 1):
            lam = np.sort(rng.uniform(-1.0, 2.0, size=(10000, n)), axis=-1)
            smallest = lam[:, :m].sum(axis=-1)
            lam += (np.maximum(0.0, 1e-3 - smallest) / m)[:, None]
            prods = np.prod(fm_gradient_diagonal(lam, m), axis=-1)
            fails += int((prods < fm_product_bound(n, m) - 1e-12).sum())
    return [_row("gradient_product_bound", 90000, fails)]


def sections(corpus_size=1000):
    """The suite's sections in run order, each a callable rng -> rows;
    ``corpus_size`` is the number of cases of the oracle section."""
    return (partial(oracle_section, cases=corpus_size), gradient_section,
            determinant_section, concavity_section, bound_regime_section,
            product_bound_section)


def verify_suite(rng, corpus_size=1000) -> list:
    """Rows (name, cases, failures, status) of every section, run in order
    on one generator."""
    return [row for section in sections(corpus_size) for row in section(rng)]

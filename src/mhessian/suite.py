"""The verify-suite: seeded checks of the pointwise calculus.

On a corpus drawn from one generator the suite checks that the cone
verdicts of the eigenvalue route and of the oracle agree and grow with m,
that the gradient of F_m matches finite differences, that the determinant
route gives F_m, that F_m is concave along segments, the four curvature
bound regimes, and the lower bound on the product of the gradient.

Every section runs in two passes over blocks of at most ``BLOCK`` cases,
so memory does not grow with the corpus.  The first pass makes the
generator calls of checking one case at a time, in that order, and keeps
the draws; it does no linear algebra.  The second groups the block's
cases by dimension (and m or level) and checks each group as one stack,
through the stacked entry points that the per-matrix functions of
``hermitian``, ``cones``, ``fm`` and ``curvature`` are built on.  A seed
so gives the corpus, the generator state after every section and the
verdicts of checking one case at a time.
"""

from functools import partial

import numpy as np

from .cones import oracle_margins, semipositive_margins
from .curvature import CASES, bound_regime_holds
from .fm import concavity_holds, cone_member, determinant_fm_values, \
    fm_gradient_diagonal, fm_product_bound, fm_values
from .hermitian import check_positive_definite, conj_transpose, \
    hermitian_entries, metric_frame, relative_lambdas
from .multiindex import spectrum_sums

# cases per block: each pass holds one block's draws and stacks
BLOCK = 250


def _row(name, cases, failures):
    return (name, cases, int(failures), "pass" if failures == 0 else "FAIL")


def _blocks(rng, cases, draw):
    """The draws of ``cases`` cases, ``draw(rng)`` each, a block at a time."""
    for start in range(0, cases, BLOCK):
        yield [draw(rng) for _ in range(min(BLOCK, cases - start))]


def _stacks(block):
    """The block's cases grouped by their first two fields (n and m, or n
    and level), each group as the tuple of its stacked remaining fields."""
    groups = {}
    for case in block:
        groups.setdefault(case[:2], []).append(case[2:])
    for key, cases in groups.items():
        yield key, [np.stack(field) for field in zip(*cases)]


# ---------------------------------------------------------------------------
# pass 1: draws

def _dimension_draw(rng, low, high):
    n = int(rng.integers(low, high))
    return n, int(rng.integers(1, n + 1))


def _complex_draw(rng, n):
    """The two normal draws of a complex n x n matrix, real part first."""
    return rng.normal(size=(n, n)), rng.normal(size=(n, n))


def _metric_draw(rng, n):
    """A complex matrix whose unitary QR factor is the metric's frame,
    then the metric's eigenvalues in that frame."""
    return (*_complex_draw(rng, n), rng.uniform(0.5, 2.0, size=n))


def _interior_form_draw(rng, n):
    """A raw spectrum for ``_interior_spectra``, then the complex matrix
    whose QR factor carries it."""
    return (rng.uniform(-1.0, 2.0, size=n), *_complex_draw(rng, n))


def _hypothesis_spectrum(rng, case, n, c, level):
    """The first uniform draw on [-3, 3)^n that meets the hypothesis of
    bound regime ``case`` at shift ``c`` and ``level``.

    Rows are drawn and tested in blocks of 64 rows, doubling up to 4096.
    The generator is then rewound to the block's start and the rows up to
    the accepted one drawn again, so the spectrum and the generator state
    are those of drawing and testing one row at a time.
    """
    k = n - level if case in ("p0", "0q") else level
    if k == 0:
        return rng.uniform(-3.0, 3.0, size=n)
    rows = 64
    while True:
        state = rng.bit_generator.state
        block = rng.uniform(-3.0, 3.0, size=(rows, n))
        if case in ("p0", "0q"):
            passed = spectrum_sums(block + c, k).max(axis=-1) <= 0.0
        else:
            passed = spectrum_sums(block - c, k).min(axis=-1) >= 0.0
        if passed.any():
            j = int(passed.argmax())
            # rewinding and drawing again, unlike bit_generator.advance,
            # keeps the generator's buffered 32-bit half for rng.integers
            rng.bit_generator.state = state
            return rng.uniform(-3.0, 3.0, size=(j + 1, n))[j]
        rows = min(2 * rows, 4096)


def _regime_draw(rng, case):
    n = int(rng.integers(2, 6))
    c = float(rng.uniform(0.2, 1.5))
    if case in ("nq", "pn"):
        level = int(rng.integers(1, n + 1))
    else:
        level = int(rng.integers(0, n))
    return n, level, c, _hypothesis_spectrum(rng, case, n, c, level)


# ---------------------------------------------------------------------------
# pass 2: stacked constructions, each member as a lone matrix gets it

def _diag(values):
    """np.diag of each row of a stack (..., n)."""
    n = values.shape[-1]
    D = np.zeros(values.shape + (n,))
    D[..., range(n), range(n)] = values
    return D


def _forms(re, im):
    """Hermitian parts 0.5 (X + X^H) of X = re + i im, validated."""
    X = re + 1j * im
    return hermitian_entries(0.5 * (X + conj_transpose(X)))


def _metrics(re, im, vals):
    """Q diag(vals) Q^H for the QR factor Q of re + i im, validated as
    metrics."""
    Q = np.linalg.qr(re + 1j * im)[0]
    g = hermitian_entries(Q @ _diag(vals) @ conj_transpose(Q))
    check_positive_definite(g)
    return g


def _interior_spectra(raw, m):
    """Sorted spectra, shifted up where needed so that the sum of the m
    smallest is at least 0.1."""
    lam = np.sort(raw, axis=-1)
    smallest = lam[..., :m].sum(axis=-1)
    shifted = lam + ((0.1 - smallest) / m)[..., None]
    return np.where((smallest < 0.1)[..., None], shifted, lam)


def _interior_forms(C, raw, re, im, m):
    """B diag(lam) B^H with B = C Q: forms whose spectra relative to the
    metrics C C^H are ``_interior_spectra(raw, m)``."""
    B = C @ np.linalg.qr(re + 1j * im)[0]
    lam = _interior_spectra(raw, m)
    return hermitian_entries(B @ _diag(lam) @ conj_transpose(B))


# ---------------------------------------------------------------------------
# sections: each rng -> rows of (name, cases, failures, status)

def oracle_section(rng, cases=1000):
    """The eigenvalue route and the oracle agree on membership and margin,
    and membership in the m-cone implies membership in the (m+1)-cone."""
    def draw(rng):
        n, m = _dimension_draw(rng, 1, 5)
        return (n, m, *_complex_draw(rng, n), *_metric_draw(rng, n))

    fails_eq = fails_mono = 0
    for block in _blocks(rng, cases, draw):
        for (n, m), (re, im, *metric) in _stacks(block):
            T = _forms(re, im)
            lam = relative_lambdas(T, np.linalg.cholesky(_metrics(*metric)))
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
    def draw(rng):
        n, m = _dimension_draw(rng, 1, 6)
        return n, m, rng.uniform(-1.0, 2.0, size=n)

    h = 1e-5
    fails = 0
    for block in _blocks(rng, cases, draw):
        for (n, m), (raw,) in _stacks(block):
            lam = _interior_spectra(raw, m)
            # shape (k, 1, n): each spectrum alone, as for spectrum_sums
            grad = fm_gradient_diagonal(lam[:, None, :], m)[:, 0, :]
            # row p of up[i] (dn[i]) is lam[i] with h added to (taken
            # from) its entry p
            up = np.repeat(lam[:, None, :], n, axis=1)
            dn = up.copy()
            up[:, range(n), range(n)] += h
            dn[:, range(n), range(n)] -= h
            fd = (fm_values(up, m) - fm_values(dn, m)) / (2 * h)
            fails += np.sum(np.abs(fd - grad)
                            > 1e-6 * np.maximum(1.0, np.abs(fd)))
    return [_row("gradient_finite_differences", cases, fails)]


def determinant_section(rng, cases=500):
    """The determinant route gives the F_m of the eigenvalue route."""
    def draw(rng):
        n, m = _dimension_draw(rng, 2, 5)
        return (n, m, *_metric_draw(rng, n), *_interior_form_draw(rng, n))

    fails = 0
    for block in _blocks(rng, cases, draw):
        for (n, m), fields in _stacks(block):
            g = _metrics(*fields[:3])
            C = np.linalg.cholesky(g)
            T = _interior_forms(C, *fields[3:], m)
            a = determinant_fm_values(T, g, m)
            b = fm_values(relative_lambdas(T, C), m)
            fails += np.sum(np.abs(a - b) > 1e-9 * np.abs(b))
    return [_row("determinant_route", cases, fails)]


def concavity_section(rng, cases=500):
    """F_m is concave on the segment between two interior forms."""
    def draw(rng):
        n, m = _dimension_draw(rng, 2, 5)
        return (n, m, *_metric_draw(rng, n), *_interior_form_draw(rng, n),
                *_interior_form_draw(rng, n))

    fails = 0
    for block in _blocks(rng, cases, draw):
        for (n, m), fields in _stacks(block):
            C = np.linalg.cholesky(_metrics(*fields[:3]))
            a = metric_frame(_interior_forms(C, *fields[3:6], m), C)
            b = metric_frame(_interior_forms(C, *fields[6:], m), C)
            fails += np.sum(~concavity_holds(a, b, m, steps=7))
    return [_row("concavity_probe", cases, fails)]


def bound_regime_section(rng, cases=500):
    """Each curvature bound regime holds on spectra meeting its hypothesis."""
    rows = []
    for case in CASES:
        fails = 0
        for block in _blocks(rng, cases, partial(_regime_draw, case=case)):
            for (n, level), (c, lam) in _stacks(block):
                fails += np.sum(~bound_regime_holds(case, lam, c, level))
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

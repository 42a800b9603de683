"""The stacked entry points of the pointwise layer against their per-matrix
public functions: bit for bit member by member, and a stack with one bad
member raises what that member raises alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhessian.cones import is_m_semipositive, oracle_margins, \
    semipositive_margins, strong_positivity_oracle
from mhessian.curvature import CASES, bound_regime_holds, verify_bound_regime
from mhessian.errors import ConeBoundaryError, HypothesisViolatedError, \
    NotHermitianError, NotPositiveDefiniteError
from mhessian.fm import concavity_holds, concavity_probe, \
    determinant_fm_values, fm_value, fm_values, fm_via_determinant
from mhessian.hermitian import HermitianMatrix, MetricMatrix, \
    check_positive_definite, hermitian_entries, metric_frame, \
    relative_eigenvalues, relative_lambdas
from mhessian.multiindex import multi_indices
from mhessian.suite import _hypothesis_spectra

from conftest import random_hermitian, random_metric

EXAMPLES = settings(max_examples=40, deadline=None)


@st.composite
def stacks(draw):
    """(n, k, rng, bad): dimension 1-5, stack size 1-6, a seeded generator
    and the position of the member a failure test spoils."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, k, np.random.default_rng(seed), draw(st.integers(0, k - 1))


def same_bits(stacked, single):
    stacked = np.asarray(stacked)
    return stacked.tobytes() == np.asarray(single, stacked.dtype).tobytes()


def forms_and_metrics(rng, n, k, positive=False):
    """k random forms (positive definite ones if ``positive``, so inside
    every cone) and k random metrics, each as objects and as stacks."""
    forms = [random_metric(rng, n).base if positive
             else random_hermitian(rng, n) for _ in range(k)]
    metrics = [random_metric(rng, n) for _ in range(k)]
    return (forms, metrics, np.stack([T.entries for T in forms]),
            np.stack([g.cholesky for g in metrics]))


def raises_alone_and_in_stack(error, stacked, single):
    with pytest.raises(error):
        single()
    with pytest.raises(error):
        stacked()


class TestHermitian:
    @given(stacks())
    @EXAMPLES
    def test_validation(self, case):
        n, k, rng, bad = case
        X = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        # a defect of a few ulps, within the tolerance
        raw = X + np.swapaxes(X.conj(), -1, -2) + 1e-16j * rng.normal(
            size=(k, n, n))
        out = hermitian_entries(raw)
        for i in range(k):
            assert same_bits(out[i], HermitianMatrix(raw[i]).entries)
        check_positive_definite(np.stack([random_metric(rng, n).entries
                                          for _ in range(k)]))

    @given(stacks(), st.sampled_from(["defect", "nan", "inf"]))
    @EXAMPLES
    def test_one_invalid_member_raises(self, case, spoil):
        n, k, rng, bad = case
        raw = np.stack([random_hermitian(rng, n).entries for _ in range(k)])
        raw[bad, 0, n - 1] += {"defect": 1j, "nan": np.nan,
                               "inf": np.inf}[spoil]
        raises_alone_and_in_stack(NotHermitianError,
                                  lambda: hermitian_entries(raw),
                                  lambda: HermitianMatrix(raw[bad]))

    @given(stacks(), st.sampled_from([-3.0, 0.0, 1e-14]))
    @EXAMPLES
    def test_one_member_not_positive_definite_raises(self, case, scale):
        # the eigenvalues of random_metric lie in [0.5, 2]: a shift by -3
        # makes the member negative definite, a rank-one member of scale 0
        # or 1e-14 below the positive-definiteness threshold
        n, k, rng, bad = case
        g = np.stack([random_metric(rng, n).entries for _ in range(k)])
        if scale < 0:
            g[bad] += scale * np.eye(n)
        else:
            g[bad] = np.diag([1.0] + [scale] * (n - 1)) if n > 1 else 0.0
        raises_alone_and_in_stack(
            NotPositiveDefiniteError, lambda: check_positive_definite(g),
            lambda: MetricMatrix(HermitianMatrix(g[bad])))

    @given(stacks())
    @EXAMPLES
    def test_metric_frame_and_relative_lambdas(self, case):
        n, k, rng, _ = case
        forms, metrics, T, C = forms_and_metrics(rng, n, k)
        frames = metric_frame(T, C)
        lam = relative_lambdas(T, C)
        for i in range(k):
            assert same_bits(frames[i], metric_frame(forms[i].entries,
                                                     metrics[i].cholesky))
            assert same_bits(lam[i], relative_eigenvalues(
                forms[i], metrics[i]).lambdas)

    @given(stacks())
    @EXAMPLES
    def test_metric_frame_broadcasts(self, case):
        n, k, rng, _ = case
        _, _, T, C = forms_and_metrics(rng, n, k)
        # one factor against a stack of real forms, as GridDomain.fold
        # calls it
        real = np.ascontiguousarray(T.real)
        frames = metric_frame(real, C[0])
        for i in range(k):
            assert same_bits(frames[i], metric_frame(real[i], C[0]))
        # a factor per row against a row of two forms
        pairs = np.stack([T, T[::-1]], axis=1)
        frames = metric_frame(pairs, C[:, None])
        for i, j in np.ndindex(k, 2):
            assert same_bits(frames[i, j], metric_frame(pairs[i, j], C[i]))


class TestCones:
    @given(stacks())
    @EXAMPLES
    def test_margins_and_witnesses(self, case):
        n, k, rng, _ = case
        forms, metrics, T, C = forms_and_metrics(rng, n, k)
        lam = relative_lambdas(T, C)
        for m in range(1, n + 1):
            margins = semipositive_margins(lam, m)
            oracle, witness = oracle_margins(lam, m)
            for i in range(k):
                verdict = is_m_semipositive(forms[i], metrics[i], m)
                assert same_bits(margins[i], verdict.margin)
                verdict = strong_positivity_oracle(forms[i], metrics[i], m)
                assert same_bits(oracle[i], verdict.margin)
                J = multi_indices(n, m)[witness[i]]
                assert verdict.witness == tuple(j + 1 for j in J)


def check_outside(T, C, metric, bad, m):
    """The member ``bad`` of the forms T, outside the m-cone of its metric,
    raises alone and in the stack through both routes."""
    outside = HermitianMatrix(T[bad])
    raises_alone_and_in_stack(
        ConeBoundaryError, lambda: fm_values(relative_lambdas(T, C), m),
        lambda: fm_value(outside, metric, m))
    raises_alone_and_in_stack(
        ConeBoundaryError,
        lambda: determinant_fm_values(metric_frame(T, C), m),
        lambda: fm_via_determinant(outside, metric, m))


class TestFm:
    @given(stacks())
    @EXAMPLES
    def test_values_and_determinant_route(self, case):
        n, k, rng, _ = case
        forms, metrics, T, C = forms_and_metrics(rng, n, k, positive=True)
        lam = relative_lambdas(T, C)
        frames = metric_frame(T, C)
        for m in range(1, n + 1):
            values = fm_values(lam, m)
            routes = determinant_fm_values(frames, m)
            for i in range(k):
                assert same_bits(values[i],
                                 fm_value(forms[i], metrics[i], m).value)
                assert same_bits(routes[i],
                                 fm_via_determinant(forms[i], metrics[i], m))

    @given(stacks())
    @EXAMPLES
    def test_one_member_outside_the_cone_raises(self, case):
        n, k, rng, bad = case
        forms, metrics, T, C = forms_and_metrics(rng, n, k, positive=True)
        spoiled = T.copy()
        spoiled[bad] *= -1.0
        check_outside(spoiled, C, metrics[bad], bad, n)
        if n > 1:
            # two relative eigenvalues negated, so an even number of
            # negative 1-sums: det D_1 is positive, the member outside
            frame = metric_frame(T[bad], C[bad])
            lam, V = np.linalg.eigh(frame)
            lam[-2:] *= -1.0
            spoiled = T.copy()
            spoiled[bad] = C[bad] @ (V * lam) @ V.conj().T @ C[bad].conj().T
            spoiled[bad] = 0.5 * (spoiled[bad] + spoiled[bad].conj().T)
            check_outside(spoiled, C, metrics[bad], bad, 1)

    @given(stacks(), st.integers(2, 9), st.sampled_from([1e-10, -1.0]))
    @EXAMPLES
    def test_concavity(self, case, steps, slack):
        # slack -1 puts the chord above every value: the probe fails
        n, k, rng, _ = case
        A, metrics, a, C = forms_and_metrics(rng, n, k, positive=True)
        B = [random_metric(rng, n).base for _ in range(k)]
        b = np.stack([Bi.entries for Bi in B])
        for m in range(1, n + 1):
            holds = concavity_holds(metric_frame(a, C), metric_frame(b, C), m,
                                    steps, slack)
            for i in range(k):
                assert holds[i] == concavity_probe(A[i], B[i], metrics[i], m,
                                                   steps, slack)


class TestCurvature:
    @given(stacks(), st.sampled_from(CASES))
    @EXAMPLES
    def test_bound_regimes(self, case, regime):
        n, k, rng, bad = case
        # the levels the suite draws
        if regime in ("nq", "pn"):
            level = int(rng.integers(1, n + 1))
        else:
            level = int(rng.integers(0, n))
        c = rng.uniform(0.2, 1.5, size=k)
        lam = _hypothesis_spectra(rng, regime, n, level, c)
        holds = bound_regime_holds(regime, lam, c, level)
        for i in range(k):
            assert holds[i] == verify_bound_regime(regime, lam[i], c[i], level)
        c[bad] = 0.0
        raises_alone_and_in_stack(
            HypothesisViolatedError,
            lambda: bound_regime_holds(regime, lam, c, level),
            lambda: verify_bound_regime(regime, lam[bad], c[bad], level))
        if (n - level if regime in ("p0", "0q") else level) > 0:
            c[bad] = 1.0
            lam[bad] = 3.0 if regime in ("p0", "0q") else -3.0
            raises_alone_and_in_stack(
                HypothesisViolatedError,
                lambda: bound_regime_holds(regime, lam, c, level),
                lambda: verify_bound_regime(regime, lam[bad], 1.0, level))

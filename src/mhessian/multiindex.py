"""Strictly increasing multi-indices and subset-sum helpers.

Multi-indices are 0-based tuples listed in lexicographic order, matching
the ordering of ``itertools.combinations``.  All eigenvalue-sum machinery
(cone margins, the F_m products, wedge bases) indexes into this order.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


@lru_cache(maxsize=None)
def multi_indices(n: int, k: int) -> tuple:
    """All strictly increasing k-tuples from {0, ..., n-1}, lexicographic."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def subset_sum_matrix(n: int, k: int) -> np.ndarray:
    """0/1 matrix S of shape (C(n,k), n) with S[J, i] = 1 iff i in J.

    For a spectrum ``lam`` of length n, ``S @ lam`` gives all k-fold
    eigenvalue sums in lexicographic multi-index order.
    """
    S = np.zeros((comb(n, k), n))
    for row, J in enumerate(multi_indices(n, k)):
        S[row, list(J)] = 1.0
    S.setflags(write=False)
    return S


def subset_sums(lambdas: np.ndarray, k: int) -> np.ndarray:
    """All k-fold sums of the entries of ``lambdas`` (last axis), lexicographic.

    Accepts a single spectrum of shape (n,) or a batch of shape (..., n);
    the result has shape (..., C(n,k)).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = lambdas.shape[-1]
    return lambdas @ subset_sum_matrix(n, k).T


def spectrum_sums(lambdas: np.ndarray, k: int) -> np.ndarray:
    """``subset_sums`` of each spectrum of a stack (..., n), shape
    (..., C(n,k)), with the bits of ``subset_sums`` of that spectrum alone.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    # shape (..., 1, n): one vector-matrix product per spectrum, as a lone
    # spectrum takes; one product for the whole stack may round otherwise
    return subset_sums(lambdas[..., None, :], k)[..., 0, :]

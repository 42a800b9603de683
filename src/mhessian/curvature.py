"""The pointwise commutator of form-multiplication with metric contraction.

In a frame simultaneously diagonalizing the metric and a form with
eigenvalues lambda_1, ..., lambda_n, the operator acts diagonally on
(p,q)-form coefficients: the coefficient at the multi-index pair (J, K)
is scaled by ``sum_{j in J} lambda_j + sum_{k in K} lambda_k - sum_l
lambda_l``.  Four sign regimes of the eigenvalue hypothesis yield lower
bounds c(n-l) or c*l on the operator in the extreme bidegrees, and the
reciprocals of those bounds are the scalar constants of the associated
L2 estimates.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatchError, HypothesisViolatedError
from .multiindex import subset_sums

BOUND_TOL = 1e-12

CASES = ("p0", "0q", "nq", "pn")


@dataclass(frozen=True)
class BidegreeForm:
    """Coefficient tensor of an L-valued (p,q)-form at a point.

    ``coeffs[a, b]`` is the coefficient at the a-th increasing p-index and
    b-th increasing q-index (lexicographic); ``weight`` is the squared
    length of the line-bundle frame.
    """

    n: int
    p: int
    q: int
    coeffs: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        if not (0 <= self.p <= self.n and 0 <= self.q <= self.n):
            raise DimensionMismatchError(
                f"bidegree ({self.p},{self.q}) out of range for n={self.n}"
            )
        c = np.asarray(self.coeffs, dtype=complex)
        expected = (comb(self.n, self.p), comb(self.n, self.q))
        if c.shape != expected:
            raise DimensionMismatchError(
                f"coefficient shape {c.shape} does not match {expected}"
            )
        if not self.weight > 0:
            raise DimensionMismatchError("fibre weight must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def curvature_factors(lambdas, p: int, q: int) -> np.ndarray:
    """Diagonal action factors, shape (C(n,p), C(n,q)).

    Entry (J, K) is sum_J lambda + sum_K lambda - sum of all lambdas.
    """
    lam = np.asarray(lambdas, dtype=float)
    sj = subset_sums(lam, p)
    sk = subset_sums(lam, q)
    return sj[:, None] + sk[None, :] - lam.sum()


def apply_curvature_operator(u: BidegreeForm, lambdas) -> BidegreeForm:
    """Apply the commutator operator to a form in the diagonalizing frame."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (u.n,):
        raise DimensionMismatchError(
            f"spectrum length {lam.shape} does not match form dimension {u.n}"
        )
    factors = curvature_factors(lam, u.p, u.q)
    return BidegreeForm(n=u.n, p=u.p, q=u.q, coeffs=factors * u.coeffs,
                        weight=u.weight)


def inner_product(u: BidegreeForm, v: BidegreeForm) -> complex:
    """Pointwise inner product of two forms of one bidegree."""
    if (u.n, u.p, u.q) != (v.n, v.p, v.q):
        raise DimensionMismatchError("forms have different bidegree")
    return complex(np.sum(u.coeffs * v.coeffs.conj()) * u.weight)


def _check_hypothesis(case: str, lam: np.ndarray, c: float,
                      level: int) -> None:
    n = lam.size
    if case in ("p0", "0q"):
        # The form is (n-level)-semi-negative shifted by -c: every
        # (n-level)-fold sum of (lambda + c) must be <= 0.
        k = n - level
        if k > 0 and subset_sums(lam + c, k).max() > BOUND_TOL:
            raise HypothesisViolatedError(
                f"case {case}: some {k}-fold sum of (lambda + c) is positive"
            )
    else:
        # The form dominates c times the metric at order `level`: every
        # level-fold sum of (lambda - c) must be >= 0.
        if level > 0 and subset_sums(lam - c, level).min() < -BOUND_TOL:
            raise HypothesisViolatedError(
                f"case {case}: some {level}-fold sum of (lambda - c) is negative"
            )


def verify_bound_regime(case: str, lambdas, c: float, level: int) -> bool:
    """Check the operator lower bound on every basis form of the case's bidegree.

    Cases: ``p0`` acts on (level, 0), ``0q`` on (0, level) with bound
    c(n-level); ``nq`` acts on (n, level), ``pn`` on (level, n) with bound
    c*level.  The case hypothesis on the spectrum is enforced strictly.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    if not 0 <= level <= n:
        raise DimensionMismatchError(f"level {level} out of range for n={n}")
    if not c > 0:
        raise HypothesisViolatedError("the constant c must be positive")
    _check_hypothesis(case, lam, c, level)
    p, q = {
        "p0": (level, 0),
        "0q": (0, level),
        "nq": (n, level),
        "pn": (level, n),
    }[case]
    bound = c * (n - level) if case in ("p0", "0q") else c * level
    factors = curvature_factors(lam, p, q)
    return bool(factors.min() >= bound - BOUND_TOL)


def l2_constant(case: str, c: float, n: int, l: int) -> float:
    """Scalar constant of the L2 estimate: 1/(c(n-l)) for 0q, 1/(c*l) otherwise."""
    if case not in ("0q", "nq", "pn"):
        raise ValueError(f"unknown case {case!r}; expected 0q, nq or pn")
    if not c > 0:
        raise HypothesisViolatedError("the constant c must be positive")
    if case == "0q":
        if not 0 <= l < n:
            raise DimensionMismatchError(f"level l={l} admits no constant (n={n})")
        return 1.0 / (c * (n - l))
    if not 0 < l <= n:
        raise DimensionMismatchError(f"level l={l} admits no constant (n={n})")
    return 1.0 / (c * l)

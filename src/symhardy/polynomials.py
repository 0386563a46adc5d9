"""Angular factors and their differential identities.

Two polynomial families carry the symmetry classes used throughout the
package: the Vandermonde product ``prod_{i<j} (x_j - x_i)`` for
antisymmetric functions and the linear form ``sum_k x_k`` for odd
functions; ``ConstantFactor``, F = 1, is the angular part of general-class
trials.  Each factor class carries the ``FunctionClass`` it gives a trial,
and takes its least dimension and its homogeneity order lam from that
class; ``class_factor`` maps each class to its factor.  All three are
harmonic, homogeneous polynomials, so they satisfy
the Euler relation ``<x, grad F(x)> = lam * F(x)`` with ``lam`` the
homogeneity order, and the Schwarz ratio

    t(x) = (|x| |grad F(x)| / F(x))**2

is bounded below by ``lam**2`` wherever ``F`` does not vanish.  These two
facts are what every certificate computation downstream relies on;
``AngularFactor.schwarz_ratio`` asserts the bound wherever it evaluates
t.  Harmonicity is used, never evaluated: trials take
Delta(F psi) = F (psi'' + (d - 1 + 2 lam) psi'/r), and the tests check
Delta F = 0 exactly.  The Euler residual and the exact rational
Vandermonde backend that anchor the floating-point tolerances are test
oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .constants import FunctionClass
from .errors import InvalidDimensionError, OnBoundaryError, SymHardyError

__all__ = [
    "AngularFactor",
    "Vandermonde",
    "OddLinear",
    "ConstantFactor",
    "vandermonde",
    "odd_linear",
    "class_factor",
]


def point_batch(x, dimension):
    """A point (d,) or batch (n, d) as a 2-d float array, and whether it
    was a single point; any other shape raises ``InvalidDimensionError``."""
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != dimension:
        raise InvalidDimensionError(
            f"expected a point of shape ({dimension},) or a batch of shape "
            f"(n, {dimension}), got an array of shape {X.shape}"
        )
    return (X[None, :], True) if X.ndim == 1 else (X, False)


def row_sum(columns):
    """Row sums of a batch given by its columns (a sequence of (n,) arrays,
    or ``X.T``), added left to right at every d.

    Below eight terms numpy's ``X.sum(axis=1)`` adds left to right too, so
    there the two agree bit for bit; from eight terms on numpy uses eight
    pairwise accumulators.
    """
    out = np.array(columns[0], dtype=float)
    for column in columns[1:]:
        out += column
    return out


def row_dot(A, B):
    """Row-wise inner products of (n, d) batches, formed and added left to
    right one column at a time, so no (n, d) temporary is made; as
    ``(A * B).sum(axis=1)`` below eight columns."""
    pairs = zip(A.T, B.T)
    a, b = next(pairs)
    out = a * b
    for a, b in pairs:
        out += a * b
    return out


def row_prod(columns):
    """Row products of a batch given by an iterable of its columns, as
    ``.prod(axis=1)``, which multiplies left to right at every length."""
    columns = iter(columns)
    out = np.array(next(columns), dtype=float)
    for column in columns:
        out *= column
    return out


class AngularFactor:
    """Shared interface of angular factors.

    Concrete subclasses provide the vectorized internals ``_value`` and
    ``_gradient`` on (n, d) arrays; the public methods accept either a
    single point or a batch and unwrap accordingly.  Every factor is
    harmonic, so none carries a Laplacian.
    ``function_class`` is the symmetry class of F, and so of every trial
    F psi(|x|) built on it; it sets the least dimension and ``homogeneity``.
    """

    function_class: FunctionClass

    def __init__(self, dimension):
        self.function_class.check_dimension(dimension)
        self.dimension = int(dimension)
        self.homogeneity = self.function_class.lam(self.dimension)

    def value(self, x):
        X, single = point_batch(x, self.dimension)
        v = self._value(X)
        return float(v[0]) if single else v

    def gradient(self, x):
        X, single = point_batch(x, self.dimension)
        g = self._gradient(X)
        return g[0] if single else g

    def value_and_gradient(self, x):
        """(F, grad F), rounded exactly as ``value`` and ``gradient``; grad F
        may be column-major, where ``gradient`` returns a C-ordered array."""
        X, single = point_batch(x, self.dimension)
        v, g = self._value_and_gradient(X)
        return (float(v[0]), g[0]) if single else (v, g)

    def _value_and_gradient(self, X):
        return self._value(X), self._gradient(X)

    def schwarz_ratio(self, x):
        """Return t = (|x| |grad F| / F)**2, clipped up to lam**2.

        The lower bound t >= lam**2 follows from the Euler relation and
        the Cauchy-Schwarz inequality; it is asserted here, not assumed.
        """
        X, single = point_batch(x, self.dimension)
        v = self._value(X)
        if np.any(v == 0.0):
            raise OnBoundaryError(
                "angular factor vanishes at the point; the Schwarz ratio "
                "is defined on the interior of the sector only"
            )
        g = self._gradient(X)
        t = row_dot(X, X) * row_dot(g, g) / (v * v)
        lam2 = self.homogeneity**2
        if np.any(t < lam2 * (1.0 - 1e-9) - 1e-9):
            raise SymHardyError(
                "Schwarz ratio fell below the homogeneity bound; "
                "numerical breakdown at the sampled point"
            )
        t = np.maximum(t, lam2)
        return float(t[0]) if single else t

    def __repr__(self):
        return f"{type(self).__name__}(d={self.dimension}, lam={self.homogeneity})"


class Vandermonde(AngularFactor):
    """The alternating product prod_{i<j} (x_j - x_i) in dimension d >= 2.

    Antisymmetric under any coordinate transposition, harmonic and
    homogeneous of order d (d - 1) / 2.  The value and the gradient come
    from one loop over the pairs (``value_and_gradient``): logarithmic
    differentiation away from coordinate coincidences, and an exact
    pair-omission product form, applied to all coincident rows at once, on
    the coincidence set, so they are valid polynomial evaluations
    everywhere.  dF/dx_k adds its d - 1 terms left to right in the order
    of the other coordinate, at every d.
    """

    function_class = FunctionClass.ANTISYMMETRIC

    def __init__(self, dimension):
        super().__init__(dimension)
        d = self.dimension
        self._pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]

    def _value(self, X):
        return row_prod(X[:, j] - X[:, i] for i, j in self._pairs)

    def _gradient(self, X):
        # C order, as callers may reduce rows with numpy, whose sums of
        # eight or more terms round by memory layout.
        return np.ascontiguousarray(self._value_and_gradient(X)[1])

    def _value_and_gradient(self, X):
        # One loop over the pairs: each difference x_j - x_i is a factor of
        # F, and its reciprocal is added to accumulator j and subtracted
        # from accumulator i, so accumulator k adds 1/(x_k - x_j) over
        # j != k in order (1/(x_k - x_j) is -(1/(x_j - x_k)) exactly).
        # dF/dx_k = F * accumulator k.
        columns = X.T
        # Not np.zeros: its calloc maps fresh zero pages for large arrays.
        grad = np.empty((self.dimension, len(X)))
        grad.fill(0.0)
        F = None
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, j in self._pairs:
                diff = columns[j] - columns[i]
                inv = 1.0 / diff
                grad[j] += inv
                grad[i] -= inv
                if F is None:
                    F = diff
                else:
                    F *= diff
            grad *= F
        rows = np.nonzero(~np.isfinite(grad).all(axis=0))[0]
        if len(rows):
            grad[:, rows] = self._gradient_products(X[rows]).T
        return F, grad.T

    def _gradient_products(self, X):
        # Exact polynomial route for a point (d,) or a batch (m, d), one
        # loop over the pairs: the product of every pair factor but
        # x_j - x_i is added to dF/dx_j and subtracted from dF/dx_i.  So
        # dF/dx_k takes its terms in the order of the other coordinate.
        # O(d^4) operations on whole columns, coincidence-safe; each row
        # sees exactly the operations of a one-point call.
        diffs = [X[..., j] - X[..., i] for i, j in self._pairs]
        out = np.zeros(X.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for q, (i, j) in enumerate(self._pairs):
                prod = np.ones(X.shape[:-1])
                for diff in diffs[:q] + diffs[q + 1:]:
                    prod *= diff
                out[..., j] += prod
                out[..., i] -= prod
        return out


class OddLinear(AngularFactor):
    """The linear form sum_k x_k; odd, harmonic, homogeneous of order one."""

    function_class = FunctionClass.ODD

    def _value(self, X):
        return row_sum(X.T)

    def _gradient(self, X):
        return np.ones_like(X)


class ConstantFactor(AngularFactor):
    """F = 1, the angular part of general-class trials; harmonic of order 0."""

    function_class = FunctionClass.GENERAL

    def _value(self, X):
        return np.ones(len(X))

    def _gradient(self, X):
        return np.zeros_like(X)


@lru_cache(maxsize=None)
def vandermonde(dimension):
    return Vandermonde(dimension)


@lru_cache(maxsize=None)
def odd_linear(dimension):
    return OddLinear(dimension)


# The angular factor that carries each class in trial functions.
_CLASS_FACTORS = {
    FunctionClass.ANTISYMMETRIC: vandermonde,
    FunctionClass.ODD: odd_linear,
    FunctionClass.GENERAL: ConstantFactor,
}


def class_factor(klass: FunctionClass, dimension) -> AngularFactor:
    """The angular factor of class ``klass`` in ``dimension``."""
    return _CLASS_FACTORS[klass](dimension)

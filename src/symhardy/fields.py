"""The certificate vector field, its divergence and the pointwise bound.

On the interior of a symmetry sector (angular factor F > 0) the field

    T(x) = alpha x / |x|^p  -  beta grad F(x) / (F(x) |x|^(p-2))

has, for harmonic homogeneous F, the closed-form divergence

    div T = (alpha (d - p) + beta (p - 2) lam) / |x|^p
            + beta |grad F|^2 / (F^2 |x|^(p-2)),

and the weighted pointwise certificate

    |x|^p [div T - (p-1) |T|^(p/(p-1)) - gamma <x, T> / |x|^2]

collapses to the scalar function f evaluated at the Schwarz ratio t(x).
Both routes are implemented independently here and in ``minimax``; their
agreement is the algebraic heart of the construction and is what the
tests pin down.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import FunctionClass, Params
from .errors import (
    DegenerateSampleError,
    DomainError,
    InvalidDimensionError,
    OutOfRangeError,
    SingularPointError,
    SymmetryClassError,
)
from .polynomials import AngularFactor, class_factor, point_batch, row_dot, row_sum

__all__ = [
    "SectorDomain",
    "field_T",
    "divergence_T",
    "certificate_many",
]

# Radius of the ball at the origin that the sampler leaves out.
_ORIGIN_BALL = 1e-6


@dataclass(frozen=True)
class SectorDomain:
    """The fundamental domain of the factor's symmetry class.

    An antisymmetric factor's domain is the ordered sector, the open cone
    x_1 < x_2 < ... < x_d on which the Vandermonde factor is positive; an
    odd factor's is the half-space where the odd linear form is positive.
    Interior membership implies a positive factor value; for the
    half-space (and for d = 2) the two are equivalent.  A general-class
    factor has no sector and raises ``OutOfRangeError``.
    """

    factor: AngularFactor

    def __post_init__(self):
        if self.factor.function_class is FunctionClass.GENERAL:
            raise OutOfRangeError(
                "sector domains exist for the antisym and odd classes"
            )

    @classmethod
    def for_params(cls, params: Params):
        return cls(class_factor(params.klass, params.d))

    def sample_interior(self, n, rng, tube=1e-6):
        """Draw n standard normal interior points, excluding a tube around
        the boundary and the ball of radius ``_ORIGIN_BALL`` at the origin,
        where the certificate is numerically singular.

        The first draw is of max(n, 128) rows; later ones are sized 10 %
        over the shortfall at the keep rate so far, within [128, max(n, 128)]
        rows; after 200 max(n, 128) rows in all it raises
        ``DegenerateSampleError``.  numpy's
        normals are one sequential stream, so the points are its first n
        kept rows whatever the draw sizes.  Rows are sorted (ordered
        sector) or negated where their sum is negative (half-space), and
        the wall distance comes from the sorted columns or those sums; the
        points are those of ``np.sort``, bit for bit.  Bad arguments raise
        ``DomainError`` before anything is drawn.
        """
        if not isinstance(n, numbers.Integral) or n < 0:
            raise DomainError(f"n must be a non-negative integer, got {n!r}")
        if not 0.0 <= tube < np.inf:
            raise DomainError(f"tube must be finite and >= 0, got {tube!r}")
        d = self.factor.dimension
        ordered = self.factor.function_class is FunctionClass.ANTISYMMETRIC
        block = max(n, 128)
        budget = 200 * block
        kept, count, drawn = [], 0, 0
        while count < n:
            if drawn == budget:
                raise DegenerateSampleError(
                    f"interior sampling kept {count} of n={n} points from "
                    f"{budget} draws with tube={tube:g}"
                )
            size = block
            if count:
                size = math.ceil(1.1 * (n - count) * drawn / count)
            size = min(max(size, 128), block, budget - drawn)
            drawn += size
            X = rng.standard_normal((size, d))
            if ordered:
                X = _sort_rows(X)
                dist = _ordered_distance(X)
            else:
                total = row_sum(X.T)
                s = np.sign(total)
                s[s == 0.0] = 1.0
                X = X * s[:, None]
                # Negation is exact, so the flipped rows sum to -total.
                dist = np.abs(total) / np.sqrt(d)
            keep = (dist > tube) & (np.sqrt(row_dot(X, X)) > _ORIGIN_BALL)
            kept.append(X.compress(keep, axis=0))
            count += len(kept[-1])
        return np.concatenate(kept)[:n] if kept else np.empty((0, d))


# Below this many coordinates a transposition network over whole columns
# sorts rows faster than np.sort(axis=1), which sorts each short row on its
# own; from here on np.sort is as fast.
_NETWORK_DIM = 8


def _sort_rows(X):
    """np.sort(X, axis=1), C-ordered; below ``_NETWORK_DIM`` columns by an
    odd-even transposition network.  Its compare-exchanges keep tied pairs
    in place (np.minimum and np.maximum return their second argument on
    ties), so without NaN it matches ``np.sort(kind="stable")``, and
    np.sort on rows without a -0.0/0.0 tie."""
    d = X.shape[1]
    if d >= _NETWORK_DIM:
        return np.sort(X, axis=1)
    cols = list(X.T)
    for step in range(d):
        for i in range(step % 2, d - 1, 2):
            a, b = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(b, a), np.maximum(a, b)
    return np.stack(cols, axis=1)


def _ordered_distance(X):
    """Distance to the nearest wall x_i = x_j of rows sorted ascending:
    the smallest adjacent gap over sqrt(2), as fl(x_j - x_i) is monotone in
    both arguments, so on a sorted row no other pair has a smaller rounded
    gap."""
    cols = X.T
    gap = cols[1] - cols[0]
    for i in range(1, len(cols) - 1):
        np.minimum(gap, cols[i + 1] - cols[i], out=gap)
    # abs: a tie of 0.0 before -0.0 leaves a gap of -0.0.
    return np.abs(gap) / np.sqrt(2.0)


def _prepare(x, params, factor):
    if factor.dimension != params.d:
        raise InvalidDimensionError("dimension mismatch between factor and params")
    X, single = point_batch(x, factor.dimension)
    if factor.function_class is not params.klass:
        raise SymmetryClassError(
            f"factor is of class {factor.function_class.value}, params "
            f"declare {params.klass.value}"
        )
    r2 = row_dot(X, X)
    F, G = factor.value_and_gradient(X)
    # Comparisons with NaN are false, so NaN coordinates are refused too.
    if not np.all((0.0 < r2) & (r2 < np.inf) & (0.0 < F) & (F < np.inf)):
        raise SingularPointError(
            "the field needs interior points: finite x != 0 with a finite "
            "factor value > 0"
        )
    return X, single, r2, F, G


def _radial_powers(r2, p):
    """|x|^p and |x|^(p-2), given |x|^2."""
    r = np.sqrt(r2)
    return r**p, r ** (p - 2.0)


def _field(X, F, G, rp, rq, alpha, beta):
    """T = alpha x / |x|^p - beta grad F / (F |x|^(p-2)), given r^p and
    r^(p-2)."""
    return alpha * X / rp[:, None] - beta * G / (F * rq)[:, None]


def _divergence(F, G, rp, rq, alpha, beta, params, lam):
    """Closed-form div T, given r^p and r^(p-2)."""
    p = params.p
    return (alpha * (params.d - p) + beta * (p - 2.0) * lam) / rp + beta * (
        row_dot(G, G) / (F * F)
    ) / rq


def field_T(x, alpha, beta, params: Params, factor: AngularFactor):
    """alpha x / |x|^p - beta grad F / (F |x|^(p-2)) at interior points."""
    X, single, r2, F, G = _prepare(x, params, factor)
    rp, rq = _radial_powers(r2, params.p)
    # C order whatever the layout of grad F, as callers may reduce rows of
    # eight or more terms with numpy, whose sums round by memory layout.
    T = np.ascontiguousarray(_field(X, F, G, rp, rq, alpha, beta))
    return T[0] if single else T


def divergence_T(x, alpha, beta, params: Params, factor: AngularFactor):
    """Closed-form divergence, valid for harmonic homogeneous factors."""
    X, single, r2, F, G = _prepare(x, params, factor)
    rp, rq = _radial_powers(r2, params.p)
    div = _divergence(F, G, rp, rq, alpha, beta, params, factor.homogeneity)
    return float(div[0]) if single else div


def certificate_many(X, alpha, beta, params: Params, factor: AngularFactor):
    """Vectorized pointwise certificate over a batch of interior points."""
    if params.p < 2.0:
        raise OutOfRangeError("the pointwise certificate needs p >= 2")
    X, _, r2, F, G = _prepare(X, params, factor)
    p, gamma = params.p, params.gamma
    rp, rq = _radial_powers(r2, p)
    div = _divergence(F, G, rp, rq, alpha, beta, params, factor.homogeneity)
    T = _field(X, F, G, rp, rq, alpha, beta)
    T_sq = row_dot(T, T)
    x_dot_T = row_dot(X, T)
    return rp * (
        div - (p - 1.0) * T_sq ** (p / (2.0 * (p - 1.0))) - gamma * x_dot_T / r2
    )

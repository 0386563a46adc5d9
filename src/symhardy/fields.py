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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import FunctionClass, Params
from .errors import (
    DegenerateSampleError,
    InvalidDimensionError,
    OutOfRangeError,
    SingularPointError,
)
from .polynomials import AngularFactor, odd_linear, row_dot, row_sum, vandermonde

__all__ = [
    "SectorKind",
    "SectorDomain",
    "field_T",
    "divergence_T",
    "pointwise_certificate",
    "certificate_many",
]


class SectorKind(Enum):
    ORDERED_SECTOR = "ordered_sector"
    POSITIVE_HALF = "positive_half"


@dataclass(frozen=True)
class SectorDomain:
    """A fundamental domain of the symmetry class.

    ORDERED_SECTOR is the open cone x_1 < x_2 < ... < x_d on which the
    Vandermonde factor is positive; POSITIVE_HALF is the half-space where
    the odd linear form is positive.  Interior membership implies a
    positive factor value; for the half-space (and for d = 2) the two are
    equivalent.
    """

    kind: SectorKind
    factor: AngularFactor

    @classmethod
    def for_params(cls, params: Params):
        if params.klass is FunctionClass.ANTISYMMETRIC:
            return cls(SectorKind.ORDERED_SECTOR, vandermonde(params.d))
        if params.klass is FunctionClass.ODD:
            return cls(SectorKind.POSITIVE_HALF, odd_linear(params.d))
        raise OutOfRangeError("sector domains exist for the antisym and odd classes")

    @property
    def dimension(self):
        return self.factor.dimension

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise InvalidDimensionError("point dimension mismatch")
        if self.kind is SectorKind.ORDERED_SECTOR:
            d = np.diff(np.atleast_2d(x), axis=-1)
            out = np.all(d > 0.0, axis=-1)
        else:
            out = row_sum(np.atleast_2d(x).T) > 0.0
        return bool(out[0]) if x.ndim == 1 else out

    def boundary_distance(self, x):
        """Euclidean distance to the sector boundary (hyperplane arrangement)."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind is SectorKind.ORDERED_SECTOR:
            # Nearest wall is x_i = x_j; distance |x_i - x_j| / sqrt(2).
            D = X[:, :, None] - X[:, None, :]
            iu = np.triu_indices(self.dimension, k=1)
            gaps = np.abs(D[:, iu[0], iu[1]])
            dist = gaps.min(axis=1) / np.sqrt(2.0)
        else:
            dist = np.abs(row_sum(X.T)) / np.sqrt(self.dimension)
        return float(dist[0]) if np.asarray(x).ndim == 1 else dist

    def sample_interior(self, n, rng, tube=1e-6, origin_ball=1e-6):
        """Draw n standard normal interior points, excluding a tube around
        the boundary and a ball at the origin where the certificate is
        numerically singular.  Gives up after 200 draws of max(n, 128)."""
        d = self.dimension
        out = np.empty((0, d))
        attempts = 0
        while len(out) < n:
            attempts += 1
            if attempts > 200:
                raise DegenerateSampleError(
                    f"interior sampling kept {len(out)} of n={n} points after "
                    f"200 draws with tube={tube:g}, origin_ball={origin_ball:g}"
                )
            X = rng.standard_normal((max(n, 128), d))
            if self.kind is SectorKind.ORDERED_SECTOR:
                X = np.sort(X, axis=1)
            else:
                s = np.sign(row_sum(X.T))
                s[s == 0.0] = 1.0
                X = X * s[:, None]
            keep = (self.boundary_distance(X) > tube) & (
                np.sqrt(row_dot(X, X)) > origin_ball
            )
            out = np.vstack([out, X[keep]])
        return out[:n]


def _prepare(x, params, factor):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != factor.dimension or factor.dimension != params.d:
        raise InvalidDimensionError("dimension mismatch between point, factor, params")
    r2 = row_dot(X, X)
    F = factor.value(X)
    if np.any(r2 == 0.0) or np.any(F <= 0.0):
        raise SingularPointError(
            "the field needs interior points: factor value > 0 and x != 0"
        )
    return X, r2, F, factor.gradient(X)


def _field(X, F, G, r, rp, alpha, beta, params):
    """T = alpha x / |x|^p - beta grad F / (F |x|^(p-2)), given r and r^p."""
    q = params.p - 2.0
    return alpha * X / rp[:, None] - beta * G / (F * r**q)[:, None]


def _divergence(F, G, r, rp, alpha, beta, params, lam):
    """Closed-form div T, given r and r^p."""
    p = params.p
    return (alpha * (params.d - p) + beta * (p - 2.0) * lam) / rp + beta * (
        row_dot(G, G) / (F * F)
    ) / r ** (p - 2.0)


def field_T(x, alpha, beta, params: Params, factor: AngularFactor):
    """alpha x / |x|^p - beta grad F / (F |x|^(p-2)) at interior points."""
    X, r2, F, G = _prepare(x, params, factor)
    r = np.sqrt(r2)
    T = _field(X, F, G, r, r**params.p, alpha, beta, params)
    return T[0] if np.asarray(x).ndim == 1 else T


def divergence_T(x, alpha, beta, params: Params, factor: AngularFactor):
    """Closed-form divergence, valid for harmonic homogeneous factors."""
    X, r2, F, G = _prepare(x, params, factor)
    r = np.sqrt(r2)
    div = _divergence(F, G, r, r**params.p, alpha, beta, params,
                      factor.homogeneity)
    return float(div[0]) if np.asarray(x).ndim == 1 else div


def pointwise_certificate(x, alpha, beta, params: Params, factor: AngularFactor):
    """|x|^p [div T - (p-1) |T|^(p/(p-1)) - gamma <x,T>/|x|^2].

    Computed from the actual field vectors; with the closed-form optimal
    (alpha, beta) this is bounded below by the class constant at every
    interior point.
    """
    out = certificate_many(
        np.atleast_2d(np.asarray(x, dtype=float)), alpha, beta, params, factor
    )
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def certificate_many(X, alpha, beta, params: Params, factor: AngularFactor):
    """Vectorized pointwise certificate over a batch of interior points."""
    if params.p < 2.0:
        raise OutOfRangeError("the pointwise certificate needs p >= 2")
    X, r2, F, G = _prepare(X, params, factor)
    p, gamma = params.p, params.gamma
    r = np.sqrt(r2)
    rp = r**p
    div = _divergence(F, G, r, rp, alpha, beta, params, factor.homogeneity)
    T = _field(X, F, G, r, rp, alpha, beta, params)
    T_sq = row_dot(T, T)
    x_dot_T = row_dot(X, T)
    return rp * (
        div - (p - 1.0) * T_sq ** (p / (2.0 * (p - 1.0))) - gamma * x_dot_T / r2
    )

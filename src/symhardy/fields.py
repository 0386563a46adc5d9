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

import numbers
from dataclasses import dataclass
from enum import Enum

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


_SECTOR_CLASS = {
    SectorKind.ORDERED_SECTOR: FunctionClass.ANTISYMMETRIC,
    SectorKind.POSITIVE_HALF: FunctionClass.ODD,
}


@dataclass(frozen=True)
class SectorDomain:
    """A fundamental domain of the symmetry class.

    ORDERED_SECTOR is the open cone x_1 < x_2 < ... < x_d on which the
    Vandermonde factor is positive; POSITIVE_HALF is the half-space where
    the odd linear form is positive.  Interior membership implies a
    positive factor value; for the half-space (and for d = 2) the two are
    equivalent.  So the ordered sector takes an antisymmetric factor and
    the half-space an odd one; other pairs raise ``SymmetryClassError``.
    """

    kind: SectorKind
    factor: AngularFactor

    def __post_init__(self):
        need = _SECTOR_CLASS[self.kind]
        if self.factor.function_class is not need:
            raise SymmetryClassError(
                f"{self.kind.value} needs a factor of class {need.value}, "
                f"got class {self.factor.function_class.value}"
            )

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
        """Euclidean distance to the sector boundary (hyperplane arrangement).

        For the ordered sector the nearest wall x_i = x_j is the one of the
        smallest adjacent gap of the sorted row, at distance gap / sqrt(2):
        fl(x_j - x_i) is monotone in both arguments, so on a sorted row no
        other pair has a smaller rounded gap.  Rows are sorted first.
        """
        X = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind is SectorKind.ORDERED_SECTOR:
            dist = _ordered_distance(_sort_rows(X))
        else:
            dist = np.abs(row_sum(X.T)) / np.sqrt(self.dimension)
        return float(dist[0]) if np.asarray(x).ndim == 1 else dist

    def sample_interior(self, n, rng, tube=1e-6, origin_ball=1e-6):
        """Draw n standard normal interior points, excluding a tube around
        the boundary and a ball at the origin where the certificate is
        numerically singular.  Gives up after 200 draws of max(n, 128).

        Rows are sorted (ordered sector) or negated where their sum is
        negative (half-space), and the wall distance comes from the sorted
        columns or those sums.  The points and the generator's state equal,
        bit for bit, those of ``np.sort`` and ``boundary_distance`` on each
        draw.  Bad arguments raise ``DomainError`` before anything is drawn.
        """
        if not isinstance(n, numbers.Integral) or n < 0:
            raise DomainError(f"n must be a non-negative integer, got {n!r}")
        for name, value in (("tube", tube), ("origin_ball", origin_ball)):
            if not 0.0 <= value < np.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        d = self.dimension
        kept, count, draws = [], 0, 0
        while count < n:
            if draws == 200:
                raise DegenerateSampleError(
                    f"interior sampling kept {count} of n={n} points after "
                    f"200 draws with tube={tube:g}, origin_ball={origin_ball:g}"
                )
            draws += 1
            X = rng.standard_normal((max(n, 128), d))
            if self.kind is SectorKind.ORDERED_SECTOR:
                X = _sort_rows(X)
                dist = _ordered_distance(X)
            else:
                total = row_sum(X.T)
                s = np.sign(total)
                s[s == 0.0] = 1.0
                X = X * s[:, None]
                # Negation is exact, so the flipped rows sum to -total.
                dist = np.abs(total) / np.sqrt(d)
            keep = (dist > tube) & (np.sqrt(row_dot(X, X)) > origin_ball)
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
    """Distance to the nearest wall x_i = x_j of rows sorted ascending."""
    cols = X.T
    gap = cols[1] - cols[0]
    for i in range(1, len(cols) - 1):
        np.minimum(gap, cols[i + 1] - cols[i], out=gap)
    # abs: a tie of 0.0 before -0.0 leaves a gap of -0.0.
    return np.abs(gap) / np.sqrt(2.0)


def _prepare(x, params, factor):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != factor.dimension or factor.dimension != params.d:
        raise InvalidDimensionError("dimension mismatch between point, factor, params")
    r2 = row_dot(X, X)
    F, G = factor.value_and_gradient(X)
    # Comparisons with NaN are false, so NaN coordinates are refused too.
    if not np.all((0.0 < r2) & (r2 < np.inf) & (0.0 < F) & (F < np.inf)):
        raise SingularPointError(
            "the field needs interior points: finite x != 0 with a finite "
            "factor value > 0"
        )
    return X, r2, F, G


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
    X, r2, F, G = _prepare(x, params, factor)
    rp, rq = _radial_powers(r2, params.p)
    # C order whatever the layout of grad F, as callers may reduce rows of
    # eight or more terms with numpy, whose sums round by memory layout.
    T = np.ascontiguousarray(_field(X, F, G, rp, rq, alpha, beta))
    return T[0] if np.asarray(x).ndim == 1 else T


def divergence_T(x, alpha, beta, params: Params, factor: AngularFactor):
    """Closed-form divergence, valid for harmonic homogeneous factors."""
    X, r2, F, G = _prepare(x, params, factor)
    rp, rq = _radial_powers(r2, params.p)
    div = _divergence(F, G, rp, rq, alpha, beta, params, factor.homogeneity)
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
    rp, rq = _radial_powers(r2, p)
    div = _divergence(F, G, rp, rq, alpha, beta, params, factor.homogeneity)
    T = _field(X, F, G, rp, rq, alpha, beta)
    T_sq = row_dot(T, T)
    x_dot_T = row_dot(X, T)
    return rp * (
        div - (p - 1.0) * T_sq ** (p / (2.0 * (p - 1.0))) - gamma * x_dot_T / r2
    )

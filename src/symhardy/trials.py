"""Trial functions u = F(x) psi(|x|) with analytic derivatives.

Separable trials built from an angular factor F (harmonic, homogeneous of
order lam) and a radial profile psi have

    grad u = psi grad F + F psi'(r) x / r,
    Delta u = F (psi'' + (d - 1 + 2 lam) psi' / r)      (harmonic F),

which keeps every Rayleigh-quotient evaluation exact up to the profile.
Every factor in ``polynomials`` is harmonic, and a trial's symmetry
class is its factor's ``function_class``.
Two profile families ship: Gaussian profiles as smooth, well-conditioned
class representatives, and piecewise-power profiles (inner exponent
base - eps, outer base + eps, blended over a collar of width 2 delta and
truncated by a smooth cutoff) whose quotients approach the sharp
constants as eps shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidDimensionError
from .polynomials import AngularFactor, row_dot

__all__ = [
    "RadialProfile",
    "TrialFunction",
    "gaussian_profile",
    "piecewise_power_profile",
    "gaussian_trial",
    "sharpness_family",
]


@dataclass(frozen=True)
class RadialProfile:
    """A radial profile with vectorized psi, psi' and psi''.

    ``segments`` is optional metadata used by the separable integrators:
    a tuple of ("power", lo, hi, rho), ("numeric", lo, hi) and
    ("zero", lo, hi) entries that partition (0, inf).  Profiles without
    segments are integrated numerically end to end.
    """

    kind: str
    psi: callable
    dpsi: callable
    d2psi: callable
    sigma: float | None = None
    segments: tuple | None = None
    meta: dict = field(default_factory=dict)


def gaussian_profile(sigma=1.0):
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    s2 = sigma * sigma

    def psi(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-0.5 * r * r / s2)

    def dpsi(r):
        r = np.asarray(r, dtype=float)
        return -(r / s2) * np.exp(-0.5 * r * r / s2)

    def d2psi(r):
        r = np.asarray(r, dtype=float)
        return (r * r / (s2 * s2) - 1.0 / s2) * np.exp(-0.5 * r * r / s2)

    return RadialProfile("gaussian", psi, dpsi, d2psi, sigma=float(sigma))


def _smoothstep(u):
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def _smoothstep_d1(u):
    return 30.0 * u * u * (1.0 - u) ** 2


def _smoothstep_d2(u):
    return 120.0 * u**3 - 180.0 * u * u + 60.0 * u


def piecewise_power_profile(alpha_in, beta_out, delta, cutoff_radius):
    """r^(-alpha_in) inside, r^(-beta_out) outside, C^2 throughout.

    The exponent is blended by a quintic Hermite step over the collar
    [1 - delta, 1 + delta], and a quintic cutoff takes the profile to zero
    on [R, 2R], so the function is C^2 and compactly supported.
    """
    if delta <= 0.0:
        raise DomainError(
            "delta must be positive: the unsmoothed profile has a gradient "
            "jump across |x| = 1 and falls outside the admissible space"
        )
    if delta >= 0.5:
        raise DomainError("delta must be below 0.5")
    R = float(cutoff_radius)
    if R < 1.0 + 2.0 * delta:
        raise DomainError("the cutoff radius must sit beyond the collar")
    a, b = float(alpha_in), float(beta_out)
    lo, hi = 1.0 - delta, 1.0 + delta
    width = hi - lo

    def rho_terms(r):
        u = np.clip((r - lo) / width, 0.0, 1.0)
        rho = a + (b - a) * _smoothstep(u)
        drho = (b - a) * _smoothstep_d1(u) / width
        d2rho = (b - a) * _smoothstep_d2(u) / width**2
        inside = (r > lo) & (r < hi)
        drho = np.where(inside, drho, 0.0)
        d2rho = np.where(inside, d2rho, 0.0)
        return rho, drho, d2rho

    def cut_terms(r):
        v = np.clip((r - R) / R, 0.0, 1.0)
        c = 1.0 - _smoothstep(v)
        dc = -_smoothstep_d1(v) / R
        d2c = -_smoothstep_d2(v) / (R * R)
        inside = (r > R) & (r < 2.0 * R)
        dc = np.where(inside, dc, 0.0)
        d2c = np.where(inside, d2c, 0.0)
        return c, dc, d2c

    def array_parts(r):
        r = np.asarray(r, dtype=float)
        rs = np.where(r > 0.0, r, 1.0)  # placeholder; psi(0) handled below
        lnr = np.log(rs)
        rho, drho, d2rho = rho_terms(rs)
        w1 = -drho * lnr - rho / rs
        w2 = -d2rho * lnr - 2.0 * drho / rs + rho / (rs * rs)
        psi0 = np.exp(-rho * lnr)
        c, dc, d2c = cut_terms(rs)
        return r, rs, psi0, w1, w2, c, dc, d2c

    # quad asks psi, dpsi and d2psi for the same scalar nodes; build each
    # node's terms once.  Arrays bypass the memo.
    scalar_parts = lru_cache(maxsize=4096)(array_parts)

    def parts(r):
        return scalar_parts(r) if isinstance(r, float) else array_parts(r)

    def psi(r):
        r, _, psi0, _, _, c, _, _ = parts(r)
        out = psi0 * c
        return np.where(r > 0.0, out, np.inf if a > 0.0 else (0.0 if a < 0.0 else 1.0))

    def dpsi(r):
        r, _, psi0, w1, _, c, dc, _ = parts(r)
        out = psi0 * (w1 * c + dc)
        return np.where(r > 0.0, out, 0.0)

    def d2psi(r):
        r, _, psi0, w1, w2, c, dc, d2c = parts(r)
        out = psi0 * ((w2 + w1 * w1) * c + 2.0 * w1 * dc + d2c)
        return np.where(r > 0.0, out, 0.0)

    segments = (
        ("power", 0.0, lo, a),
        ("numeric", lo, hi),
        ("power", hi, R, b),
        ("numeric", R, 2.0 * R),
        ("zero", 2.0 * R, math.inf),
    )
    return RadialProfile(
        "piecewise_power",
        psi,
        dpsi,
        d2psi,
        segments=segments,
        meta={"alpha_in": a, "beta_out": b, "delta": float(delta), "cutoff": R},
    )


class TrialFunction:
    """Separable trial u = F(x) psi(|x|) with analytic derivatives; its
    symmetry class is that of F."""

    def __init__(self, angular: AngularFactor, radial: RadialProfile,
                 heuristic=False):
        self.angular = angular
        self.radial = radial
        self.class_tag = angular.function_class
        self.heuristic = bool(heuristic)

    @property
    def dimension(self):
        return self.angular.dimension

    def _batch(self, x):
        X = np.atleast_2d(np.asarray(x, dtype=float))
        if X.shape[1] != self.dimension:
            raise InvalidDimensionError("point dimension mismatch")
        return X, np.asarray(x).ndim == 1

    def evaluate(self, x, gradient=False):
        """(|x|^2, u, grad u) on a batch x of shape (n, d); grad u is None
        unless ``gradient`` is set, and column-major otherwise.

        The one home of u = F psi and grad u = psi grad F + F psi' x / r:
        ``value`` and ``gradient`` unwrap it, and the quadrature integrands
        call it once where numerator and denominator share their points.
        F and grad F come from one ``value_and_gradient`` call.
        """
        X, _ = self._batch(x)
        sq = row_dot(X, X)
        r = np.sqrt(sq)
        if not gradient:
            return sq, self.angular.value(X) * self.radial.psi(r), None
        F, G = self.angular.value_and_gradient(X)
        psi = self.radial.psi(r)
        dpsi = self.radial.dpsi(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            radial_part = np.where(r > 0.0, F * dpsi / r, 0.0)
        # Column by column, so no (n, d) broadcast temporary is formed.
        grad = np.empty((self.dimension, len(X)))
        for out, g, x_k in zip(grad, G.T, X.T):
            np.multiply(psi, g, out=out)
            out += radial_part * x_k
        return sq, F * psi, grad.T

    def value(self, x):
        out = self.evaluate(x)[1]
        return float(out[0]) if np.ndim(x) == 1 else out

    def gradient(self, x):
        out = np.ascontiguousarray(self.evaluate(x, gradient=True)[2])
        return out[0] if np.ndim(x) == 1 else out

    def grad_norm_sq(self, x):
        g = self.evaluate(x, gradient=True)[2]
        out = row_dot(g, g)
        return float(out[0]) if np.ndim(x) == 1 else out

    def laplacian(self, x):
        X, single = self._batch(x)
        r = np.sqrt(row_dot(X, X))
        F = self.angular.value(X)
        psi2 = self.radial.d2psi(r)
        dpsi = self.radial.dpsi(r)
        d, lam = self.dimension, self.angular.homogeneity
        with np.errstate(invalid="ignore", divide="ignore"):
            dpsi_over_r = np.where(r > 0.0, dpsi / r, 0.0)
        out = F * (psi2 + (d - 1.0 + 2.0 * lam) * dpsi_over_r)
        return float(out[0]) if single else out


def gaussian_trial(factor: AngularFactor, sigma=1.0):
    """u = F(x) exp(-|x|^2 / (2 sigma^2)); the workhorse smooth trial."""
    return TrialFunction(factor, gaussian_profile(sigma))


def sharpness_family(
    factor: AngularFactor,
    epsilon,
    smoothing_delta,
    functional="rellich",
    tail_rel=1e-3,
):
    """Near-extremal piecewise-power trial for the given functional.

    The exponent base is d/2 + lam - 2 for the second-order (Rellich)
    functional and d/2 + lam - 1 for the first-order (Hardy) one; the
    inner/outer exponents are base -/+ epsilon.  Both choices make the
    radial integrands behave like r^(-1 +/- 2 eps), so the quotient is a
    weighted mean of the two pure-power coefficient values and converges
    to the sharp constant as epsilon -> 0.  The Hardy variant is a
    heuristic construction by analogy and is flagged as such.

    The cutoff radius R solves R^(-2 eps) / 2 = tail_rel, which keeps the
    truncated tail mass below ``tail_rel`` relative.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not 0.0 < smoothing_delta < 0.5:
        raise DomainError(
            "smoothing_delta must lie in (0, 0.5); delta = 0 leaves a "
            "gradient kink on the unit sphere"
        )
    d, lam = factor.dimension, factor.homogeneity
    if functional == "rellich":
        if d < 3:
            raise InvalidDimensionError(
                "the second-order sharpness check needs d >= 3"
            )
        base = d / 2.0 + lam - 2.0
        heuristic = False
    elif functional == "hardy":
        base = d / 2.0 + lam - 1.0
        heuristic = True
    else:
        raise ValueError("functional must be 'hardy' or 'rellich'")
    R = max(2.0, (2.0 * tail_rel) ** (-1.0 / (2.0 * epsilon)))
    profile = piecewise_power_profile(base - epsilon, base + epsilon,
                                      smoothing_delta, R)
    profile.meta.update({"base": base, "epsilon": float(epsilon),
                         "functional": functional})
    return TrialFunction(factor, profile, heuristic=heuristic)


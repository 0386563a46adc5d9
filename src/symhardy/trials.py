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
base - eps, outer base + eps, blended over a collar of width 2 delta,
and a pure power out to infinity beyond it) whose quotients approach the
sharp constants as eps shrinks.  A profile's ``segments`` are its one
description beyond the callables: the separable integrators read their
closed forms from them, and the engines read psi's power at the origin
from them.  ``exponent_base`` is the one home of the family's base
d/2 + lam - order.

The radial rule ``quadrature.quad`` calls a profile's psi, dpsi and d2psi
on 1-d read-only node arrays, the array code the engines run too; the
work the three share is done once per such array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError
from .polynomials import AngularFactor, point_batch, row_dot

__all__ = [
    "RadialProfile",
    "TrialFunction",
    "gaussian_profile",
    "piecewise_power_profile",
    "gaussian_trial",
    "sharpness_family",
    "exponent_base",
]

@dataclass(frozen=True)
class RadialProfile:
    """A radial profile with vectorized psi, psi' and psi''.

    ``segments``, when given, is the profile's one description: a tuple of
    ("power", lo, hi, rho) and ("numeric", lo, hi) entries that partition
    (0, inf), with psi = r^(-rho) on a power segment.  The separable
    integrators use closed forms on power segments, and psi's power at the
    origin is -rho of a first ("power", 0.0, lo, rho) segment.  A profile
    without segments is integrated numerically end to end and has power 0
    at the origin.
    """

    psi: callable
    dpsi: callable
    d2psi: callable
    sigma: float | None = None
    segments: tuple | None = None

    def derivatives(self, r, order):
        """(psi, psi', psi'')[:order + 1] at r."""
        return tuple(f(r) for f in (self.psi, self.dpsi, self.d2psi)[:order + 1])


def _shared_derivatives(shared, formulas):
    """psi, psi' and psi'' from ``shared(r)``, the work the three have in
    common, and ``formulas[k](parts)``, the k-th derivative from that work,
    a new array.  The parts of the last read-only r owning its data are
    kept, so the three, called on one radial-rule node array or one array
    of an integrand's radii in turn, share them."""
    last = [None, None]

    def parts(r):
        if r is last[0]:
            return last[1]
        out = shared(r)
        if (isinstance(r, np.ndarray) and r.flags.owndata
                and not r.flags.writeable):
            last[:] = r, out
        return out

    return tuple((lambda f: lambda r: f(parts(r)))(f) for f in formulas)


def gaussian_profile(sigma=1.0):
    s2 = sigma * sigma
    # psi' and psi'' divide by sigma^2, so it must neither underflow to 0
    # nor overflow.
    if not (sigma > 0.0 and 0.0 < s2 < math.inf):
        raise DomainError(
            f"sigma must be positive with a finite nonzero square, got {sigma}"
        )

    def shared(r):
        r = np.asarray(r, dtype=float)
        return r, np.exp(-0.5 * r * r / s2)

    # t = (r, exp(-r^2 / (2 sigma^2))).
    psi, dpsi, d2psi = _shared_derivatives(shared, (
        lambda t: t[1].copy(),
        lambda t: -(t[0] / s2) * t[1],
        lambda t: (t[0] * t[0] / (s2 * s2) - 1.0 / s2) * t[1],
    ))
    return RadialProfile(psi, dpsi, d2psi, sigma=float(sigma))


def _quintic_step(r, lo, hi, start, end):
    """start below lo and end above hi, joined on [lo, hi] by the smoothstep
    10 u^3 - 15 u^4 + 6 u^5, u = (r - lo) / (hi - lo): the value and its
    first two derivatives in r, the derivatives zero off (lo, hi)."""
    width = hi - lo
    rise = end - start
    u = np.clip((r - lo) / width, 0.0, 1.0)
    inside = (r > lo) & (r < hi)
    d1 = 30.0 * u * u * (1.0 - u) ** 2
    d2 = 120.0 * u**3 - 180.0 * u * u + 60.0 * u
    return (start + rise * (u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)),
            np.where(inside, rise * d1 / width, 0.0),
            np.where(inside, rise * d2 / (width * width), 0.0))


def _check_smoothing(delta):
    if not 0.0 < delta < 0.5:
        raise DomainError(
            "delta must lie in (0, 0.5); delta = 0 leaves a gradient kink "
            "on the unit sphere"
        )


def piecewise_power_profile(alpha_in, beta_out, delta):
    """r^(-alpha_in) inside, r^(-beta_out) outside, C^2 throughout.

    The exponent is blended by a quintic Hermite step over the collar
    [1 - delta, 1 + delta]; beyond it the profile is the pure power out to
    infinity, so a quotient's tail integral is a closed form.
    """
    _check_smoothing(delta)
    a, b = float(alpha_in), float(beta_out)
    lo, hi = 1.0 - delta, 1.0 + delta

    origin = np.inf if a > 0.0 else (0.0 if a < 0.0 else 1.0)

    def shared(r):
        # The exponent rho steps from a to b over the collar; psi =
        # exp(-rho ln r).  rs has a placeholder 1 where r = 0, where psi is
        # set by ``masked``.
        r = np.asarray(r, dtype=float)
        rs = np.where(r > 0.0, r, 1.0)
        lnr = np.log(rs)
        rho, drho, d2rho = _quintic_step(rs, lo, hi, a, b)
        w1 = -drho * lnr - rho / rs
        w2 = -d2rho * lnr - 2.0 * drho / rs + rho / (rs * rs)
        return r > 0.0, np.exp(-rho * lnr), w1, w2

    def masked(f, at_origin):
        return lambda t: np.where(t[0], f(*t[1:]), at_origin)

    psi, dpsi, d2psi = _shared_derivatives(shared, (
        masked(lambda psi0, w1, w2: psi0, origin),
        masked(lambda psi0, w1, w2: psi0 * w1, 0.0),
        masked(lambda psi0, w1, w2: psi0 * (w2 + w1 * w1), 0.0),
    ))

    segments = (
        ("power", 0.0, lo, a),
        ("numeric", lo, hi),
        ("power", hi, math.inf, b),
    )
    return RadialProfile(psi, dpsi, d2psi, segments=segments)


class TrialFunction:
    """Separable trial u = F(x) psi(|x|) with analytic derivatives; its
    symmetry class is that of F."""

    def __init__(self, angular: AngularFactor, radial: RadialProfile):
        self.angular = angular
        self.radial = radial
        self.class_tag = angular.function_class

    def evaluate(self, x, gradient=False, laplacian=False):
        """(|x|^2, u, grad u, Delta u) on a batch x of shape (n, d); grad u
        is None unless ``gradient`` is set, and Delta u is None unless
        ``laplacian`` is set.

        The point form of u = F psi, grad u = psi grad F + F psi' x / r and
        Delta u = F (psi'' + (d - 1 + 2 lam) psi' / r), which ``value``,
        ``gradient`` and ``laplacian`` unwrap; the quadrature engines use
        the factored form of ``quadrature._factored_integrands`` instead.
        |x|^2, r and F (F and grad F from one ``value_and_gradient`` call)
        are formed once, and psi and its derivatives come from one
        ``derivatives`` call on a read-only r.
        """
        X = point_batch(x, self.angular.dimension)[0]
        sq = row_dot(X, X)
        r = np.sqrt(sq)
        r.flags.writeable = False  # psi and its derivatives share its work
        derivs = self.radial.derivatives(r, 2 if laplacian else int(gradient))
        psi = derivs[0]
        grad = lap = None
        if gradient:
            F, G = self.angular.value_and_gradient(X)
            with np.errstate(invalid="ignore", divide="ignore"):
                radial_part = np.where(r > 0.0, F * derivs[1] / r, 0.0)
            grad = psi[:, None] * G + radial_part[:, None] * X
        else:
            F = self.angular.value(X)
        if laplacian:
            with np.errstate(invalid="ignore", divide="ignore"):
                dpsi_over_r = np.where(r > 0.0, derivs[1] / r, 0.0)
            c = self.angular.dimension - 1.0 + 2.0 * self.angular.homogeneity
            lap = F * (derivs[2] + c * dpsi_over_r)
        return sq, F * psi, grad, lap

    def value(self, x):
        out = self.evaluate(x)[1]
        return float(out[0]) if np.ndim(x) == 1 else out

    def gradient(self, x):
        out = self.evaluate(x, gradient=True)[2]
        return out[0] if np.ndim(x) == 1 else out

    def laplacian(self, x):
        out = self.evaluate(x, laplacian=True)[3]
        return float(out[0]) if np.ndim(x) == 1 else out


def gaussian_trial(factor: AngularFactor, sigma=1.0):
    """u = F(x) exp(-|x|^2 / (2 sigma^2)); the workhorse smooth trial."""
    return TrialFunction(factor, gaussian_profile(sigma))


def exponent_base(factor: AngularFactor, order):
    """d/2 + lam - order for the factor's d and lam: the sharpness family's
    exponent base for a functional of derivative order 1 (Hardy) or 2
    (Rellich); order 0 gives d/2 + lam itself."""
    return factor.dimension / 2.0 + factor.homogeneity - order


def sharpness_family(factor: AngularFactor, epsilon, smoothing_delta,
                     functional="rellich"):
    """Near-extremal piecewise-power trial for the given functional.

    The exponent base is ``exponent_base`` of the functional's order, 2
    for the second-order (Rellich) functional and 1 for the first-order
    (Hardy) one; the inner/outer exponents are base -/+ epsilon.  Both
    choices make the radial integrands behave like r^(-1 +/- 2 eps), so
    the quotient is a weighted mean of the two pure-power coefficient
    values and converges to the sharp constant as epsilon -> 0.  The outer
    power runs to infinity, so every epsilon in (0, 1) has a finite
    quotient.  The Hardy rows are lam gamma plus a one-dimensional
    weighted Hardy quotient N / M, whose infimum over psi makes the sum
    the class constant C; the sharpness CLI still flags them heuristic.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    _check_smoothing(smoothing_delta)
    if functional == "rellich":
        if factor.dimension < 3:
            raise InvalidDimensionError(
                "the second-order sharpness check needs d >= 3"
            )
        base = exponent_base(factor, 2)
    elif functional == "hardy":
        base = exponent_base(factor, 1)
    else:
        raise DomainError("functional must be 'hardy' or 'rellich'")
    return TrialFunction(factor, piecewise_power_profile(
        base - epsilon, base + epsilon, smoothing_delta))

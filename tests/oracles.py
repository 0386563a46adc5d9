"""Reference implementations the tests check the package against.

None of these is on a path the package runs: each is an independent
route to a value the package computes another way.

* ``vandermonde_value_exact``, ``vandermonde_gradient_exact`` and
  ``vandermonde_laplacian_exact``: the Vandermonde factor in exact rational
  arithmetic (d <= ``MAX_EXACT_DIM``), which anchors the floating-point
  tolerances.
* ``vandermonde_laplacian_poly``: the Laplacian of the Vandermonde
  product expanded in sympy, the zero polynomial at every d.
* ``euler_residual``: sum_i x_i dF/dx_i - lam F, zero for a factor
  homogeneous of order lam.
* ``vandermonde_sphere_moment_p2``: the closed form of the squared
  Vandermonde moment over the sphere, against ``angular_moment``.
* ``t_stationary``: the unclamped stationary point t0 of the certificate
  function in t, against ``t_minimizer`` (which returns max(t0, lam^2)).
* ``g_envelope``: the certificate function at its unclamped inner
  minimizer in explicit envelope form, against ``min_over_t``.
* ``gradient_hessian_arrays``: the gradient and Hessian of the
  certificate's g = min over t of f as numpy array expressions, against
  ``minimax._gradient_hessian``, which forms them as Python floats.
* ``ascent_direction_arrays``: the modified Newton step from
  ``np.linalg.eigh``, against ``minimax._ascent_direction``, which forms
  it from the closed-form 2x2 eigen-decomposition.
* ``piecewise_power_psi_mp``: the piecewise-power profile written out
  from its definition in mpmath, whose derivatives ``mpmath.diff`` takes,
  against the radial rule's integrals.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from symhardy import minimax as mm
from symhardy.errors import (
    DomainError,
    InvalidDimensionError,
    UnsupportedDimensionError,
)
from symhardy.polynomials import vandermonde

# Largest dimension for the exact rational backend.
MAX_EXACT_DIM = 4


def _exact_coords(x):
    coords = [Fraction(v) for v in x]
    d = len(coords)
    if d < 2:
        raise InvalidDimensionError("the Vandermonde factor needs d >= 2")
    if d > MAX_EXACT_DIM:
        raise UnsupportedDimensionError(
            f"the exact backend is offered for d <= {MAX_EXACT_DIM}"
        )
    return coords, d


def vandermonde_value_exact(x):
    coords, d = _exact_coords(x)
    prod = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            prod *= coords[j] - coords[i]
    return prod


def vandermonde_gradient_exact(x):
    coords, d = _exact_coords(x)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    grad = []
    for k in range(d):
        acc = Fraction(0)
        for j in range(d):
            if j == k:
                continue
            skip = (min(j, k), max(j, k))
            prod = Fraction(1)
            for a, b in pairs:
                if (a, b) == skip:
                    continue
                prod *= coords[b] - coords[a]
            acc += prod if k > j else -prod
        grad.append(acc)
    return grad


def vandermonde_laplacian_exact(x):
    coords, d = _exact_coords(x)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    total = Fraction(0)
    for k in range(d):
        for j in range(d):
            if j == k:
                continue
            sj = 1 if k > j else -1
            pj = (min(j, k), max(j, k))
            for l in range(d):
                if l == k or l == j:
                    continue
                sl = 1 if k > l else -1
                pl = (min(l, k), max(l, k))
                prod = Fraction(1)
                for a, b in pairs:
                    if (a, b) == pj or (a, b) == pl:
                        continue
                    prod *= coords[b] - coords[a]
                total += sj * sl * prod
    return total


@lru_cache(maxsize=None)
def vandermonde_laplacian_poly(d):
    """The Laplacian of prod_{i<j} (x_j - x_i) as an expanded sympy
    ``Poly``.  Cached: on a 2-core host the expansion takes about 1 s at
    d = 6 and 18 s at d = 7, so the checks stop at d = 6."""
    import sympy as sp  # test-only, and slow to import

    xs = sp.symbols(f"x0:{d}")
    V = sp.Poly(sp.prod([xs[j] - xs[i]
                         for i in range(d) for j in range(i + 1, d)]), *xs)
    return sum((V.diff(x).diff(x) for x in xs), sp.Poly(0, *xs))


def euler_residual(x, factor=None):
    """sum_i x_i dF/dx_i(x) - lam F(x) at a point (d,) or a batch (n, d);
    the factor defaults to the Vandermonde one.  Zero in exact arithmetic."""
    X = np.asarray(x, dtype=float)
    if factor is None:
        factor = vandermonde(X.shape[-1])
    res = (X * factor.gradient(X)).sum(axis=-1) - factor.homogeneity * factor.value(X)
    return float(res) if X.ndim == 1 else res


def vandermonde_sphere_moment_p2(d):
    """Closed form of the squared Vandermonde moment over the sphere.

    Follows from the classical Gaussian ensemble normalization
    integral of prod |x_i - x_j|^2 exp(-|x|^2/2) = (2 pi)^(d/2) prod_j j!.
    """
    lam = d * (d - 1) / 2.0
    log_sf = sum(math.lgamma(j + 1) for j in range(1, d + 1))
    log_m = (
        (d / 2.0) * math.log(2.0 * math.pi)
        + log_sf
        - (lam + d / 2.0 - 1.0) * math.log(2.0)
        - math.lgamma(lam + d / 2.0)
    )
    return math.exp(log_m)


def t_stationary(alpha, beta, params):
    """The root t0 of df/dt = beta - (p/2) beta^2 rad^((2-p)/(2(p-1))),
    rad = alpha^2 - 2 alpha beta lam + beta^2 t, for p > 2 and beta > 0;
    t0 may lie below the admissible t >= lam^2."""
    p, lam = params.p, params.lam
    rad = (p * beta / 2.0) ** (2.0 * (p - 1.0) / (p - 2.0))
    return (rad - alpha * alpha + 2.0 * alpha * beta * lam) / (beta * beta)


def g_envelope(alpha, beta, params):
    """f evaluated at the unclamped t0, in the explicit envelope form.

    Valid for p > 2, beta > 0 and feasible (alpha, beta).
    """
    p, d, gamma, lam = params.p, params.d, params.gamma, params.lam
    if p <= 2.0:
        raise DomainError("the envelope form needs p > 2")
    if beta <= 0.0:
        raise DomainError("the envelope form needs beta > 0")
    return (
        alpha * (d - p - gamma)
        + beta * (p - 2.0 + gamma) * lam
        + 2.0 * alpha * lam
        - alpha * alpha / beta
        - beta ** (p / (p - 2.0)) * (p / 2.0) ** (p / (p - 2.0)) * (p / 2.0 - 1.0)
    )


def gradient_hessian_arrays(alpha, beta, t, params):
    """Gradient and Hessian of g(alpha, beta) = min over t of f at its
    inner minimizer t, as arrays: grad = c - h R_x and
    H = -dh R_x R_x^T - 2 h [[1, -lam], [-lam, t]], less the outer product
    F_xt F_xt^T / f_tt when t > lam^2 moves with (alpha, beta).  h and dh
    are (p/2) R^(q-1) and its R-derivative, q = p / (2 (p - 1))."""
    p, lam = params.p, params.lam
    R = alpha * alpha - 2.0 * alpha * beta * lam + beta * beta * t
    if abs(p - 2.0) < mm._P2_TOL:
        h, dh = 1.0, 0.0
    else:
        q = p / (2.0 * (p - 1.0))
        h = 0.5 * p * R ** (q - 1.0)
        dh = h * (q - 1.0) / R
    r_x = np.array([2.0 * (alpha - beta * lam), 2.0 * (beta * t - alpha * lam)])
    grad = np.array(
        [params.d - p - params.gamma, (p - 2.0 + params.gamma) * lam + t]
    ) - h * r_x
    hess = -dh * np.outer(r_x, r_x) - 2.0 * h * np.array([[1.0, -lam], [-lam, t]])
    if t > lam * lam:
        r_t = beta * beta
        f_xt = np.array([0.0, 1.0 - 2.0 * beta * h]) - dh * r_t * r_x
        hess -= np.outer(f_xt, f_xt) / (-dh * r_t * r_t)
    return grad, hess


def ascent_direction_arrays(grad, hess, beta_held):
    """-V diag(1/e) V^T grad from ``np.linalg.eigh`` of the Hessian, its
    eigenvalues lifted to at most -``mm._EIG_FLOOR`` times the largest; a
    held beta takes -grad_alpha / H_alpha,alpha.  Division by zero gives
    numpy's inf or nan."""
    grad, hess = np.asarray(grad, dtype=float), np.asarray(hess, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if beta_held:
            return -float(grad[0] / hess[0, 0]), 0.0
        eigs, vecs = np.linalg.eigh(hess)
        eigs = np.minimum(eigs, -mm._EIG_FLOOR * np.max(np.abs(eigs)))
        da, db = -vecs @ ((vecs.T @ grad) / eigs)
    return float(da), float(db)


def piecewise_power_psi_mp(alpha_in, beta_out, delta):
    """psi(r) = r^(-rho(r)) in mpmath: rho steps from alpha_in to beta_out
    over [1 - delta, 1 + delta] by the quintic smoothstep
    10 u^3 - 15 u^4 + 6 u^5, and stays beta_out out to infinity.  The
    collar ends are the floats 1 - delta and 1 + delta, as in the
    profile."""
    a, b, lo, hi = (mpmath.mpf(v) for v in (
        alpha_in, beta_out, 1.0 - delta, 1.0 + delta))

    def psi(r):
        u = min(max((r - lo) / (hi - lo), 0), 1)
        return r ** -(a + (b - a) * u**3 * (10 - 15 * u + 6 * u * u))

    return psi

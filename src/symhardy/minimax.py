"""Certificate optimization: max over (alpha, beta) of min over t of f.

The scalar certificate function

    f(t; alpha, beta) = alpha (d - p - gamma) + beta (p - 2 + gamma) lam
                        + beta t
                        - (p - 1) (alpha^2 - 2 alpha beta lam
                                   + beta^2 t)^(p / (2 (p - 1)))

bounds the pointwise divergence expression of the certificate vector
field, with t the Schwarz ratio of the angular factor (t >= lam^2).  For
p > 2 the inner minimum over t has the closed form t0 and the outer
maximum has closed-form coordinates (alpha0, beta0).  For p = 2 the map
t -> f is linear, so the inner minimum sits at t = lam^2 whenever the
t-coefficient beta (1 - beta) is nonnegative, and the closed-form optimum
extends by continuity (beta0 = 1).

``numeric_minimax`` checks the closed form independently: g(alpha, beta)
= min over t of f is concave for beta >= 0, and a damped Newton ascent
with the analytic gradient and Hessian of g, started from the naive
certificate (0, 1), reaches its maximum without reading the closed form.
Each step is formed in Python floats from the closed-form eigen-
decomposition of the symmetric 2x2 Hessian, so no numpy is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import FunctionClass, Params, hardy_antisymmetric, hardy_odd
from .errors import DomainError, OutOfRangeError, SymHardyError

__all__ = [
    "CertificateParams",
    "MinimaxResult",
    "f_certificate",
    "t_minimizer",
    "min_over_t",
    "closed_form_optimum",
    "closed_form_value",
    "numeric_minimax",
    "class_constant",
]

_P2_TOL = 1e-12

# Newton ascent: stop when the predicted rise grad . step is below
# _DECREMENT_TOL max(1, |g|); backtrack (Armijo slope _ARMIJO) down to steps
# of _MIN_STEP times |(alpha, beta)|; lift Hessian eigenvalues to at most
# -_EIG_FLOOR times the largest.
_MAX_STEPS = 100
_DECREMENT_TOL = 1e-15
_ARMIJO = 1e-4
_MIN_STEP = 1e-15
_EIG_FLOOR = 1e-8


@dataclass(frozen=True)
class CertificateParams:
    """A candidate (alpha, beta) pair together with the problem data."""

    alpha: float
    beta: float
    lam: float
    d: int
    p: float
    gamma: float = 0.0

    @property
    def albe_residual(self):
        """Slack of |alpha - lam beta| <= (p beta / 2)^((p-1)/(p-2)).

        Nonnegative exactly when the inner minimizer t0 lies in the
        admissible region t >= lam^2.  Infinite for p = 2, where the
        linear branch replaces the t0 formula.
        """
        if abs(self.p - 2.0) < _P2_TOL:
            return math.inf
        rhs = (self.p * self.beta / 2.0) ** ((self.p - 1.0) / (self.p - 2.0))
        return rhs - abs(self.alpha - self.lam * self.beta)

    @property
    def feasible(self):
        if abs(self.p - 2.0) < _P2_TOL:
            return True
        scale = 1.0 + abs(self.alpha) + self.beta
        return self.albe_residual >= -1e-12 * scale


@dataclass(frozen=True)
class MinimaxResult:
    alpha_star: float
    beta_star: float
    t_star: float
    value_numeric: float
    value_closed_form: float
    gap: float
    converged: bool
    steps: int


def class_constant(params: Params) -> float:
    """Closed-form Hardy constant of the params' symmetry class."""
    if params.klass is FunctionClass.ANTISYMMETRIC:
        return hardy_antisymmetric(params.d, params.p, params.gamma).value
    if params.klass is FunctionClass.ODD:
        return hardy_odd(params.d, params.p, params.gamma).value
    raise OutOfRangeError(
        "the minimax certificate needs the antisymmetric or odd class"
    )


def f_certificate(t, alpha, beta, params: Params):
    """Evaluate f(t; alpha, beta) for the given (d, p, gamma, class)."""
    p, d, gamma, lam = params.p, params.d, params.gamma, params.lam
    if p < 2.0:
        raise OutOfRangeError("the certificate function needs p >= 2")
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    if beta < 0.0:
        raise DomainError("beta must be nonnegative")
    rad = alpha * alpha - 2.0 * alpha * beta * lam + beta * beta * t
    if rad < 0.0:
        raise DomainError(
            "negative radicand: (alpha, beta, t) is outside the "
            "geometrically realizable set"
        )
    return (
        alpha * (d - p - gamma)
        + beta * (p - 2.0 + gamma) * lam
        + beta * t
        - (p - 1.0) * rad ** (p / (2.0 * (p - 1.0)))
    )


def t_minimizer(alpha, beta, params: Params):
    """Closed-form minimizer of t -> f(t; alpha, beta) over t >= lam^2, p > 2.

    The unconstrained stationary point is
    t0 = ((p beta / 2)^(2(p-1)/(p-2)) - alpha^2 + 2 alpha beta lam) / beta^2,
    and f is convex in t, so the minimizer is max(t0, lam^2).
    """
    p, lam = params.p, params.lam
    if abs(p - 2.0) < _P2_TOL or p < 2.0:
        raise DomainError(
            "t0 is defined for p > 2 only; for p = 2 the map is linear in t, "
            "use min_over_t"
        )
    if beta <= 0.0:
        raise DomainError("t0 needs beta > 0")
    t0 = (
        (p * beta / 2.0) ** (2.0 * (p - 1.0) / (p - 2.0))
        - alpha * alpha
        + 2.0 * alpha * beta * lam
    ) / (beta * beta)
    return max(t0, lam * lam)


def min_over_t(alpha, beta, params: Params):
    """(t_star, min value) of f over t >= lam^2; -inf when unbounded below."""
    p, lam = params.p, params.lam
    lam2 = lam * lam
    if beta < 0.0:
        return math.nan, -math.inf
    if abs(p - 2.0) < _P2_TOL:
        # Linear branch: f = const + beta (1 - beta) t.
        if beta > 1.0:
            return math.inf, -math.inf
        return lam2, f_certificate(lam2, alpha, beta, params)
    if beta == 0.0:
        value = alpha * (params.d - p - params.gamma) - (p - 1.0) * abs(alpha) ** (
            p / (p - 1.0)
        )
        return lam2, value
    try:
        t_star = t_minimizer(alpha, beta, params)
    except OverflowError:
        # (p beta / 2)^(2(p-1)/(p-2)) exceeds the float range, and so does
        # the depth of the minimum below zero.
        return math.inf, -math.inf
    return t_star, f_certificate(t_star, alpha, beta, params)


def _optimum_bracket(params: Params):
    """A = (d - p - gamma + 2 lam) / 2 and the bracket (p-2+gamma) lam + A^2."""
    p, lam = params.p, params.lam
    if p < 2.0:
        raise OutOfRangeError("the certificate optimum needs p >= 2")
    A = (params.d - p - params.gamma + 2.0 * lam) / 2.0
    return A, (p - 2.0 + params.gamma) * lam + A * A


def closed_form_optimum(params: Params) -> CertificateParams:
    """The maximizing (alpha0, beta0) of the certificate value.

    alpha0 = A K and beta0 = K with A = (d - p - gamma + 2 lam) / 2 and
    K = ((p - 2 + gamma) lam + A^2)^((p-2)/2) (2/p)^(p-1).  Feasibility
    holds through the identity |alpha0 - lam beta0| = |d - p - gamma|/2 beta0,
    which is asserted here.
    """
    p, d, gamma, lam = params.p, params.d, params.gamma, params.lam
    A, bracket = _optimum_bracket(params)
    if bracket < 0.0:
        raise DomainError("the certificate bracket is negative for these params")
    K = bracket ** ((p - 2.0) / 2.0) * (2.0 / p) ** (p - 1.0)
    cert = CertificateParams(alpha=A * K, beta=K, lam=lam, d=d, p=p, gamma=gamma)
    ident = abs(d - p - gamma) * cert.beta / 2.0
    if abs(abs(cert.alpha - lam * cert.beta) - ident) > 1e-9 * (1.0 + ident):
        raise SymHardyError("optimum identity |alpha0 - lam beta0| broke down")
    if not cert.feasible:
        raise SymHardyError("closed-form optimum violates the feasibility band")
    return cert


def closed_form_value(params: Params) -> float:
    """The certificate maximum (2/p)^p ((p-2+gamma) lam + A^2)^(p/2)."""
    p = params.p
    return (2.0 / p) ** p * _optimum_bracket(params)[1] ** (p / 2.0)


def _gradient_hessian(alpha, beta, t, params: Params):
    """Gradient and Hessian of g(alpha, beta) = min over t of f.

    ``t`` is the inner minimizer.  By the envelope theorem the gradient is
    (f_alpha, f_beta) at t.  With R = alpha^2 - 2 alpha beta lam + beta^2 t,
    q = p / (2 (p - 1)), h = (p/2) R^(q-1) and h' = (p/2) (q-1) R^(q-2),
    every second derivative of f is -h' R_x R_y - h R_xy (plus 1 for
    f_beta,t), where R_aa = 2, R_ab = -2 lam, R_bb = 2 t, R_bt = 2 beta.
    An interior t > lam^2 moves with (alpha, beta), which subtracts
    F_xt F_tx^T / f_tt from F_xx; a clamped t = lam^2 leaves F_xx.
    """
    p, lam = params.p, params.lam
    R = alpha * alpha - 2.0 * alpha * beta * lam + beta * beta * t
    if abs(p - 2.0) < _P2_TOL:
        h, dh = 1.0, 0.0
    else:
        q = p / (2.0 * (p - 1.0))
        h = 0.5 * p * R ** (q - 1.0)
        dh = h * (q - 1.0) / R
    # Rounded as the array forms grad = c - h R_x and
    # H = -dh R_x R_x^T - 2 h [[1, -lam], [-lam, t]] round them.
    r_a, r_b = 2.0 * (alpha - beta * lam), 2.0 * (beta * t - alpha * lam)
    g_a = (params.d - p - params.gamma) - h * r_a
    g_b = ((p - 2.0 + params.gamma) * lam + t) - h * r_b
    h2 = 2.0 * h
    H_aa = -dh * (r_a * r_a) - h2
    H_ab = -dh * (r_a * r_b) + h2 * lam
    H_bb = -dh * (r_b * r_b) - h2 * t
    if t > lam * lam:
        r_t = beta * beta
        c = dh * r_t
        f_a, f_b = 0.0 - c * r_a, (1.0 - 2.0 * beta * h) - c * r_b
        f_tt = -dh * r_t * r_t
        H_aa -= f_a * f_a / f_tt
        H_ab -= f_a * f_b / f_tt
        H_bb -= f_b * f_b / f_tt
    return (g_a, g_b), ((H_aa, H_ab), (H_ab, H_bb))


def _ascent_direction(grad, hess, beta_held):
    """Newton direction -V diag(1/e) V^T grad for the concave g, as floats.

    V and e come from the closed-form eigen-decomposition of the 2x2 H.
    Where t is clamped to lam^2, g is linear along (lam, 1) and H is
    singular, so each e is lifted to at most -_EIG_FLOOR times the largest
    |e| (modified Newton); the line search caps that step.  A held beta
    leaves a one-variable Newton step in alpha.  A zero or non-finite H
    gives numpy's inf or nan, not ZeroDivisionError.
    """
    (g_a, g_b), ((H_aa, H_ab), (_, H_bb)) = grad, hess
    if beta_held:
        return -(g_a / H_aa if H_aa else g_a * math.copysign(math.inf, H_aa)), 0.0
    m, h = 0.5 * (H_aa + H_bb), 0.5 * (H_aa - H_bb)
    r = math.hypot(h, H_ab)
    floor = -_EIG_FLOOR * (abs(m) + r)
    if not -math.inf < floor < 0.0:
        return math.nan, math.nan
    # u is the unit eigenvector of m + r, from the formula that does not
    # cancel at h's sign; H = m I (h = r = 0) takes u = (1, 0).
    u_a, u_b = (h + r or 1.0, H_ab) if h >= 0.0 else (H_ab, r - h)
    norm = math.hypot(u_a, u_b)
    u_a, u_b = u_a / norm, u_b / norm
    s_hi = (u_a * g_a + u_b * g_b) / min(m + r, floor)
    s_lo = (u_a * g_b - u_b * g_a) / min(m - r, floor)
    return u_b * s_lo - u_a * s_hi, -(u_b * s_hi + u_a * s_lo)


def _backtrack(alpha, beta, value, grad, direction, beta_max, params):
    """The first point along ``direction`` passing the Armijo test, or None.

    The step starts no longer than |(alpha, beta)| (at least 1) and halves
    until g rises enough; beta is projected onto (0, beta_max].
    """
    scale = max(1.0, math.hypot(alpha, beta))
    length = math.hypot(*direction)
    s = min(1.0, scale / length)
    while s * length > _MIN_STEP * scale:
        a_new = alpha + s * direction[0]
        b_new = min(beta + s * direction[1], beta_max)
        if b_new > 0.0:
            t_new, v_new = min_over_t(a_new, b_new, params)
            rise = grad[0] * (a_new - alpha) + grad[1] * (b_new - beta)
            if v_new >= value + _ARMIJO * rise:
                return a_new, b_new, t_new, v_new
        s *= 0.5
    return None


def numeric_minimax(params: Params):
    """Reproduce the class constant by maximizing g = min over t of f.

    g is concave for beta >= 0 (f is concave in (alpha, beta) for each t,
    and a minimum over t keeps that), so one damped Newton ascent from the
    naive certificate (alpha, beta) = (0, 1) reaches the maximum, using
    only (d, p, gamma, lam) and never the closed-form optimum.  For p = 2,
    f is linear in t with slope beta (1 - beta), so g = -inf above
    beta = 1: the iterate is projected onto beta <= 1, and beta is held at
    1 while the gradient pushes against that bound.  The closed-form
    constant is read only for the final gap.
    """
    target = class_constant(params)  # also rejects p < 2 and the general class
    beta_max = 1.0 if abs(params.p - 2.0) < _P2_TOL else math.inf
    alpha, beta = 0.0, 1.0
    t_star, value = min_over_t(alpha, beta, params)
    converged = False
    steps = 0
    while True:
        grad, hess = _gradient_hessian(alpha, beta, t_star, params)
        direction = _ascent_direction(grad, hess, beta >= beta_max and grad[1] >= 0.0)
        decrement = grad[0] * direction[0] + grad[1] * direction[1]
        if decrement <= _DECREMENT_TOL * max(1.0, abs(value)):
            converged = True
            break
        if steps == _MAX_STEPS:
            break
        point = _backtrack(alpha, beta, value, grad, direction, beta_max, params)
        if point is None:
            break
        alpha, beta, t_star, value = point
        steps += 1
    return MinimaxResult(
        alpha_star=alpha,
        beta_star=beta,
        t_star=t_star,
        value_numeric=value,
        value_closed_form=target,
        gap=abs(value - target),
        converged=converged,
        steps=steps,
    )

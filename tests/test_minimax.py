import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import sympy as sp

from symhardy import minimax as mm
from symhardy.constants import FunctionClass, Params, hardy_antisymmetric, hardy_odd
from symhardy.errors import DomainError, OutOfRangeError

from oracles import (
    ascent_direction_arrays,
    g_envelope,
    gradient_hessian_arrays,
    t_stationary,
)

ANTI = FunctionClass.ANTISYMMETRIC
ODD = FunctionClass.ODD


def params(d, p, gamma=0.0, klass=ANTI):
    return Params(d, p, gamma, klass)


# The grid of acceptance criterion 2, and its p = 2 counterpart.
CRITERION_2 = [
    params(d, p, gamma, klass)
    for klass in (ANTI, ODD)
    for d in (2, 3, 4)
    for p in (2.5, 3.0, 4.0)
    for gamma in (-1.0, 0.0, 1.0)
]
P2_CASES = [
    params(d, 2.0, gamma, klass)
    for klass in (ANTI, ODD)
    for d in (2, 3, 4)
    for gamma in (-1.0, 0.0, 1.0)
] + [params(1, 2.0, 0.0, ODD)]


def _case_id(pr):
    return f"{pr.klass.value}-d{pr.d}-p{pr.p:g}-g{pr.gamma:g}"


def fd_hessian_eigs(fun, x, h=1e-5):
    """Eigenvalues of the central finite-difference Hessian of fun at x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    e = np.eye(n)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            hi = h * max(1.0, abs(x[i]))
            hj = h * max(1.0, abs(x[j]))
            if i == j:
                H[i, i] = (
                    fun(x + hi * e[i]) - 2.0 * fun(x) + fun(x - hi * e[i])
                ) / hi**2
            else:
                pp = fun(x + hi * e[i] + hj * e[j])
                pm = fun(x + hi * e[i] - hj * e[j])
                mp = fun(x - hi * e[i] + hj * e[j])
                mm_ = fun(x - hi * e[i] - hj * e[j])
                H[i, j] = H[j, i] = (pp - pm - mp + mm_) / (4.0 * hi * hj)
    return np.linalg.eigvalsh(H)


class TestCertificateFunction:
    def test_beta_zero_is_one_parameter_certificate(self):
        pr = params(3, 3)
        for alpha in (-1.0, 0.5, 2.0):
            got = mm.f_certificate(7.0, alpha, 0.0, pr)
            expected = alpha * (3 - 3) - 2.0 * abs(alpha) ** (3.0 / 2.0)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_hand_value_d2_p4(self):
        # Scalar-evaluation oracle: 0 + 0.25*2*1 + 0.25*1 - 3*(0.0625)**(2/3).
        pr = params(2, 4)
        expected = 0.5 + 0.25 - 3.0 * 0.0625 ** (2.0 / 3.0)
        got = mm.f_certificate(1.0, 0.0, 0.25, pr)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.27752960628942256, rel=1e-12)
        # and the inner minimum over t is not at t = lam^2 = 1 here
        assert mm.t_minimizer(0.0, 0.25, pr) == pytest.approx(2.0, rel=1e-14)

    def test_value_at_optimum_matches_constant(self):
        pr = params(2, 4)
        opt = mm.closed_form_optimum(pr)
        t0 = mm.t_minimizer(opt.alpha, opt.beta, pr)
        assert mm.f_certificate(t0, opt.alpha, opt.beta, pr) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_domain_errors(self):
        pr = params(2, 4)
        with pytest.raises(DomainError):
            mm.f_certificate(-1.0, 0.0, 0.25, pr)
        with pytest.raises(DomainError):
            # alpha^2 - 2 alpha beta lam + beta^2 t < 0
            mm.f_certificate(0.0, 1.0, 1.0, pr)
        with pytest.raises(OutOfRangeError):
            mm.f_certificate(1.0, 0.0, 0.25, params(2, 1.5))


class TestTMinimizer:
    def test_hand_value(self):
        assert t_stationary(0.0, 0.25, params(2, 4)) == pytest.approx(
            2.0, rel=1e-14
        )
        assert mm.t_minimizer(0.0, 0.25, params(2, 4)) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_feasibility_boundary_iff(self):
        pr = params(3, 4)
        lam = pr.lam
        beta = 0.7
        edge = (pr.p * beta / 2.0) ** ((pr.p - 1.0) / (pr.p - 2.0))
        alpha = lam * beta + edge
        t0 = t_stationary(alpha, beta, pr)
        assert t0 == pytest.approx(lam * lam, rel=1e-9)
        assert mm.t_minimizer(alpha, beta, pr) == pytest.approx(
            max(t0, lam * lam), rel=1e-14)
        cert = mm.CertificateParams(alpha, beta, lam, pr.d, pr.p, pr.gamma)
        assert abs(cert.albe_residual) < 1e-9

    def test_alpha_equal_lam_beta_always_feasible(self):
        pr = params(3, 3)
        lam = pr.lam
        for beta in (0.1, 1.0, 4.0):
            t0 = t_stationary(lam * beta, beta, pr)
            assert t0 >= lam * lam
            assert mm.t_minimizer(lam * beta, beta, pr) == pytest.approx(
                t0, rel=1e-14)

    def test_p2_redirects(self):
        with pytest.raises(DomainError):
            mm.t_minimizer(0.0, 0.5, params(3, 2))


class TestClosedForm:
    def test_optimum_d2_p4(self):
        opt = mm.closed_form_optimum(params(2, 4))
        assert opt.alpha == pytest.approx(0.0, abs=1e-15)
        assert opt.beta == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 1.0])
    def test_value_matches_constant_formulas(self, d, p, gamma, klass):
        pr = params(d, p, gamma, klass)
        val = mm.closed_form_value(pr)
        const = (
            hardy_antisymmetric(d, p, gamma).value
            if klass is ANTI
            else hardy_odd(d, p, gamma).value
        )
        assert val == pytest.approx(const, rel=1e-12)

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_optimum_identity_and_feasibility(self, d, p, klass):
        for gamma in (-1.0, 0.0, 1.0):
            pr = params(d, p, gamma, klass)
            opt = mm.closed_form_optimum(pr)
            ident = abs(d - p - gamma) * opt.beta / 2.0
            assert abs(opt.alpha - pr.lam * opt.beta) == pytest.approx(
                ident, rel=1e-12, abs=1e-15
            )
            assert opt.feasible

    def test_envelope_identity(self):
        for d, p, klass in [(2, 4.0, ANTI), (3, 3.0, ANTI), (3, 2.5, ODD)]:
            pr = params(d, p, 0.0, klass)
            opt = mm.closed_form_optimum(pr)
            t0 = mm.t_minimizer(opt.alpha, opt.beta, pr)
            via_f = mm.f_certificate(t0, opt.alpha, opt.beta, pr)
            via_env = g_envelope(opt.alpha, opt.beta, pr)
            via_display = mm.closed_form_value(pr)
            assert via_f == pytest.approx(via_env, rel=1e-10)
            assert via_f == pytest.approx(via_display, rel=1e-10)

    def test_envelope_matches_min_for_random_feasible_points(self):
        rng = np.random.default_rng(11)
        pr = params(3, 3)
        lam = pr.lam
        for _ in range(200):
            beta = rng.uniform(0.05, 2.0)
            band = (pr.p * beta / 2.0) ** ((pr.p - 1.0) / (pr.p - 2.0))
            alpha = lam * beta + rng.uniform(-band, band)
            t0 = t_stationary(alpha, beta, pr)
            if t0 < lam * lam:
                continue
            t_star, value = mm.min_over_t(alpha, beta, pr)
            assert value == pytest.approx(g_envelope(alpha, beta, pr), rel=1e-10)


class TestInnerProblem:
    def test_convexity_on_grid(self):
        # Discrete second differences of g(t) = f(t) - linear part stay
        # nonnegative for p > 2.
        for p in (2.5, 3.0, 4.0):
            pr = params(3, p)
            lam2 = pr.lam**2
            ts = np.linspace(lam2, lam2 + 50.0, 1000)
            alpha, beta = 1.0, 0.3
            vals = np.array([mm.f_certificate(t, alpha, beta, pr) for t in ts])
            second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
            assert np.min(second) >= -1e-9 * max(1.0, np.max(np.abs(vals)))

    def test_no_certificate_beats_closed_form(self):
        rng = np.random.default_rng(12)
        for d, p, gamma, klass in [(2, 4.0, 0.0, ANTI), (3, 2.5, 1.0, ODD)]:
            pr = params(d, p, gamma, klass)
            opt = mm.closed_form_optimum(pr)
            best = mm.closed_form_value(pr)
            for _ in range(500):
                beta = rng.uniform(0.0, 3.0 * max(opt.beta, 1.0))
                alpha = rng.uniform(-3.0, 3.0) * max(abs(opt.alpha), 1.0)
                value = mm.min_over_t(alpha, beta, pr)[1]
                assert value <= best + 1e-9

    def test_unbounded_branch_p2(self):
        pr = params(3, 2)
        t_star, value = mm.min_over_t(1.0, 1.5, pr)
        assert value == -math.inf

    def test_overflowing_minimizer_is_unbounded_below(self):
        # (p beta / 2)^(2(p-1)/(p-2)) = 40.2^202 exceeds the float range.
        t_star, value = mm.min_over_t(0.0, 40.0, params(3, 2.01))
        assert t_star == math.inf
        assert value == -math.inf


class TestNumericMinimax:
    def test_d2_p4(self):
        res = mm.numeric_minimax(params(2, 4))
        assert res.gap < 1e-6
        assert res.converged

    def test_d3_p3(self):
        res = mm.numeric_minimax(params(3, 3))
        assert res.value_closed_form == pytest.approx((16.0 / 3.0) ** 1.5, rel=1e-12)
        assert res.gap < 1e-5

    def test_odd_d1_p3(self):
        res = mm.numeric_minimax(params(1, 3, 0.0, ODD))
        assert res.value_numeric == pytest.approx((2.0 / 3.0) ** 3, abs=1e-6)

    def test_p2_linear_branch(self):
        res = mm.numeric_minimax(params(3, 2))
        assert res.value_numeric == pytest.approx(12.25, rel=1e-12)
        assert res.t_star == pytest.approx(9.0)

    def test_weighted(self):
        res = mm.numeric_minimax(params(3, 2.5, 1.0))
        assert res.gap < 1e-5

    def test_continuity_toward_p2(self):
        base = hardy_antisymmetric(3, 2).value
        res = mm.numeric_minimax(params(3, 2.01))
        assert res.gap < 1e-5
        assert abs(res.value_numeric - base) < 0.05

    def test_concave_at_the_optimum(self):
        for pr in (params(2, 4), params(3, 2.5)):
            res = mm.numeric_minimax(pr)
            hess = gradient_hessian_arrays(res.alpha_star, res.beta_star,
                                           res.t_star, pr)[1]
            assert max(np.linalg.eigvalsh(hess)) < 0.0

    def test_general_class_rejected(self):
        with pytest.raises(OutOfRangeError):
            mm.numeric_minimax(Params(3, 3, 0.0, FunctionClass.GENERAL))


class TestNewtonAscent:
    @pytest.fixture
    def no_closed_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numeric_minimax read the closed-form optimum")

        monkeypatch.setattr(mm, "closed_form_optimum", refuse)
        monkeypatch.setattr(mm, "closed_form_value", refuse)

    @pytest.mark.parametrize("pr", CRITERION_2 + P2_CASES, ids=_case_id)
    def test_reaches_constant_without_closed_form(self, no_closed_form, pr):
        res = mm.numeric_minimax(pr)
        assert res.converged
        assert res.gap <= 1e-9 * max(1.0, res.value_closed_form)
        assert res.steps <= 30

    def test_p2_holds_beta_at_bound(self):
        for pr in P2_CASES[:-1]:
            res = mm.numeric_minimax(pr)
            assert res.beta_star == 1.0
            assert res.t_star == pr.lam**2

    @pytest.mark.parametrize(
        "pr", CRITERION_2 + [params(3, 2.01), params(6, 8.0)], ids=_case_id
    )
    def test_analytic_hessian_matches_finite_differences(self, pr):
        res = mm.numeric_minimax(pr)
        assert res.t_star > pr.lam**2  # g is smooth around an interior t*
        fd = fd_hessian_eigs(
            lambda v: mm.min_over_t(v[0], v[1], pr)[1],
            (res.alpha_star, res.beta_star),
        )
        eigs = np.linalg.eigvalsh(gradient_hessian_arrays(
            res.alpha_star, res.beta_star, res.t_star, pr)[1])
        scale = max(abs(e) for e in eigs)
        np.testing.assert_allclose(eigs, fd, rtol=1e-3, atol=1e-4 * scale)


class TestGradientHessian:
    """``_gradient_hessian`` forms the Newton step's gradient and Hessian
    as tuples of Python floats."""

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_bitwise_equal_to_array_form(self, monkeypatch, klass):
        # Every call of full ascents: p = 2 (linear branch, t = lam^2),
        # and p > 2 with the inner minimizer clamped and interior, at
        # gamma = 0 and not.
        calls = []
        original = mm._gradient_hessian

        def recording(alpha, beta, t, pr):
            calls.append((alpha, beta, t, pr))
            return original(alpha, beta, t, pr)

        monkeypatch.setattr(mm, "_gradient_hessian", recording)
        for d in (2, 3, 4, 5):
            for p in (2.0, 2.5, 3.0, 4.0, 6.0):
                for gamma in (-1.5, 0.0, 1.0):
                    mm.numeric_minimax(params(d, p, gamma, klass))
        # Points off the ascent paths, clamped and interior.
        for alpha, beta in ((6.0, 1.0), (-1.0, 1.0 / 3.0), (0.5, 1.5)):
            for pr in (params(3, 3.0, 0.5, klass), params(4, 2.5, -1.0, klass)):
                calls.append((alpha, beta, mm.min_over_t(alpha, beta, pr)[0], pr))
        kinds = {(pr.p == 2.0, t > pr.lam**2) for _, _, t, pr in calls}
        assert kinds == {(True, False), (False, False), (False, True)}
        for call in calls:
            got = original(*call)
            want = gradient_hessian_arrays(*call)
            (g_a, g_b), ((h_aa, h_ab), (h_ba, h_bb)) = got
            grad, hess = [g_a, g_b], [h_aa, h_ab, h_ba, h_bb]
            assert all(type(v) is float for v in grad + hess)
            assert np.array(grad).tobytes() == want[0].tobytes(), call
            assert np.array(hess).tobytes() == want[1].tobytes(), call

    # (class, d, p, gamma, alpha, beta, inner minimizer interior?)
    SYMBOLIC = [
        (ANTI, 3, "3", "1/2", "2", "1", True),
        (ANTI, 3, "3", "1/2", "1", "1/2", True),
        (ANTI, 3, "3", "1/2", "6", "1", False),
        (ODD, 4, "4", "-1", "1/2", "3/2", True),
        (ODD, 4, "4", "-1", "-1", "1/3", False),
        (ODD, 3, "5/2", "1", "3", "2", True),
        (ODD, 3, "5/2", "1", "1", "1/2", False),
        (ANTI, 2, "2", "1", "2", "1", False),
        (ODD, 3, "2", "-1/2", "-1", "1/3", False),
    ]

    @pytest.mark.parametrize("klass, d, p, gamma, alpha, beta, interior",
                             SYMBOLIC)
    def test_against_symbolic_derivatives(self, klass, d, p, gamma, alpha,
                                          beta, interior):
        # g = f(t*(alpha, beta); alpha, beta), with t* the stationary point
        # t0 of f in t where it lies above lam^2 and lam^2 where it does
        # not: sympy's derivatives of g at rational points against the
        # envelope gradient and the implicit-t Hessian.
        pr = params(d, float(sp.Rational(p)), float(sp.Rational(gamma)), klass)
        a, b = sp.symbols("alpha beta")
        P, G, lam = sp.Rational(p), sp.Rational(gamma), sp.Integer(pr.lam)
        point = {a: sp.Rational(alpha), b: sp.Rational(beta)}
        if P == 2:
            t = lam**2
        else:
            t0 = ((P * b / 2) ** (2 * (P - 1) / (P - 2))
                  - a * a + 2 * a * b * lam) / (b * b)
            assert bool(t0.subs(point) > lam**2) is interior
            t = t0 if interior else lam**2
        R = a * a - 2 * a * b * lam + b * b * t
        g = (a * (d - P - G) + b * (P - 2 + G) * lam + b * t
             - (P - 1) * R ** (P / (2 * (P - 1))))
        x = (a, b)
        want_grad = [float(sp.diff(g, v).subs(point)) for v in x]
        want_hess = [[float(sp.diff(g, u, v).subs(point)) for v in x]
                     for u in x]
        alpha_f, beta_f = float(point[a]), float(point[b])
        t_star = mm.min_over_t(alpha_f, beta_f, pr)[0]
        assert (t_star > pr.lam**2) is interior
        grad, hess = mm._gradient_hessian(alpha_f, beta_f, t_star, pr)
        scale = max(1.0, np.max(np.abs(want_hess)))
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hess, want_hess, rtol=1e-10,
                                   atol=1e-12 * scale)


# The regression grid of the Newton ascent.  No p lies in 0 < p - 2 < 1e-6,
# where the ascent does not converge (beta's curvature grows like
# 1 / (p - 2)).
REGRESSION_GRID = [
    params(d, p, gamma, klass)
    for klass in (ANTI, ODD)
    for d in range(2, 9)
    for p in (2.0, 2.25, 2.5, 3.0, 4.0, 7.5, 12.0, 30.0)
    for gamma in (-3.0, -1.0, 0.0, 1.0, 3.0)
]


@pytest.fixture(scope="module")
def regression_ascents():
    """(params, result, steps) for full ascents over the regression grid,
    with every step's (grad, hess, beta_held) and the direction taken."""
    original = mm._ascent_direction
    ascents = []

    def recording(grad, hess, beta_held):
        direction = original(grad, hess, beta_held)
        steps.append((grad, hess, beta_held, direction))
        return direction

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mm, "_ascent_direction", recording)
        for pr in REGRESSION_GRID:
            steps = []
            ascents.append((pr, mm.numeric_minimax(pr), steps))
    return ascents


class TestAscentDirection:
    """``_ascent_direction`` forms the modified Newton step from the
    closed-form 2x2 eigen-decomposition, against ``np.linalg.eigh``."""

    def test_matches_eigh_step_on_regression_grid(self, regression_ascents):
        steps = [step for _, _, ascent in regression_ascents for step in ascent]
        assert len(steps) > 5000
        assert sum(held for _, _, held, _ in steps) > 100
        for grad, hess, held, got in steps:
            want = ascent_direction_arrays(grad, hess, held)
            assert all(type(v) is float for v in got)
            assert math.dist(got, want) <= 1e-10 * math.hypot(*want), (
                grad, hess, held)

    def test_regression_grid_reaches_constant(self, regression_ascents):
        for pr, res, _ in regression_ascents:
            assert res.converged, _case_id(pr)
            assert res.gap <= 1e-12 * max(1.0, res.value_closed_form), (
                _case_id(pr))

    HESSIANS = {
        "diagonal-aa-above-bb": ((-2.0, 0.0), (0.0, -10.125)),
        "diagonal-aa-below-bb": ((-10.125, 0.0), (0.0, -2.0)),
        "minus-c-identity": ((-3.0, 0.0), (0.0, -3.0)),
        "coupled": ((-1.0, 0.75), (0.75, -4.0)),
    }

    @pytest.mark.parametrize("hess", HESSIANS.values(), ids=HESSIANS.keys())
    @pytest.mark.parametrize("grad", [(1.0, -2.0), (0.3, 0.7), (0.0, 1.0)])
    @pytest.mark.parametrize("held", [False, True])
    def test_hand_made_hessians(self, grad, hess, held):
        got = mm._ascent_direction(grad, hess, held)
        want = ascent_direction_arrays(grad, hess, held)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        if not held:
            # A negative definite H takes the plain Newton step -H^-1 grad.
            np.testing.assert_allclose(
                got, -np.linalg.solve(hess, grad), rtol=1e-14, atol=0.0)

    def test_singular_hessian_at_clamped_t(self):
        pr = params(3, 3.0, 0.5)
        t_star = mm.min_over_t(6.0, 1.0, pr)[0]
        assert t_star == pr.lam**2
        grad, hess = mm._gradient_hessian(6.0, 1.0, t_star, pr)
        null = (pr.lam, 1.0)  # g is linear along (lam, 1)
        H = np.array(hess)
        assert np.linalg.norm(H @ null) <= 1e-12 * np.abs(H).max()
        got = mm._ascent_direction(grad, hess, False)
        want = ascent_direction_arrays(grad, hess, False)
        assert math.dist(got, want) <= 1e-10 * math.hypot(*want)

    @pytest.mark.parametrize("hess", [
        ((0.0, 0.0), (0.0, 0.0)),
        ((-0.0, 0.0), (0.0, -0.0)),
        ((math.inf, 0.0), (0.0, -1.0)),
        ((-math.inf, 0.0), (0.0, -1.0)),
        ((math.nan, 0.0), (0.0, -1.0)),
        ((-1.0, math.inf), (math.inf, -1.0)),
        ((-1.0, math.nan), (math.nan, -1.0)),
    ], ids=["zero", "minus-zero", "inf", "minus-inf", "nan", "inf-off",
            "nan-off"])
    @pytest.mark.parametrize("grad", [(1.0, -2.0), (-1.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("held", [False, True])
    def test_zero_and_non_finite_hessians_give_numpy_values(self, grad, hess,
                                                            held):
        # Python floats raise ZeroDivisionError where numpy divides into
        # inf or nan: the step must give numpy's values.
        got = mm._ascent_direction(grad, hess, held)
        want = ascent_direction_arrays(grad, hess, held)
        np.testing.assert_array_equal(got, want)


_NO_NUMPY_SCRIPT = textwrap.dedent("""\
    import sys
    sys.modules["numpy"] = None
    from symhardy import minimax
    from symhardy.constants import FunctionClass, Params
    res = minimax.numeric_minimax(Params(3, 3.0, 0.0, FunctionClass.ANTISYMMETRIC))
    print(res.converged, res.gap)
""")


def test_certificate_solve_needs_no_numpy():
    src = os.path.dirname(os.path.dirname(mm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    converged, gap = done.stdout.split()
    assert converged == "True" and float(gap) < 1e-9

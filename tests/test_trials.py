import math

import numpy as np
import pytest

from symhardy import trials as tr
from symhardy.constants import FunctionClass
from symhardy.errors import DomainError, InvalidDimensionError
from symhardy.polynomials import ConstantFactor, odd_linear, vandermonde

ANTI = FunctionClass.ANTISYMMETRIC
ODD = FunctionClass.ODD


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_laplacian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    f0 = f(x)
    acc = 0.0
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        acc += (f(xp) - 2.0 * f0 + f(xm)) / (h * h)
    return acc


class TestGaussianTrial:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            tr.gaussian_profile(sigma)

    def test_gradient_assembly_d2(self):
        u = tr.gaussian_trial(vandermonde(2), 1.0)
        x = np.array([1.0, 2.0])
        got = u.gradient(x)
        fd = fd_gradient(u.value, x)
        assert np.max(np.abs(got - fd)) <= 1e-6 * (1.0 + np.max(np.abs(got)))

    @pytest.mark.parametrize(
        "factor,d", [(vandermonde(2), 2), (vandermonde(3), 3), (odd_linear(3), 3)]
    )
    def test_derivatives_match_finite_differences(self, factor, d):
        u = tr.gaussian_trial(factor, 1.3)
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.standard_normal(d)
            g = u.gradient(x)
            fd = fd_gradient(u.value, x)
            assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))
            lap = u.laplacian(x)
            lap_fd = fd_laplacian(u.value, x)
            assert abs(lap - lap_fd) <= 1e-4 * (1.0 + abs(lap))

    def test_antisymmetry_of_vandermonde_trial(self):
        u = tr.gaussian_trial(vandermonde(3), 1.0)
        rng = np.random.default_rng(32)
        x = rng.standard_normal(3)
        swapped = x[[1, 0, 2]]
        assert u.value(swapped) == pytest.approx(-u.value(x), rel=1e-12)

    def test_laplacian_where_factor_vanishes(self):
        # With F(x) = 0 the product rule leaves 2 <grad F, grad psi>, which
        # the Euler relation makes vanish as well.
        u = tr.gaussian_trial(vandermonde(3), 1.0)
        x = np.array([1.0, 1.0, 2.5])
        F = vandermonde(3)
        r = np.linalg.norm(x)
        dpsi = -(r / 1.0) * math.exp(-0.5 * r * r)
        cross = 2.0 * dpsi / r * float(F.gradient(x) @ x)
        assert u.laplacian(x) == pytest.approx(cross, abs=1e-12)
        assert abs(u.laplacian(x) - fd_laplacian(u.value, x)) < 1e-6

    def test_general_tag_with_constant_factor(self):
        u = tr.gaussian_trial(ConstantFactor(3), 1.0)
        assert u.class_tag is FunctionClass.GENERAL
        assert u.value([0.0, 0.0, 0.0]) == 1.0

    def test_constant_profile_shell_is_harmonic(self):
        # Harmonic angular factor times a locally constant radial profile
        # contributes nothing to the Laplacian.
        ones = lambda r: np.ones_like(np.asarray(r, dtype=float))
        zeros = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        u = tr.TrialFunction(
            vandermonde(3),
            tr.RadialProfile("custom", ones, zeros, zeros),
        )
        rng = np.random.default_rng(37)
        X = rng.standard_normal((50, 3))
        assert np.max(np.abs(u.laplacian(X))) == 0.0


class TestSharpnessFamily:
    def test_pure_power_laplacian_identity(self):
        # Delta(V r^-rho) = rho (rho + 2 - d - 2 lam) V r^(-rho-2) away from
        # the collar.
        d = 3
        factor = vandermonde(d)
        lam = factor.homogeneity
        u = tr.sharpness_family(factor, 0.1, 0.05)
        a_in = u.radial.meta["alpha_in"]
        b_out = u.radial.meta["beta_out"]
        rng = np.random.default_rng(33)
        for rho, rlo, rhi in [(a_in, 0.2, 0.9), (b_out, 1.1, 3.0)]:
            for _ in range(50):
                x = rng.standard_normal(d)
                x = x / np.linalg.norm(x) * rng.uniform(rlo, rhi)
                got = u.laplacian(x)
                r = np.linalg.norm(x)
                expected = (
                    rho
                    * (rho + 2.0 - d - 2.0 * lam)
                    * factor.value(x)
                    * r ** (-rho - 2.0)
                )
                assert abs(got - expected) <= 1e-8 * (1.0 + abs(expected))

    def test_collar_is_c2(self):
        u = tr.sharpness_family(vandermonde(3), 0.2, 0.05)
        prof = u.radial
        eps = 1e-9
        for edge in (0.95, 1.05):
            for fn in (prof.psi, prof.dpsi, prof.d2psi):
                left = float(fn(edge - eps))
                right = float(fn(edge + eps))
                assert abs(left - right) <= 1e-5 * (1.0 + abs(left))

    def test_derivatives_on_collar_match_fd(self):
        u = tr.sharpness_family(vandermonde(3), 0.2, 0.05)
        rng = np.random.default_rng(34)
        for _ in range(30):
            x = rng.standard_normal(3)
            x = x / np.linalg.norm(x) * rng.uniform(0.96, 1.04)
            g = u.gradient(x)
            fdg = fd_gradient(u.value, x, h=1e-6)
            assert np.max(np.abs(g - fdg)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

    def test_class_tags(self):
        ua = tr.sharpness_family(vandermonde(3), 0.1, 0.02)
        assert ua.class_tag is ANTI
        assert not ua.heuristic
        uo = tr.sharpness_family(odd_linear(3), 0.1, 0.02)
        assert uo.class_tag is ODD

    def test_exponent_choices(self):
        d = 3
        ua = tr.sharpness_family(vandermonde(d), 0.1, 0.02)
        assert ua.radial.meta["alpha_in"] == pytest.approx((d * d - 4) / 2.0 - 0.1)
        assert ua.radial.meta["beta_out"] == pytest.approx((d * d - 4) / 2.0 + 0.1)
        uo = tr.sharpness_family(odd_linear(d), 0.1, 0.02)
        assert uo.radial.meta["alpha_in"] == pytest.approx(d / 2.0 - 1.0 - 0.1)
        uh = tr.sharpness_family(vandermonde(d), 0.1, 0.02, functional="hardy")
        assert uh.radial.meta["alpha_in"] == pytest.approx((d * d - 2) / 2.0 - 0.1)
        assert uh.heuristic

    def test_guards(self):
        with pytest.raises(DomainError):
            tr.sharpness_family(vandermonde(3), 0.1, 0.0)
        with pytest.raises(DomainError):
            tr.sharpness_family(vandermonde(3), 1.5, 0.01)
        with pytest.raises(InvalidDimensionError):
            tr.sharpness_family(vandermonde(2), 0.1, 0.01, functional="rellich")

    def test_cutoff_radius_from_tail_budget(self):
        u = tr.sharpness_family(vandermonde(3), 0.5, 0.01)
        assert u.radial.meta["cutoff"] == pytest.approx(500.0, rel=1e-12)


@pytest.mark.parametrize("make", [vandermonde, odd_linear, ConstantFactor])
@pytest.mark.parametrize("d", range(3, 11))
def test_trial_class_is_the_factors(make, d):
    factor = make(d)
    assert tr.gaussian_trial(factor, 1.0).class_tag is factor.function_class
    for functional in ("hardy", "rellich"):
        u = tr.sharpness_family(factor, 0.1, 0.02, functional=functional)
        assert u.class_tag is factor.function_class


class TestProfileMemo:
    """Scalar calls of a piecewise-power profile share one memo of the
    per-radius terms; it must not change a bit of psi, dpsi or d2psi."""

    ARGS = (0.3, 0.7, 0.05, 40.0)
    RADII = [0.0, 1e-3, 0.5, 0.95, 0.9512345678, 0.999, 1.0, 1.0376543219,
             1.05, 2.0, 40.0, 55.5, 63.258719, 80.0, 120.0]

    @pytest.mark.parametrize("part", ["psi", "dpsi", "d2psi"])
    def test_scalar_values_match_fresh_profile_and_array_path(self, part):
        memo = tr.piecewise_power_profile(*self.ARGS)
        array_values = getattr(memo, part)(np.array(self.RADII))
        # Three sweeps, the second reversed, with float and numpy-scalar
        # arguments, so later calls hit the memo that earlier ones filled.
        for radii in (self.RADII, self.RADII[::-1], self.RADII):
            for r in radii:
                fresh = tr.piecewise_power_profile(*self.ARGS)
                want = getattr(fresh, part)(r)
                for arg in (r, np.float64(r)):
                    got = getattr(memo, part)(arg)
                    assert got.tobytes() == want.tobytes()
                    # The array path rounds the collar terms in another
                    # order (d2psi differs by ~1e-15 there, memo or not).
                    index = self.RADII.index(r)
                    assert np.isclose(got, array_values[index], rtol=1e-13,
                                      atol=0.0)

    def test_memo_results_are_independent_arrays(self):
        profile = tr.piecewise_power_profile(*self.ARGS)
        first = profile.psi(1.02)
        first[...] = -1.0
        assert float(profile.psi(1.02)) > 0.0


def _profiles():
    """Gaussian profiles, and piecewise ones with inner exponent > 0, = 0
    and < 0 (psi(0) = inf, 1 and 0)."""
    out = {f"gaussian-{s}": tr.gaussian_profile(s) for s in (0.7, 1.0, 1.3)}
    for a in (0.3, 0.0, -0.4):
        out[f"piecewise-{a}"] = tr.piecewise_power_profile(a, 0.7, 0.05, 40.0)
    return out


# r = 0, the inner power segment, the collar [0.95, 1.05], the outer power
# segment, the cutoff [40, 80] and the zero tail beyond.
PROFILE_RADII = np.array([0.0, 1e-3, 0.5, 0.95, 0.9512345678, 0.999, 1.0,
                          1.0376543219, 1.05, 2.0, 40.0, 55.5, 63.258719,
                          80.0, 120.0])


class TestJointDerivatives:
    """``RadialProfile.derivatives`` shares the work of psi, psi' and
    psi'' without changing a bit of any of them."""

    @pytest.mark.parametrize("name", list(_profiles()))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_equal_to_separate_calls(self, name, order):
        profile = _profiles()[name]
        r = PROFILE_RADII
        got = profile.derivatives(r, order)
        want = (profile.psi(r), profile.dpsi(r), profile.d2psi(r))[:order + 1]
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 1.3])
    def test_gaussian_formulas(self, sigma):
        # The formulas of three separate exponentials, written out.
        r, s2 = PROFILE_RADII, sigma * sigma
        want = (np.exp(-0.5 * r * r / s2),
                -(r / s2) * np.exp(-0.5 * r * r / s2),
                (r * r / (s2 * s2) - 1.0 / s2) * np.exp(-0.5 * r * r / s2))
        got = tr.gaussian_profile(sigma).derivatives(r, 2)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestEvaluate:
    """``TrialFunction.evaluate`` is the one home of u, grad u and Delta u;
    each must be the same bits whatever else it is asked for."""

    TRIALS = {
        "gaussian-vandermonde": lambda: tr.gaussian_trial(vandermonde(3), 0.7),
        "gaussian-odd": lambda: tr.gaussian_trial(odd_linear(4), 1.3),
        "gaussian-constant": lambda: tr.gaussian_trial(ConstantFactor(3), 1.0),
        "sharpness-rellich": lambda: tr.sharpness_family(
            vandermonde(3), 0.1, 0.05, functional="rellich"),
        "sharpness-hardy": lambda: tr.sharpness_family(
            odd_linear(3), 0.2, 0.02, functional="hardy"),
    }

    @staticmethod
    def _points(d):
        # Radii from 0 through the collar to the cutoff and beyond.
        rng = np.random.default_rng(41)
        dirs = rng.standard_normal((PROFILE_RADII.size, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        X = np.vstack([dirs * PROFILE_RADII[:, None],
                       rng.standard_normal((40, d))])
        return X, X.T.copy().T  # C- and F-ordered

    @pytest.mark.parametrize("name", list(TRIALS))
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_laplacian_equal_to_laplacian_method(self, name):
        u = self.TRIALS[name]()
        # Bytes, not values: u and grad u are NaN at x = 0 when psi(0) = inf.
        for X in self._points(u.dimension):
            want = u.laplacian(X)
            for gradient in (False, True):
                sq, value, grad, lap = u.evaluate(X, gradient=gradient,
                                                  laplacian=True)
                assert lap.tobytes() == want.tobytes()
                assert value.tobytes() == u.value(X).tobytes()
                assert sq.tobytes() == (X * X).sum(axis=1).tobytes()
                if gradient:
                    assert grad.tobytes() == u.gradient(X).tobytes()
                else:
                    assert grad is None
            assert u.laplacian(X[0]) == float(want[0])

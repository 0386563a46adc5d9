from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symhardy import polynomials as poly
from symhardy.constants import FunctionClass, Params
from symhardy.errors import (
    InvalidDimensionError,
    OnBoundaryError,
    UnsupportedDimensionError,
)

from oracles import (
    euler_residual,
    vandermonde_gradient_exact,
    vandermonde_laplacian_exact,
    vandermonde_value_exact,
)


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def vandermonde_matrix_det(x):
    # Independent oracle: the determinant of the moment matrix [x_i^j].
    x = np.asarray(x, dtype=float)
    d = len(x)
    M = np.vander(x, N=d, increasing=True)
    return float(np.linalg.det(M))


class TestValue:
    def test_trivial_pairs(self):
        assert poly.vandermonde(2).value([1.0, 2.0]) == 1.0
        assert poly.vandermonde(3).value([1.0, 2.0, 3.0]) == 2.0

    def test_matches_determinant_4d(self):
        x = [0.3, -1.2, 2.5, 0.7]
        v = poly.vandermonde(4).value(x)
        det = vandermonde_matrix_det(x)
        assert abs(v - det) <= 1e-10 * abs(det)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_determinant_random(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            x = rng.uniform(-10.0, 10.0, size=d)
            v = poly.vandermonde(d).value(x)
            det = vandermonde_matrix_det(x)
            assert abs(v - det) <= 1e-10 * (1.0 + abs(det))

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimensionError):
            poly.Vandermonde(1)
        with pytest.raises(InvalidDimensionError):
            poly.vandermonde(1)

    def test_batch_shape(self):
        X = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 3.0]])
        v = poly.vandermonde(3).value(X)
        assert v.shape == (2,)
        assert v[0] == 2.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0),
                min_size=d,
                max_size=d,
            ),
            st.integers(min_value=0, max_value=d - 1),
            st.integers(min_value=0, max_value=d - 1),
        )
    )
)
def test_transposition_antisymmetry(data):
    x, i, j = data
    if i == j:
        return
    x = np.asarray(x, dtype=float)
    swapped = x.copy()
    swapped[[i, j]] = swapped[[j, i]]
    f = poly.vandermonde(len(x))
    v = f.value(x)
    w = f.value(swapped)
    assert abs(w + v) <= 1e-12 * (1.0 + abs(v))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.floats(min_value=-5.0, max_value=5.0),
                min_size=d,
                max_size=d,
            ),
            st.floats(min_value=-3.0, max_value=3.0),
        )
    )
)
def test_value_scaling(data):
    x, a = data
    x = np.asarray(x, dtype=float)
    d = len(x)
    lam = d * (d - 1) // 2
    f = poly.vandermonde(d)
    v = f.value(x)
    va = f.value(a * x)
    assert abs(va - a**lam * v) <= 1e-10 * (1.0 + abs(a) ** lam * abs(v))


class TestGradient:
    def test_d2_exact(self):
        g = poly.vandermonde(2).gradient([1.0, 2.0])
        assert np.allclose(g, [-1.0, 1.0], rtol=0.0, atol=0.0)

    def test_d3_matches_fd(self):
        x = np.array([0.0, 1.0, 3.0])
        f = poly.vandermonde(3)
        g = f.gradient(x)
        fd = fd_gradient(f.value, x)
        assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_matches_fd(self, d):
        rng = np.random.default_rng(200 + d)
        f = poly.vandermonde(d)
        for _ in range(100):
            x = rng.uniform(-10.0, 10.0, size=d)
            g = f.gradient(x)
            fd = fd_gradient(f.value, x)
            assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_homogeneity_degree(self, d):
        rng = np.random.default_rng(300 + d)
        lam = d * (d - 1) // 2
        x = rng.uniform(-3.0, 3.0, size=d)
        f = poly.vandermonde(d)
        g = f.gradient(x)
        for a in (0.5, 2.0, -1.5):
            ga = f.gradient(a * x)
            scale = a ** (lam - 1)
            assert np.max(np.abs(ga - scale * g)) <= 1e-10 * (
                1.0 + abs(scale) * np.max(np.abs(g))
            )

    def test_coincidence_set_matches_exact_backend(self):
        # Deliberately hit the diagonal where logarithmic differentiation
        # breaks down.
        x = [1.0, 1.0, 3.0]
        g = poly.vandermonde(3).gradient(x)
        exact = [float(v) for v in vandermonde_gradient_exact([1, 1, 3])]
        assert np.allclose(g, exact, rtol=1e-13, atol=0.0)
        x4 = [2.0, -1.0, 2.0, 2.0]
        g4 = poly.vandermonde(4).gradient(x4)
        exact4 = [float(v) for v in vandermonde_gradient_exact([2, -1, 2, 2])]
        assert np.allclose(g4, exact4, rtol=1e-13, atol=1e-13)


class TestEuler:
    def test_examples(self):
        assert euler_residual([1.0, 2.0]) == 0.0
        assert abs(euler_residual([1.0, 2.0, 3.0])) < 1e-9
        assert abs(euler_residual([-2.0, 0.5, 4.0, 7.0])) < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_bound(self, d):
        rng = np.random.default_rng(400 + d)
        X = rng.uniform(-10.0, 10.0, size=(1000, d))
        res = euler_residual(X)
        v = poly.vandermonde(d).value(X)
        assert np.all(np.abs(res) <= 1e-9 * (1.0 + np.abs(v)))

    def test_odd_linear(self):
        f = poly.odd_linear(4)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 4))
        assert np.max(np.abs(euler_residual(X, f))) < 1e-12


class TestSchwarzRatio:
    def test_d2_hand_value(self):
        # grad = (-1, 1), |x|^2 = 5, value = 1, so t = 5 * 2 / 1 = 10.
        t = poly.vandermonde(2).schwarz_ratio([1.0, 2.0])
        assert abs(t - 10.0) < 1e-12
        assert t >= 1.0

    def test_odd_linear_formula(self):
        f = poly.odd_linear(3)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(3)
            if abs(x.sum()) < 1e-3:
                continue
            t = f.schwarz_ratio(x)
            expected = (x @ x) * 3.0 / x.sum() ** 2
            assert abs(t - expected) <= 1e-12 * expected
            assert t >= 1.0

    def test_constant_along_rays(self):
        x = np.arange(1.0, 5.0)
        f = poly.vandermonde(4)
        t1 = f.schwarz_ratio(x)
        for c in (0.1, 3.0, -2.0):
            assert abs(f.schwarz_ratio(c * x) - t1) <= 1e-9 * t1

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_lower_bound(self, d):
        rng = np.random.default_rng(700 + d)
        f = poly.vandermonde(d)
        lam2 = f.homogeneity**2
        count = 0
        while count < 300:
            x = rng.standard_normal(d)
            if f.value(x) == 0.0:
                continue
            count += 1
            assert f.schwarz_ratio(x) >= lam2 - 1e-9

    def test_boundary_error(self):
        with pytest.raises(OnBoundaryError):
            poly.vandermonde(2).schwarz_ratio([1.0, 1.0])


class TestConstantFactor:
    def test_harmonic_of_order_zero(self):
        f = poly.ConstantFactor(3)
        X = np.random.default_rng(11).standard_normal((20, 3))
        assert f.homogeneity == 0.0
        assert np.array_equal(f.value(X), np.ones(20))
        assert np.array_equal(f.gradient(X), np.zeros((20, 3)))
        assert np.array_equal(euler_residual(X, f), np.zeros(20))

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimensionError):
            poly.ConstantFactor(0)


class TestClassFactor:
    @pytest.mark.parametrize("klass", list(FunctionClass))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_class_and_homogeneity_from_constants(self, klass, d):
        factor = poly.class_factor(klass, d)
        assert factor.function_class is klass
        assert factor.dimension == d
        assert factor.homogeneity == Params(d, 2, 0.0, klass).lam

    @pytest.mark.parametrize("klass", list(FunctionClass))
    def test_least_dimension_from_constants(self, klass):
        least = klass.least_dimension
        assert poly.class_factor(klass, least).dimension == least
        with pytest.raises(InvalidDimensionError,
                           match=f"class needs d >= {least}$"):
            poly.class_factor(klass, least - 1)


# Each factor's symmetry class, checked once here instead of at every
# quotient: the quadrature takes a trial's class from its factor.

# Multiples of 2^-10 in [-1024, 1024]: differences are exact and nonzero
# ones are at least 2^-10, so no product of 45 of them leaves the normal
# range.
DYADIC = st.integers(min_value=-2**20, max_value=2**20).map(lambda n: n / 1024.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda d: st.lists(DYADIC, min_size=d, max_size=d)
    )
)
def test_vandermonde_alternates_under_adjacent_transpositions(x):
    # Adjacent transpositions generate S_d, so d - 1 swaps show that F
    # carries the antisymmetric class.  A swap permutes the lam factors of
    # the product and negates one of them exactly; only the order of its
    # lam - 1 roundings changes, so F moves by less than 2 lam rounding
    # units (2^-53 relative each).
    x = np.asarray(x)
    d = len(x)
    f = poly.vandermonde(d)
    assert f.function_class is FunctionClass.ANTISYMMETRIC
    v = f.value(x)
    bound = 2.0 * f.homogeneity * 2.0**-53 * abs(v)
    for k in range(d - 1):
        swapped = x.copy()
        swapped[[k, k + 1]] = swapped[[k + 1, k]]
        assert abs(f.value(swapped) + v) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda d: st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=d, max_size=d)
    )
)
def test_odd_linear_is_odd_and_constant_is_even(x):
    x = np.asarray(x)
    odd, const = poly.odd_linear(len(x)), poly.ConstantFactor(len(x))
    assert odd.function_class is FunctionClass.ODD
    assert odd.value(-x) == -odd.value(x)
    assert const.function_class is FunctionClass.GENERAL
    assert const.value(-x) == const.value(x) == 1.0


class TestExactBackend:
    def test_value_and_gradient_anchor_float(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4):
            for _ in range(25):
                num = rng.integers(-40, 40, size=d)
                x = [Fraction(int(n), 8) for n in num]
                xf = np.array([float(v) for v in x])
                v_exact = vandermonde_value_exact(x)
                v = poly.vandermonde(d).value(xf)
                assert abs(v - float(v_exact)) <= 1e-12 * (1.0 + abs(float(v_exact)))
                g_exact = vandermonde_gradient_exact(x)
                g = poly.vandermonde(d).gradient(xf)
                for gk, ge in zip(g, g_exact):
                    assert abs(gk - float(ge)) <= 1e-12 * (1.0 + abs(float(ge)))

    def test_exact_laplacian_is_zero(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            for _ in range(10):
                x = [Fraction(int(n), 16) for n in rng.integers(-64, 64, size=d)]
                assert vandermonde_laplacian_exact(x) == 0

    def test_exact_transposition_sign(self):
        x = [Fraction(1), Fraction(5, 2), Fraction(-3)]
        v = vandermonde_value_exact(x)
        swapped = [x[1], x[0], x[2]]
        assert vandermonde_value_exact(swapped) == -v

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            vandermonde_value_exact([1, 2, 3, 4, 5])


# A scalar, a 3-d array and points of the wrong dimension, for d = 3.
BAD_POINTS = [2.0, np.ones((2, 3, 3)), np.ones(4), np.ones((2, 4))]


@pytest.mark.parametrize("x", BAD_POINTS, ids=["scalar", "3d", "point-d4", "batch-d4"])
@pytest.mark.parametrize("factor", [poly.vandermonde(3), poly.odd_linear(3),
                                    poly.ConstantFactor(3)], ids=repr)
@pytest.mark.parametrize("method", ["value", "gradient", "value_and_gradient",
                                    "schwarz_ratio"])
def test_bad_point_shape_refused(method, factor, x):
    with pytest.raises(InvalidDimensionError,
                       match=r"^expected a point of shape \(3,\)"):
        getattr(factor, method)(x)


def test_point_batch():
    x = np.array([1.0, 2.0, 3.0])
    X, single = poly.point_batch(x, 3)
    assert single and X.shape == (1, 3) and np.shares_memory(X, x)
    Y = np.asfortranarray(np.ones((5, 3)))
    X, single = poly.point_batch(Y, 3)
    assert not single and X is Y
    assert poly.point_batch(np.empty((0, 3)), 3)[0].shape == (0, 3)

"""Column-wise batch kernels against numpy's row-wise reductions.

The references below are the row-wise formulas (``.sum(axis=1)``,
``.prod(axis=1)``, ``np.linalg.norm(axis=1)``, the (n, d, d) reciprocal
tensor of the Vandermonde gradient).  Every comparison is exact
(``np.array_equal``): the kernels must round each row as those reductions
do.  d runs over 1..9, because numpy sums fewer than eight terms per row
left to right and eight or more in eight pairwise accumulators.
"""

from fractions import Fraction

import numpy as np
import pytest

from symhardy import fields
from symhardy.constants import FunctionClass, Params
from symhardy.polynomials import (
    ConstantFactor,
    odd_linear,
    row_dot,
    row_prod,
    row_sum,
    vandermonde,
    vandermonde_gradient_exact,
)
from symhardy.trials import gaussian_trial

DIMS = range(1, 10)


def batch(d, n=300):
    """Random rows over several scales, plus a zero row and rows with
    coincident coordinates."""
    rng = np.random.default_rng(d)
    X = rng.standard_normal((n, d)) * np.exp(rng.standard_normal((n, 1)))
    special = [np.zeros(d), np.full(d, -0.0), np.full(d, 1.5)]
    if d >= 2:
        row = rng.standard_normal(d)
        row[1] = row[0]
        special.append(row)
        row = rng.standard_normal(d)
        row[-1] = row[0]
        special.append(row)
    return np.vstack([X, special])


def ref_vandermonde_value(X):
    d = X.shape[1]
    diffs = [X[:, j] - X[:, i] for i in range(d) for j in range(i + 1, d)]
    return np.stack(diffs, axis=1).prod(axis=1)


def ref_vandermonde_gradient(factor, X):
    d = X.shape[1]
    v = ref_vandermonde_value(X)
    D = X[:, :, None] - X[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / D
        idx = np.arange(d)
        inv[:, idx, idx] = 0.0
        grad = v[:, None] * inv.sum(axis=2)
    bad = ~np.isfinite(grad).all(axis=1)
    for i in np.nonzero(bad)[0]:
        grad[i] = factor._gradient_products(X[i])
    return grad


def ref_angular_value(factor, X):
    if factor.function_class is FunctionClass.ANTISYMMETRIC:
        return ref_vandermonde_value(X)
    if factor.function_class is FunctionClass.ODD:
        return X.sum(axis=1)
    return np.ones(len(X))


def ref_angular_gradient(factor, X):
    if factor.function_class is FunctionClass.ANTISYMMETRIC:
        return ref_vandermonde_gradient(factor, X)
    if factor.function_class is FunctionClass.ODD:
        return np.ones_like(X)
    return np.zeros_like(X)


def ref_trial_value(u, X):
    r = np.linalg.norm(X, axis=1)
    return ref_angular_value(u.angular, X) * u.radial.psi(r)


def ref_trial_gradient(u, X):
    r = np.linalg.norm(X, axis=1)
    F = ref_angular_value(u.angular, X)
    G = ref_angular_gradient(u.angular, X)
    psi = u.radial.psi(r)
    dpsi = u.radial.dpsi(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial_part = np.where(r > 0.0, F * dpsi / r, 0.0)
    return psi[:, None] * G + radial_part[:, None] * X


def ref_trial_laplacian(u, X):
    r = np.linalg.norm(X, axis=1)
    F = ref_angular_value(u.angular, X)
    psi2 = u.radial.d2psi(r)
    dpsi = u.radial.dpsi(r)
    d, lam = u.dimension, u.angular.homogeneity
    with np.errstate(invalid="ignore", divide="ignore"):
        dpsi_over_r = np.where(r > 0.0, dpsi / r, 0.0)
    return F * (psi2 + (d - 1.0 + 2.0 * lam) * dpsi_over_r)


def ref_certificate(X, alpha, beta, params, factor):
    r2 = (X * X).sum(axis=1)
    F, G = factor.value(X), factor.gradient(X)
    p, d, gamma, lam = params.p, params.d, params.gamma, factor.homogeneity
    r = np.sqrt(r2)
    rp = r**p
    div = (alpha * (d - p) + beta * (p - 2.0) * lam) / rp + beta * (
        (G * G).sum(axis=1) / (F * F)
    ) / r ** (p - 2.0)
    T = alpha * X / rp[:, None] - beta * G / (F * r ** (p - 2.0))[:, None]
    T_sq = (T * T).sum(axis=1)
    x_dot_T = (X * T).sum(axis=1)
    return rp * (
        div - (p - 1.0) * T_sq ** (p / (2.0 * (p - 1.0))) - gamma * x_dot_T / r2
    )


def trial(kind, d):
    if kind == "vandermonde":
        return gaussian_trial(vandermonde(d), 1.3)
    if kind == "odd":
        return gaussian_trial(odd_linear(d), 0.7)
    return gaussian_trial(ConstantFactor(d), 1.0)


TRIALS = [(kind, d) for kind in ("vandermonde", "odd", "constant") for d in DIMS
          if not (kind == "vandermonde" and d < 2)]


@pytest.mark.parametrize("d", DIMS)
class TestRowKernels:
    def test_row_dot(self, d):
        X = batch(d)
        Y = batch(d)[::-1].copy()
        assert np.array_equal(row_dot(X, Y), (X * Y).sum(axis=1))
        assert np.array_equal(np.sqrt(row_dot(X, X)), np.linalg.norm(X, axis=1))

    def test_row_sum_and_prod(self, d):
        X = batch(d)
        assert np.array_equal(row_sum(X.T), X.sum(axis=1))
        assert np.array_equal(row_prod(X.T), X.prod(axis=1))

    def test_odd_linear_value(self, d):
        X = batch(d)
        assert np.array_equal(odd_linear(d).value(X), X.sum(axis=1))


@pytest.mark.parametrize("d", range(2, 10))
class TestVandermonde:
    def test_value(self, d):
        X = batch(d)
        assert np.array_equal(vandermonde(d).value(X), ref_vandermonde_value(X))

    def test_gradient(self, d):
        X = batch(d)
        factor = vandermonde(d)
        assert np.array_equal(factor.gradient(X), ref_vandermonde_gradient(factor, X))


@pytest.mark.parametrize("kind, d", TRIALS)
class TestTrialKernels:
    def test_value(self, kind, d):
        u, X = trial(kind, d), batch(d)
        assert np.array_equal(u.value(X), ref_trial_value(u, X))

    def test_gradient(self, kind, d):
        u, X = trial(kind, d), batch(d)
        ref = ref_trial_gradient(u, X)
        assert np.array_equal(u.gradient(X), ref)
        assert np.array_equal(u.grad_norm_sq(X), (ref * ref).sum(axis=1))

    def test_laplacian(self, kind, d):
        u, X = trial(kind, d), batch(d)
        assert np.array_equal(u.laplacian(X), ref_trial_laplacian(u, X))


@pytest.mark.parametrize("klass", [FunctionClass.ANTISYMMETRIC, FunctionClass.ODD])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_certificate_many(klass, d):
    params = Params(d, 3.0, 0.5, klass)
    domain = fields.SectorDomain.for_params(params)
    X = domain.sample_interior(500, np.random.default_rng(d), tube=0.02)
    out = fields.certificate_many(X, 0.3, 0.7, params, domain.factor)
    assert np.array_equal(out, ref_certificate(X, 0.3, 0.7, params, domain.factor))


def per_row_gradient_products(d, x):
    """The coincidence-safe gradient of one point, one float at a time:
    signed products with one pair factor omitted."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    out = np.zeros(d)
    for k in range(d):
        acc = 0.0
        for j in range(d):
            if j == k:
                continue
            skip = (min(j, k), max(j, k))
            prod = 1.0
            for a, b in pairs:
                if (a, b) != skip:
                    prod *= x[b] - x[a]
            acc += prod if k > j else -prod
        out[k] = acc
    return out


def coincident_rows(d, n=40, integer=False):
    """Rows with one coincidence, two, a triple, or all coordinates equal."""
    rng = np.random.default_rng(100 + d)
    rows = []
    for t in range(n):
        x = (rng.integers(-6, 7, size=d).astype(float) if integer
             else rng.standard_normal(d) * np.exp(rng.standard_normal()))
        a, b = rng.choice(d, size=2, replace=False)
        x[b] = x[a]
        if t % 4 == 1 and d >= 4:
            c, e = rng.choice([i for i in range(d) if i not in (a, b)],
                              size=2, replace=False)
            x[e] = x[c]
        elif t % 4 == 2 and d >= 3:
            x[[i for i in range(d) if i not in (a, b)][0]] = x[a]
        elif t % 4 == 3:
            x[:] = x[a]
        rows.append(x)
    return np.array(rows)


@pytest.mark.parametrize("d", range(2, 10))
class TestCoincidenceFallback:
    """The batched coincidence route performs each row's operations of a
    one-point call, so it matches the per-row route bit for bit."""

    def test_batch_matches_per_row(self, d):
        X = coincident_rows(d)
        want = np.array([per_row_gradient_products(d, x) for x in X])
        assert np.array_equal(vandermonde(d)._gradient_products(X), want)

    def test_gradient_routes_coincident_rows(self, d):
        # Coincident rows interleaved with regular ones: each coincident
        # row takes the product route, the others logarithmic
        # differentiation.
        coincident, regular = coincident_rows(d), batch(d, n=40)[:40]
        X = np.empty((len(coincident) + len(regular), d))
        X[0::2], X[1::2] = coincident, regular
        factor = vandermonde(d)
        got = factor.gradient(X)
        assert np.array_equal(got[0::2], np.array(
            [per_row_gradient_products(d, x) for x in coincident]))
        assert np.array_equal(got[1::2], ref_vandermonde_gradient(factor,
                                                                  regular))


@pytest.mark.parametrize("d", [2, 3, 4])  # the exact backend's range
def test_coincidence_fallback_exact_on_integer_rows(d):
    X = coincident_rows(d, integer=True)
    want = np.array([[float(g) for g in vandermonde_gradient_exact(
        [Fraction(int(v)) for v in x])] for x in X])
    assert np.array_equal(vandermonde(d)._gradient_products(X), want)
    assert np.array_equal(vandermonde(d).gradient(X), want)


def layouts(X):
    """The same batch C-ordered, Fortran-ordered and as a strided view."""
    n, d = X.shape
    wide = np.zeros((2 * n, 3 * d))
    wide[::2, 1::3] = X
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X),
            "sliced": wide[::2, 1::3]}


LAYOUTS = ["C", "F", "sliced"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", DIMS)
def test_row_dot_layouts(d, layout):
    X, Y = batch(d), batch(d)[::-1].copy()
    got = row_dot(layouts(X)[layout], layouts(Y)[layout])
    assert np.array_equal(got, (X * Y).sum(axis=1))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", range(2, 10))
def test_vandermonde_layouts(d, layout):
    X = batch(d)
    view, factor = layouts(X)[layout], vandermonde(d)
    value, grad = factor.value_and_gradient(view)
    want = ref_vandermonde_gradient(factor, X)
    assert np.array_equal(factor.value(view), ref_vandermonde_value(X))
    assert np.array_equal(value, ref_vandermonde_value(X))
    assert np.array_equal(factor.gradient(view), want)
    assert np.array_equal(grad, want)
    assert factor.gradient(view).flags.c_contiguous


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind, d", TRIALS)
def test_trial_layouts(kind, d, layout):
    u, X = trial(kind, d), batch(d)
    view = layouts(X)[layout]
    sq, value, grad, lap = u.evaluate(view, gradient=True, laplacian=True)
    assert np.array_equal(sq, (X * X).sum(axis=1))
    assert np.array_equal(value, ref_trial_value(u, X))
    assert np.array_equal(grad, ref_trial_gradient(u, X))
    assert np.array_equal(lap, ref_trial_laplacian(u, X))
    assert u.evaluate(view)[2:] == (None, None)
    assert np.array_equal(u.evaluate(view)[1], value)
    assert np.array_equal(u.evaluate(view, laplacian=True)[3], lap)
    assert np.array_equal(u.gradient(view), grad)
    assert np.array_equal(u.laplacian(view), lap)

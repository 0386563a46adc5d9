"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime and enforcing the stated tolerance and budget."""

import math
import time

import numpy as np

from symhardy import constants as cn
from symhardy import fields as fd
from symhardy import minimax as mm
from symhardy import polynomials as poly
from symhardy import quadrature as qd
from symhardy import trials as tr
from symhardy.constants import FunctionClass, Functional, Params

from oracles import euler_residual, vandermonde_laplacian_poly

ANTI = FunctionClass.ANTISYMMETRIC
ODD = FunctionClass.ODD
GEN = FunctionClass.GENERAL

D_GRID = range(1, 7)
P_GRID = (2.0, 2.5, 3.0, 4.0)
GAMMA_GRID = (-1.0, 0.0, 1.0, 2.0)


def criterion(n, label, limit_s):
    def wrap(body):
        def test():
            start = time.perf_counter()
            try:
                body()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {n} [{label}]: FAIL ({elapsed:.2f} s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {n} [{label}]: PASS ({elapsed:.2f} s)")
            assert elapsed < limit_s, f"criterion {n} exceeded {limit_s} s budget"

        test.__name__ = f"test_criterion_{n}_{label}"
        return test

    return wrap


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@criterion(1, "constant_ledger", 1.0)
def _criterion_1():
    for d in D_GRID:
        for p in P_GRID:
            for gamma in GAMMA_GRID:
                for fn in (
                    cn.hardy_antisymmetric,
                    cn.hardy_odd,
                    cn.rellich_antisymmetric,
                    cn.rellich_odd,
                    cn.rellich_mitidieri,
                ):
                    c = fn(d, p, gamma)
                    assert isinstance(c.value, float)
                cn.classical_hardy(d, p)
    for d in D_GRID:
        assert rel_close(
            cn.hardy_antisymmetric(d, 2.0).value, ((d * d - 2.0) / 2.0) ** 2
        )
        assert rel_close(cn.hardy_odd(d, 2.0).value, d * d / 4.0)
        assert rel_close(
            cn.rellich_antisymmetric(d, 2.0).value,
            d**4 * (d * d - 4.0) ** 2 / 16.0,
        )
        assert rel_close(cn.rellich_odd(d, 2.0).value, (d * d - 4.0) ** 2 / 16.0)
    for p in P_GRID:
        assert rel_close(cn.hardy_odd(1, p).value, ((p - 1.0) / p) ** p)
        for gamma in GAMMA_GRID:
            assert rel_close(
                cn.hardy_antisymmetric(2, p, gamma).value,
                cn.hardy_odd(2, p, gamma).value,
            )


test_criterion_1_constant_ledger = _criterion_1


@criterion(2, "minimax_equivalence", 30.0)
def _criterion_2():
    worst = 0.0
    for klass in (ANTI, ODD):
        for d in (2, 3, 4):
            for p in (2.5, 3.0, 4.0):
                for gamma in (-1.0, 0.0, 1.0):
                    res = mm.numeric_minimax(Params(d, p, gamma, klass))
                    worst = max(worst, res.gap)
                    assert res.gap <= 1e-5, (klass, d, p, gamma, res.gap)
    print(f"  worst minimax gap: {worst:.2e}")


test_criterion_2_minimax_equivalence = _criterion_2


@criterion(3, "pointwise_certificate", 10.0)
def _criterion_3():
    # The boundary tube is 0.02: the certificate and the Schwarz ratio are
    # exact algebra, but t grows like 1/gap^2 near the walls and the two
    # independent float64 routes can only agree to ~ eps * t.
    n_points = 10_000
    worst_gap, worst_rel = math.inf, 0.0
    for klass in (ANTI, ODD):
        for d in (2, 3):
            for p in (2.0, 3.0):
                for gamma in (-1.0, 0.0, 1.0):
                    params = Params(d, p, gamma, klass)
                    const = mm.class_constant(params)
                    opt = mm.closed_form_optimum(params)
                    dom = fd.SectorDomain.for_params(params)
                    rng = np.random.default_rng(97 + d + int(10 * p))
                    X = dom.sample_interior(n_points, rng, tube=0.02)
                    cert = fd.certificate_many(
                        X, opt.alpha, opt.beta, params, dom.factor
                    )
                    assert cert.min() >= const - 1e-8, (klass, d, p, gamma)
                    worst_gap = min(worst_gap, cert.min() - const)
                    t = dom.factor.schwarz_ratio(X)
                    f = np.array(
                        [
                            mm.f_certificate(ti, opt.alpha, opt.beta, params)
                            for ti in t
                        ]
                    )
                    rel = np.max(np.abs(cert - f) / (1.0 + np.abs(f)))
                    assert rel < 1e-10, (klass, d, p, gamma, rel)
                    worst_rel = max(worst_rel, rel)
    print(f"  worst bound slack: {worst_gap:.2e}, worst identity rel: {worst_rel:.2e}")


test_criterion_3_pointwise_certificate = _criterion_3


@criterion(4, "quadrature_verification", 120.0)
def _criterion_4():
    cfg = qd.QuadratureConfig(samples=1_000_000, seed=2024)
    factories = {ANTI: poly.vandermonde, ODD: poly.odd_linear}
    for klass in (ANTI, ODD):
        for d in (2, 3):
            for p in (2.0, 2.5, 3.0):
                params = Params(d, p, 0.0, klass)
                u = tr.gaussian_trial(factories[klass](d), 1.0)
                rep = qd.rayleigh_quotient(u, Functional.HARDY, params, cfg)
                assert rep.margin >= -2.0, (klass, d, p, rep.margin)
    # Class restriction is essential: the radial Gaussian lands above the
    # classical constant but far below the antisymmetric-class one.
    pg = Params(3, 2.0, 0.0, GEN)
    ug = tr.gaussian_trial(poly.ConstantFactor(3), 1.0)
    rep = qd.rayleigh_quotient(ug, Functional.HARDY, pg, cfg)
    assert rep.margin >= -2.0
    ch = cn.hardy_antisymmetric(3, 2.0).value
    assert rep.quotient + 2.0 * rep.quotient_error < ch


test_criterion_4_quadrature_verification = _criterion_4


@criterion(5, "rellich_sharpness_bracket", 300.0)
def _criterion_5():
    d = 3
    params = Params(d, 2.0, 0.0, ANTI)
    s, base = d * d / 2.0, (d * d - 4.0) / 2.0
    for eps in (0.2, 0.1):
        lo = ((base - eps) * (s - eps)) ** 2
        hi = ((base + eps) * (s + eps)) ** 2
        for delta in (0.05, 0.02, 0.01):
            u = tr.sharpness_family(poly.vandermonde(d), eps, delta)
            rep = qd.separable_rellich_quotient(u, params)
            allowance = delta * (hi - lo)  # linear in delta, shrinks with it
            assert lo - allowance <= rep.quotient <= hi + allowance, (eps, delta)
            # the quotient in fact sits inside the unexpanded bracket
            assert lo <= rep.quotient <= hi, (eps, delta, rep.quotient)
    u = tr.sharpness_family(poly.vandermonde(d), 0.05, 0.01)
    rep = qd.separable_rellich_quotient(u, params)
    target = 126.5625
    assert abs(rep.quotient - target) <= 0.05 * target
    print(f"  eps=0.05 quotient {rep.quotient:.4f} vs limit {target}")


test_criterion_5_rellich_sharpness_bracket = _criterion_5


@criterion(6, "polynomial_identities", 5.0)
def _criterion_6():
    for d in range(2, 7):
        rng = np.random.default_rng(1000 + d)
        X = rng.uniform(-10.0, 10.0, size=(1000, d))
        res = euler_residual(X)
        factor = poly.vandermonde(d)
        v = factor.value(X)
        assert np.all(np.abs(res) <= 1e-9 * (1.0 + np.abs(v)))
        assert vandermonde_laplacian_poly(d).is_zero
        for i in range(100):
            x = X[i]
            g = factor.gradient(x)
            fdg = np.zeros(d)
            for k in range(d):
                xp, xm = x.copy(), x.copy()
                xp[k] += 1e-5
                xm[k] -= 1e-5
                fdg[k] = (factor.value(xp) - factor.value(xm)) / 2e-5
            assert np.max(np.abs(g - fdg)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


test_criterion_6_polynomial_identities = _criterion_6


@criterion(7, "asymptotics", 1.0)
def _criterion_7():
    for d in (1, 2, 3):
        limit = math.exp(-d)
        assert abs(cn.hardy_antisymmetric(d, 1e4).value - limit) < 1e-3
        assert abs(cn.hardy_odd(d, 1e4).value - limit) < 1e-3
    big = 1000
    ratio = cn.hardy_antisymmetric(big, 2.0).value / (big * big / 2.0) ** 2
    assert abs(ratio - 1.0) < 0.01


test_criterion_7_asymptotics = _criterion_7

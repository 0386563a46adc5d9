import numpy as np
import pytest

from symhardy import fields as fd
from symhardy import minimax as mm
from symhardy.constants import FunctionClass, Params
from symhardy.errors import (
    DegenerateSampleError,
    OutOfRangeError,
    SingularPointError,
)
from symhardy.polynomials import odd_linear, vandermonde

ANTI = FunctionClass.ANTISYMMETRIC
ODD = FunctionClass.ODD


def fd_divergence(x, alpha, beta, params, factor, h=1e-5):
    x = np.asarray(x, dtype=float)
    div = 0.0
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        tp = fd.field_T(xp, alpha, beta, params, factor)
        tm = fd.field_T(xm, alpha, beta, params, factor)
        div += (tp[k] - tm[k]) / (2.0 * h)
    return div


class TestFieldT:
    def test_hand_value(self):
        pr = Params(2, 2, 0.0, ANTI)
        T = fd.field_T([1.0, 2.0], 1.0, 1.0, pr, vandermonde(2))
        assert np.allclose(T, [1.2, -0.6], rtol=1e-14)

    def test_beta_zero_is_radial(self):
        pr = Params(3, 2.5, 0.0, ANTI)
        x = np.array([0.1, 0.5, 2.0])
        T = fd.field_T(x, 1.7, 0.0, pr, vandermonde(3))
        r = np.linalg.norm(x)
        assert np.allclose(T, 1.7 * x / r**2.5, rtol=1e-14)

    def test_scale_covariance(self):
        pr = Params(3, 3.0, 0.0, ANTI)
        x = np.array([0.1, 0.5, 2.0])
        T1 = fd.field_T(x, 0.8, 0.4, pr, vandermonde(3))
        for a in (0.5, 2.0):
            Ta = fd.field_T(a * x, 0.8, 0.4, pr, vandermonde(3))
            assert np.allclose(Ta, a ** (1.0 - pr.p) * T1, rtol=1e-12)

    def test_singularities(self):
        pr = Params(2, 2, 0.0, ANTI)
        with pytest.raises(SingularPointError):
            fd.field_T([0.0, 0.0], 1.0, 1.0, pr, vandermonde(2))
        with pytest.raises(SingularPointError):
            fd.field_T([2.0, 1.0], 1.0, 1.0, pr, vandermonde(2))  # wrong sector
        with pytest.raises(SingularPointError):
            fd.field_T([1.0, 1.0], 1.0, 1.0, pr, vandermonde(2))  # boundary


class TestDivergence:
    def test_beta_zero(self):
        pr = Params(3, 2.0, 0.0, ANTI)
        x = np.array([0.1, 0.5, 2.0])
        got = fd.divergence_T(x, 2.0, 0.0, pr, vandermonde(3))
        assert got == pytest.approx(2.0 * (3 - 2) / (x @ x), rel=1e-13)

    def test_hand_value_d2(self):
        pr = Params(2, 2, 0.0, ANTI)
        got = fd.divergence_T([1.0, 2.0], 0.0, 1.0, pr, vandermonde(2))
        assert got == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("factor_name", ["vandermonde", "odd"])
    def test_matches_finite_differences(self, factor_name):
        if factor_name == "vandermonde":
            factor, klass = vandermonde(3), ANTI
        else:
            factor, klass = odd_linear(3), ODD
        pr = Params(3, 2.5, 0.0, klass)
        dom = fd.SectorDomain(
            fd.SectorKind.ORDERED_SECTOR
            if factor_name == "vandermonde"
            else fd.SectorKind.POSITIVE_HALF,
            factor,
        )
        rng = np.random.default_rng(21)
        X = dom.sample_interior(50, rng, tube=0.1)
        for x in X:
            analytic = fd.divergence_T(x, 0.9, 0.6, pr, factor)
            numeric = fd_divergence(x, 0.9, 0.6, pr, factor)
            assert abs(analytic - numeric) <= 1e-5 * (1.0 + abs(analytic))


class TestRadialComponentIdentity:
    @pytest.mark.parametrize(
        "klass,factor_fn", [(ANTI, vandermonde), (ODD, odd_linear)]
    )
    def test_x_dot_T(self, klass, factor_fn):
        d = 3
        factor = factor_fn(d)
        pr = Params(d, 2.5, 0.0, klass)
        dom = fd.SectorDomain.for_params(pr)
        rng = np.random.default_rng(22)
        X = dom.sample_interior(1000, rng, tube=1e-3)
        alpha, beta = 1.3, 0.7
        lam = factor.homogeneity
        T = fd.field_T(X, alpha, beta, pr, factor)
        r = np.linalg.norm(X, axis=1)
        got = (X * T).sum(axis=1) * r ** (pr.p - 2.0)
        assert np.max(np.abs(got - (alpha - beta * lam))) < 1e-9 * (
            1.0 + abs(alpha) + beta * lam
        )


class TestCertificate:
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_cross_module_identity(self, klass, p):
        pr = Params(3, p, 1.0, klass)
        opt = mm.closed_form_optimum(pr)
        dom = fd.SectorDomain.for_params(pr)
        rng = np.random.default_rng(23)
        X = dom.sample_interior(500, rng, tube=0.02)
        cert = fd.certificate_many(X, opt.alpha, opt.beta, pr, dom.factor)
        t = dom.factor.schwarz_ratio(X)
        f = np.array([mm.f_certificate(ti, opt.alpha, opt.beta, pr) for ti in t])
        assert np.max(np.abs(cert - f) / (1.0 + np.abs(f))) < 1e-10

    def test_lower_bound_at_optimum(self):
        pr = Params(2, 2.0, 0.0, ANTI)
        opt = mm.closed_form_optimum(pr)
        dom = fd.SectorDomain.for_params(pr)
        rng = np.random.default_rng(24)
        X = dom.sample_interior(2000, rng, tube=0.02)
        cert = fd.certificate_many(X, opt.alpha, opt.beta, pr, dom.factor)
        assert cert.min() >= mm.class_constant(pr) - 1e-8

    def test_scalar_wrapper(self):
        pr = Params(2, 2.0, 0.0, ANTI)
        opt = mm.closed_form_optimum(pr)
        val = fd.pointwise_certificate([0.0, 1.0], opt.alpha, opt.beta, pr,
                                       vandermonde(2))
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_p_below_two_rejected(self):
        pr = Params(2, 1.5, 0.0, ANTI)
        with pytest.raises(OutOfRangeError):
            fd.certificate_many(
                np.array([[0.0, 1.0]]), 0.5, 0.5, pr, vandermonde(2)
            )


class TestSectorDomain:
    def test_ordered_sector_membership(self):
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, ANTI))
        assert dom.contains([1.0, 2.0, 3.0])
        assert not dom.contains([2.0, 1.0, 3.0])
        # Positive factor value does not imply membership for d >= 3: the
        # positivity set is the union of the even-permutation images.
        assert vandermonde(3).value([3.0, 1.0, 2.0]) > 0.0
        assert not dom.contains([3.0, 1.0, 2.0])

    def test_membership_iff_positive_d2(self):
        dom = fd.SectorDomain.for_params(Params(2, 2, 0.0, ANTI))
        rng = np.random.default_rng(25)
        X = rng.standard_normal((200, 2))
        member = dom.contains(X)
        positive = vandermonde(2).value(X) > 0.0
        assert np.array_equal(member, positive)

    def test_half_space_membership_iff_positive(self):
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, ODD))
        rng = np.random.default_rng(26)
        X = rng.standard_normal((200, 3))
        assert np.array_equal(dom.contains(X), odd_linear(3).value(X) > 0.0)

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sampling_respects_exclusions(self, klass):
        pr = Params(3, 2, 0.0, klass)
        dom = fd.SectorDomain.for_params(pr)
        rng = np.random.default_rng(27)
        X = dom.sample_interior(500, rng, tube=1e-3, origin_ball=1e-2)
        assert X.shape == (500, 3)
        assert np.all(dom.contains(X))
        assert np.all(dom.factor.value(X) > 0.0)
        assert np.all(dom.boundary_distance(X) > 1e-3)
        assert np.all(np.linalg.norm(X, axis=1) > 1e-2)

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sampling_gives_up_with_a_named_error(self, klass):
        # No standard normal point lies 10 away from the sector walls.
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, klass))
        with pytest.raises(DegenerateSampleError) as info:
            dom.sample_interior(10, np.random.default_rng(28), tube=10.0)
        assert isinstance(info.value, RuntimeError)
        assert str(info.value) == (
            "interior sampling kept 0 of n=10 points after 200 draws "
            "with tube=10, origin_ball=1e-06"
        )

    def test_for_params_rejects_general(self):
        with pytest.raises(OutOfRangeError):
            fd.SectorDomain.for_params(Params(3, 2, 0.0, FunctionClass.GENERAL))

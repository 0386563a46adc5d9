import numpy as np
import pytest

from symhardy import fields as fd
from symhardy import minimax as mm
from symhardy.constants import FunctionClass, Params
from symhardy.errors import (
    DegenerateSampleError,
    DomainError,
    OutOfRangeError,
    SingularPointError,
    SymmetryClassError,
)
from symhardy.polynomials import odd_linear, row_dot, row_sum, vandermonde

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

    @pytest.mark.parametrize("kind, factor, message", [
        # Half of the sampled points would have F <= 0.
        (fd.SectorKind.ORDERED_SECTOR, odd_linear(3),
         "ordered_sector needs a factor of class antisym, got class odd"),
        # boundary_distance raised a bare IndexError.
        (fd.SectorKind.ORDERED_SECTOR, odd_linear(1),
         "ordered_sector needs a factor of class antisym, got class odd"),
        (fd.SectorKind.POSITIVE_HALF, vandermonde(3),
         "positive_half needs a factor of class odd, got class antisym"),
        (fd.SectorKind.POSITIVE_HALF, vandermonde(2),
         "positive_half needs a factor of class odd, got class antisym"),
    ])
    def test_mismatched_factor_refused(self, kind, factor, message):
        with pytest.raises(SymmetryClassError, match=f"^{message}$"):
            fd.SectorDomain(kind, factor)


class TestSamplingArguments:
    @pytest.mark.parametrize("kwargs,name", [
        ({"n": 2.5}, "n"),
        ({"n": -1}, "n"),
        ({"n": "10"}, "n"),
        ({"tube": float("nan")}, "tube"),
        ({"tube": float("inf")}, "tube"),
        ({"tube": -1e-3}, "tube"),
        ({"origin_ball": float("nan")}, "origin_ball"),
        ({"origin_ball": float("inf")}, "origin_ball"),
        ({"origin_ball": -1.0}, "origin_ball"),
    ])
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_refused_before_any_draw(self, klass, kwargs, name):
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, klass))
        rng = np.random.default_rng(29)
        state = rng.bit_generator.state
        args = {"n": 10, "rng": rng, **kwargs}
        with pytest.raises(DomainError, match=f"^{name} must be"):
            dom.sample_interior(**args)
        assert rng.bit_generator.state == state

    def test_zero_points_draw_nothing(self):
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, ANTI))
        rng = np.random.default_rng(30)
        state = rng.bit_generator.state
        assert dom.sample_interior(np.int64(0), rng).shape == (0, 3)
        assert rng.bit_generator.state == state


class TestNonFinitePoints:
    @pytest.mark.parametrize("klass,x", [
        (ANTI, [np.nan, 1.0, 2.0]),
        (ANTI, [-np.inf, 1.0, 2.0]),
        (ANTI, [0.0, 1.0, np.inf]),
        (ODD, [1.0, 2.0, np.inf]),
        (ODD, [1.0, np.nan, 2.0]),
    ])
    @pytest.mark.parametrize("fn", [
        fd.field_T, fd.divergence_T, fd.pointwise_certificate,
        lambda x, *args: fd.certificate_many(np.array([[1.0, 2.0, 3.0], x]), *args),
    ], ids=["field_T", "divergence_T", "pointwise_certificate",
            "certificate_many"])
    def test_refused(self, klass, x, fn):
        pr = Params(3, 2.5, 0.0, klass)
        opt = mm.closed_form_optimum(pr)
        factor = fd.SectorDomain.for_params(pr).factor
        with pytest.raises(SingularPointError):
            fn(np.array(x), opt.alpha, opt.beta, pr, factor)


# Reference implementations: the direct formulas that the field-check path
# must reproduce bit for bit -- a row-wise np.sort, every pairwise gap of
# the ordered sector, separate factor value and gradient calls, and
# |x|^(p-2) formed once for the field and once for its divergence.

def ref_boundary_distance(dom, x):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if dom.kind is fd.SectorKind.ORDERED_SECTOR:
        D = X[:, :, None] - X[:, None, :]
        iu = np.triu_indices(dom.dimension, k=1)
        gaps = np.abs(D[:, iu[0], iu[1]])
        dist = gaps.min(axis=1) / np.sqrt(2.0)
    else:
        dist = np.abs(row_sum(X.T)) / np.sqrt(dom.dimension)
    return float(dist[0]) if np.asarray(x).ndim == 1 else dist


def ref_sample_interior(dom, n, rng, tube, origin_ball):
    d = dom.dimension
    out = np.empty((0, d))
    while len(out) < n:
        X = rng.standard_normal((max(n, 128), d))
        if dom.kind is fd.SectorKind.ORDERED_SECTOR:
            X = np.sort(X, axis=1)
        else:
            s = np.sign(row_sum(X.T))
            s[s == 0.0] = 1.0
            X = X * s[:, None]
        keep = (ref_boundary_distance(dom, X) > tube) & (
            np.sqrt(row_dot(X, X)) > origin_ball
        )
        out = np.vstack([out, X[keep]])
    return out[:n]


def ref_parts(X, alpha, beta, pr, factor):
    r2 = row_dot(X, X)
    F, G = factor.value(X), factor.gradient(X)
    r = np.sqrt(r2)
    rp = r**pr.p
    T = alpha * X / rp[:, None] - beta * G / (F * r ** (pr.p - 2.0))[:, None]
    div = (
        alpha * (pr.d - pr.p) + beta * (pr.p - 2.0) * factor.homogeneity
    ) / rp + beta * (row_dot(G, G) / (F * F)) / r ** (pr.p - 2.0)
    cert = rp * (
        div
        - (pr.p - 1.0) * row_dot(T, T) ** (pr.p / (2.0 * (pr.p - 1.0)))
        - pr.gamma * row_dot(X, T) / r2
    )
    return T, div, cert


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestAgainstReference:
    @pytest.mark.parametrize("tube,origin_ball",
                             [(1e-6, 1e-6), (0.02, 1e-6), (0.05, 0.5)])
    @pytest.mark.parametrize("n", [50, 10_000])
    @pytest.mark.parametrize("d", range(2, 11))
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sample_interior(self, klass, d, n, tube, origin_ball):
        # Covers the sorting network (d < 8) and np.sort (d >= 8).
        dom = fd.SectorDomain.for_params(Params(d, 2, 0.0, klass))
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        X = dom.sample_interior(n, rng, tube=tube, origin_ball=origin_ball)
        assert_same_bits(X, ref_sample_interior(dom, n, ref_rng, tube, origin_ball))
        assert X.flags.c_contiguous
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 10])
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_boundary_distance(self, klass, d):
        dom = fd.SectorDomain.for_params(Params(d, 2, 0.0, klass))
        rng = np.random.default_rng(32)
        unsorted = rng.standard_normal((500, d))
        ties = rng.integers(-2, 3, size=(500, d)).astype(float)
        zeros = rng.choice([0.0, -0.0, 1.0, -1.0], size=(500, d))
        for X in (unsorted, ties, zeros, 1e-300 * unsorted):
            assert_same_bits(dom.boundary_distance(X), ref_boundary_distance(dom, X))
        for x in unsorted[:5]:
            got = dom.boundary_distance(x)
            assert isinstance(got, float)
            assert_same_bits(got, ref_boundary_distance(dom, x))

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_network_is_a_stable_sort(self, d):
        rng = np.random.default_rng(33)
        X = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], size=(2000, d))
        assert_same_bits(fd._sort_rows(X), np.sort(X, axis=1, kind="stable"))

    # The certificate workload's 24 field-op point sets at seed 1 (classes
    # antisym, odd; d = 2, 3; p = 2, 3; gamma = -1, 0, 1), and two d >= 8
    # sets, where row sums round by numpy's pairwise rule.
    FIELD_SETS = [
        (klass, d, p, gamma, [1, 54 + k])
        for k, (klass, d, p, gamma) in enumerate(
            (klass, d, p, gamma)
            for klass in (ANTI, ODD) for d in (2, 3)
            for p in (2.0, 3.0) for gamma in (-1.0, 0.0, 1.0)
        )
    ] + [(ANTI, 8, 3.0, 1.0, [1, 0]), (ODD, 9, 2.5, -1.0, [1, 1])]

    @pytest.mark.parametrize("klass,d,p,gamma,seed", FIELD_SETS)
    def test_field_checks(self, klass, d, p, gamma, seed):
        pr = Params(d, p, gamma, klass)
        dom = fd.SectorDomain.for_params(pr)
        X = dom.sample_interior(10_000, np.random.default_rng(seed), tube=0.02)
        opt = mm.closed_form_optimum(pr)
        args = (opt.alpha, opt.beta, pr, dom.factor)
        T, div, cert = ref_parts(X, *args)
        got_T = fd.field_T(X, *args)
        assert_same_bits(got_T, T)
        assert got_T.flags.c_contiguous
        assert_same_bits(fd.divergence_T(X, *args), div)
        assert_same_bits(fd.certificate_many(X, *args), cert)
        assert_same_bits(fd.field_T(X[0], *args), T[0])
        assert_same_bits(fd.pointwise_certificate(X[0], *args), cert[0])

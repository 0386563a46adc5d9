import math

import numpy as np
import pytest

from symhardy import fields as fd
from symhardy import minimax as mm
from symhardy.constants import FunctionClass, Params
from symhardy.errors import (
    DegenerateSampleError,
    DomainError,
    InvalidDimensionError,
    OutOfRangeError,
    SingularPointError,
    SymmetryClassError,
)
from symhardy.polynomials import (
    ConstantFactor,
    odd_linear,
    row_dot,
    row_sum,
    vandermonde,
)

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
        dom = fd.SectorDomain(factor)
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

    def test_hand_value(self):
        pr = Params(2, 2.0, 0.0, ANTI)
        opt = mm.closed_form_optimum(pr)
        val = fd.certificate_many(np.array([[0.0, 1.0]]), opt.alpha, opt.beta,
                                  pr, vandermonde(2))[0]
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_p_below_two_rejected(self):
        pr = Params(2, 1.5, 0.0, ANTI)
        with pytest.raises(OutOfRangeError):
            fd.certificate_many(
                np.array([[0.0, 1.0]]), 0.5, 0.5, pr, vandermonde(2)
            )


class TestSectorDomain:
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sampling_respects_exclusions(self, klass):
        pr = Params(3, 2, 0.0, klass)
        dom = fd.SectorDomain.for_params(pr)
        rng = np.random.default_rng(27)
        X = dom.sample_interior(500, rng, tube=1e-3)
        assert X.shape == (500, 3)
        if klass is ANTI:
            # A positive Vandermonde value alone does not place a point in
            # the ordered sector for d >= 3.
            assert np.all(np.diff(X, axis=1) > 0.0)
        assert np.all(dom.factor.value(X) > 0.0)
        assert np.all(ref_boundary_distance(dom, X) > 1e-3)
        assert np.all(np.linalg.norm(X, axis=1) > 1e-6)

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sampling_gives_up_with_a_named_error(self, klass):
        # No standard normal point lies 10 away from the sector walls.
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, klass))
        with pytest.raises(DegenerateSampleError) as info:
            dom.sample_interior(10, np.random.default_rng(28), tube=10.0)
        assert isinstance(info.value, RuntimeError)
        assert str(info.value) == (
            "interior sampling kept 0 of n=10 points from 25600 draws "
            "with tube=10"
        )

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_fails_where_200_full_draws_did(self, klass):
        # The budget is the rows of 200 draws of max(n, 128): with c points
        # kept in the first 25,600 rows of the stream, n = c fills and
        # n = c + 1 fails.
        dom = fd.SectorDomain.for_params(Params(2, 2, 0.0, klass))
        tube = 2.9
        stream = np.random.default_rng(36).standard_normal((25_600, 2))
        c = int(np.count_nonzero(ref_boundary_distance(dom, stream) > tube))
        assert 0 < c < 128
        X = dom.sample_interior(c, np.random.default_rng(36), tube=tube)
        assert len(X) == c
        with pytest.raises(DegenerateSampleError, match=(
                f"^interior sampling kept {c} of n={c + 1} points from "
                "25600 draws")):
            dom.sample_interior(c + 1, np.random.default_rng(36), tube=tube)

    def test_for_params_rejects_general(self):
        with pytest.raises(OutOfRangeError):
            fd.SectorDomain.for_params(Params(3, 2, 0.0, FunctionClass.GENERAL))

    def test_general_factor_has_no_sector(self):
        with pytest.raises(OutOfRangeError, match="antisym and odd classes"):
            fd.SectorDomain(ConstantFactor(3))


class TestFactorClassMatchesParams:
    @pytest.mark.parametrize("klass, factor", [
        (ODD, vandermonde(3)), (ANTI, odd_linear(3)),
        (FunctionClass.GENERAL, odd_linear(3)),
    ])
    @pytest.mark.parametrize("fn", [
        fd.field_T, fd.divergence_T, fd.certificate_many,
    ], ids=["field_T", "divergence_T", "certificate_many"])
    def test_mismatch_refused(self, klass, factor, fn):
        # An odd-class certificate on the Vandermonde factor returned a
        # plausible 6.317 instead of refusing.
        X = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        pr = Params(3, 3.0, 0.0, klass)
        message = (f"^factor is of class {factor.function_class.value}, "
                   f"params declare {klass.value}$")
        with pytest.raises(SymmetryClassError, match=message):
            fn(X, 1.0, 1.0, pr, factor)


BAD_POINTS = [2.0, np.ones((2, 3, 3)), np.ones(4), np.ones((2, 4))]
BAD_IDS = ["scalar", "3d", "point-d4", "batch-d4"]


class TestBadPointShape:
    """Every entry point refuses any shape but (d,) or (n, d)."""

    @pytest.mark.parametrize("x", BAD_POINTS, ids=BAD_IDS)
    @pytest.mark.parametrize("fn", [
        fd.field_T, fd.divergence_T, fd.certificate_many,
    ], ids=["field_T", "divergence_T", "certificate_many"])
    def test_field(self, fn, x):
        pr = Params(3, 3.0, 0.0, ANTI)
        with pytest.raises(InvalidDimensionError,
                           match=r"^expected a point of shape \(3,\)"):
            fn(x, 1.0, 1.0, pr, vandermonde(3))

    def test_factor_and_params_dimensions_differ(self):
        with pytest.raises(InvalidDimensionError, match="factor and params"):
            fd.field_T(np.ones(3), 1.0, 1.0, Params(4, 3.0, 0.0, ANTI),
                       vandermonde(3))


class TestSamplingArguments:
    @pytest.mark.parametrize("kwargs,name", [
        ({"n": 2.5}, "n"),
        ({"n": -1}, "n"),
        ({"n": "10"}, "n"),
        ({"tube": float("nan")}, "tube"),
        ({"tube": float("inf")}, "tube"),
        ({"tube": -1e-3}, "tube"),
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
        fd.field_T, fd.divergence_T,
        lambda x, *args: fd.certificate_many(np.array([[1.0, 2.0, 3.0], x]), *args),
    ], ids=["field_T", "divergence_T", "certificate_many"])
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

def ref_boundary_distance(dom, X):
    d = dom.factor.dimension
    if dom.factor.function_class is ANTI:
        D = X[:, :, None] - X[:, None, :]
        iu = np.triu_indices(d, k=1)
        gaps = np.abs(D[:, iu[0], iu[1]])
        return gaps.min(axis=1) / np.sqrt(2.0)
    return np.abs(row_sum(X.T)) / np.sqrt(d)


def ref_sample_interior(dom, n, rng, tube, full_blocks=False):
    """The sampler's draw rule written out: a first draw of max(n, 128)
    rows, then draws sized 10 % over the shortfall at the keep rate so
    far, within [128, max(n, 128)] rows, each row kept outside the tube
    and the ball of radius 1e-6 at the origin.  With ``full_blocks`` every
    draw is max(n, 128) rows."""
    d, block = dom.factor.dimension, max(n, 128)
    out, drawn = np.empty((0, d)), 0
    while len(out) < n:
        size = block
        if len(out) and not full_blocks:
            size = math.ceil(1.1 * (n - len(out)) * drawn / len(out))
            size = min(max(size, 128), block)
        drawn += size
        out = np.vstack([out, ref_kept(dom, rng.standard_normal((size, d)),
                                       tube)])
    return out[:n]


def ref_kept(dom, X, tube):
    """The rows of X sorted (ordered sector) or negated where their sum is
    negative (half-space), less those within the tube or the ball of
    radius 1e-6 at the origin."""
    if dom.factor.function_class is ANTI:
        X = np.sort(X, axis=1)
    else:
        s = np.sign(row_sum(X.T))
        s[s == 0.0] = 1.0
        X = X * s[:, None]
    keep = (ref_boundary_distance(dom, X) > tube) & (
        np.sqrt(row_dot(X, X)) > 1e-6
    )
    return X[keep]


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


class RecordingGenerator:
    """A generator that records the shape of each ``standard_normal``
    draw."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return self.rng.standard_normal(shape)


class StreamGenerator:
    """A generator whose ``standard_normal`` serves the rows of a fixed
    array in order, then rows of zeros, which every sampler refuses."""

    def __init__(self, rows):
        self.rows, self.at = rows, 0

    def standard_normal(self, shape):
        size, d = shape
        out = np.zeros((size, d))
        part = self.rows[self.at:self.at + size]
        out[:len(part)] = part
        self.at += size
        return out


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestAgainstReference:
    @pytest.mark.parametrize("tube", [1e-6, 0.02, 0.05])
    @pytest.mark.parametrize("n", [1, 10, 50, 10_000])
    @pytest.mark.parametrize("d", range(2, 11))
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sample_interior(self, klass, d, n, tube):
        # Covers the sorting network (d < 8) and np.sort (d >= 8).
        dom = fd.SectorDomain.for_params(Params(d, 2, 0.0, klass))
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        X = dom.sample_interior(n, rng, tube=tube)
        assert_same_bits(X, ref_sample_interior(dom, n, ref_rng, tube))
        assert X.flags.c_contiguous
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The normals are one stream, so the draw sizes do not move a point.
        full = ref_sample_interior(dom, n, np.random.default_rng(31), tube,
                                   full_blocks=True)
        assert_same_bits(X, full)

    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_draws_sized_from_the_shortfall(self, klass):
        # At tube 0.02 a first draw of n rows keeps 95-99 % of them; the
        # rest come from one short draw, not from a second n rows.
        dom = fd.SectorDomain.for_params(Params(3, 2, 0.0, klass))
        rng = RecordingGenerator(np.random.default_rng(34))
        n = 10_000
        X = dom.sample_interior(n, rng, tube=0.02)
        assert len(X) == n
        assert rng.shapes[0] == (n, 3)
        assert sum(rows for rows, _ in rng.shapes) <= 1.1 * n + 128

    @pytest.mark.parametrize("n", [50, 10_000])
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_low_keep_rate(self, klass, n):
        # A tube of 2.33 keeps about 2 % of the rows at d = 2: many draws,
        # each within [128, max(n, 128)] rows, and the points of full ones.
        dom = fd.SectorDomain.for_params(Params(2, 2, 0.0, klass))
        rng = RecordingGenerator(np.random.default_rng(35))
        X = dom.sample_interior(n, rng, tube=2.33)
        full = ref_sample_interior(dom, n, np.random.default_rng(35), 2.33,
                                   full_blocks=True)
        assert_same_bits(X, full)
        rows = [rows for rows, _ in rng.shapes]
        assert 0.015 < n / sum(rows) < 0.025
        assert all(128 <= r <= max(n, 128) for r in rows)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 10])
    def test_boundary_distance(self, d):
        # The ordered sector's wall distance, from the smallest adjacent gap
        # of the sorted row, against every pairwise gap.
        dom = fd.SectorDomain.for_params(Params(d, 2, 0.0, ANTI))
        rng = np.random.default_rng(32)
        unsorted = rng.standard_normal((500, d))
        ties = rng.integers(-2, 3, size=(500, d)).astype(float)
        zeros = rng.choice([0.0, -0.0, 1.0, -1.0], size=(500, d))
        for X in (unsorted, ties, zeros, 1e-300 * unsorted):
            assert_same_bits(fd._ordered_distance(fd._sort_rows(X)),
                             ref_boundary_distance(dom, X))

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 10])
    @pytest.mark.parametrize("klass", [ANTI, ODD])
    def test_sampler_wall_distance(self, klass, d):
        # Rows with ties, signed zeros and small norms, served in order: the
        # sampler keeps exactly the rows whose wall distance, every pairwise
        # gap (ordered sector) or |sum x| / sqrt(d) (half-space), exceeds
        # the tube and whose norm exceeds 1e-6.
        dom = fd.SectorDomain.for_params(Params(d, 2, 0.0, klass))
        rng = np.random.default_rng(32)
        unsorted = rng.standard_normal((500, d))
        ties = rng.integers(-2, 3, size=(500, d)).astype(float)
        zeros = rng.choice([0.0, -0.0, 1.0, -1.0], size=(500, d))
        for rows in (unsorted, ties, zeros, 1e-5 * unsorted, 1e-300 * unsorted):
            for tube in (0.0, 1e-6, 0.5):
                want = ref_kept(dom, rows, tube)
                got = dom.sample_interior(len(want), StreamGenerator(rows),
                                          tube=tube)
                assert_same_bits(got, want)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_network_is_a_stable_sort(self, d):
        rng = np.random.default_rng(33)
        X = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], size=(2000, d))
        assert_same_bits(fd._sort_rows(X), np.sort(X, axis=1, kind="stable"))

    # The certificate workload's 24 field-op point sets at seed 1 (classes
    # antisym, odd; d = 2, 3; p = 2, 3; gamma = -1, 0, 1), and two d >= 8
    # sets, where row sums have eight or more terms.
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
        assert_same_bits(fd.certificate_many(X[0][None], *args)[0], cert[0])

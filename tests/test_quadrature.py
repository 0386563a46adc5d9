import math

import numpy as np
import pytest

from symhardy import quadrature as qd
from symhardy.constants import (
    FunctionClass,
    Functional,
    Params,
    reference_constant,
)
from symhardy.errors import (
    DegenerateSampleError,
    DomainError,
    SymmetryClassError,
    UnsupportedDimensionError,
)
from symhardy.fields import SectorDomain
from symhardy.polynomials import ConstantFactor, odd_linear, vandermonde
from symhardy.trials import gaussian_trial, sharpness_family

ANTI = FunctionClass.ANTISYMMETRIC
ODD = FunctionClass.ODD
GEN = FunctionClass.GENERAL

CFG = qd.QuadratureConfig(samples=200_000, seed=3)
CFG_PROD = qd.QuadratureConfig(method="product", radial_nodes=160, angular_nodes=48)


def combined(a, b):
    return math.hypot(a.error, b.error)


class TestSphereRules:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_total_weight_is_sphere_area(self, d):
        pts, w = qd.sphere_grid(d, 32)
        assert w.sum() == pytest.approx(qd.sphere_area(d), rel=1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_vandermonde_moment_matches_closed_form(self, d):
        est = qd.angular_moment(vandermonde(d), 2.0, nodes=64)
        assert est.value == pytest.approx(
            qd.vandermonde_sphere_moment_p2(d), rel=1e-10
        )

    def test_odd_moment(self):
        # The sphere average of (sum x_k)^2 is 1, so the moment is the area.
        est = qd.angular_moment(odd_linear(3), 2.0, nodes=64)
        assert est.value == pytest.approx(qd.sphere_area(3), rel=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            qd.sphere_grid(5, 8)
        with pytest.raises(UnsupportedDimensionError):
            qd.angular_moment(vandermonde(5), 2.0)


class TestOneDimensionalOracles:
    # u(x) = x exp(-x^2/2): energy integral (3/4) sqrt(pi), weighted mass
    # sqrt(pi); both verified against closed forms.
    def setup_method(self):
        self.u = gaussian_trial(odd_linear(1), 1.0)
        self.params = Params(1, 2.0, 0.0, ODD)
        self.num_exact = 0.75 * math.sqrt(math.pi)
        self.den_exact = math.sqrt(math.pi)

    def test_product_engine_three_digits(self):
        num = qd.hardy_numerator(self.u, self.params, CFG_PROD)
        den = qd.hardy_denominator(self.u, self.params, CFG_PROD)
        assert num.value == pytest.approx(self.num_exact, rel=5e-4)
        assert den.value == pytest.approx(self.den_exact, rel=5e-4)

    def test_mc_engine_within_error_bars(self):
        num = qd.hardy_numerator(self.u, self.params, CFG)
        den = qd.hardy_denominator(self.u, self.params, CFG)
        assert abs(num.value - self.num_exact) <= 4.0 * num.error
        assert abs(den.value - self.den_exact) <= 4.0 * den.error
        # The importance density matches the mass integrand exactly, so its
        # error bar collapses.
        assert den.error < 1e-4 * den.value

    def test_zero_trial_gives_zero_mass(self):
        from symhardy.trials import RadialProfile, TrialFunction

        zeros = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        u = TrialFunction(
            odd_linear(1), RadialProfile("custom", zeros, zeros, zeros)
        )
        est = qd.hardy_denominator(u, self.params, CFG)
        assert est.value == 0.0


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        u = gaussian_trial(vandermonde(2), 1.0)
        pr = Params(2, 2.0, 0.0, ANTI)
        a = qd.hardy_numerator(u, pr, CFG)
        b = qd.hardy_numerator(u, pr, CFG)
        assert a.value == b.value
        assert a.error == b.error

    def test_different_seed_differs(self):
        u = gaussian_trial(vandermonde(2), 1.0)
        pr = Params(2, 2.0, 0.0, ANTI)
        a = qd.hardy_numerator(u, pr, CFG)
        b = qd.hardy_numerator(
            u, pr, qd.QuadratureConfig(samples=CFG.samples, seed=CFG.seed + 1)
        )
        assert a.value != b.value


def _separate_integrals(u, functional, params, config):
    """Numerator and denominator as two independent ``mc_integral`` calls
    with the same seed, or ``product_integral`` calls, from the integrands
    written out in full."""
    p, gamma = params.p, params.gamma

    def weight(X, exponent):
        return 1.0 if exponent == 0.0 else qd.row_dot(X, X) ** (-exponent / 2.0)

    if functional is Functional.HARDY:
        parts = [
            (lambda X: u.grad_norm_sq(X) ** (p / 2.0) * weight(X, gamma), 0, True),
            (lambda X: np.abs(u.value(X)) ** p * weight(X, p + gamma), 1, False),
        ]
    else:
        parts = [
            (lambda X: np.abs(u.laplacian(X)) ** p * weight(X, gamma), 0, False),
            (lambda X: np.abs(u.value(X)) ** p * weight(X, 2.0 * p + gamma), 2,
             False),
        ]
    scale = qd._radial_scale(u, p)
    if config.method == "product":
        for _, w, grad in parts:
            qd._radial_shape(u, params, w, gradient=grad)
        return [qd.product_integral(fn, params.d, config)
                for fn, _, _ in parts]
    return [
        qd.mc_integral(fn, params.d, config,
                       qd._radial_shape(u, params, w, gradient=grad), scale)
        for fn, w, grad in parts
    ]


def _outcome(compute):
    """The estimates, or the class and message of the named error."""
    try:
        return compute()
    except (DomainError, DegenerateSampleError) as exc:
        return type(exc), str(exc)


class TestSharedDraws:
    """One pass over the streams serves a quotient's numerator and
    denominator with exactly the draws of two separate calls."""

    CASES = [(ANTI, vandermonde, Functional.HARDY),
             (ODD, odd_linear, Functional.HARDY),
             (ANTI, vandermonde, Functional.RELLICH),
             (ODD, odd_linear, Functional.RELLICH)]

    @staticmethod
    def _compare(klass, factor, functional, d, p, gamma, config):
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, p, gamma, klass)
        terms = qd._INTEGRANDS[functional]
        shared = _outcome(lambda: qd._estimates(u, params, config, terms))
        want = _outcome(lambda: _separate_integrals(u, functional, params,
                                                    config))
        assert shared == want
        return shared

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
    def test_bit_identical_to_separate_calls(self, klass, factor, functional,
                                             d, p, gamma):
        # 20,003 samples leave a remainder over the eight streams.
        config = qd.QuadratureConfig(samples=20_003, seed=d + 7)
        self._compare(klass, factor, functional, d, p, gamma, config)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [3, 5])
    def test_single_stream(self, klass, factor, functional, d):
        config = qd.QuadratureConfig(samples=5_001, seed=11, n_streams=1)
        shared = self._compare(klass, factor, functional, d, 3.0, -0.5, config)
        assert [est.n for est in shared] == [5_001, 5_001]

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p, gamma", [(2.0, 0.0), (3.0, -0.5)])
    def test_product_bit_identical_to_separate_calls(self, klass, factor,
                                                     functional, d, p, gamma):
        # One pass over each product grid serves both integrals.
        config = qd.QuadratureConfig(method="product", radial_nodes=40,
                                     angular_nodes=12)
        self._compare(klass, factor, functional, d, p, gamma, config)

    def test_quotient_report_uses_the_same_estimates(self):
        u = gaussian_trial(vandermonde(4), 1.0)
        params = Params(4, 3.0, 1.0, ANTI)
        rep = qd.rayleigh_quotient(u, Functional.HARDY, params, CFG)
        num, den = _separate_integrals(u, Functional.HARDY, params, CFG)
        assert (rep.numerator, rep.denominator) == (num, den)
        assert rep.numerator == qd.hardy_numerator(u, params, CFG)
        assert rep.denominator == qd.hardy_denominator(u, params, CFG)

    @pytest.mark.parametrize("functional, calls", [
        (Functional.HARDY, 8),     # equal shapes: one point set per stream
        (Functional.RELLICH, 16),  # unequal shapes: radii drawn twice
    ])
    def test_points_drawn_once_per_shape(self, functional, calls):
        u = gaussian_trial(vandermonde(3), 1.0)
        params = Params(3, 2.0, 0.0, ANTI)
        terms = qd._INTEGRANDS[functional]
        shapes = [qd._radial_shape(u, params, w, gradient=order == 1)
                  for order, w in terms]
        evaluate = qd._integrand_values(u, params, terms)
        seen = []

        def counting(X, members):
            seen.append(tuple(members))
            return evaluate(X, members)

        config = qd.QuadratureConfig(samples=4_000, seed=2)
        qd._mc_streams(3, config, [(k, 0.7) for k in shapes], counting)
        assert len(seen) == calls

    @staticmethod
    def _nan_where(column, threshold):
        def fn(X):
            out = np.ones(len(X))
            out[X[:, column] > threshold] = np.nan
            return out
        return fn

    @pytest.mark.parametrize("shapes", [(3.0, 3.0), (3.0, 5.0)])
    @pytest.mark.parametrize("den_column", [0, 1])
    def test_degenerate_message_as_separate_calls(self, shapes, den_column):
        # Both integrals exceed the degenerate fraction: the numerator's
        # message, as when the numerator was integrated first.
        num_fn = self._nan_where(0, 0.0)
        den_fn = self._nan_where(den_column, 0.5)
        fns = (num_fn, den_fn)
        config = qd.QuadratureConfig(samples=10_001, seed=4)
        with pytest.raises(DegenerateSampleError) as want:
            qd.mc_integral(num_fn, 2, config, shapes[0], 1.0)
        with pytest.raises(DegenerateSampleError) as got:
            qd._mc_streams(2, config, [(k, 1.0) for k in shapes],
                           lambda X, members: [fns[i](X) for i in members])
        assert str(got.value) == str(want.value)

    def test_degenerate_denominator_alone(self):
        den_fn = self._nan_where(1, 0.5)
        config = qd.QuadratureConfig(samples=10_001, seed=4)
        with pytest.raises(DegenerateSampleError) as want:
            qd.mc_integral(den_fn, 2, config, 3.0, 1.0)
        fns = (lambda X: np.ones(len(X)), den_fn)
        with pytest.raises(DegenerateSampleError) as got:
            qd._mc_streams(2, config, [(3.0, 1.0), (3.0, 1.0)],
                           lambda X, members: [fns[i](X) for i in members])
        assert str(got.value) == str(want.value)


def _unblocked_streams(d, config, proposals, evaluate):
    """``_mc_streams`` as it ran before streams were split into blocks: one
    ``evaluate`` per stream and proposal, on X = z * (r / norms)[:, None]."""
    from scipy.special import gammaln

    groups = {}
    for i, (k, s) in enumerate(proposals):
        groups.setdefault((float(k), float(s)), []).append(i)
    area = qd.sphere_area(d)
    sizes = qd._chunk_sizes(config.samples, config.n_streams)
    children = np.random.SeedSequence(config.seed).spawn(config.n_streams)
    stats = [[] for _ in proposals]
    for child, m in zip(children, sizes):
        rng = np.random.default_rng(child)
        z = rng.standard_normal((m, d))
        norms = np.sqrt((z * z).sum(axis=1))
        norms[norms == 0.0] = 1.0
        after_directions = rng.bit_generator.state
        for (k, s), members in groups.items():
            rng.bit_generator.state = after_directions
            r = s * np.sqrt(rng.gamma(k / 2.0, 2.0, size=m))
            X = z * (r / norms)[:, None]
            outside = (r < config.r_min) | (r > config.r_max)
            log_norm = ((k / 2.0 - 1.0) * math.log(2.0) + gammaln(k / 2.0)
                        + k * math.log(s))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values = evaluate(X, members)
                logw = (d - k) * np.log(r) + r * r / (2.0 * s * s) + log_norm
                density = area * np.exp(logw)
                for i, vals in zip(members, values):
                    w = np.where(vals == 0.0, 0.0, density * vals)
                    w[outside] = 0.0
                    bad = ~np.isfinite(w)
                    w[bad] = 0.0
                    stats[i].append((m, float(w.sum()), float((w * w).sum()),
                                     int(bad.sum())))
    estimates = []
    for per_stream in stats:
        n, s1, s2, degen = qd._tree_reduce(per_stream)
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        estimates.append(qd.Estimate(mean, math.sqrt(var / n), n, degen, "mc"))
    return estimates


class TestStreamBlocks:
    """Streams are evaluated in blocks of at most ``_BLOCK`` points, yet the
    estimates are bit-identical to one evaluation per stream."""

    B = qd._BLOCK
    # Per-stream sizes: below one block, exactly one, one block plus one,
    # and two blocks plus one.
    SIZES = [B // 2 + 1, B, B + 1, 2 * B + 1]
    CASES = [(ANTI, vandermonde, Functional.HARDY),   # one proposal group
             (ODD, odd_linear, Functional.RELLICH)]  # two proposal groups

    @staticmethod
    def _setup(klass, factor, functional, d=3):
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, 3.0, -1.0, klass)
        terms = qd._INTEGRANDS[functional]
        proposals = [(qd._radial_shape(u, params, w, gradient=order == 1),
                      qd._radial_scale(u, params.p)) for order, w in terms]
        return proposals, qd._integrand_values(u, params, terms)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("n_streams", [1, 3])
    def test_bit_identical_to_one_evaluation_per_stream(
            self, klass, factor, functional, size, n_streams):
        proposals, evaluate = self._setup(klass, factor, functional)
        # One more sample than whole streams: the first stream is one
        # point longer than the others.
        config = qd.QuadratureConfig(samples=size * n_streams + 1, seed=5,
                                     n_streams=n_streams)
        got = qd._mc_streams(3, config, proposals, evaluate)
        assert got == _unblocked_streams(3, config, proposals, evaluate)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    def test_evaluations_per_block(self, klass, factor, functional):
        proposals, evaluate = self._setup(klass, factor, functional)
        rows = []

        def counting(X, members):
            rows.append(len(X))
            return evaluate(X, members)

        config = qd.QuadratureConfig(samples=2 * self.B + 1, seed=5,
                                     n_streams=1)
        qd._mc_streams(3, config, proposals, counting)
        groups = len(set(proposals))
        assert rows == [self.B, self.B, 1] * groups

    @pytest.mark.parametrize("offsets", [(-1,), (0,), (-1, 0), (-1, 0, 1)])
    def test_nan_at_a_block_edge(self, offsets):
        # Poison the points just before and just after the first block
        # edge of the first stream: both routes count them alike.
        proposals, evaluate = self._setup(ANTI, vandermonde, Functional.HARDY)
        config = qd.QuadratureConfig(samples=2 * (self.B + 7), seed=9,
                                     n_streams=2)
        (k, s), _ = proposals
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed).spawn(2)[0])
        z = rng.standard_normal((self.B + 7, 3))
        r = s * np.sqrt(rng.gamma(k / 2.0, 2.0, size=self.B + 7))
        X = z * (r / np.sqrt((z * z).sum(axis=1)))[:, None]
        targets = X[[self.B + offset for offset in offsets]]

        def poisoned(X, members):
            hit = (X[:, None, :] == targets[None, :, :]).all(axis=2).any(axis=1)
            values = evaluate(X, members)
            for vals in values:
                vals[hit] = np.nan
            return values

        got = qd._mc_streams(3, config, proposals, poisoned)
        want = _unblocked_streams(3, config, proposals, poisoned)
        assert got == want
        assert [est.degenerate for est in got] == [len(offsets)] * 2


class TestScalingLaws:
    def test_dilation_scaling_of_numerator(self):
        # With u_a(x) = u(x/a), the unweighted energy scales by a^(d-p);
        # the sigma = a Gaussian trial equals a^lam u_a, adding a^(p lam).
        d, p, a = 2, 2.0, 2.0
        lam = 1.0
        pr = Params(d, p, 0.0, ANTI)
        u1 = gaussian_trial(vandermonde(d), 1.0)
        ua = gaussian_trial(vandermonde(d), a)
        n1 = qd.hardy_numerator(u1, pr, CFG)
        na = qd.hardy_numerator(ua, pr, CFG)
        expected = a ** (d - p + p * lam)
        ratio = na.value / n1.value
        err = ratio * math.hypot(n1.error / n1.value, na.error / na.value)
        assert abs(ratio - expected) <= 3.0 * err

    def test_quotient_dilation_invariance(self):
        pr = Params(3, 2.0, 0.0, ANTI)
        r1 = qd.rayleigh_quotient(
            gaussian_trial(vandermonde(3), 1.0), Functional.HARDY, pr, CFG
        )
        r2 = qd.rayleigh_quotient(
            gaussian_trial(vandermonde(3), 2.0), Functional.HARDY, pr, CFG
        )
        err = math.hypot(r1.quotient_error, r2.quotient_error)
        assert abs(r1.quotient - r2.quotient) <= 3.0 * err


class TestEngineAgreement:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_mc_vs_product_on_separable_trials(self, d, p):
        u = gaussian_trial(vandermonde(d), 1.0)
        pr = Params(d, p, 0.0, ANTI)
        for integral in (qd.hardy_numerator, qd.hardy_denominator):
            mc = integral(u, pr, CFG)
            prod = integral(u, pr, CFG_PROD)
            assert abs(mc.value - prod.value) <= 3.0 * combined(mc, prod), (
                integral.__name__,
                mc,
                prod,
            )

    def test_factorized_mass_cross_check(self):
        # Two independent estimators of the Hardy denominator: direct MC
        # and the angular-moment times radial-integral factorization.
        u = gaussian_trial(vandermonde(3), 1.0)
        pr = Params(3, 2.0, 0.0, ANTI)
        mc = qd.hardy_denominator(u, pr, CFG)
        fact = qd.separable_mass(u, pr, pr.p + pr.gamma)
        assert abs(mc.value - fact.value) <= 3.0 * combined(mc, fact)

    def test_rellich_mc_vs_separable(self):
        u = gaussian_trial(vandermonde(3), 1.0)
        pr = Params(3, 2.0, 0.0, ANTI)
        mc = qd.rayleigh_quotient(u, Functional.RELLICH, pr, CFG)
        sep = qd.separable_rellich_quotient(u, pr)
        err = math.hypot(mc.quotient_error, sep.quotient_error)
        assert abs(mc.quotient - sep.quotient) <= 3.0 * err
        assert sep.quotient >= mc.reference_constant


class TestSectorReduction:
    def test_antisymmetric_full_space_is_d_factorial_times_sector(self):
        d = 3
        u = gaussian_trial(vandermonde(d), 1.0)
        pr = Params(d, 2.0, 0.0, ANTI)
        dom = SectorDomain.for_params(pr)

        def integrand(X):
            return np.abs(u.value(X)) ** 2 * ((X * X).sum(axis=1)) ** (-1.0)

        def masked(X):
            return integrand(X) * dom.contains(X)

        k = 2.0 * 3.0 + d - 2.0
        s = 1.0 / math.sqrt(2.0)
        full = qd.mc_integral(integrand, d, CFG, k, s)
        sector = qd.mc_integral(masked, d, CFG, k, s)
        diff = abs(full.value - math.factorial(d) * sector.value)
        err = math.hypot(full.error, math.factorial(d) * sector.error)
        assert diff <= 3.0 * err

    def test_odd_full_space_is_twice_half_space(self):
        d = 3
        u = gaussian_trial(odd_linear(d), 1.0)
        pr = Params(d, 2.0, 0.0, ODD)
        dom = SectorDomain.for_params(pr)

        def integrand(X):
            return np.abs(u.value(X)) ** 2 * ((X * X).sum(axis=1)) ** (-1.0)

        def masked(X):
            return integrand(X) * dom.contains(X)

        k = 2.0 + d - 2.0
        s = 1.0 / math.sqrt(2.0)
        full = qd.mc_integral(integrand, d, CFG, k, s)
        half = qd.mc_integral(masked, d, CFG, k, s)
        diff = abs(full.value - 2.0 * half.value)
        err = math.hypot(full.error, 2.0 * half.error)
        assert diff <= 3.0 * err


class TestQuotients:
    def test_gaussian_antisym_d2(self):
        pr = Params(2, 2.0, 0.0, ANTI)
        rep = qd.rayleigh_quotient(
            gaussian_trial(vandermonde(2), 1.0), Functional.HARDY, pr, CFG
        )
        assert rep.reference_constant == 1.0
        assert rep.quotient == pytest.approx(2.0, rel=5e-3)
        assert rep.margin > 2.0
        assert not rep.violation

    def test_gaussian_odd_d3(self):
        pr = Params(3, 2.0, 0.0, ODD)
        rep = qd.rayleigh_quotient(
            gaussian_trial(odd_linear(3), 1.0), Functional.HARDY, pr, CFG
        )
        assert rep.reference_constant == 2.25
        assert rep.quotient == pytest.approx(3.75, rel=5e-3)
        assert rep.margin > 2.0

    def test_class_restriction_is_essential(self):
        # A radial Gaussian beats the classical constant but sits far below
        # the antisymmetric-class one.
        pr = Params(3, 2.0, 0.0, GEN)
        rep = qd.rayleigh_quotient(
            gaussian_trial(ConstantFactor(3), 1.0),
            Functional.HARDY,
            pr,
            CFG,
        )
        assert rep.quotient == pytest.approx(0.75, rel=5e-3)
        assert rep.margin > 0.0  # above classical 0.25
        from symhardy.constants import hardy_antisymmetric

        ch = hardy_antisymmetric(3, 2).value
        assert rep.quotient + 2.0 * rep.quotient_error < ch

    def test_rellich_gaussian_beats_constant(self):
        pr = Params(3, 2.0, 0.0, ANTI)
        rep = qd.rayleigh_quotient(
            gaussian_trial(vandermonde(3), 1.0), Functional.RELLICH, pr, CFG
        )
        assert rep.reference_constant == pytest.approx(126.5625)
        assert rep.margin > 2.0

    def test_weighted_quotient(self):
        pr = Params(3, 2.5, 1.0, ANTI)
        rep = qd.rayleigh_quotient(
            gaussian_trial(vandermonde(3), 1.0), Functional.HARDY, pr, CFG
        )
        assert not rep.violation

    def test_separable_hardy_matches_hand_value(self):
        # d = 2 Gaussian trial quotient is exactly 2 by the radial reduction.
        pr = Params(2, 2.0, 0.0, ANTI)
        rep = qd.separable_hardy_quotient(gaussian_trial(vandermonde(2), 1.0), pr)
        assert rep.quotient == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "quotient",
        [
            lambda u, pr: qd.rayleigh_quotient(u, Functional.HARDY, pr, CFG),
            qd.separable_hardy_quotient,
            qd.separable_rellich_quotient,
        ],
        ids=["rayleigh", "separable-hardy", "separable-rellich"],
    )
    def test_symmetry_tag_mismatch_refused(self, quotient):
        # The separable quotients would otherwise compare an odd trial
        # with the antisymmetric constant and report a false violation.
        pr = Params(3, 2.0, 0.0, ANTI)
        u = gaussian_trial(odd_linear(3), 1.0)  # tagged odd
        with pytest.raises(SymmetryClassError, match="tagged odd"):
            quotient(u, pr)

    def test_inadmissible_reference_refused(self):
        pr = Params(3, 2.0, 0.0, GEN)  # d - 2p = -1: outside the interval
        with pytest.raises(DomainError):
            qd.rayleigh_quotient(
                gaussian_trial(ConstantFactor(3), 1.0),
                Functional.RELLICH,
                pr,
                CFG,
            )

    @pytest.mark.parametrize(
        "quotient", [qd.separable_hardy_quotient, qd.separable_rellich_quotient]
    )
    def test_separable_refuses_constant_factor(self, quotient):
        pr = Params(5, 2.0, -2.0, GEN)
        with pytest.raises(DomainError, match="antisymmetric and odd"):
            quotient(gaussian_trial(ConstantFactor(5), 1.0), pr)


class TestSeparableReports:
    @pytest.fixture
    def no_moment(self, monkeypatch):
        # The sphere moment cancels from every separable quotient, so it
        # must never be computed there.
        def refuse(*args, **kwargs):
            raise AssertionError("angular_moment called")

        monkeypatch.setattr(qd, "angular_moment", refuse)

    @pytest.mark.parametrize("factor", [vandermonde, odd_linear])
    @pytest.mark.parametrize(
        "functional, d",
        [("hardy", 2), ("hardy", 3), ("hardy", 4), ("hardy", 5),
         ("rellich", 3), ("rellich", 4), ("rellich", 5)],
    )
    def test_quotients_skip_the_moment(self, no_moment, factor, functional, d):
        klass = ANTI if factor is vandermonde else ODD
        pr = Params(d, 2.0, 0.0, klass)
        quotient = (
            qd.separable_hardy_quotient
            if functional == "hardy"
            else qd.separable_rellich_quotient
        )
        for u in (
            gaussian_trial(factor(d), 1.0),
            sharpness_family(factor(d), 0.2, 0.05, functional=functional),
        ):
            rep = quotient(u, pr)
            for est in (rep.numerator, rep.denominator):
                assert est.method == "separable"
                assert est.n == 0
            assert rep.numerator.value / rep.denominator.value == pytest.approx(
                rep.quotient, rel=1e-12
            )
            assert rep.quotient >= rep.reference_constant

    @pytest.mark.parametrize(
        "quotient, trial, params, pinned",
        [
            (qd.separable_rellich_quotient,
             lambda: sharpness_family(vandermonde(3), 0.2, 0.05),
             Params(3, 2.0, 0.0, ANTI),
             (129.03582904603272, 1.0139001892821528e-09,
              644.63024504079488, 5.0650438116192531e-09,
              4.9957461412583868, 1.1171052976171229e-15)),
            (qd.separable_hardy_quotient,
             lambda: sharpness_family(odd_linear(3), 0.1, 0.02,
                                      functional="hardy"),
             Params(3, 2.0, 0.0, ODD),
             (2.260419177286193, 2.2604191772861931e-14,
              22.583028026793688, 2.2338061338705529e-15,
              9.9906372471615423, 2.2338061338705529e-15)),
            (qd.separable_hardy_quotient,
             lambda: sharpness_family(odd_linear(4), 0.1, 0.01,
                                      functional="hardy"),
             Params(4, 2.0, 0.0, ODD),
             (4.0104165975135553, 4.0104165975135554e-14,
              40.066583105329762, 1.7061837129222825e-15,
              9.990628686847872, 1.7061837129222825e-15)),
            (qd.separable_hardy_quotient,
             lambda: gaussian_trial(odd_linear(3), 1.0),
             Params(3, 2.0, 1.0, ODD),
             (2.9999999999999982, 1.2727848606887082e-07,
              1.4999999999999996, 1.5909810758608862e-08,
              0.50000000000000011, 1.5909810758608862e-08)),
            (qd.separable_rellich_quotient,
             lambda: gaussian_trial(vandermonde(3), 1.0),
             Params(3, 2.5, 1.0, ANTI),
             (618.69249236480232, 1.0338066888414505e-05,
              212.14285918471901, 2.7668271738723801e-06,
              0.34288901482197442, 1.2574621581168621e-09)),
        ],
        ids=["collar-rellich", "collar-hardy", "collar-hardy-d4",
             "gaussian-hardy", "gaussian-rellich"],
    )
    def test_reports_pinned(self, quotient, trial, params, pinned):
        # Exact 17-digit quotients, error bars and radial factors.  The d = 4
        # collar moves if the segment loop adds the quad errors of a
        # segment in another order, the Gaussian Hardy row if its quotient
        # becomes numerator / denominator.
        rep = quotient(trial(), params)
        assert (rep.quotient, rep.quotient_error,
                rep.numerator.value, rep.numerator.error,
                rep.denominator.value, rep.denominator.error) == pinned


class TestSharpnessQuotients:
    def test_rellich_family_inside_bracket(self):
        d = 3
        pr = Params(d, 2.0, 0.0, ANTI)
        s, base = d * d / 2.0, (d * d - 4.0) / 2.0
        for eps in (0.2, 0.1):
            lo = ((base - eps) * (s - eps)) ** 2
            hi = ((base + eps) * (s + eps)) ** 2
            for delta in (0.05, 0.02, 0.01):
                u = sharpness_family(vandermonde(d), eps, delta)
                rep = qd.separable_rellich_quotient(u, pr)
                assert lo <= rep.quotient <= hi

    def test_hardy_family_trend(self):
        for d in (2, 3):
            pr = Params(d, 2.0, 0.0, ANTI)
            target = ((d * d - 2.0) / 2.0) ** 2
            quotients = []
            for eps in (0.5, 0.2, 0.1, 0.05):
                u = sharpness_family(vandermonde(d), eps, 0.01, functional="hardy")
                quotients.append(qd.separable_hardy_quotient(u, pr).quotient)
            assert all(a > b for a, b in zip(quotients, quotients[1:]))
            assert abs(quotients[-1] - target) <= 0.05 * target
            assert all(q >= target for q in quotients)

    def test_rmin_cutoff_sensitivity(self):
        # Halving r_min moves the product estimate by less than one error bar,
        # even for the mildly singular near-extremal integrand.
        u = sharpness_family(vandermonde(3), 0.2, 0.05)
        pr = Params(3, 2.0, 0.0, ANTI)
        base = qd.QuadratureConfig(
            method="product", radial_nodes=240, angular_nodes=32,
            r_min=1e-6, r_max=u.radial.meta["cutoff"] * 2.0,
        )
        halved = qd.QuadratureConfig(
            method="product", radial_nodes=240, angular_nodes=32,
            r_min=5e-7, r_max=u.radial.meta["cutoff"] * 2.0,
        )
        a = qd.rellich_denominator(u, pr, base)
        b = qd.rellich_denominator(u, pr, halved)
        assert abs(a.value - b.value) <= max(a.error, b.error)


class TestQuadPatchPoint:
    """``quadrature.quad`` is the one name every radial 1-D integral calls:
    patching it must reach them all."""

    def test_separable_path_calls_the_module_global(self, monkeypatch):
        calls = []
        original = qd.quad

        def counting(fn, lo, hi, **kwargs):
            calls.append((lo, hi, kwargs))
            return original(fn, lo, hi, **kwargs)

        u = sharpness_family(vandermonde(3), 0.2, 0.05)
        pr = Params(3, 2.0, 0.0, ANTI)
        expected = qd.separable_rellich_quotient(u, pr)
        monkeypatch.setattr(qd, "quad", counting)
        assert qd.separable_rellich_quotient(u, pr) == expected
        assert calls
        assert all(kwargs == {"limit": 200} for _, _, kwargs in calls)

    def test_patched_overflow_is_named(self, monkeypatch):
        def overflowing(fn, lo, hi, **kwargs):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(qd, "quad", overflowing)
        u = sharpness_family(vandermonde(3), 0.2, 0.05)
        with pytest.raises(DomainError, match="overflows"):
            qd.separable_rellich_quotient(u, Params(3, 2.0, 0.0, ANTI))


class TestEngineGuards:
    def test_degenerate_samples_abort(self):
        def bad(X):
            out = np.ones(len(X))
            out[X[:, 0] > 0.0] = np.nan
            return out

        with pytest.raises(DegenerateSampleError):
            qd.mc_integral(bad, 2, qd.QuadratureConfig(samples=10_000), 2.0, 1.0)

    def test_nonintegrable_shape_rejected(self):
        with pytest.raises(DomainError):
            qd.mc_integral(lambda X: np.ones(len(X)), 2,
                           qd.QuadratureConfig(samples=100), -1.0, 1.0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_sample_count_rejected(self, samples):
        # mc_integral would otherwise reduce an empty list of streams.
        with pytest.raises(DomainError, match="samples"):
            qd.QuadratureConfig(samples=samples)

    @pytest.mark.parametrize(
        "field, value",
        [("method", "bogus"), ("n_streams", 0), ("radial_nodes", 0),
         ("angular_nodes", 0), ("angular_nodes", -2), ("seed", -1)],
    )
    def test_unusable_field_named(self, field, value):
        with pytest.raises(DomainError, match=field):
            qd.QuadratureConfig(**{field: value})

    @pytest.mark.parametrize("samples", [1, 0])
    def test_sample_count_is_an_mc_knob(self, samples):
        # The product rule never reads it; the sampler refuses it anyway.
        cfg = qd.QuadratureConfig(method="product", samples=samples)
        with pytest.raises(DomainError, match="samples must be >= 2"):
            qd.mc_integral(lambda X: np.ones(len(X)), 2, cfg, 2.0, 1.0)

    @pytest.mark.parametrize(
        "r_min, r_max",
        [(1e-6, -1.0), (-1e-6, 40.0), (2.0, 2.0), (1e-6, math.nan)],
    )
    def test_bad_radial_cutoffs_rejected(self, r_min, r_max):
        with pytest.raises(DomainError, match="r_min < r_max"):
            qd.QuadratureConfig(r_min=r_min, r_max=r_max)

    @pytest.mark.parametrize("method", ["mc", "product"])
    @pytest.mark.parametrize("factor", [vandermonde, odd_linear])
    def test_divergent_rellich_mass_refused_by_both_engines(self, method, factor):
        # d = p = 2: |u|^2 |x|^-4 ~ r^(2 lam - 4) is not integrable at the
        # origin for lam = 1.
        pr = Params(2, 2.0, 0.0, ANTI if factor is vandermonde else ODD)
        cfg = qd.QuadratureConfig(method=method, samples=1000,
                                  radial_nodes=16, angular_nodes=8)
        with pytest.raises(DomainError, match="non-positive radial shape"):
            qd.rellich_denominator(gaussian_trial(factor(2), 1.0), pr, cfg)

    @pytest.mark.parametrize("factor", [vandermonde, odd_linear])
    @pytest.mark.parametrize(
        "functional, gamma",
        [("rellich", 0.0), ("rellich", 1.0), ("hardy", 2.0)],
    )
    def test_divergent_mass_refused_by_the_separable_path(self, factor,
                                                          functional, gamma):
        # d = p = 2, lam = 1: the mass |u|^2 |x|^(-2 w - gamma) ~ r^(1 - 2 w
        # - gamma) near the origin diverges for Rellich (w = 2) at gamma = 0
        # and 1, and for Hardy (w = 1) at gamma = 2.
        pr = Params(2, 2.0, gamma, ANTI if factor is vandermonde else ODD)
        quotient = (qd.separable_rellich_quotient if functional == "rellich"
                    else qd.separable_hardy_quotient)
        with pytest.raises(DomainError, match="non-positive radial shape"):
            quotient(gaussian_trial(factor(2), 1.0), pr)

    def test_radial_overflow_is_named(self):
        u = sharpness_family(vandermonde(4), 0.05, 0.05)
        with pytest.raises(DomainError, match="overflows"):
            qd.separable_rellich_quotient(u, Params(4, 2.0, 0.0, ANTI))

    def test_product_dimension_cap(self):
        u = gaussian_trial(vandermonde(5), 1.0)
        pr = Params(5, 2.0, 0.0, ANTI)
        with pytest.raises(UnsupportedDimensionError):
            qd.hardy_numerator(u, pr, CFG_PROD)

    def test_report_margin_semantics(self):
        est = qd.Estimate(1.0, 0.1, 10)
        rep = qd.QuotientReport(
            numerator=est,
            denominator=est,
            quotient=1.0,
            quotient_error=0.5,
            reference_constant=1.5,
            margin=-1.0,
            functional="hardy",
            formula_id="x",
        )
        assert not rep.conclusive
        assert not rep.violation


def _per_radius_pass(fn, d, config, nr, na, r_min=None):
    """The product pass as it ran before radii were grouped into blocks:
    one integrand call per radius."""
    r_lo = max(r_min if r_min is not None else config.r_min, 1e-12)
    r_hi = config.r_max
    nodes, wts = np.polynomial.legendre.leggauss(nr)
    s_lo, s_hi = math.log(r_lo), math.log(r_hi)
    svals = 0.5 * (s_hi + s_lo) + 0.5 * (s_hi - s_lo) * nodes
    swts = 0.5 * (s_hi - s_lo) * wts
    r = np.exp(svals)
    pts, aw = qd.sphere_grid(d, na)
    total = 0.0
    degen = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for ri, wi in zip(r, swts):
            vals = np.asarray(fn(ri * pts), dtype=float)
            bad = ~np.isfinite(vals)
            degen += int(bad.sum())
            vals = np.where(bad, 0.0, vals)
            total += wi * ri**d * float(aw @ vals)
    return total, degen, len(r) * len(aw)


class TestProductBlocks:
    """The blocked product rule sums the same terms in the same order as
    one integrand call per radius, so its results are bit-identical."""

    # (d, radial nodes, angular nodes): all radii in one block, blocks with
    # a remainder, several radii per block, and one radius per block.
    GRIDS = [(2, 200, 48), (2, 200, 64), (3, 42, 48), (3, 16, 101), (4, 9, 12)]

    @staticmethod
    def _integrands(d):
        u = gaussian_trial(vandermonde(d), 1.3)

        def hardy(X):
            return u.grad_norm_sq(X) ** 1.25 * qd._weight(qd.row_dot(X, X),
                                                          0.5)

        def rellich(X):
            return np.abs(u.laplacian(X)) ** 3.0 * qd._weight(
                qd.row_dot(X, X), -1.0)

        def mass(X):
            return np.abs(u.value(X)) ** 2.0 * qd._weight(qd.row_dot(X, X),
                                                         2.0)

        def rare(X):
            # Non-finite at a few nodes near |x| = 1: few enough that the
            # estimate stands, with its degenerate count.
            out = mass(X)
            r2 = qd.row_dot(X, X)
            out[(X[:, -1] == 0.0) & (X[:, 0] > 0.0) & (r2 > 0.81)
                & (r2 < 1.21)] = np.nan
            return out

        def holes(X):
            # Non-finite on a cap of directions at small and large radii:
            # too many nodes, so the product rule refuses.
            out = mass(X)
            r2 = qd.row_dot(X, X)
            cap = X[:, 0] * X[:, 0] > 0.8 * r2
            out[cap & (r2 < 1e-8)] = np.nan
            out[cap & (r2 > 900.0)] = np.inf
            return out

        return {"hardy": hardy, "rellich": rellich, "rare": rare,
                "holes": holes}

    NAMES = ["hardy", "rellich", "rare", "holes"]

    @pytest.mark.parametrize("d, nr, na", GRIDS)
    @pytest.mark.parametrize("name", NAMES)
    def test_passes_bit_identical(self, d, nr, na, name):
        # One pass over the named integrand and the next one in NAMES:
        # each member sums what a pass of its own would.
        integrands = self._integrands(d)
        pair = [name, self.NAMES[(self.NAMES.index(name) + 1) % 4]]
        fns = [integrands[key] for key in pair]
        cfg = qd.QuadratureConfig(method="product")
        for r_min in (cfg.r_min, 5e-7):
            totals, degen, n = qd._product_pass(
                d, nr, na, r_min, cfg.r_max, 2,
                lambda X, members: [fns[i](X) for i in members])
            for i, fn in enumerate(fns):
                want = _per_radius_pass(fn, d, cfg, nr, na, r_min)
                assert (totals[i], degen[i], n) == want
        if "holes" in pair:
            assert degen[pair.index("holes")] > 0

    @pytest.mark.parametrize("d, nr, na", GRIDS)
    def test_shared_passes_equal_separate_calls(self, d, nr, na):
        cfg = qd.QuadratureConfig(method="product", radial_nodes=nr,
                                  angular_nodes=na)
        integrands = self._integrands(d)
        u = gaussian_trial(vandermonde(d), 1.3)
        mass = lambda X: np.abs(u.value(X)) ** 2.0 * qd._weight(
            qd.row_dot(X, X), 2.0)
        fns = [integrands["hardy"], mass]
        got = qd._product_passes(
            d, cfg, 2, lambda X, members: [fns[i](X) for i in members])
        assert got == [qd.product_integral(fn, d, cfg) for fn in fns]
        # A degenerate member refuses with the message of its own call,
        # first or second.
        with pytest.raises(DegenerateSampleError) as want:
            qd.product_integral(integrands["holes"], d, cfg)
        for fns in ([integrands["holes"], mass], [mass, integrands["holes"]]):
            with pytest.raises(DegenerateSampleError) as info:
                qd._product_passes(
                    d, cfg, 2, lambda X, members: [fns[i](X) for i in members])
            assert str(info.value) == str(want.value)

    @pytest.mark.parametrize("d, nr, na", GRIDS)
    def test_product_integral_bit_identical(self, d, nr, na):
        cfg = qd.QuadratureConfig(method="product", radial_nodes=nr,
                                  angular_nodes=na)
        for name, fn in self._integrands(d).items():
            fine, degen, n = _per_radius_pass(fn, d, cfg, nr, na)
            if degen > qd.DEGENERATE_FRACTION * n:
                with pytest.raises(DegenerateSampleError,
                                   match=f"{degen} of {n} quadrature nodes"):
                    qd.product_integral(fn, d, cfg)
                continue
            coarse, _, _ = _per_radius_pass(fn, d, cfg, max(nr // 2, 8),
                                            max(na // 2, 4))
            halved, _, _ = _per_radius_pass(fn, d, cfg, nr, na,
                                            r_min=cfg.r_min / 2.0)
            err = (2.0 * (abs(fine - coarse) + abs(fine - halved))
                   + 1e-15 * abs(fine))
            assert qd.product_integral(fn, d, cfg) == qd.Estimate(
                fine, err, n, degen, "product")
            if name == "rare" and d == 2:
                assert degen > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sphere_grid_cached_and_read_only(self, d):
        pts, w = qd.sphere_grid(d, 10)
        assert qd.sphere_grid(d, 10)[0] is pts
        ref_pts, ref_w = qd._sphere_rule(d, 10)
        assert np.array_equal(pts, ref_pts)
        assert np.array_equal(w, ref_w)
        for arr in (pts, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_leggauss_cached_and_read_only(self):
        nodes, wts = qd._leggauss(12)
        assert qd._leggauss(12)[0] is nodes
        ref_nodes, ref_wts = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(wts, ref_wts)
        for arr in (nodes, wts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestExactErrorBars:
    """A quotient without an error bar is compared exactly: its margin is
    infinite on the side of the constant where it lies."""

    @pytest.mark.parametrize(
        "quotient, margin",
        [(0.5, -math.inf), (2.0, math.inf), (1.0, 0.0)],
    )
    def test_zero_error_margin_carries_the_sign(self, quotient, margin):
        ref = reference_constant(Params(2, 2.0, 0.0, ANTI), Functional.HARDY)
        assert ref.value == 1.0
        num = qd.Estimate(quotient * 4.0, 0.0, 10)
        den = qd.Estimate(4.0, 0.0, 10)
        rep = qd._build_report(num, den, ref, Functional.HARDY)
        assert rep.quotient_error == 0.0
        assert rep.margin == margin
        assert rep.violation is (margin < 0.0)
        assert rep.conclusive is (margin != 0.0)

    def test_single_sample_refused(self):
        # One sample always has variance 0, which would read as exact.
        with pytest.raises(DomainError, match="samples must be >= 2"):
            qd.QuadratureConfig(samples=1)

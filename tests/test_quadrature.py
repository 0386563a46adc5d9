import dataclasses
import math
import tracemalloc

import mpmath
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
from symhardy.polynomials import (
    AngularFactor,
    ConstantFactor,
    Vandermonde,
    odd_linear,
    vandermonde,
)
from symhardy.trials import (
    TrialFunction,
    gaussian_profile,
    gaussian_trial,
    piecewise_power_profile,
    sharpness_family,
)

from oracles import piecewise_power_psi_mp, vandermonde_sphere_moment_p2

ANTI = FunctionClass.ANTISYMMETRIC
ODD = FunctionClass.ODD
GEN = FunctionClass.GENERAL

CFG = qd.QuadratureConfig(samples=200_000, seed=3)
CFG_PROD = qd.QuadratureConfig(method="product", radial_nodes=160, angular_nodes=48)


def combined(a, b):
    return math.hypot(a.error, b.error)


def integral(u, functional, row, params, config):
    """One integral of ``functional``'s quotient as ``rayleigh_quotient``
    computes it: the numerator for ``row`` 0, the denominator for 1."""
    (estimate,), _ = qd._estimates(u, params, config,
                                   [qd._INTEGRANDS[functional][row]])
    return estimate


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
            vandermonde_sphere_moment_p2(d), rel=1e-10
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
        num = integral(self.u, Functional.HARDY, 0, self.params, CFG_PROD)
        den = integral(self.u, Functional.HARDY, 1, self.params, CFG_PROD)
        assert num.value == pytest.approx(self.num_exact, rel=5e-4)
        assert den.value == pytest.approx(self.den_exact, rel=5e-4)

    def test_mc_engine_within_error_bars(self):
        num = integral(self.u, Functional.HARDY, 0, self.params, CFG)
        den = integral(self.u, Functional.HARDY, 1, self.params, CFG)
        assert abs(num.value - self.num_exact) <= 4.0 * num.error
        assert abs(den.value - self.den_exact) <= 4.0 * den.error
        # The importance density matches the mass integrand exactly, so its
        # error bar collapses to the share the cutoffs leave out: the mass
        # is the closed form on r_min <= |x| <= r_max, which misses
        # P(1/2, r_min^2) = 1.1e-6 of sqrt(pi).
        assert den.error < 1e-4 * den.value

    def test_zero_trial_gives_zero_mass(self):
        from symhardy.trials import RadialProfile, TrialFunction

        zeros = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        u = TrialFunction(
            odd_linear(1), RadialProfile(zeros, zeros, zeros)
        )
        est = integral(u, Functional.HARDY, 1, self.params, CFG)
        assert est.value == 0.0


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        u = gaussian_trial(vandermonde(2), 1.0)
        pr = Params(2, 2.0, 0.0, ANTI)
        a = integral(u, Functional.HARDY, 0, pr, CFG)
        b = integral(u, Functional.HARDY, 0, pr, CFG)
        assert a.value == b.value
        assert a.error == b.error

    def test_different_seed_differs(self):
        u = gaussian_trial(vandermonde(2), 1.0)
        pr = Params(2, 2.0, 0.0, ANTI)
        a = integral(u, Functional.HARDY, 0, pr, CFG)
        other = qd.QuadratureConfig(samples=CFG.samples, seed=CFG.seed + 1)
        b = integral(u, Functional.HARDY, 0, pr, other)
        assert a.value != b.value


def _point_integrand(u, params, order, w):
    """The integrand |D u|^p |x|^(-w p - gamma) of ``_INTEGRANDS`` row
    (order, w), written out at points x from ``TrialFunction.value``,
    ``gradient`` and ``laplacian``."""
    p, exponent = params.p, w * params.p + params.gamma

    def fn(X):
        if order == 0:
            base = np.abs(u.value(X)) ** p
        elif order == 1:
            g = u.gradient(X)
            base = qd.row_dot(g, g) ** (p / 2.0)
        else:
            base = np.abs(u.laplacian(X)) ** p
        if exponent == 0.0:
            return base
        return base * qd.row_dot(X, X) ** (-exponent / 2.0)

    return fn


def _separate_integrals(u, functional, params, config):
    """Numerator and denominator as two independent ``mc_integral`` calls
    with the same seed, or ``product_integral`` calls, from the integrands
    written out in full."""
    parts = [(_point_integrand(u, params, order, w), w, order == 1)
             for order, w in qd._INTEGRANDS[functional]]
    scale = qd._radial_scale(u, params.p)
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
             (GEN, ConstantFactor, Functional.HARDY),
             (ANTI, vandermonde, Functional.RELLICH),
             (ODD, odd_linear, Functional.RELLICH),
             (GEN, ConstantFactor, Functional.RELLICH)]

    @staticmethod
    def _compare(klass, factor, functional, d, p, gamma, config):
        """The shared pass against one ``_mc_streams`` call per integral,
        each with its own proposal and the same kernel: the same bits, or
        the same named refusal."""
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, p, gamma, klass)
        terms = qd._INTEGRANDS[functional]
        shared = _outcome(lambda: qd._estimates(u, params, config, terms)[0])
        want = _outcome(lambda: [
            qd._estimates(u, params, config, [term])[0][0] for term in terms])
        assert shared == want
        return shared

    @staticmethod
    def _compare_points(klass, factor, functional, d, p, gamma, config,
                        error_tol=1e-9):
        """The factored kernel's estimates against point-form
        ``mc_integral`` or ``product_integral`` calls: values within 1e-12
        relative, error bars within ``error_tol`` of the value, equal
        counts and equal refusals.  A general-class Monte Carlo integral
        whose proposal matches it exactly has variance 0, so its error bar
        is rounding noise of about 1e-10: hence the looser default.  A
        Monte Carlo mass weighs each sample by the proposal's mass P on
        [r_min, r_max] where the point form counts the samples inside: its
        value may differ by the share 1 - P left out.  Its error bar is at
        least (1 - P) of the value, and differs from the point form's by
        the indicator's spread, about sqrt(j) / n of the value if j of the
        n samples fall outside: a few sqrt((1 - P) / n) for j near its
        mean n (1 - P)."""
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, p, gamma, klass)
        terms = qd._INTEGRANDS[functional]
        shared = _outcome(lambda: qd._estimates(u, params, config, terms)[0])
        want = _outcome(lambda: _separate_integrals(u, functional, params,
                                                    config))
        if isinstance(want, tuple):
            assert shared == want
            return
        for (order, w), got, ref in zip(terms, shared, want):
            outside = 0.0
            if config.method == "mc" and order == 0:
                outside = 1.0 - qd._chi_mass(
                    qd._radial_shape(u, params, w), qd._radial_scale(u, p),
                    config.r_min, config.r_max)
            assert (got.n, got.degenerate, got.method) == (
                ref.n, ref.degenerate, ref.method)
            assert (abs(got.value - ref.value)
                    <= (1e-12 + outside) * abs(ref.value))
            spread = outside + 6.0 * math.sqrt(outside / got.n)
            assert (abs(got.error - ref.error)
                    <= (error_tol + spread) * abs(ref.value))

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
    def test_bit_identical_to_separate_calls(self, klass, factor, functional,
                                             d, p, gamma):
        # 20,003 samples: two whole streams and a partial one.
        config = qd.QuadratureConfig(samples=20_003, seed=d + 7)
        self._compare(klass, factor, functional, d, p, gamma, config)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
    def test_agrees_with_point_form(self, klass, factor, functional, d, p,
                                    gamma):
        config = qd.QuadratureConfig(samples=20_003, seed=d + 7)
        self._compare_points(klass, factor, functional, d, p, gamma, config)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [3, 5])
    def test_single_stream(self, klass, factor, functional, d):
        # 5,001 samples: one stream.
        config = qd.QuadratureConfig(samples=5_001, seed=11)
        shared = self._compare(klass, factor, functional, d, 3.0, -0.5, config)
        if klass is not GEN:  # the general class's mass diverges here
            assert [est.n for est in shared] == [5_001, 5_001]
        self._compare_points(klass, factor, functional, d, 3.0, -0.5, config)

    @pytest.mark.parametrize("klass, factor", [(ANTI, vandermonde),
                                               (ODD, odd_linear),
                                               (GEN, ConstantFactor)])
    @pytest.mark.parametrize("functional", [Functional.HARDY,
                                            Functional.RELLICH])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 1.0])
    def test_product_factored_values_match_points(self, klass, factor,
                                                  functional, d, p, gamma):
        # The factored kernel in the product layout, radii (nr, 1) against
        # a sphere grid, against the point integrands at X = r w.  The
        # point route's |x| is r to within an ulp or two, which the
        # Gaussian exp(-p r^2 / 2) turns into a relative change of about
        # p r^2 ulp at large r; the bound allows for that.  The Monte
        # Carlo layout, n radii against n directions, gives the same bits.
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, p, gamma, klass)
        terms = qd._INTEGRANDS[functional]
        rb = np.geomspace(1e-6, 40.0, 17)
        pts, _ = qd.sphere_grid(d, 12)
        X = (rb[:, None, None] * pts[None, :, :]).reshape(-1, d)
        angular, evaluate = qd._factored_integrands(u, params, terms)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = evaluate(rb[:, None], angular(pts), [0, 1])
            flat = evaluate(np.repeat(rb, len(pts)),
                            angular(np.tile(pts, (len(rb), 1))), [0, 1])
            want = [_point_integrand(u, params, *term)(X) for term in terms]
        # The kernel leaves each member's power of r to the engines.
        assert evaluate.powers == [
            p * (factor(d).homogeneity - (order == 1)) - w * p - gamma
            for order, w in terms]
        tol = 1e-13 + 2.0 * p * rb**2 * np.finfo(float).eps
        for g, f, w, a in zip(got, flat, want, evaluate.powers):
            assert g.shape == (len(rb), len(pts))
            assert np.array_equal(f.reshape(g.shape), g)
            g = g * rb[:, None] ** a
            w = w.reshape(g.shape)
            assert np.isfinite(g).all() and np.isfinite(w).all()
            scale = np.abs(w).max(axis=1)
            assert (np.abs(g - w).max(axis=1) <= tol * scale).all()

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p, gamma", [(2.0, 0.0), (3.0, -0.5)])
    def test_product_quotient_terms_match_product_integral(
            self, klass, factor, functional, d, p, gamma):
        # One pass over each product grid serves both integrals, from the
        # factored integrands: each agrees with product_integral of its
        # point integrand, and a refusal is the same named error.
        config = qd.QuadratureConfig(method="product", radial_nodes=40,
                                     angular_nodes=12)
        self._compare_points(klass, factor, functional, d, p, gamma, config,
                             error_tol=1e-12)

    def test_quotient_report_uses_the_same_estimates(self):
        u = gaussian_trial(vandermonde(4), 1.0)
        params = Params(4, 3.0, 1.0, ANTI)
        rep = qd.rayleigh_quotient(u, Functional.HARDY, params, CFG)
        assert rep.numerator == integral(u, Functional.HARDY, 0, params, CFG)
        assert rep.denominator == integral(u, Functional.HARDY, 1, params, CFG)

    @pytest.mark.parametrize("functional, calls", [
        (Functional.HARDY, 2),    # equal shapes: one point set per stream
        (Functional.RELLICH, 4),  # unequal shapes: radii drawn twice
    ])
    def test_points_drawn_once_per_shape(self, functional, calls):
        # Directions are drawn, and the angular parts formed, once per
        # stream whatever the number of radial shapes.
        u = gaussian_trial(vandermonde(3), 1.0)
        params = Params(3, 2.0, 0.0, ANTI)
        terms = qd._INTEGRANDS[functional]
        shapes = [qd._radial_shape(u, params, w, gradient=order == 1)
                  for order, w in terms]
        angular, evaluate = qd._factored_integrands(u, params, terms)
        seen, directions = [], []

        def counting_angular(w):
            directions.append(len(w))
            return angular(w)

        def counting(r, parts, members):
            seen.append(tuple(members))
            return evaluate(r, parts, members)

        counting.powers = evaluate.powers

        config = qd.QuadratureConfig(samples=qd._BLOCK + 4_000, seed=2)
        qd._mc_streams(3, config, [(k, 0.7) for k in shapes],
                       (counting_angular, counting))
        assert len(seen) == calls
        assert directions == [qd._BLOCK, 4_000]

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
                           qd._points_values(fns))
        assert str(got.value) == str(want.value)

    def test_degenerate_denominator_alone(self):
        den_fn = self._nan_where(1, 0.5)
        config = qd.QuadratureConfig(samples=10_001, seed=4)
        with pytest.raises(DegenerateSampleError) as want:
            qd.mc_integral(den_fn, 2, config, 3.0, 1.0)
        fns = (lambda X: np.ones(len(X)), den_fn)
        with pytest.raises(DegenerateSampleError) as got:
            qd._mc_streams(2, config, [(3.0, 1.0), (3.0, 1.0)],
                           qd._points_values(fns))
        assert str(got.value) == str(want.value)


def _orbit(d, m):
    """The number of sign patterns of a stream of m points in dimension d."""
    return math.gcd(m, 2 ** min(d - 1, 2))


def _reference_weights(d, config, proposals, kernel, exact=()):
    """``_mc_streams``' weighted samples written out plainly: one SFC64
    generator per ``_BLOCK`` samples, spawned all at once, rebuilt from its
    seed for each integral; a stream of m points draws m / g directions as
    (d, m / g) and divides them by their norms, and its directions are
    those times each of g sign patterns in turn, pattern j flipping x_0
    if j is odd and x_1 if j >= 2 (g from ``_orbit``).  Radii are drawn
    after the directions, and one ``evaluate`` runs per integral alone,
    its value times r^a and the density's r^(d - k) as one power.  An
    integral in ``exact`` draws no radii: each sample weighs its first
    angular part times the density's normalization and its mass on
    [r_min, r_max].  Per integral, a list of each stream's weights and
    non-finite count."""
    angular, evaluate = kernel
    n, B = config.samples, qd._BLOCK
    children = np.random.SeedSequence(config.seed).spawn(-(-n // B))
    area = qd.sphere_area(d)
    streams = [[] for _ in proposals]
    for child, m in zip(children, [B] * (n // B) + [n % B]):
        g = _orbit(d, m)
        rng = np.random.Generator(np.random.SFC64(child))
        z = rng.standard_normal((d, m // g))
        norms = np.sqrt((z * z).sum(axis=0))
        norms[norms == 0.0] = 1.0
        patterns = []
        for j in range(g):
            pattern = z / norms
            if j % 2:
                pattern[0] = -pattern[0]
            if j >= 2:
                pattern[1] = -pattern[1]
            patterns.append(pattern)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            parts = angular(np.concatenate(patterns, axis=1).T)
            for i, (k, s) in enumerate(proposals):
                log_z = ((k / 2.0 - 1.0) * math.log(2.0)
                         + math.lgamma(k / 2.0) + k * math.log(s)
                         + math.log(area))
                if i in exact:
                    w = math.exp(log_z) * qd._chi_mass(
                        k, s, config.r_min, config.r_max) * parts[0]
                else:
                    rng = np.random.Generator(np.random.SFC64(child))
                    rng.standard_normal((d, m // g))
                    r = np.sqrt(rng.gamma(k / 2.0, 2.0 * s * s, size=m))
                    (vals,) = evaluate(r, parts, [i])
                    w = np.exp(r * r * (0.5 / (s * s)) + log_z) * vals
                    if d - k + evaluate.powers[i]:
                        w *= r ** (d - k + evaluate.powers[i])
                    w[(vals == 0.0) | (r < config.r_min)
                      | (r > config.r_max)] = 0.0
                bad = ~np.isfinite(w)
                w[bad] = 0.0
                streams[i].append((w, int(bad.sum())))
    return streams


def _orbit_totals(d, w):
    """A stream's weights summed over each orbit of sign patterns, less
    their mean: the stream's sum over the number of orbits."""
    g = _orbit(d, len(w))
    return sum(np.split(w, g)) - w.sum() / (len(w) // g)


def _reference_streams(d, config, proposals, kernel, exact=()):
    """``_mc_streams`` from the reference weights: per stream, the sum and
    the two-pass sums of the products of two integrals' orbit totals about
    their means (the stream's sum over the number of orbits); the streams
    joined by Chan, Golub and LeVeque's update, with the between-stream
    term times the orbit size, added with ``math.fsum``.  The estimates,
    and the covariance of the first and the last."""
    n = config.samples

    def pooled(x, y):
        cross = [(_orbit_totals(d, a) * _orbit_totals(d, b)).sum()
                 for (a, _), (b, _) in zip(x, y)]
        mean_a = math.fsum([a.sum() for a, _ in x]) / n
        mean_b = math.fsum([b.sum() for b, _ in y]) / n
        between = [_orbit(d, len(a)) * len(a) * (a.mean() - mean_a)
                   * (b.mean() - mean_b) for (a, _), (b, _) in zip(x, y)]
        return math.fsum(cross + between) / n

    estimates = []
    weights = _reference_weights(d, config, proposals, kernel, exact)
    for per_stream in weights:
        mean = math.fsum([w.sum() for w, _ in per_stream]) / n
        error = max(math.sqrt(pooled(per_stream, per_stream) / n),
                    1e-14 * abs(mean))
        degen = sum(bad for _, bad in per_stream)
        estimates.append(qd.Estimate(mean, error, n, degen, "mc"))
    return estimates, pooled(weights[0], weights[-1]) / n


class TestStreamBlocks:
    """A stream is one block of at most ``_BLOCK`` samples with its own
    generator; the estimates are bit-identical to the plain reference
    sampler."""

    B = qd._BLOCK
    # Sample counts: below one block, exactly one, one block plus one, one
    # block plus two, and two blocks plus one.  At d = 3 a full block is
    # orbits of g = 4, and streams of 5,001, 1 and 2 points take g = 1, 1
    # and 2.
    SIZES = [B // 2 + 1, B, B + 1, B + 2, 2 * B + 1]
    CASES = [(ANTI, vandermonde, Functional.HARDY),   # one proposal group
             (ODD, odd_linear, Functional.RELLICH)]  # two proposal groups

    @staticmethod
    def _setup(klass, factor, functional, d=3):
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, 3.0, -1.0, klass)
        terms = qd._INTEGRANDS[functional]
        proposals = [(qd._radial_shape(u, params, w, gradient=order == 1),
                      qd._radial_scale(u, params.p)) for order, w in terms]
        return proposals, qd._factored_integrands(u, params, terms)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("exact", [(), (1,)])
    def test_bit_identical_to_reference_sampler(self, klass, factor,
                                                functional, size, exact):
        # exact = (1,): the Gaussian mass in closed form in r.
        proposals, kernel = self._setup(klass, factor, functional)
        config = qd.QuadratureConfig(samples=size, seed=5)
        got = qd._mc_streams(3, config, proposals, kernel, exact)
        assert got == _reference_streams(3, config, proposals, kernel, exact)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    @pytest.mark.parametrize("exact", [(), (1,)])
    def test_error_is_the_spread_of_all_samples(self, klass, factor,
                                                functional, exact):
        # Joining the streams' centred sums loses nothing: over all orbits
        # at once, of g = 4, 4 and 1 points, the error bar is the two-pass
        # standard error of the orbit totals U, sqrt(sum (U - g mean)^2) /
        # n, and the covariance of the two estimates is the same sum of
        # their products over n^2.
        proposals, kernel = self._setup(klass, factor, functional)
        config = qd.QuadratureConfig(samples=2 * self.B + 1, seed=5)
        n = config.samples
        got, cov = qd._mc_streams(3, config, proposals, kernel, exact)
        centred = []
        for per_stream in _reference_weights(3, config, proposals, kernel,
                                              exact):
            mean = np.concatenate([w for w, _ in per_stream]).sum() / n
            centred.append(np.concatenate([
                sum(np.split(w, _orbit(3, len(w)))) - _orbit(3, len(w)) * mean
                for w, _ in per_stream]))
        assert [len(c) for c in centred] == [2 * self.B // 4 + 1] * 2
        for est, c in zip(got, centred):
            assert est.error == pytest.approx(
                math.sqrt((c * c).sum()) / n, rel=1e-12)
        assert cov == pytest.approx(
            (centred[0] * centred[-1]).sum() / n**2, rel=1e-12)

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    def test_evaluations_per_stream(self, klass, factor, functional):
        proposals, (angular, evaluate) = self._setup(klass, factor,
                                                     functional)
        directions, rows = [], []

        def counting_angular(w):
            directions.append(len(w))
            return angular(w)

        def counting(r, parts, members):
            rows.append(len(r))
            return evaluate(r, parts, members)

        counting.powers = evaluate.powers

        config = qd.QuadratureConfig(samples=2 * self.B + 1, seed=5)
        qd._mc_streams(3, config, proposals, (counting_angular, counting))
        groups = len(set(proposals))
        assert directions == [self.B, self.B, 1]
        assert rows == [n for n in (self.B, self.B, 1) for _ in range(groups)]

    @pytest.mark.parametrize("offsets", [(-1,), (0,), (-1, 0), (-1, 0, 1)])
    def test_nan_at_a_stream_edge(self, offsets):
        # Poison the points just before and just after the edge between
        # the first two streams, found by their radii: each is counted
        # once, as in the reference sampler.
        proposals, (angular, evaluate) = self._setup(ANTI, vandermonde,
                                                     Functional.HARDY)
        config = qd.QuadratureConfig(samples=2 * self.B, seed=9)
        (k, s), _ = proposals
        radii = []
        for child in np.random.SeedSequence(config.seed).spawn(2):
            rng = np.random.Generator(np.random.SFC64(child))
            rng.standard_normal((3, self.B // _orbit(3, self.B)))
            radii.append(np.sqrt(rng.gamma(k / 2.0, 2.0 * s * s,
                                           size=self.B)))
        targets = np.concatenate(radii)[[self.B + o for o in offsets]]

        def poisoned(r, parts, members):
            values = evaluate(r, parts, members)
            for vals in values:
                vals[np.isin(r, targets)] = np.nan
            return values

        poisoned.powers = evaluate.powers

        got = qd._mc_streams(3, config, proposals, (angular, poisoned))
        want = _reference_streams(3, config, proposals, (angular, poisoned))
        assert got == want
        assert [est.degenerate for est in got[0]] == [len(offsets)] * 2

    @pytest.mark.parametrize("klass, factor, functional", CASES)
    def test_memory_bounded_by_block(self, klass, factor, functional):
        # One stream's draws are held at a time, so the peak does not grow
        # with samples: 10^6 samples at d = 5 stay under 4 MiB.
        u = gaussian_trial(factor(5), 1.0)
        params = Params(5, 2.0, 0.0, klass)
        config = qd.QuadratureConfig(samples=10**6, seed=1)
        qd.rayleigh_quotient(u, functional, params,
                             qd.QuadratureConfig(samples=2_000, seed=1))
        tracemalloc.start()
        try:
            qd.rayleigh_quotient(u, functional, params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestClosedFormMass:
    """A Gaussian trial's mass is |F|^p times its proposal's radial density,
    so the Monte Carlo engine weighs each direction by the density's
    normalization and its mass on [r_min, r_max], and draws no radii for
    it; a profile with segments keeps the sampled mass."""

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 7.5, 25.0])
    @pytest.mark.parametrize("s", [0.5, 1.0 / math.sqrt(3.0), 2.0])
    @pytest.mark.parametrize("lo, hi", [(0.0, 0.5), (1e-6, 40.0),
                                        (0.0, 40.0), (0.3, 2.0),
                                        (2.0, 3.0), (1e-6, 1e300)])
    def test_chi_mass_against_mpmath(self, k, s, lo, hi):
        want = mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(lo / s) ** 2 / 2,
                               mpmath.mpf(hi / s) ** 2 / 2, regularized=True)
        assert abs(qd._chi_mass(k, s, lo, hi) - float(want)) <= 1e-14

    @staticmethod
    def _recording(monkeypatch):
        """Per ``evaluate`` call its members, and the number of ``gamma``
        draws, of every kernel and generator the engine makes."""
        factored, seen = qd._factored_integrands, {"gamma": 0, "members": []}

        class Counting(np.random.Generator):
            def gamma(self, *args, **kwargs):
                seen["gamma"] += 1
                return super().gamma(*args, **kwargs)

        def recording(*args):
            angular, evaluate = factored(*args)

            def wrapper(r, parts, members):
                seen["members"].append(list(members))
                return evaluate(r, parts, members)

            wrapper.powers = evaluate.powers
            return angular, wrapper

        monkeypatch.setattr(np.random, "Generator", Counting)
        monkeypatch.setattr(qd, "_factored_integrands", recording)
        return seen

    @pytest.mark.parametrize("functional", [Functional.HARDY,
                                            Functional.RELLICH])
    def test_one_radial_group_per_stream(self, monkeypatch, functional):
        # Three streams: one gamma draw and one evaluate call each, for the
        # numerator alone, whether or not the mass's shape is the same.
        seen = self._recording(monkeypatch)
        u = gaussian_trial(odd_linear(3), 1.0)
        config = qd.QuadratureConfig(samples=2 * qd._BLOCK + 1, seed=5)
        qd.rayleigh_quotient(u, functional, Params(3, 2.0, 0.0, ODD), config)
        assert seen == {"gamma": 3, "members": [[0]] * 3}

    def test_sharpness_family_keeps_the_sampled_mass(self, monkeypatch):
        # psi = r^(-rho) near the origin: the mass's proposal is matched to
        # the power, not to the profile, so its radii are drawn, with the
        # points of a call of its own.
        seen = self._recording(monkeypatch)
        u = sharpness_family(vandermonde(3), 0.1, 0.05)
        params = Params(3, 2.0, 0.0, ANTI)
        terms = qd._INTEGRANDS[Functional.RELLICH]
        config = qd.QuadratureConfig(samples=qd._BLOCK + 1, seed=3)
        shared, _ = qd._estimates(u, params, config, terms)
        assert seen == {"gamma": 4, "members": [[0], [1]] * 2}
        assert shared == [qd._estimates(u, params, config, [term])[0][0]
                          for term in terms]


class TestOneKernel:
    """Both engines take their integrands from ``_factored_integrands``:
    the Monte Carlo engine forms the angular factor once per block, and
    neither engine goes through ``TrialFunction.evaluate``."""

    @staticmethod
    def _count(monkeypatch, calls, owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def test_rellich_angular_factor_once_per_block(self, monkeypatch):
        # Two proposal groups, three streams of one block each: F once per
        # block, not once per group.
        calls = {"value": 0, "evaluate": 0}
        self._count(monkeypatch, calls, AngularFactor, "value")
        self._count(monkeypatch, calls, TrialFunction, "evaluate")
        u = gaussian_trial(odd_linear(3), 1.0)
        config = qd.QuadratureConfig(samples=2 * qd._BLOCK + 1, seed=5)
        qd.rayleigh_quotient(u, Functional.RELLICH, Params(3, 2.0, 0.0, ODD),
                             config)
        assert calls == {"value": 3, "evaluate": 0}

    @pytest.mark.parametrize("functional, gradient",
                             [(Functional.HARDY, True),
                              (Functional.RELLICH, False)])
    def test_squares_only_for_the_gradient(self, functional, gradient):
        # F^2 and |T|^2 enter only the order-1 integrand: the Rellich
        # kernels form neither.
        u = gaussian_trial(odd_linear(3), 1.0)
        angular, _ = qd._factored_integrands(
            u, Params(3, 2.0, 0.0, ODD), qd._INTEGRANDS[functional])
        w = np.eye(3)
        Fp, F2, T2 = angular(w)
        np.testing.assert_array_equal(Fp, np.abs(u.angular.value(w)) ** 2.0)
        assert (F2 is None, T2 is None) == (not gradient, not gradient)

    @pytest.mark.parametrize("method", ["mc", "product"])
    @pytest.mark.parametrize("functional", [Functional.HARDY,
                                            Functional.RELLICH])
    def test_no_engine_calls_trial_evaluate(self, monkeypatch, method,
                                            functional):
        calls = {"evaluate": 0}
        self._count(monkeypatch, calls, TrialFunction, "evaluate")
        u = gaussian_trial(vandermonde(3), 1.0)
        config = qd.QuadratureConfig(method=method, samples=20_000,
                                     radial_nodes=40, angular_nodes=12)
        qd.rayleigh_quotient(u, functional, Params(3, 2.0, 0.0, ANTI), config)
        assert calls == {"evaluate": 0}


class TestScalingLaws:
    def test_dilation_scaling_of_numerator(self):
        # With u_a(x) = u(x/a), the unweighted energy scales by a^(d-p);
        # the sigma = a Gaussian trial equals a^lam u_a, adding a^(p lam).
        d, p, a = 2, 2.0, 2.0
        lam = 1.0
        pr = Params(d, p, 0.0, ANTI)
        u1 = gaussian_trial(vandermonde(d), 1.0)
        ua = gaussian_trial(vandermonde(d), a)
        n1 = integral(u1, Functional.HARDY, 0, pr, CFG)
        na = integral(ua, Functional.HARDY, 0, pr, CFG)
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
        for row in (0, 1):
            mc = integral(u, Functional.HARDY, row, pr, CFG)
            prod = integral(u, Functional.HARDY, row, pr, CFG_PROD)
            assert abs(mc.value - prod.value) <= 3.0 * combined(mc, prod), (
                row,
                mc,
                prod,
            )

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

        def integrand(X):
            return np.abs(u.value(X)) ** 2 * ((X * X).sum(axis=1)) ** (-1.0)

        def masked(X):
            # The ordered sector x_1 < ... < x_d.
            return integrand(X) * np.all(np.diff(X, axis=1) > 0.0, axis=1)

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

        def integrand(X):
            return np.abs(u.value(X)) ** 2 * ((X * X).sum(axis=1)) ** (-1.0)

        def masked(X):
            # The half-space sum x_k > 0.
            return integrand(X) * (X.sum(axis=1) > 0.0)

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

    @pytest.mark.parametrize("p, gamma", [(5.0, -2.5), (4.5, -2.0)])
    def test_separable_refuses_an_inadmissible_reference(self, p, gamma):
        # rellich_odd at d = 3 is inadmissible at both points (its value is
        # -0.0147 at the first, nan at the second): the separable front
        # refuses it with the Monte Carlo front's message.
        pr = Params(3, p, gamma, ODD)
        u = gaussian_trial(odd_linear(3), 1.0)
        with pytest.raises(DomainError, match="inadmissible") as mc:
            qd.rayleigh_quotient(u, Functional.RELLICH, pr, CFG)
        with pytest.raises(DomainError) as sep:
            qd.separable_rellich_quotient(u, pr)
        assert str(sep.value) == str(mc.value)

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

    @pytest.mark.parametrize("functional", ["hardy", "rellich"])
    @pytest.mark.parametrize("family", ["gaussian", "sharpness"])
    def test_profile_sees_only_node_arrays(self, family, functional):
        # The separable rule and the engines evaluate the same array code:
        # psi, dpsi and d2psi get the rule's 1-d read-only nodes, no scalar.
        seen = set()

        def recording(fn):
            def recorded(r):
                seen.add((type(r), np.ndim(r), r.flags.writeable))
                return fn(r)
            return recorded

        if family == "gaussian":
            u = gaussian_trial(vandermonde(3), 1.0)
        else:
            u = sharpness_family(vandermonde(3), 0.2, 0.05, functional)
        radial = dataclasses.replace(u.radial, **{
            part: recording(getattr(u.radial, part))
            for part in ("psi", "dpsi", "d2psi")})
        quotient = (qd.separable_hardy_quotient if functional == "hardy"
                    else qd.separable_rellich_quotient)
        quotient(TrialFunction(u.angular, radial), Params(3, 2.0, 0.0, ANTI))
        assert seen == {(np.ndarray, 1, False)}

    @pytest.mark.parametrize(
        "quotient, trial, params, pinned",
        [
            (qd.separable_rellich_quotient,
             lambda: sharpness_family(vandermonde(3), 0.2, 0.05),
             Params(3, 2.0, 0.0, ANTI),
             (128.9927378468462, 1.289927378468462e-12,
              644.9820165922126, 2.1316282072803006e-14,
              5.000142080541025, 0.0)),
            (qd.separable_hardy_quotient,
             lambda: sharpness_family(odd_linear(3), 0.1, 0.02,
                                      functional="hardy"),
             Params(3, 2.0, 0.0, ODD),
             (2.2600051685496947, 2.2600051685496947e-14,
              22.600077485192656, 1.3877787807814457e-17,
              10.000011415768455, 0.0)),
            (qd.separable_hardy_quotient,
             lambda: sharpness_family(odd_linear(4), 0.1, 0.01,
                                      functional="hardy"),
             Params(4, 2.0, 0.0, ODD),
             (4.010002590840974, 4.010002590840974e-14,
              40.10003735879083, 1.3877787807814457e-17,
              10.000002855454785, 3.469446951953614e-18)),
            (qd.separable_hardy_quotient,
             lambda: gaussian_trial(odd_linear(3), 1.0),
             Params(3, 2.0, 1.0, ODD),
             (3.0, 3e-14,
              1.5, 3.219646771412954e-15,
              0.5, 2.9976021664879227e-15)),
            (qd.separable_rellich_quotient,
             lambda: gaussian_trial(vandermonde(3), 1.0),
             Params(3, 2.5, 1.0, ANTI),
             (618.6924923682183, 6.186924923682183e-12,
              212.1428591858841, 1.3877787807814457e-17,
              0.34288901482196443, 1.3552527156068805e-20)),
        ],
        ids=["collar-rellich", "collar-hardy", "collar-hardy-d4",
             "gaussian-hardy", "gaussian-rellich"],
    )
    def test_reports_pinned(self, quotient, trial, params, pinned):
        # Exact 17-digit quotients, error bars and radial factors.  The d = 4
        # collar moves if the segment loop adds the quad errors of a
        # segment in another order.  Each radial factor carries its own
        # quad error; the Hardy numerator lam gamma M + N carries N's plus
        # |lam gamma| times M's.  The collar rows' quotients are
        # 128.99273784684626, 2.2600051685496942 and 4.0100025908409736
        # (mpmath).  The Gaussian rows' exact values are 3,
        # 1.5 and 0.5, and 618.69249236821826, 212.14285918588410 and
        # 0.34288901482196442 (mpmath).
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

    @pytest.mark.parametrize("factor", [vandermonde, odd_linear])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_hardy_rows_are_the_limit_plus_eps_squared(self, factor, d):
        # The pure two-sided power quotient is C + eps^2; the collar's share
        # of the excess stays below eps^2 delta.
        params = Params(d, 2.0, 0.0, factor(d).function_class)
        C = reference_constant(params, Functional.HARDY).value
        for eps in (0.3, 0.2, 0.1, 0.05, 0.01, 0.001):
            for delta in (0.3, 0.05, 0.02, 0.01):
                u = sharpness_family(factor(d), eps, delta, functional="hardy")
                q = qd.separable_hardy_quotient(u, params).quotient
                assert abs(q - (C + eps * eps)) <= eps * eps * delta, (
                    eps, delta, q)

    def test_rmin_cutoff_sensitivity(self):
        # Halving r_min moves the product estimate by less than one error bar,
        # even for the mildly singular near-extremal integrand.  The product
        # rule needs a finite r_max; the profile's outer power has none.
        u = sharpness_family(vandermonde(3), 0.2, 0.05)
        pr = Params(3, 2.0, 0.0, ANTI)
        base = qd.QuadratureConfig(
            method="product", radial_nodes=240, angular_nodes=32,
            r_min=1e-6, r_max=1e7,
        )
        halved = qd.QuadratureConfig(
            method="product", radial_nodes=240, angular_nodes=32,
            r_min=5e-7, r_max=1e7,
        )
        a = integral(u, Functional.RELLICH, 1, pr, base)
        b = integral(u, Functional.RELLICH, 1, pr, halved)
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
        assert all(kwargs == {} for _, _, kwargs in calls)

    def test_patched_overflow_is_named(self, monkeypatch):
        def overflowing(fn, lo, hi, **kwargs):
            return math.inf, 0.0

        monkeypatch.setattr(qd, "quad", overflowing)
        u = sharpness_family(vandermonde(3), 0.2, 0.05)
        with pytest.raises(DomainError, match="overflows"):
            qd.separable_rellich_quotient(u, Params(3, 2.0, 0.0, ANTI))


class TestRadialRuleOracle:
    """The double-exponential radial rule against mpmath at 30 digits: each
    radial integral lies within max(1e-12 relative, its reported error) of
    the reference, and each Gaussian Rellich quotient within its reported
    error and within 1e-12 relative (QUADPACK's were within 2e-9)."""

    @pytest.fixture(autouse=True)
    def digits(self):
        with mpmath.workdps(30):
            yield

    @staticmethod
    def assert_within(value, error, ref):
        assert abs(mpmath.mpf(value) - ref) <= max(1e-12 * abs(ref), error)

    @staticmethod
    def moment(k, a):
        """int_0^inf r^k exp(-a r^2) dr."""
        k = mpmath.mpf(k)
        return mpmath.gamma((k + 1) / 2) / (2 * mpmath.mpf(a) ** ((k + 1) / 2))

    @pytest.mark.parametrize("lo, hi, centre", [(0.0, 1.0, 0.5),
                                                 (0.0, math.inf, 50.0)])
    def test_step_halves_until_a_narrow_peak_is_resolved(self, lo, hi,
                                                         centre):
        # The first level's nodes straddle a bump of width 0.01 (tanh-sinh)
        # or 0.5 (exp-sinh), so only the halvings can find its area.
        width = 0.01 if hi < math.inf else 0.5
        value, err = qd.quad(
            lambda r: np.exp(-((r - centre) / width) ** 2), lo, hi)
        self.assert_within(value, err, mpmath.sqrt(mpmath.pi) * width)
        assert abs(value / (math.sqrt(math.pi) * width) - 1.0) <= 1e-12

    def test_overflowing_tail_is_dropped_only_where_negligible(self):
        # r^200 overflows from r = 10^1.54 on, where exp(-r^2) is 0; r^400
        # overflows from r = 5.9 on, short of its peak at r = 14.
        value, err = qd.quad(lambda r: r**200 * np.exp(-r * r), 0.0, math.inf)
        self.assert_within(value, err, self.moment(200, 1))
        value, _ = qd.quad(lambda r: r**400 * np.exp(-r * r), 0.0, math.inf)
        assert math.isnan(value)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 5.5])
    def test_gaussian_mass(self, p, sigma):
        # psi^p = exp(-p r^2 / (2 sigma^2)).
        profile = gaussian_profile(sigma)
        a = mpmath.mpf(p) / (2 * mpmath.mpf(sigma) ** 2)
        for m in (-0.5, 2.0, 11.0, 64.0):
            (value,), (err,) = qd._radial_integrals(
                profile, [qd._radial_term(profile, 0, m, p, 0.0)])
            self.assert_within(value, err, self.moment(m, a))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_gaussian_terms_of_each_order(self, sigma):
        # psi' = -r psi / sigma^2 and
        # psi'' + c psi'/r = (r^2 - sigma^2 (1 + c)) psi / sigma^4, so at
        # p = 2 each term is a sum of moments of psi^2.
        profile = gaussian_profile(sigma)
        s2 = mpmath.mpf(sigma) ** 2
        for m in (1.0, 2.0, 5.5, 33.0):
            for c in (2.0, 7.0):
                def moment(k):
                    return self.moment(m + k, 1 / s2)

                refs = (moment(0), moment(2) / s2**2,
                        (moment(4) - 2 * s2 * (1 + c) * moment(2)
                         + (s2 * (1 + c)) ** 2 * moment(0)) / s2**4)
                values, errs = qd._radial_integrals(profile, [
                    qd._radial_term(profile, order, m, 2.0, c)
                    for order in (0, 1, 2)])
                for value, err, ref in zip(values, errs, refs):
                    self.assert_within(value, err, ref)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 5.5])
    @pytest.mark.parametrize(
        "factor, klass, d, sigma, gamma",
        [(vandermonde, ANTI, 6, 3.0, 0.0), (vandermonde, ANTI, 3, 0.5, 1.0),
         (odd_linear, ODD, 6, 1.0, 0.0)],
        ids=["antisym-d6-sigma3", "antisym-d3-sigma0.5", "odd-d6"],
    )
    def test_gaussian_rellich_quotients(self, factor, klass, d, sigma, gamma,
                                        p):
        # psi'' + c psi'/r = (r^2 - sigma^2 (1 + c)) psi / sigma^4, and the
        # radial powers are p lam + d - 1 - gamma and that minus 2p.
        lam = factor(d).homogeneity
        m_num = p * lam + d - 1 - gamma
        m_den = m_num - 2 * p
        u = gaussian_trial(factor(d), sigma)
        params = Params(d, p, gamma, klass)
        s2, c = mpmath.mpf(sigma) ** 2, d - 1 + 2 * lam
        a = p / (2 * s2)
        num = mpmath.quad(
            lambda r: r**m_num * abs(r * r - s2 * (1 + c)) ** p
            * mpmath.exp(-a * r * r),
            [0, mpmath.sqrt(s2 * (1 + c)), mpmath.inf]) / s2 ** (2 * p)
        den = self.moment(m_den, a)
        if not reference_constant(params, Functional.RELLICH).admissible:
            # The front refuses to report against the reference (odd, d = 6,
            # p = 5.5: residual -45), so the rule's two integrals are
            # checked directly, split at the kink as the front splits them.
            with pytest.raises(DomainError, match="inadmissible"):
                qd.separable_rellich_quotient(u, params)
            kink = sigma * math.sqrt(1.0 + c)
            (num_value, den_value), (num_err, den_err) = qd._radial_integrals(
                u.radial, [qd._radial_term(u.radial, 2, m_num, p, c),
                           qd._radial_term(u.radial, 0, m_den, p, c)],
                (("numeric", 0.0, kink), ("numeric", kink, math.inf)))
            self.assert_within(num_value, num_err, num)
            self.assert_within(den_value, den_err, den)
            return
        rep = qd.separable_rellich_quotient(u, params)
        self.assert_within(rep.numerator.value, rep.numerator.error, num)
        self.assert_within(rep.denominator.value, rep.denominator.error, den)
        # Its error bar covers the true error, which is within 1e-12.
        assert abs(rep.quotient - num / den) <= rep.quotient_error
        assert abs(rep.quotient - num / den) <= 1e-12 * num / den

    @pytest.mark.parametrize(
        "factor, functional, d, eps, delta",
        [(vandermonde, "rellich", 3, 0.2, 0.05),
         (odd_linear, "hardy", 4, 0.1, 0.01),
         (vandermonde, "hardy", 2, 0.3, 0.001),
         (odd_linear, "rellich", 5, 0.1, 0.02)],
        ids=["antisym-rellich-d3", "odd-hardy-d4", "antisym-hardy-d2",
             "odd-rellich-d5"],
    )
    def test_sharpness_segments(self, factor, functional, d, eps, delta):
        # Each term on the collar against mpmath's quadrature, and on the
        # outer power [1 + delta, inf) against its exact integral, both of
        # the profile written out from its definition.  At p = 2 and
        # gamma = 0 the numerator's power is 2 lam + d - 1, and the
        # denominator's is 2 (or 4) less.
        u = sharpness_family(factor(d), eps, delta, functional)
        lam = factor(d).homogeneity
        c, m = d - 1 + 2 * lam, 2 * lam + d - 1
        (_, _, _, a), (collar, lo, hi), (_, tail, top, b) = u.radial.segments
        assert (collar, lo, tail, top) == ("numeric", 1.0 - delta,
                                           1.0 + delta, math.inf)
        psi = piecewise_power_psi_mp(a, b, delta)

        def diff(r, k):
            return mpmath.diff(psi, r, k)

        if functional == "rellich":
            rows = [(2, m), (0, m - 4)]
            refs = [lambda r: r**m * (diff(r, 2) + c * diff(r, 1) / r)**2,
                    lambda r: r ** (m - 4) * psi(r) ** 2]
        else:
            rows = [(1, m), (0, m - 2)]
            refs = [lambda r: r**m * diff(r, 1) ** 2,
                    lambda r: r ** (m - 2) * psi(r) ** 2]
        for (order, power), ref in zip(rows, refs):
            integrand, closed = qd._radial_term(u.radial, order, power, 2.0,
                                                c)
            value, err = qd.quad(integrand, lo, hi)
            self.assert_within(value, err, mpmath.quad(ref, [lo, hi]))
            # Beyond the collar ref = K r^q exactly: K and q from two radii
            # clear of the collar, and the integral over [hi, inf) is
            # -K hi^(q + 1) / (q + 1).
            far = 4 * mpmath.mpf(hi)
            q = mpmath.log(ref(2 * far) / ref(far)) / mpmath.log(2)
            assert q < -1
            K = ref(far) / far**q
            self.assert_within(closed(hi, math.inf, b), 0.0,
                               -K * mpmath.mpf(hi) ** (q + 1) / (q + 1))

    @pytest.mark.parametrize("factor", [vandermonde, odd_linear])
    @pytest.mark.parametrize("d", range(3, 7))
    def test_small_epsilon_rellich_quotients(self, factor, d):
        # At eps = 0.001 the power segments' primitives divide by
        # q + 1 = +-2 eps, so q must be formed without rounding rho + 2.
        # Inner and outer powers are exact here, with the collar by
        # mpmath's quadrature.
        lam = factor(d).homogeneity
        c, m = d - 1 + 2 * lam, 2 * lam + d - 1
        params = Params(d, 2.0, 0.0, factor(d).function_class)
        for delta in (0.05, 0.01):
            u = sharpness_family(factor(d), 0.001, delta)
            (_, _, lo, a), _, (_, hi, _, b) = u.radial.segments
            psi = piecewise_power_psi_mp(a, b, delta)
            a, b, lo, hi = (mpmath.mpf(v) for v in (a, b, lo, hi))

            def powers(K_in, K_out, q):
                # int_0^lo K_in^2 r^(q - 2a) + int_hi^inf K_out^2 r^(q - 2b)
                return (K_in**2 * lo ** (q - 2 * a + 1) / (q - 2 * a + 1)
                        - K_out**2 * hi ** (q - 2 * b + 1) / (q - 2 * b + 1))

            num = powers(a * (a + 1 - c), b * (b + 1 - c), m - 4) + mpmath.quad(
                lambda r: r**m * (mpmath.diff(psi, r, 2)
                                  + c * mpmath.diff(psi, r, 1) / r) ** 2,
                [lo, hi])
            den = powers(1, 1, m - 4) + mpmath.quad(
                lambda r: r ** (m - 4) * psi(r) ** 2, [lo, hi])
            q = qd.separable_rellich_quotient(u, params).quotient
            assert abs(q - num / den) <= 2e-15 * num / den, (delta, q)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("factor", [vandermonde, odd_linear])
    def test_gaussian_hardy_closed_form(self, factor, d, gamma, sigma):
        # N / M = Gamma((m + 5)/2) / Gamma((m + 1)/2) / 4 for the Gaussian,
        # m = 2 lam + d - 3 - gamma, so the quotient is
        # lam gamma + (m + 1)(m + 3)/4 at every sigma.  M diverges at the
        # origin where m <= -1.
        lam = factor(d).homogeneity
        m = 2 * lam + d - 3 - gamma
        u = gaussian_trial(factor(d), sigma)
        params = Params(d, 2.0, gamma, factor(d).function_class)
        if m <= -1:
            with pytest.raises(DomainError, match="non-positive radial shape"):
                qd.separable_hardy_quotient(u, params)
            return
        exact = lam * gamma + (m + 1) * (m + 3) / 4
        q = qd.separable_hardy_quotient(u, params).quotient
        assert abs(q - exact) <= 1e-15 * abs(exact)


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
        [("method", "bogus"), ("radial_nodes", 0),
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
            integral(gaussian_trial(factor(2), 1.0), Functional.RELLICH, 1,
                     pr, cfg)

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

    @pytest.mark.parametrize("route", ["separable", "mc", "product"])
    def test_origin_power_of_a_segment_profile(self, route):
        # psi = r^(-alpha) near the origin: d = 3, p = 2, lam = 3, so the
        # Rellich mass ~ r^(2 (lam - alpha) - 2) is integrable for the
        # family's alpha = 2.4 and not for alpha = 2.6.
        pr = Params(3, 2.0, 0.0, ANTI)
        if route == "separable":
            quotient = qd.separable_rellich_quotient
        else:
            cfg = qd.QuadratureConfig(method=route, samples=1000,
                                      radial_nodes=16, angular_nodes=8)
            quotient = lambda u, pr: qd.rayleigh_quotient(
                u, Functional.RELLICH, pr, cfg)
        steep = TrialFunction(vandermonde(3),
                              piecewise_power_profile(2.6, 2.7, 0.05))
        with pytest.raises(DomainError, match="non-positive radial shape"):
            quotient(steep, pr)
        family = sharpness_family(vandermonde(3), 0.1, 0.05)
        assert family.radial.segments[0][3] == pytest.approx(2.4)
        assert math.isfinite(quotient(family, pr).quotient)

    def test_product_dimension_cap(self):
        u = gaussian_trial(vandermonde(5), 1.0)
        pr = Params(5, 2.0, 0.0, ANTI)
        with pytest.raises(UnsupportedDimensionError):
            integral(u, Functional.HARDY, 0, pr, CFG_PROD)

    def test_report_margin_semantics(self):
        est = qd.Estimate(1.0, 0.1, 10)
        rep = qd.QuotientReport(
            numerator=est,
            denominator=est,
            quotient=1.0,
            quotient_error=0.5,
            reference_constant=1.5,
            margin=-1.0,
        )
        assert not rep.conclusive
        assert not rep.violation


def _gauss_legendre_mp(n, x):
    """The Gauss-Legendre node of P_n next to ``x`` and its weight
    2 / ((1 - x^2) P_n'(x)^2), by Newton's method at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        for _ in range(20):
            prev, pn = mpmath.mpf(1), x
            for j in range(1, n):
                prev, pn = pn, ((2 * j + 1) * x * pn - j * prev) / (j + 1)
            dpn = n * (prev - x * pn) / (1 - x * x)
            x -= pn / dpn
            if abs(pn / dpn) < mpmath.mpf(10) ** -36:
                return x, 2 / ((1 - x * x) * dpn * dpn)
        raise AssertionError(f"no node of P_{n} found from {x}")


def _per_radius_pass(fn, d, config, nr, na, r_min=None):
    """The product pass as it ran before radii were grouped into blocks:
    one integrand call per radius, its values times r^d, its sphere sum
    numpy's pairwise sum."""
    r_lo = max(r_min if r_min is not None else config.r_min, 1e-12)
    r_hi = config.r_max
    nodes, wts = qd._leggauss(nr)
    s_lo, s_hi = math.log(r_lo), math.log(r_hi)
    svals = 0.5 * (s_hi + s_lo) + 0.5 * (s_hi - s_lo) * nodes
    swts = 0.5 * (s_hi - s_lo) * wts
    r = np.exp(svals)
    pts, aw = qd.sphere_grid(d, na)
    total = 0.0
    degen = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for ri, wi in zip(r, swts):
            vals = np.asarray(fn(ri * pts), dtype=float) * ri**d
            bad = ~np.isfinite(vals)
            degen += int(bad.sum())
            vals = np.where(bad, 0.0, vals)
            total += wi * float((vals * aw).sum())
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
            g = u.gradient(X)
            return qd.row_dot(g, g) ** 1.25 * qd.row_dot(X, X) ** -0.25

        def rellich(X):
            return np.abs(u.laplacian(X)) ** 3.0 * qd.row_dot(X, X) ** 0.5

        def mass(X):
            return np.abs(u.value(X)) ** 2.0 / qd.row_dot(X, X)

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
            angular, evaluate = qd._points_values(fns)
            totals, degen, n = qd._product_pass(
                d, nr, na, r_min, cfg.r_max, 2, evaluate,
                angular(qd.sphere_grid(d, na)[0]))
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
        mass = lambda X: np.abs(u.value(X)) ** 2.0 / qd.row_dot(X, X)
        fns = [integrands["hardy"], mass]
        got = qd._product_passes(d, cfg, 2, qd._points_values(fns))
        assert got == [qd.product_integral(fn, d, cfg) for fn in fns]
        # A degenerate member refuses with the message of its own call,
        # first or second.
        with pytest.raises(DegenerateSampleError) as want:
            qd.product_integral(integrands["holes"], d, cfg)
        for fns in ([integrands["holes"], mass], [mass, integrands["holes"]]):
            with pytest.raises(DegenerateSampleError) as info:
                qd._product_passes(d, cfg, 2, qd._points_values(fns))
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

    def test_angular_factor_once_per_sphere_grid(self, monkeypatch):
        # The quotient's angular data is formed once per distinct sphere
        # grid (48 and 24 nodes a side), never point by point through the
        # trial.
        calls = {"gradient_products": 0, "evaluate": 0}

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Vandermonde, "_gradient_products", "gradient_products")
        counted(TrialFunction, "evaluate", "evaluate")
        u = gaussian_trial(vandermonde(3), 1.0)
        qd.rayleigh_quotient(u, Functional.HARDY, Params(3, 2.0, 0.0, ANTI),
                             qd.QuadratureConfig(method="product"))
        assert calls["gradient_products"] <= 2
        assert calls["evaluate"] == 0

    @pytest.mark.parametrize("functional", [Functional.HARDY,
                                            Functional.RELLICH])
    def test_blocks_hold_at_most_block_nodes(self, monkeypatch, functional):
        factored = qd._factored_integrands
        sizes = []

        def recording(*args):
            angular, evaluate = factored(*args)

            def wrapper(r, parts, members):
                values = evaluate(r, parts, members)
                sizes.extend(vals.size for vals in values)
                return values

            wrapper.powers = evaluate.powers
            return angular, wrapper

        monkeypatch.setattr(qd, "_factored_integrands", recording)
        u = gaussian_trial(vandermonde(3), 1.0)
        qd.rayleigh_quotient(u, functional, Params(3, 2.0, 0.0, ANTI),
                             qd.QuadratureConfig(method="product"))
        assert sizes and max(sizes) <= qd._BLOCK

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

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 24, 48, 100, 200])
    def test_leggauss_against_mpmath(self, n):
        nodes, wts = qd._leggauss(n)
        assert qd._leggauss(n)[0] is nodes
        assert nodes.shape == wts.shape == (n,)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(wts, wts[::-1])
        assert abs(wts.sum() - 2.0) <= 1e-15
        for x, w in zip(nodes, wts):
            ref_x, ref_w = _gauss_legendre_mp(n, x)
            assert abs(ref_x - float(x)) <= 2e-16
            assert abs(float(w) / ref_w - 1) <= 1e-13
        for arr in (nodes, wts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestSphereSums:
    """A quotient's members that are linear in the angular parts, every one
    but the gradient term at p != 2, are summed as radial values times
    sphere sums; they agree with the full grid, and where a bound is not
    finite they take it."""

    CASES = [(klass, functional, d, p, gamma)
             for klass in (ANTI, ODD)
             for functional in (Functional.HARDY, Functional.RELLICH)
             for d in (2, 3, 4)
             for p in (2.0, 2.5, 3.0)
             for gamma in (-1.0, 0.0, 1.0)]

    @staticmethod
    def _both_routes(klass, functional, d, p, gamma, r_max):
        """The estimates (or the error message) of the kernel as it is and
        with no member marked linear, and the members that the first one
        evaluated on the full grid."""
        factor = vandermonde(d) if klass is ANTI else odd_linear(d)
        terms = qd._INTEGRANDS[functional]
        angular, evaluate = qd._factored_integrands(
            gaussian_trial(factor, 1.0), Params(d, p, gamma, klass), terms)
        cfg = qd.QuadratureConfig(method="product", radial_nodes=40,
                                  angular_nodes=12, r_max=r_max)
        full = set()

        def recording(r, parts, members):
            if r.ndim == 2:
                full.update(members)
            return evaluate(r, parts, members)

        def full_grid(r, parts, members):
            return evaluate(r, parts, members)

        recording.linear = evaluate.linear
        recording.powers = full_grid.powers = evaluate.powers

        def run(fn):
            try:
                return qd._product_passes(d, cfg, 2, (angular, fn))
            except DegenerateSampleError as exc:
                return str(exc)

        return run(recording), run(full_grid), full

    @pytest.mark.parametrize("klass, functional, d, p, gamma", CASES)
    def test_sphere_sums_match_the_full_grid(self, klass, functional, d, p,
                                             gamma):
        got, want, full = self._both_routes(klass, functional, d, p, gamma,
                                            40.0)
        assert full == {i for i, (order, _) in
                        enumerate(qd._INTEGRANDS[functional])
                        if order == 1 and p != 2.0}
        for a, b in zip(got, want, strict=True):
            assert math.isfinite(a.value)
            assert a.value == pytest.approx(b.value, rel=1e-13, abs=0.0)
            assert (a.degenerate, a.n) == (b.degenerate, b.n)

    @pytest.mark.parametrize("klass, functional, d, p, gamma", CASES)
    def test_unbounded_members_take_the_full_grid(self, klass, functional, d,
                                                  p, gamma):
        # Out to r = 1e300, r^d and the radial powers overflow: where a
        # linear member's bound is not finite it takes the full grid, with
        # its degenerate counts or its named error.  A weight r^(d + a)
        # that stays finite, as r^1 for the odd Hardy mass at d = 2 and
        # gamma = 1, keeps its member on the sphere sums, to rounding.
        got, want, full = self._both_routes(klass, functional, d, p, gamma,
                                            1e300)
        if functional is Functional.RELLICH:
            assert 0 in full  # the numerator's bound overflows
        if isinstance(want, str):
            assert got == want
            return
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            assert (a.degenerate, a.n) == (b.degenerate, b.n)
            if i in full:
                assert np.array_equal([a.value, a.error], [b.value, b.error],
                                      equal_nan=True)
            else:
                assert a.value == pytest.approx(b.value, rel=1e-13, abs=0.0)
                assert a.error == pytest.approx(
                    b.error, rel=1e-13, abs=1e-13 * abs(b.value))

    def test_overflowing_radial_weight_is_degenerate(self):
        # Past r ~ 1e102 the weight r^3 overflows, and a radius whose
        # Gaussian sum underflowed to 0 once added inf * 0 = NaN to the
        # total with no node counted.  Every node of such a radius counts.
        cfg = qd.QuadratureConfig(method="product", r_max=1e300)
        with pytest.raises(DegenerateSampleError,
                           match=r"^\d+ of 460800 quadrature nodes"):
            qd.product_integral(lambda X: np.exp(-qd.row_dot(X, X)), 3, cfg)

    def test_a_node_past_the_bound_takes_the_full_grid(self):
        # c(r) a overflows at one direction, where a = 1e10, while c(r)
        # times the sphere sum of a stays finite: only the bound on the
        # nodes sees it, and the full grid counts and drops that node.
        _, aw = qd.sphere_grid(3, 8)
        a = np.ones(len(aw))
        a[0] = 1e10

        def evaluate(r, parts, members):
            return [np.full(r.shape, 1e299) * parts[0] for _ in members]

        def linear(r, parts, members):
            return evaluate(r, parts, members)

        linear.linear = [0]
        linear.powers = evaluate.powers = [0.0]
        got, want = (qd._product_pass(3, 16, 8, 1e-6, 40.0, 1, fn, (a,))
                     for fn in (linear, evaluate))
        assert got == want
        assert want[1] == [16] and math.isfinite(want[0][0])


class TestQuotientErrorCalibration:
    """A Monte Carlo quotient's error bar is the ratio estimator's: its
    numerator and denominator share their directions, and the bar must
    cover their correlation, and with sign-flip orbits the correlation of
    an orbit's points.  Over 100 seeds at 2e4 samples, sd(z) against the
    exact separable quotient measured 0.97-1.12 in all six cases (1.02-1.06
    in the first four with independent directions); with the relative
    errors added in quadrature, as if numerator and denominator were
    independent, it was 0.35-0.48 for the Rellich cases."""

    @pytest.mark.parametrize("klass, factor, functional, d, p, gamma", [
        (ANTI, vandermonde, Functional.HARDY, 3, 2.0, 0.0),
        (ANTI, vandermonde, Functional.RELLICH, 3, 3.0, 0.0),
        (ODD, odd_linear, Functional.RELLICH, 5, 3.0, 1.0),
        (ANTI, vandermonde, Functional.RELLICH, 5, 2.0, 0.0),
        # Hardy at d = 5: an orbit's points correlate most in the
        # antisymmetric case.
        (ODD, odd_linear, Functional.HARDY, 5, 2.0, 1.0),
        (ANTI, vandermonde, Functional.HARDY, 5, 2.0, 0.0),
    ])
    def test_z_scores_have_unit_spread(self, klass, factor, functional, d,
                                       p, gamma):
        u = gaussian_trial(factor(d), 1.0)
        params = Params(d, p, gamma, klass)
        exact = (qd.separable_hardy_quotient(u, params)
                 if functional is Functional.HARDY
                 else qd.separable_rellich_quotient(u, params)).quotient
        z = []
        for seed in range(100):
            rep = qd.rayleigh_quotient(
                u, functional, params,
                qd.QuadratureConfig(samples=20_000, seed=seed))
            z.append((rep.quotient - exact) / rep.quotient_error)
        assert 0.75 <= np.std(z) <= 1.25


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
        rep = qd._build_report(num, den, ref, 0.0)
        assert rep.quotient_error == 0.0
        assert rep.margin == margin
        assert rep.violation is (margin < 0.0)
        assert rep.conclusive is (margin != 0.0)

    @pytest.mark.parametrize("num, den", [
        ((math.nan, math.nan), (1.0, 0.1)),
        ((1.0, 0.1), (math.nan, 0.1)),
        ((math.inf, 0.1), (1.0, 0.1)),
        ((1.0, math.inf), (1.0, 0.1)),
        ((1.0, 0.1), (1e-320, 0.0)),
    ])
    def test_non_finite_quotient_refused(self, num, den):
        # A NaN quotient once read as a conclusive violation, with margin
        # copysign(inf, nan) = -inf.
        ref = reference_constant(Params(2, 2.0, 0.0, ANTI), Functional.HARDY)
        with pytest.raises(DomainError, match="is not finite"):
            qd._build_report(qd.Estimate(*num, 10), qd.Estimate(*den, 10),
                             ref, 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mc_zero_variance_is_rounding(self, d, seed):
        # At p = 1 the Gaussian attains the constant d - 1 and both
        # integrands are multiples of their proposal densities: variance 0.
        # The sums still round, so the error bar is their rounding level,
        # and a quotient an ulp below the constant is no violation.  Sums
        # of squares about the streams' means do not cancel: the one-pass
        # sum(w^2)/n - mean^2 gave d = 4 a bar of 5e-10 of the quotient.
        u = gaussian_trial(ConstantFactor(d), 1.0)
        config = qd.QuadratureConfig(samples=2_000, seed=seed)
        rep = qd.rayleigh_quotient(u, Functional.HARDY,
                                   Params(d, 1.0, 0.0, GEN), config)
        # The mass is the closed form on the shell r_min <= |x| <= r_max,
        # whose radial density r^(d-2) exp(-r^2/2) leaves out the share
        # P((d-1)/2, r_min^2/2) of the full space's: 8.0e-7 at d = 2,
        # 5.0e-13 at d = 3 and below rounding from d = 4.  Its bar covers
        # that share, which puts the quotient above d - 1 by about one bar.
        cut = float(mpmath.gammainc((d - 1) / 2.0, 0.0,
                                    config.r_min**2 / 2.0, regularized=True))
        num, den = rep.numerator, rep.denominator
        assert 1e-14 * abs(num.value) <= num.error < 1e-13 * abs(num.value)
        assert ((1.0 - 1e-6) * max(1e-14, cut) * den.value <= den.error
                < max(1e-13, 2.0 * cut) * den.value)
        assert rep.quotient_error < max(1e-13, 2.0 * cut) * rep.quotient
        assert (abs(rep.quotient - (d - 1))
                <= 1e-13 * (d - 1) + 1.5 * rep.quotient_error)
        assert not rep.conclusive

    def test_single_sample_refused(self):
        # One sample always has variance 0, which would read as exact.
        with pytest.raises(DomainError, match="samples must be >= 2"):
            qd.QuadratureConfig(samples=1)

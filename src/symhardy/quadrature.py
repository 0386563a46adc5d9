"""Integration engines for Hardy and Rellich functionals over R^d.

Two generic engines are exposed through ``QuadratureConfig.method``:

* ``mc``: importance-sampled Monte Carlo.  Directions are uniform on the
  sphere; radii follow a generalized-gamma density r^(k-1) exp(-r^2/2s^2)
  whose shape k is matched to the integrand's behavior near the origin
  (for Gaussian-profile trials the radial part of the weighted mass
  integrand is matched exactly).  Sampling is partitioned into
  independently seeded streams and reduced in a fixed pairwise order, so
  estimates are bit-identical given (seed, samples, n_streams).  A
  quotient's numerator and denominator come from one pass over the
  streams: each stream draws its directions once for both, and its radii
  once for both when their radial shapes agree (as in the Hardy quotient
  of a Gaussian trial with a non-constant angular factor), and then they
  also share the trial's per-point terms.  Otherwise each draws its own
  radii from the generator state that follows the directions.  Either way
  both integrals see exactly the points that separate ``mc_integral``
  calls with the same seed would draw.  Each stream is evaluated in blocks
  of at most ``_BLOCK`` points, built column-major (``np.empty((d, n)).T``),
  whose weighted values fill one array per stream; the stream's sums are
  taken over that array, so blocking does not change a bit.
* ``product``: a log-radial Gauss-Legendre rule times a tensor angular
  rule on the sphere (d <= 4).  The reported error is the change under
  halving both node counts.  Whole radii are grouped into blocks of at
  most ``_BLOCK`` points, built column-major as in the ``mc`` engine.
  A quotient's numerator and denominator share each of the three grids
  (fine, half the node counts, half ``r_min``): each grid is built once,
  each block's trial terms come from one call, and each integrand's sum
  is added radius by radius in node order, so it equals that of a
  separate ``product_integral`` bit for bit.

For separable trials u = F psi(|x|) there is additionally an exact
radial-reduction path: the sphere moment of |F|^p is a common factor of
numerator and denominator, so the separable quotients cancel it without
computing it and report the radial factors alone.  Every radial integral
is one loop over the profile's segments: closed forms on "power"
segments, one-dimensional ``quad`` on "numeric" (collar and cutoff)
segments, nothing on "zero" ones; a profile without segments is one
numeric segment.  This is the route the sharpness sweeps use, since
power-law tails defeat the gamma importance density.
``separable_mass`` multiplies the moment back in where the absolute
weighted mass is wanted.

scipy is imported on first use, not with this module, so the constants
tables, the certificate solve and the field checks never load it:
``scipy.integrate.quad`` when a radial integral first needs ``quad``,
and ``scipy.special.gammaln`` when the Monte Carlo sampler first
normalizes its radial density.  ``gammaln`` is not swapped for
``math.lgamma``: the two differ in the last bits for many arguments, which
would change the Monte Carlo estimates and the CLI bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import (
    ConstantValue,
    FunctionClass,
    Functional,
    Params,
    reference_constant,
)
from .errors import (
    DegenerateSampleError,
    DomainError,
    SymmetryClassError,
    UnsupportedDimensionError,
)
from .polynomials import row_dot
from .trials import TrialFunction

__all__ = [
    "QuadratureConfig",
    "Estimate",
    "QuotientReport",
    "sphere_area",
    "sphere_grid",
    "mc_integral",
    "product_integral",
    "hardy_numerator",
    "hardy_denominator",
    "rellich_numerator",
    "rellich_denominator",
    "rayleigh_quotient",
    "angular_moment",
    "vandermonde_sphere_moment_p2",
    "separable_hardy_quotient",
    "separable_rellich_quotient",
    "separable_mass",
]

MAX_PRODUCT_DIM = 4
DEGENERATE_FRACTION = 1e-3
# Largest number of points per integrand call, in both engines.  Blocks are
# stored column-major and the kernels work column by column, so most
# temporaries are (n,) float arrays of at most 80 kB: small enough to be
# reused from the heap rather than mapped and page-faulted afresh (glibc
# maps 128 KiB and up).  The product rule groups whole radii until a block
# would exceed it.
_BLOCK = 10_000
_NON_INTEGRABLE = (
    "non-positive radial shape: the integrand is not integrable near the "
    "origin for these parameters"
)


@dataclass(frozen=True)
class QuadratureConfig:
    """Engine selection and its reproducibility-relevant knobs.

    ``samples`` is checked only for the MC engine: the product rule never
    reads it.
    """

    method: str = "mc"  # "mc" or "product"
    samples: int = 200_000
    seed: int = 0
    n_streams: int = 8
    r_min: float = 1e-6
    r_max: float = 40.0
    radial_nodes: int = 200
    angular_nodes: int = 48

    def __post_init__(self):
        if self.method not in ("mc", "product"):
            raise DomainError(
                f"method must be 'mc' or 'product', got {self.method!r}"
            )
        if self.method == "mc":
            _check_samples(self.samples)
        for name, least in (("seed", 0), ("n_streams", 1),
                            ("radial_nodes", 1), ("angular_nodes", 1)):
            if getattr(self, name) < least:
                raise DomainError(
                    f"{name} must be >= {least}, got {getattr(self, name)}"
                )
        if not 0.0 <= self.r_min < self.r_max:
            raise DomainError(
                f"radial cutoffs must satisfy 0 <= r_min < r_max, got "
                f"r_min={self.r_min}, r_max={self.r_max}"
            )


def _check_samples(samples):
    if samples < 2:  # one sample has variance 0: no error bar
        raise DomainError(f"samples must be >= 2, got {samples}")


@dataclass(frozen=True)
class Estimate:
    """An integral estimate with a one-sigma (or refinement) error bar."""

    value: float
    error: float
    n: int
    degenerate: int = 0
    method: str = "mc"


@dataclass(frozen=True)
class QuotientReport:
    """A Rayleigh quotient against its reference constant.

    ``margin`` is (quotient - constant) in units of the propagated
    combined error; the report only treats the comparison as conclusive
    when |margin| >= 2.

    The separable quotients report the radial factors of numerator and
    denominator (``method="separable"``, ``n=0``): the sphere moment of
    the angular factor cancels from the quotient and is never computed.
    """

    numerator: Estimate
    denominator: Estimate
    quotient: float
    quotient_error: float
    reference_constant: float
    margin: float
    functional: str
    formula_id: str

    @property
    def conclusive(self):
        return abs(self.margin) >= 2.0

    @property
    def violation(self):
        return self.margin < -2.0


def sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@lru_cache(maxsize=None)
def _leggauss(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


@lru_cache(maxsize=None)
def sphere_grid(d, n):
    """Nodes and weights integrating over the unit sphere S^(d-1), d <= 4.

    The rule is built once per (d, n) and returned read-only.
    """
    pts, W = _sphere_rule(d, n)
    pts.flags.writeable = False
    W.flags.writeable = False
    return pts, W


def _sphere_rule(d, n):
    if d < 1:
        raise UnsupportedDimensionError("d must be >= 1")
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        theta = 2.0 * math.pi * np.arange(n) / n
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts, np.full(n, 2.0 * math.pi / n)
    if d > MAX_PRODUCT_DIM:
        raise UnsupportedDimensionError(
            f"the tensor sphere rule is offered for d <= {MAX_PRODUCT_DIM}; "
            "use the Monte Carlo engine beyond that"
        )
    grids = []
    for k in range(1, d - 1):
        nodes, wts = _leggauss(n)
        theta = 0.5 * math.pi * (nodes + 1.0)
        w = 0.5 * math.pi * wts * np.sin(theta) ** (d - 1 - k)
        grids.append((theta, w))
    phi = 2.0 * math.pi * np.arange(n) / n
    grids.append((phi, np.full(n, 2.0 * math.pi / n)))
    mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
    wmesh = np.meshgrid(*[g[1] for g in grids], indexing="ij")
    W = np.ones_like(mesh[0])
    for wm in wmesh:
        W = W * wm
    angles = [m.ravel() for m in mesh]
    W = W.ravel()
    pts = np.empty((len(W), d))
    sin_prod = np.ones(len(W))
    for k in range(d - 1):
        pts[:, k] = sin_prod * np.cos(angles[k])
        sin_prod = sin_prod * np.sin(angles[k])
    pts[:, d - 1] = sin_prod
    return pts, W


def _chunk_sizes(total, parts):
    base = total // parts
    sizes = [base] * parts
    for i in range(total - base * parts):
        sizes[i] += 1
    return [s for s in sizes if s > 0]


def _tree_reduce(stats):
    # Fixed pairwise reduction keeps the estimate independent of how the
    # streams would be scheduled concurrently.
    stats = list(stats)
    while len(stats) > 1:
        nxt = []
        for i in range(0, len(stats) - 1, 2):
            a, b = stats[i], stats[i + 1]
            nxt.append(tuple(x + y for x, y in zip(a, b)))
        if len(stats) % 2:
            nxt.append(stats[-1])
        stats = nxt
    return stats[0]


def mc_integral(fn, d, config: QuadratureConfig, radial_shape, radial_scale):
    """Importance-sampled estimate of the integral of fn over R^d.

    ``radial_shape`` (k) and ``radial_scale`` (s) define the radial
    proposal density r^(k-1) exp(-r^2 / (2 s^2)).  Non-finite integrand
    samples are zeroed and counted; more than 0.1 percent of them aborts.
    ``fn`` is called on column-major blocks of at most ``_BLOCK`` points.
    """
    (estimate,) = _mc_streams(
        d, config, [(radial_shape, radial_scale)], lambda X, _: [fn(X)]
    )
    return estimate


def _mc_streams(d, config: QuadratureConfig, proposals, evaluate):
    """``mc_integral`` for several integrals in one pass over the streams.

    ``proposals[i]`` is the (shape, scale) pair of integral i.  Each
    stream draws its directions once; every distinct proposal then replays
    the generator state that follows them and draws its radii, so integral
    i gets exactly the points of ``mc_integral`` with its own proposal.
    ``evaluate(X, members)`` returns the integrand values at X, one block
    of a stream, of the integrals listed in ``members``, which all drew X.
    One stream's draws are held at a time.
    """
    # scipy's gammaln, not math.lgamma: they differ in the last bits.
    from scipy.special import gammaln

    _check_samples(config.samples)
    groups = {}
    for i, (k, s) in enumerate(proposals):
        if k <= 0.0:
            raise DomainError(_NON_INTEGRABLE)
        groups.setdefault((float(k), float(s)), []).append(i)
    area = sphere_area(d)
    log_norm = {
        (k, s): (k / 2.0 - 1.0) * math.log(2.0) + gammaln(k / 2.0)
        + k * math.log(s)
        for k, s in groups
    }
    sizes = _chunk_sizes(config.samples, config.n_streams)
    if sizes[0] * d * 8 > np.iinfo(np.intp).max:  # numpy's largest array
        raise DomainError(f"samples={config.samples} is too large to draw")
    children = np.random.SeedSequence(config.seed).spawn(config.n_streams)
    stats = [[] for _ in proposals]
    for child, m in zip(children, sizes):
        rng = np.random.default_rng(child)
        z = rng.standard_normal((m, d))
        norms = np.sqrt(row_dot(z, z))
        norms[norms == 0.0] = 1.0
        after_directions = rng.bit_generator.state
        for (k, s), members in groups.items():
            rng.bit_generator.state = after_directions
            r = s * np.sqrt(rng.gamma(k / 2.0, 2.0, size=m))
            # Each integral's weighted values over the whole stream, filled
            # block by block: the sums below see one array per stream.
            weighted = [np.empty(m) for _ in members]
            for lo in range(0, m, _BLOCK):
                rb = r[lo:lo + _BLOCK]
                scale = rb / norms[lo:lo + _BLOCK]
                XT = np.empty((d, len(rb)))
                for out, column in zip(XT, z[lo:lo + _BLOCK].T):
                    np.multiply(column, scale, out=out)
                X = XT.T
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    values = evaluate(X, members)
                    logw = ((d - k) * np.log(rb) + rb * rb / (2.0 * s * s)
                            + log_norm[k, s])
                    density = area * np.exp(logw)
                    outside = (rb < config.r_min) | (rb > config.r_max)
                    for w, vals in zip(weighted, values):
                        vals = np.asarray(vals, dtype=float)
                        w[lo:lo + _BLOCK] = np.where(
                            outside | (vals == 0.0), 0.0, density * vals)
            for i, w in zip(members, weighted):
                bad = ~np.isfinite(w)
                w[bad] = 0.0
                stats[i].append(
                    (m, float(w.sum()), float((w * w).sum()), int(bad.sum()))
                )
    estimates = []
    for per_stream in stats:
        n, s1, s2, degen = _tree_reduce(per_stream)
        if degen > DEGENERATE_FRACTION * n:
            raise DegenerateSampleError(
                f"{degen} of {n} integrand samples were non-finite"
            )
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        estimates.append(Estimate(mean, math.sqrt(var / n), n, degen, "mc"))
    return estimates


def _product_pass(d, nr, na, r_lo, r_hi, n_integrands, evaluate):
    """One tensor rule on [r_lo, r_hi]: per integrand, the sum and the
    number of non-finite nodes, and the node count.

    ``evaluate(X, members)`` is called once per block of whole radii, with
    every integrand as a member; only that block's values are held.
    """
    nodes, wts = _leggauss(nr)
    s_lo, s_hi = math.log(r_lo), math.log(r_hi)
    svals = 0.5 * (s_hi + s_lo) + 0.5 * (s_hi - s_lo) * nodes
    swts = 0.5 * (s_hi - s_lo) * wts
    r = np.exp(svals)
    pts, aw = sphere_grid(d, na)
    step = max(1, _BLOCK // len(aw))
    members = range(n_integrands)
    totals = [0.0] * n_integrands
    degen = [0] * n_integrands
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(r), step):
            rb, wb = r[lo:lo + step], swts[lo:lo + step]
            XT = np.empty((d, len(rb), len(aw)))
            for out, column in zip(XT, pts.T):
                np.multiply.outer(rb, column, out=out)
            X = XT.reshape(d, -1).T
            rows = []
            for i, vals in zip(members, evaluate(X, members)):
                vals = np.asarray(vals, dtype=float).reshape(len(rb), len(aw))
                finite = np.isfinite(vals)
                if not finite.all():
                    degen[i] += vals.size - int(np.count_nonzero(finite))
                    vals = np.where(finite, vals, 0.0)
                rows.append(vals)
            # Radius by radius in node order: a vectorized sum rounds
            # differently and would change the output bytes.
            for k, (ri, wi) in enumerate(zip(rb, wb)):
                weight = wi * ri**d
                for i, vals in enumerate(rows):
                    totals[i] += weight * float(aw @ vals[k])
    return totals, degen, len(r) * len(aw)


def _product_passes(d, config: QuadratureConfig, n_integrands, evaluate):
    """``product_integral`` of several integrands, on grids they share.

    Each of the three grids (fine, half the node counts, half ``r_min``)
    is built once and ``evaluate(X, members)`` returns the values of every
    integrand at its blocks, as in ``_mc_streams``.  Integrand i sums
    exactly the terms of ``product_integral`` of its own, and a degenerate
    integrand raises the message of the first such call.
    """
    nr, na, r_hi = config.radial_nodes, config.angular_nodes, config.r_max
    r_lo = max(config.r_min, 1e-12)
    if not r_lo < r_hi < math.inf:
        raise DomainError("the product rule needs finite radial cutoffs")
    grids = [(nr, na, r_lo),
             (max(nr // 2, 8), max(na // 2, 4), r_lo),
             (nr, na, max(config.r_min / 2.0, 1e-12))]
    (fine, degen, n), (coarse_nodes, _, _), (coarse_rmin, _, _) = [
        _product_pass(d, *grid, r_hi, n_integrands, evaluate)
        for grid in grids
    ]
    estimates = []
    for i in range(n_integrands):
        if degen[i] > DEGENERATE_FRACTION * n:
            raise DegenerateSampleError(
                f"{degen[i]} of {n} quadrature nodes non-finite")
        err = (
            2.0 * (abs(fine[i] - coarse_nodes[i])
                   + abs(fine[i] - coarse_rmin[i]))
            + 1e-15 * abs(fine[i])
        )
        estimates.append(Estimate(fine[i], err, n, degen[i], "product"))
    return estimates


def product_integral(fn, d, config: QuadratureConfig):
    """Log-radial Gauss-Legendre times tensor sphere rule.

    The error estimate combines two Richardson-style deltas, one against
    half the node counts and one against half the inner cutoff, kept
    separate so they cannot cancel; halving r_min therefore always moves
    the estimate by less than one error bar.  ``fn`` is called on
    column-major blocks of whole radii, at most ``_BLOCK`` points where a
    radius's sphere rule fits.
    """
    (estimate,) = _product_passes(d, config, 1, lambda X, _: [fn(X)])
    return estimate


# ---------------------------------------------------------------------------
# Weighted functional integrands.


def _origin_shift(u: TrialFunction):
    if u.radial.kind == "piecewise_power":
        return -u.radial.meta["alpha_in"]
    return 0.0


def _radial_scale(u: TrialFunction, p):
    sigma = u.radial.sigma if u.radial.sigma is not None else 1.0
    return sigma / math.sqrt(p)


def _radial_shape(u: TrialFunction, params: Params, weight_p, gradient=False):
    """Shape k of the radial density r^(k-1) exp(-r^2 / (2 s^2)) for
    |D u|^p |x|^(-weight_p p - gamma), with D the gradient when
    ``gradient`` is set and the value or the Laplacian otherwise.

    k matches the integrand's power at the origin for Gaussian-profile
    trials.  k <= 0 means the integrand is not integrable there, and every
    engine and both separable quotients refuse it.
    """
    p = params.p
    lam = u.angular.homogeneity + _origin_shift(u)
    if gradient:
        lam = lam - 1.0 if lam > 0.0 else 1.0
    k = p * lam + params.d - weight_p * p - params.gamma
    if k <= 0.0:
        raise DomainError(_NON_INTEGRABLE)
    return k


def _weight(sq, exponent):
    """|x|^(-exponent) from sq = |x|^2."""
    if exponent == 0.0:
        return 1.0
    return sq ** (-exponent / 2.0)


# The numerator and the denominator of each functional's quotient as
# (order, w): the integrand |D u|^p |x|^(-w p - gamma), where D u is u,
# grad u or Delta u for order 0, 1 or 2.
_INTEGRANDS = {
    Functional.HARDY: ((1, 0), (0, 1)),
    Functional.RELLICH: ((2, 0), (0, 2)),
}


def _integrand_values(u: TrialFunction, params: Params, terms):
    """``evaluate(X, members)`` for the integrands ``terms[i]``, i in
    members: the value, the gradient and the Laplacian come from one
    ``u.evaluate``."""
    p, gamma = params.p, params.gamma

    def evaluate(X, members):
        orders = [terms[i][0] for i in members]
        sq, value, grad, lap = u.evaluate(X, gradient=1 in orders,
                                          laplacian=2 in orders)
        out = []
        for i in members:
            order, w = terms[i]
            if order == 0:
                base = np.abs(value) ** p
            elif order == 1:
                base = row_dot(grad, grad) ** (p / 2.0)
            else:
                base = np.abs(lap) ** p
            out.append(base * _weight(sq, w * p + gamma))
        return out

    return evaluate


def _estimates(u: TrialFunction, params: Params, config: QuadratureConfig,
               terms):
    """Estimates of the integrands ``terms`` (see ``_INTEGRANDS``).

    Every shape is checked before any integration.  Both engines serve
    all of them from one pass: the MC engine over its streams, the product
    rule over each of its grids.
    """
    scale = _radial_scale(u, params.p)
    proposals = [
        (_radial_shape(u, params, w, gradient=order == 1), scale)
        for order, w in terms
    ]
    evaluate = _integrand_values(u, params, terms)
    if config.method == "product":
        return _product_passes(params.d, config, len(terms), evaluate)
    return _mc_streams(params.d, config, proposals, evaluate)


def hardy_numerator(u: TrialFunction, params: Params, config: QuadratureConfig):
    """Estimate of the integral of |grad u|^p |x|^(-gamma)."""
    return _estimates(u, params, config, [(1, 0)])[0]


def hardy_denominator(u: TrialFunction, params: Params, config: QuadratureConfig):
    """Estimate of the integral of |u|^p |x|^(-p-gamma)."""
    return _estimates(u, params, config, [(0, 1)])[0]


def rellich_numerator(u: TrialFunction, params: Params, config: QuadratureConfig):
    """Estimate of the integral of |Delta u|^p |x|^(-gamma)."""
    return _estimates(u, params, config, [(2, 0)])[0]


def rellich_denominator(u: TrialFunction, params: Params, config: QuadratureConfig):
    """Estimate of the integral of |u|^p |x|^(-2p-gamma)."""
    return _estimates(u, params, config, [(0, 2)])[0]


def _check_tag(u: TrialFunction, params: Params):
    if u.class_tag is not params.klass:
        raise SymmetryClassError(
            f"trial is tagged {u.class_tag.value}, params declare "
            f"{params.klass.value}"
        )


def _report(num: Estimate, den: Estimate, quotient, q_err,
            ref: ConstantValue, functional):
    """The report, with margin (quotient - constant) / q_err.  Without an
    error bar the comparison is exact: infinitely many sigmas on the side
    where the quotient lies, or 0 when it equals the constant."""
    diff = quotient - ref.value
    if q_err > 0.0:
        margin = diff / q_err
    else:
        margin = math.copysign(math.inf, diff) if diff else 0.0
    return QuotientReport(num, den, quotient, q_err, ref.value, margin,
                          functional.value, ref.formula_id)


def _build_report(num: Estimate, den: Estimate, ref: ConstantValue, functional):
    if den.value <= 0.0:
        raise DomainError("denominator estimate is not positive")
    quotient = num.value / den.value
    rel = math.hypot(num.error / num.value if num.value else 0.0,
                     den.error / den.value)
    return _report(num, den, quotient, abs(quotient) * rel, ref, functional)


def rayleigh_quotient(
    u: TrialFunction,
    functional: Functional,
    params: Params,
    config: QuadratureConfig,
):
    """Quotient of the weighted energy by the weighted mass, with margin.

    The trial's class, that of its angular factor, must be the class the
    params declare; inadmissible reference constants refuse with their
    condition residual.  Both checks come before any integration.
    """
    _check_tag(u, params)
    ref = reference_constant(params, functional)
    if not ref.admissible:
        raise DomainError(
            f"reference constant {ref.formula_id} is inadmissible for "
            f"(d={params.d}, p={params.p}, gamma={params.gamma}); "
            f"condition residual {ref.condition_residual}"
        )
    num, den = _estimates(u, params, config, _INTEGRANDS[functional])
    return _build_report(num, den, ref, functional)


# ---------------------------------------------------------------------------
# Separable (radial-reduction) path.


def vandermonde_sphere_moment_p2(d):
    """Closed form of the squared Vandermonde moment over the sphere.

    Follows from the classical Gaussian ensemble normalization
    integral of prod |x_i - x_j|^2 exp(-|x|^2/2) = (2 pi)^(d/2) prod_j j!.
    """
    lam = d * (d - 1) / 2.0
    log_sf = sum(math.lgamma(j + 1) for j in range(1, d + 1))
    log_m = (
        (d / 2.0) * math.log(2.0 * math.pi)
        + log_sf
        - (lam + d / 2.0 - 1.0) * math.log(2.0)
        - math.lgamma(lam + d / 2.0)
    )
    return math.exp(log_m)


def angular_moment(factor, p, nodes=96):
    """Sphere integral of |F|^p by the tensor rule (d <= 4)."""
    pts, w = sphere_grid(factor.dimension, nodes)
    fine = float(w @ np.abs(factor.value(pts)) ** p)
    pts_c, w_c = sphere_grid(factor.dimension, max(nodes // 2, 4))
    coarse = float(w_c @ np.abs(factor.value(pts_c)) ** p)
    return Estimate(fine, abs(fine - coarse) + 1e-15 * abs(fine),
                    len(w), 0, "product")


def _power_primitive(lo, hi, q):
    if lo < 0.0:
        raise DomainError("radial bounds must be nonnegative")
    if hi == math.inf:
        if q >= -1.0:
            raise DomainError("divergent tail integral")
        return -(lo ** (q + 1.0)) / (q + 1.0)
    if lo == 0.0 and q <= -1.0:
        raise DomainError("divergent integral at the origin")
    if q == -1.0:
        return math.log(hi / lo)
    return (hi ** (q + 1.0) - lo ** (q + 1.0)) / (q + 1.0)


def quad(fn, lo, hi, **kwargs):
    """``scipy.integrate.quad``, imported on the first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(fn, lo, hi, **kwargs)


def _quad(fn, lo, hi):
    # Looks ``quad`` up as a module global on every call, so patching
    # ``quadrature.quad`` reaches every radial integral.
    try:
        return quad(fn, lo, hi, limit=200)
    except OverflowError as exc:
        raise DomainError(
            f"radial integral overflows on [{lo:g}, {hi:g}]"
        ) from exc


def _radial_integrals(profile, terms):
    """Integrals over (0, inf) of each term, and their summed quad error.

    A term is (integrand, closed): ``integrand(r)`` is integrated by
    ``quad`` on "numeric" segments, ``closed(lo, hi, rho)`` gives the
    integral over a "power" segment where psi = r^(-rho), and "zero"
    segments add nothing.  A profile without segments is one numeric
    segment on (0, inf).
    """
    totals = [0.0] * len(terms)
    err = 0.0
    segments = profile.segments or (("numeric", 0.0, math.inf),)
    for kind, lo, hi, *rho in segments:
        if kind == "power":
            for i, (_, closed) in enumerate(terms):
                totals[i] += closed(lo, hi, *rho)
        elif kind == "numeric":
            results = [_quad(integrand, lo, hi) for integrand, _ in terms]
            totals = [t + value for t, (value, _) in zip(totals, results)]
            err += sum(error for _, error in results)
    return totals, err


def _mass_term(profile, m, p):
    """r^m psi^p."""
    return (
        lambda r: r**m * float(profile.psi(r)) ** p,
        lambda lo, hi, rho: _power_primitive(lo, hi, m - p * rho),
    )


def _second_order_term(profile, m, p, c):
    """r^m |psi'' + c psi'/r|^p."""
    dpsi, d2psi = profile.dpsi, profile.d2psi
    return (
        lambda r: r**m * abs(float(d2psi(r)) + c * float(dpsi(r)) / r) ** p,
        lambda lo, hi, rho: (abs(rho * (rho + 1.0 - c)) ** p
                             * _power_primitive(lo, hi, m - p * (rho + 2.0))),
    )


def _hardy_terms(profile, q0):
    """r^q0 psi^2, r^(q0+1) psi psi' and r^(q0+2) psi'^2."""
    psi, dpsi = profile.psi, profile.dpsi
    mass, base = _mass_term(profile, q0, 2.0)
    return (
        (mass, base),
        (lambda r: r ** (q0 + 1.0) * float(psi(r)) * float(dpsi(r)),
         lambda lo, hi, rho: -rho * base(lo, hi, rho)),
        (lambda r: r ** (q0 + 2.0) * float(dpsi(r)) ** 2,
         lambda lo, hi, rho: rho * rho * base(lo, hi, rho)),
    )


def separable_mass(u: TrialFunction, params: Params, weight_exponent):
    """Factorized weighted mass: angular moment times a radial integral.

    ``weight_exponent`` is the power of |x| dividing |u|^p (p + gamma for
    the Hardy denominator, 2p + gamma for the Rellich one).
    """
    p, d = params.p, params.d
    lam = u.angular.homogeneity
    mom = angular_moment(u.angular, p)
    m = p * lam + d - 1.0 - weight_exponent
    (rad,), rad_err = _radial_integrals(u.radial, [_mass_term(u.radial, m, p)])
    err = abs(rad) * mom.error + mom.value * rad_err
    return Estimate(mom.value * rad, err, mom.n, 0, "separable")


def _separable_homogeneity(u: TrialFunction, params: Params):
    """The degree of u's angular factor, once the reduction applies."""
    _check_tag(u, params)
    if u.class_tag is FunctionClass.GENERAL:
        raise DomainError(
            "the separable reduction is offered for the antisymmetric and "
            "odd classes"
        )
    return u.angular.homogeneity


def separable_hardy_quotient(u: TrialFunction, params: Params):
    """Exact radial reduction of the Hardy quotient for p = 2.

    For u = F psi with F a degree-lam spherical harmonic, the sphere
    moment of |grad F|^2 equals lam (2 lam + d - 2) times that of F^2, so
    the quotient reduces to one-dimensional integrals of the profile; the
    report carries them, without the moment, as its numerator and
    denominator.
    """
    d, gamma = params.d, params.gamma
    if abs(params.p - 2.0) > 1e-12:
        raise DomainError("the radial reduction of the gradient needs p = 2")
    lam = _separable_homogeneity(u, params)
    _radial_shape(u, params, 1)
    q0 = 2.0 * lam + d - 3.0 - gamma
    (i1, i2, i3), err = _radial_integrals(u.radial, _hardy_terms(u.radial, q0))
    if i1 <= 0.0:
        raise DomainError("degenerate radial mass")
    g2_over_m2 = lam * (2.0 * lam + d - 2.0)
    # Not num / den: the division rounds differently.
    quotient = g2_over_m2 + (2.0 * lam * i2 + i3) / i1
    num = Estimate(g2_over_m2 * i1 + 2.0 * lam * i2 + i3, err, 0, 0,
                   "separable")
    den = Estimate(i1, err, 0, 0, "separable")
    ref = reference_constant(params, Functional.HARDY)
    q_err = max(err * (1.0 + abs(quotient)) / i1, 1e-14 * abs(quotient))
    return _report(num, den, quotient, q_err, ref, Functional.HARDY)


def separable_rellich_quotient(u: TrialFunction, params: Params):
    """Radial reduction of the Rellich quotient (any p >= 1).

    Delta(F psi) = F (psi'' + (d - 1 + 2 lam) psi'/r) for harmonic
    homogeneous F, so numerator and denominator share the angular moment
    and the quotient is a ratio of radial integrals; the report carries
    those radial integrals as its numerator and denominator.
    """
    p, d, gamma = params.p, params.d, params.gamma
    lam = _separable_homogeneity(u, params)
    _radial_shape(u, params, 2)
    c = d - 1.0 + 2.0 * lam
    m_num = p * lam + d - 1.0 - gamma
    m_den = p * lam + d - 1.0 - 2.0 * p - gamma
    num_term = _second_order_term(u.radial, m_num, p, c)
    (num_rad,), num_err = _radial_integrals(u.radial, [num_term])
    den_term = _mass_term(u.radial, m_den, p)
    (den_rad,), den_err = _radial_integrals(u.radial, [den_term])
    if den_rad <= 0.0:
        raise DomainError("degenerate radial mass")
    quotient = num_rad / den_rad
    num = Estimate(num_rad, num_err, 0, 0, "separable")
    den = Estimate(den_rad, den_err, 0, 0, "separable")
    ref = reference_constant(params, Functional.RELLICH)
    rel = num_err / num_rad + den_err / den_rad
    q_err = max(abs(quotient) * rel, 1e-14 * abs(quotient))
    return _report(num, den, quotient, q_err, ref, Functional.RELLICH)

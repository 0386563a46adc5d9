"""Integration engines for Hardy and Rellich functionals over R^d.

Two generic engines are exposed through ``QuadratureConfig.method``:

* ``mc``: importance-sampled Monte Carlo.  Directions are uniform on the
  sphere; radii follow a generalized-gamma density r^(k-1) exp(-r^2/2s^2)
  whose shape k is matched to the integrand's power near the origin, and
  the integrand's power of r joins the density's, so none is taken where
  they cancel.  Streams of at most ``_BLOCK`` points draw from SFC64
  generators seeded by the children of ``SeedSequence(seed)``, and
  ``math.fsum`` adds their sums: estimates are bit-identical given (seed,
  samples), in memory that does not grow with samples.  A stream draws
  one direction per orbit of up to four, its images under sign flips of
  x_0 and x_1, and error bars come from the orbits' totals.  A quotient's
  two integrals share each stream's directions, and its error bar is the
  ratio estimator's.  Each radial shape draws its radii from the generator
  state after them, as separate ``mc_integral`` calls would; a Gaussian
  trial's mass draws none, being |F|^p times the density's closed-form
  mass P on [r_min, r_max].  An integral's error bar is at least 1e-14 of
  it, and such a mass's at least the share 1 - P that the cutoffs leave
  out.
* ``product``: a log-radial Gauss-Legendre rule times a tensor angular
  rule on the sphere (d <= 4).  The reported error is the change under
  halving both node counts.  Whole radii are grouped into blocks of at
  most ``_BLOCK`` nodes.  A quotient's numerator and denominator share
  each of the three grids (fine, half the node counts, half ``r_min``),
  and their integrands come from the ``mc`` engine's kernel, factored on
  x = r w: the angular parts once per sphere grid, the radial once per
  block.  Each radius's sphere sum is numpy's pairwise sum, a fixed
  order, and radii are added in node order.  A term linear in the
  angular parts (all but the gradient's at p != 2) takes its sphere sums
  as radial factors times the parts' sums, unless a value could overflow.

For separable trials u = F psi(|x|) there is additionally an exact
radial-reduction path: the sphere moment of |F|^p is a common factor of
numerator and denominator, so the separable quotients cancel it without
computing it and report the radial factors alone.  They read the same
``_INTEGRANDS`` rows as the engines, one radial term r^m |D psi|^p per
row, D of the row's derivative order; the Hardy quotient's cross term
is integrated by parts.  Every radial integral is one loop over the
profile's segments: closed forms on "power" segments, out to infinity
for the sharpness family's outer power, and one-dimensional ``quad`` on
"numeric" ones (the family's collar); a profile without segments is one
numeric segment.  This is the route the sharpness sweeps use, since
power-law tails defeat the gamma importance density.

``quad`` is a numpy double-exponential rule and the Monte Carlo sampler
normalizes its radial density with ``math.lgamma``, so every engine runs
on numpy and the standard library alone.
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
from .polynomials import row_dot, row_sum
from .trials import TrialFunction

__all__ = [
    "QuadratureConfig",
    "Estimate",
    "QuotientReport",
    "sphere_area",
    "sphere_grid",
    "mc_integral",
    "product_integral",
    "rayleigh_quotient",
    "angular_moment",
    "separable_hardy_quotient",
    "separable_rellich_quotient",
]

MAX_PRODUCT_DIM = 4
DEGENERATE_FRACTION = 1e-3
# Largest number of points per integrand call, in both engines.  Blocks are
# stored column-major and the kernels work column by column, so most
# temporaries are (n,) float arrays of at most 80 kB: small enough to be
# reused from the heap rather than mapped and page-faulted afresh (glibc
# maps 128 KiB and up).  A Monte Carlo stream is one block; the product rule
# groups whole radii until a block would exceed it.
_BLOCK = 10_000
# Most normal draws for one call's directions, samples by d.  Memory stays
# within one block whatever the count; the bound keeps a mistyped count,
# such as 1e10, from running for hours.
_MAX_DRAWS = 2**30
# quad's first step, t-ranges (multiples of 2 _DE_STEP: tanh-sinh weights
# < 1e-58 at |t| = 4.5; exp-sinh x - lo from 1e-226 to 4e18), tolerance
# and most halvings.
_DE_STEP, _DE_T, _DE_T_EXP = 1.0 / 32.0, (-4.5, 4.5), (-6.5, 4.0)
_DE_REL, _DE_LEVELS = 1e-14, 6
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
        for name, least in (("seed", 0), ("radial_nodes", 1),
                            ("angular_nodes", 1)):
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
    """Read-only ascending Gauss-Legendre nodes and weights on [-1, 1] by
    Newton's method on the recurrence from cos(pi (k - 1/4) / (n + 1/2))
    (Hale and Townsend, 2013), on y = 1 - x and stepping P_(j+1) - P_j so
    that y and 2 / ((1 - x^2) P_n'(x)^2) keep their precision at x = 1."""
    theta = math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    y = 2.0 * np.sin(0.5 * theta) ** 2
    if n % 2:
        y[-1] = 1.0  # x = 0, an exact root of P_n for odd n
    for sweep in range(100):
        prev, pn, dn = np.ones_like(y), 1.0 - y, -y
        for j in range(1, n):
            dn = (j * dn - (2 * j + 1) * y * pn) / (j + 1)
            prev, pn = pn, pn + dn
        dpn = n * (prev - (1.0 - y) * pn) / (y * (2.0 - y))
        if sweep and (np.abs(step) <= 1e-9 * y).all():
            break  # quadratic: the next step would be below rounding
        step = pn / dpn
        y = y + step
    w = 2.0 / (y * (2.0 - y) * dpn * dpn)
    nodes = np.concatenate([y[:n // 2] - 1.0, (1.0 - y)[::-1]])
    wts = np.concatenate([w[:n // 2], w[::-1]])
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


@lru_cache(maxsize=None)
def sphere_grid(d, n):
    """Nodes and weights integrating over the unit sphere S^(d-1), d <= 4.

    The rule is built once per (d, n) and returned read-only.
    """
    pts, W = _sphere_rule(d, n)
    pts.flags.writeable = W.flags.writeable = False
    return pts, W


def _sphere_rule(d, n):
    if d < 1:
        raise UnsupportedDimensionError("d must be >= 1")
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
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
    W = np.prod(np.meshgrid(*[g[1] for g in grids], indexing="ij"),
                axis=0).ravel()
    angles = [m.ravel() for m in mesh]
    pts = np.empty((len(W), d))
    sin_prod = np.ones(len(W))
    for k in range(d - 1):
        pts[:, k] = sin_prod * np.cos(angles[k])
        sin_prod = sin_prod * np.sin(angles[k])
    pts[:, d - 1] = sin_prod
    return pts, W


def mc_integral(fn, d, config: QuadratureConfig, radial_shape, radial_scale):
    """Importance-sampled estimate of the integral of fn over R^d.

    ``radial_shape`` (k) and ``radial_scale`` (s) define the radial
    proposal density r^(k-1) exp(-r^2 / (2 s^2)).  Non-finite integrand
    samples are zeroed and counted; more than 0.1 percent of them aborts.
    ``fn`` is called once per stream, on its at most ``_BLOCK`` points
    x = r w, built column-major by ``_points_values``.
    """
    (estimate,), _ = _mc_streams(d, config, [(radial_shape, radial_scale)],
                                 _points_values([fn]))
    return estimate


def _chi_mass(k, s, lo, hi):
    """P(lo <= s X <= hi), X chi with k degrees of freedom, from P(k/2, t^2 /
    2s^2): its series below k/2 + 1, above it the continued fraction of
    1 - P, 400 terms each: to rounding for k up to a few thousand."""
    a = k / 2.0

    def lower(x):
        if not 0.0 < x < math.inf:
            return float(x > 0.0)
        front = math.exp(a * math.log(x) - x - math.lgamma(a))
        if x < a + 1.0:
            ratios = x / (a + np.arange(1.0, 400.0))
            return front / a * (1.0 + np.cumprod(ratios).sum())
        tail = 0.0
        for i in range(400, 0, -1):
            tail = i * (a - i) / (x + 2.0 * i + 1.0 - a + tail)
        return 1.0 - front / (x + 1.0 - a + tail)

    return lower(hi / s * (0.5 * hi / s)) - lower(lo / s * (0.5 * lo / s))


def _mc_streams(d, config: QuadratureConfig, proposals, kernel, exact=()):
    """``mc_integral`` for several integrals in one pass over the streams,
    and the covariance of the first and the last estimate.

    ``proposals[i]`` is the (shape, scale) pair of integral i.  A stream is
    one block of m <= ``_BLOCK`` samples with its own SFC64 generator,
    seeded by the next child of ``SeedSequence(seed)``.  It draws its b =
    m / g directions once, g = gcd(m, 2^min(d - 1, 2)): 4 for a full block
    from d = 3, 2 at d = 2, 1 for an odd m.  Sign pattern j, flipping x_0
    for odd j and x_1 for j >= 2, fills columns j b to (j + 1) b of the
    column-major (d, m) directions, so the g points k + j b are an orbit.
    Every distinct proposal then replays the generator state that follows
    the draw and draws its m radii, so integral i gets exactly the points
    of ``mc_integral`` with its own proposal.
    ``kernel`` is an (angular, evaluate) pair as ``_factored_integrands``
    returns: per stream, ``angular(w)`` is called once on its directions,
    and ``evaluate(r, parts, members)`` once per proposal on its radii, its
    values lacking r^a (a from ``evaluate.powers``).  An integral in
    ``exact`` is the first part times its density: it draws no radii, and
    weighs that part by the density's normalization and mass on [r_min,
    r_max].  The orbits are independent, their points not: each stream
    leaves per integral a sum, a sum of squares of its b orbit totals
    about their mean and a non-finite count, and the first and last
    integrals' cross sum of orbit totals; ``fsum`` adds them exactly: no
    variance cancels mean^2.  At g = 1 an orbit is one point.
    """
    _check_samples(config.samples)
    if config.samples * d > _MAX_DRAWS:
        raise DomainError(f"samples={config.samples} is too large to draw")
    angular, evaluate = kernel
    groups, log_z = {}, []
    for i, (k, s) in enumerate(proposals):
        if k <= 0.0:
            raise DomainError(_NON_INTEGRABLE)
        # The density's normalization, times the sphere's area.
        log_z.append((k / 2.0 - 1.0) * math.log(2.0) + math.lgamma(k / 2.0)
                     + k * math.log(s) + math.log(sphere_area(d)))
        if i not in exact:
            groups.setdefault((float(k), float(s)), []).append(i)
    inside = {i: _chi_mass(*proposals[i], config.r_min, config.r_max)
              for i in exact}
    n = config.samples
    sizes = [min(_BLOCK, n - lo) for lo in range(0, n, _BLOCK)]
    orbits = [math.gcd(m, 2 ** min(d - 1, 2)) for m in sizes]
    seeds = np.random.SeedSequence(config.seed).spawn(len(sizes))
    sums, squares, bad = ([[] for _ in proposals] for _ in range(3))
    cross = []
    for m, g, child in zip(sizes, orbits, seeds):
        rng = np.random.Generator(np.random.SFC64(child))
        b = m // g
        WT = rng.standard_normal((d, b))
        norms = np.sqrt(row_dot(WT.T, WT.T))
        norms[norms == 0.0] = 1.0
        WT /= norms
        after_directions = rng.bit_generator.state
        if g > 1:  # pattern j flips x_0 if j is odd, x_1 if j >= 2
            WT = np.tile(WT, g)
            WT[0].reshape(g, b)[1::2] *= -1.0
            WT[1].reshape(g, b)[2:] *= -1.0
        weights = [None] * len(proposals)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            parts = angular(WT.T)
            for i in exact:
                try:
                    weights[i] = math.exp(log_z[i]) * inside[i] * parts[0]
                except OverflowError:  # in the normalization: take logs
                    weights[i] = np.exp(np.log(inside[i] * parts[0])
                                        + log_z[i])
            for (k, s), members in groups.items():
                rng.bit_generator.state = after_directions
                r = np.sqrt(rng.gamma(k / 2.0, 2.0 * s * s, size=m))
                values = evaluate(r, parts, members)
                density = np.exp(r * r * (0.5 / (s * s)) + log_z[members[0]])
                outside = (r < config.r_min) | (r > config.r_max)
                for i, vals in zip(members, values):
                    w = density * vals
                    if d - k + evaluate.powers[i]:
                        w *= r ** (d - k + evaluate.powers[i])
                    w[outside | (vals == 0.0)] = 0.0
                    weights[i] = w
            for i, w in enumerate(weights):
                nonfinite = ~np.isfinite(w)
                w[nonfinite] = 0.0
                sums[i].append(float(w.sum()))
                w = w.reshape(g, b).sum(axis=0)  # the b orbit totals
                w -= sums[i][-1] / b
                squares[i].append(float((w * w).sum()))
                bad[i].append(int(np.count_nonzero(nonfinite)))
                weights[i] = w
            cross.append(float((weights[0] * weights[-1]).sum()))

    def pooled(within, x, y):
        # Chan, Golub and LeVeque's update: the streams' products of orbit
        # totals about their own means plus g m (x_s / m - mean x)(y_s / m -
        # mean y) each, the products of all orbit totals about g mean.
        mean_x, mean_y = math.fsum(x) / n, math.fsum(y) / n
        return math.fsum([*within, *(g * m * (a / m - mean_x)
                                     * (b / m - mean_y) for a, b, m, g
                                     in zip(x, y, sizes, orbits))]) / n

    estimates = []
    for i, (x, within, nonfinite) in enumerate(zip(sums, squares, bad)):
        degen = sum(nonfinite)
        if degen > DEGENERATE_FRACTION * n:
            raise DegenerateSampleError(
                f"{degen} of {n} integrand samples were non-finite"
            )
        mean = math.fsum(x) / n
        # A zero-variance sum still rounds, and a closed-form mass leaves
        # out the share 1 - P of the full space's: the bar covers both.
        floor = max(1e-14, 1.0 - inside.get(i, 1.0))
        error = max(math.sqrt(pooled(within, x, x) / n), floor * abs(mean))
        estimates.append(Estimate(mean, error, n, degen, "mc"))
    return estimates, pooled(cross, sums[0], sums[-1]) / n


def _product_pass(d, nr, na, r_lo, r_hi, n_integrands, evaluate, parts):
    """One tensor rule on [r_lo, r_hi]: per integrand, the sum and the
    number of non-finite nodes, and the node count.

    ``parts`` is the kernel's angular parts of ``sphere_grid(d, na)``, and
    ``evaluate(rb, parts, members)``, called once per block of whole radii
    with rb of shape (len(rb), 1), returns their (len(rb), na) values at
    the nodes rb x pts, which the pass multiplies by r^(d + a), as in
    ``_mc_streams``.  A radius's sphere sum is numpy's pairwise sum of its
    row, in an order no BLAS thread count changes.

    A member of ``evaluate.linear`` is linear in its non-negative parts:
    ``evaluate`` on all radii gives its sphere sums from the parts' and a
    bound on its nodes from their maxima, or where either is not finite
    it takes the full grid.
    """
    nodes, wts = _leggauss(nr)
    s_lo, s_hi = math.log(r_lo), math.log(r_hi)
    svals = 0.5 * (s_hi + s_lo) + 0.5 * (s_hi - s_lo) * nodes
    swts = 0.5 * (s_hi - s_lo) * wts
    r = np.exp(svals)
    _, aw = sphere_grid(d, na)
    step = max(1, _BLOCK // len(aw))
    totals = [0.0] * n_integrands
    degen = [0] * n_integrands
    sums = {}

    def weighted(rb, parts, members):
        return [vals * rb ** (d + evaluate.powers[i])
                for i, vals in zip(members, evaluate(rb, parts, members))]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        linear = getattr(evaluate, "linear", [])
        if linear:
            sphere = [None if a is None else (a * aw).sum() for a in parts]
            tops = [None if a is None else a.max() for a in parts]
            sums = {i: s for i, s, top in zip(linear,
                                               weighted(r, sphere, linear),
                                               weighted(r, tops, linear))
                    if np.isfinite(s).all() and np.isfinite(top).all()}
        members = [i for i in range(n_integrands) if i not in sums]
        for lo in range(0, len(r), step) if members else ():
            for i, vals in zip(members, weighted(r[lo:lo + step, None],
                                                 parts, members)):
                finite = np.isfinite(vals)
                if not finite.all():
                    degen[i] += vals.size - int(np.count_nonzero(finite))
                    vals = np.where(finite, vals, 0.0)
                sums.setdefault(i, []).extend((vals * aw).sum(axis=1))
        for i, row in sums.items():
            for wi, total in zip(swts, row):
                totals[i] += wi * float(total)
    return totals, degen, len(r) * len(aw)


def _product_passes(d, config: QuadratureConfig, n_integrands, kernel):
    """``product_integral`` of several integrands, on grids they share.

    ``kernel`` is an (angular, evaluate) pair as ``_factored_integrands``
    returns.  Each of the three grids (fine, half the node counts, half
    ``r_min``) is built once, ``angular`` is called once per distinct
    sphere grid, and ``evaluate`` returns the values of every integrand at
    its blocks, as in ``_product_pass``.  Integrand i sums exactly the
    terms of ``product_integral`` of its own, and a degenerate integrand
    raises the message of the first such call.
    """
    nr, na, r_hi = config.radial_nodes, config.angular_nodes, config.r_max
    r_lo = max(config.r_min, 1e-12)
    if not r_lo < r_hi < math.inf:
        raise DomainError("the product rule needs finite radial cutoffs")
    grids = [(nr, na, r_lo),
             (max(nr // 2, 8), max(na // 2, 4), r_lo),
             (nr, na, max(config.r_min / 2.0, 1e-12))]
    angular, evaluate = kernel
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = {n: angular(sphere_grid(d, n)[0])
                 for n in dict.fromkeys(grid[1] for grid in grids)}
    (fine, degen, n), (coarse_nodes, _, _), (coarse_rmin, _, _) = [
        _product_pass(d, *grid, r_hi, n_integrands, evaluate, parts[grid[1]])
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
    radius's sphere rule fits, built by ``_points_values``.
    """
    (estimate,) = _product_passes(d, config, 1, _points_values([fn]))
    return estimate


def _points_values(fns):
    """The (angular, evaluate) kernel of point integrands ``fns[i]``: the
    angular parts are the directions w themselves, and ``evaluate`` calls
    each member on the points x = r w, r broadcast against w's rows, built
    column-major, and shapes its values as r broadcast against them."""

    def evaluate(r, w, members):
        shape = np.broadcast_shapes(r.shape, w.shape[:1])
        XT = np.empty((w.shape[1], *shape))
        for out, column in zip(XT, w.T):
            np.multiply(r, column, out=out)
        X = XT.reshape(len(XT), -1).T
        return [np.asarray(fns[i](X), dtype=float).reshape(shape)
                for i in members]

    evaluate.powers = [0.0] * len(fns)
    return (lambda w: w), evaluate


# ---------------------------------------------------------------------------
# Weighted functional integrands.


def _origin_shift(u: TrialFunction):
    """psi's power at the origin: -rho of a first ("power", 0.0, lo, rho)
    segment, and 0 for any other profile."""
    segments = u.radial.segments
    if segments and segments[0][0] == "power":
        return -segments[0][3]
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


# The numerator and the denominator of each functional's quotient as
# (order, w): the integrand |D u|^p |x|^(-w p - gamma), where D u is u,
# grad u or Delta u for order 0, 1 or 2.
_INTEGRANDS = {
    Functional.HARDY: ((1, 0), (0, 1)),
    Functional.RELLICH: ((2, 0), (0, 2)),
}


def _factored_integrands(u: TrialFunction, params: Params, terms):
    """Both engines' (angular, evaluate) kernel of the integrands
    ``terms[i]``, factored on x = r w with |w| = 1.

    F(r w) = r^lam F(w), and by Euler's relation grad u = r^(lam - 1)
    (psi T + (lam psi + r psi') F w) with T = grad F(w) - lam F w
    orthogonal to w.  So each integrand is a power of r times |psi|^p |F|^p
    (order 0), |psi'' + c psi'/r|^p |F|^p (order 2) or (psi^2 |T|^2 +
    (lam psi + r psi')^2 F^2)^(p/2) (order 1, two non-negative terms:
    nothing cancels).  ``angular(w)`` forms |F|^p, F^2 and |T|^2 (the last
    two None without an order-1 term); ``evaluate(r, parts, members)``
    forms psi's derivatives once, up to the highest order the members
    need, and broadcasts r against the parts: radii (nr, 1) against a
    sphere grid's in the product rule, n radii against n directions' in
    Monte Carlo.  ``evaluate.powers`` lists the power of r each value
    leaves out, and ``evaluate.linear`` the members linear in the parts:
    all but an order-1 term at p != 2.
    """
    p, gamma, lam = params.p, params.gamma, u.angular.homogeneity
    c = params.d - 1.0 + 2.0 * lam
    gradient = any(order == 1 for order, _ in terms)

    def angular(w):
        if not gradient:
            return np.abs(u.angular.value(w)) ** p, None, None
        F, G = u.angular.value_and_gradient(w)
        # |T|^2 from whole columns, rounded as row_dot: no (n, d) temporary.
        T2 = row_sum([(g - lam * F * w_k) ** 2 for g, w_k in zip(G.T, w.T)])
        return np.abs(F) ** p, F * F, T2

    def evaluate(r, parts, members):
        Fp, F2, T2 = parts
        r = r.copy()
        r.flags.writeable = False  # psi and its derivatives share its work
        top = max(terms[i][0] for i in members)
        psi, dpsi, d2psi = u.radial.derivatives(r, top) + (None,) * (2 - top)

        def term(order):
            if order == 1:
                inner = psi * psi * T2
                inner += (lam * psi + r * dpsi) ** 2 * F2
                return inner ** (p / 2.0)
            radial = psi if order == 0 else d2psi + c * dpsi / r
            return np.abs(radial) ** p * Fp

        return [term(terms[i][0]) for i in members]

    evaluate.linear = [i for i, (o, _) in enumerate(terms) if o != 1 or p == 2]
    evaluate.powers = [p * (lam - (o == 1)) - w * p - gamma for o, w in terms]
    return angular, evaluate


def _estimates(u: TrialFunction, params: Params, config: QuadratureConfig,
               terms):
    """Estimates of the integrands ``terms`` (see ``_INTEGRANDS``), and the
    covariance of the first and the last (0 from the product rule).

    Every shape is checked before any integration.  Both engines serve
    all of them from one pass: the MC engine over its streams, the product
    rule over each of its grids.
    """
    scale = _radial_scale(u, params.p)
    proposals = [
        (_radial_shape(u, params, w, gradient=order == 1), scale)
        for order, w in terms
    ]
    kernel = _factored_integrands(u, params, terms)
    if config.method == "product":
        return _product_passes(params.d, config, len(terms), kernel), 0.0
    # A Gaussian's mass is |F|^p times its proposal's radial density.
    gaussian = u.radial.sigma is not None and not u.radial.segments
    exact = [i for i, (order, _) in enumerate(terms) if gaussian and not order]
    return _mc_streams(params.d, config, proposals, kernel, exact)


def _check_tag(u: TrialFunction, params: Params):
    if u.class_tag is not params.klass:
        raise SymmetryClassError(
            f"trial is tagged {u.class_tag.value}, params declare "
            f"{params.klass.value}"
        )


def _report(num: Estimate, den: Estimate, quotient, q_err,
            ref: ConstantValue):
    """The report, with margin (quotient - constant) / q_err.  Without an
    error bar the comparison is exact: infinitely many sigmas on the side
    where the quotient lies, or 0 when it equals the constant."""
    if not (math.isfinite(quotient) and math.isfinite(q_err)):
        raise DomainError(f"quotient {quotient} +- {q_err} is not finite")
    diff = quotient - ref.value
    if q_err > 0.0:
        margin = diff / q_err
    else:
        margin = math.copysign(math.inf, diff) if diff else 0.0
    return QuotientReport(num, den, quotient, q_err, ref.value, margin)


def _build_report(num: Estimate, den: Estimate, ref: ConstantValue, cov):
    """q = num / den, its error by the delta method from the covariance
    ``cov``: sd(a_i - q b_i) / (sqrt(n) mean b) for samples drawn together."""
    if den.value <= 0.0:
        raise DomainError("denominator estimate is not positive")
    quotient = num.value / den.value
    var = num.error**2 - 2.0 * quotient * cov + quotient**2 * den.error**2
    return _report(num, den, quotient, math.sqrt(max(var, 0.0)) / den.value,
                   ref)


def _admissible_reference(params: Params, functional) -> ConstantValue:
    """The reference constant, refused with its condition residual where
    it is inadmissible: no quotient is reported against it."""
    ref = reference_constant(params, functional)
    if not ref.admissible:
        raise DomainError(
            f"reference constant {ref.formula_id} is inadmissible for "
            f"(d={params.d}, p={params.p}, gamma={params.gamma}); "
            f"condition residual {ref.condition_residual}"
        )
    return ref


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
    ref = _admissible_reference(params, functional)
    (num, den), cov = _estimates(u, params, config, _INTEGRANDS[functional])
    return _build_report(num, den, ref, cov)


# ---------------------------------------------------------------------------
# Separable (radial-reduction) path.


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


@lru_cache(maxsize=256)
def _de_nodes(lo, hi, level):
    """Read-only ascending nodes and weights (step included) of the rule on
    [lo, hi] at step _DE_STEP / 2^level: all of them at level 0, only
    the new odd multiples of the step after it."""
    h = _DE_STEP / 2**level
    t_lo, t_hi = _DE_T if hi < math.inf else _DE_T_EXP
    k = np.arange(math.ceil(t_lo / h), math.floor(t_hi / h) + 1)
    t = h * (k if level == 0 else k[k % 2 == 1])
    u, dudt = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    if hi < math.inf:  # tanh-sinh: x = lo + (hi - lo) (1 + tanh u) / 2
        e = np.exp(-2.0 * np.abs(u))
        x = lo + (hi - lo) * (np.where(u < 0.0, e, 1.0) / (1.0 + e))
        w = h * ((hi - lo) * 2.0 * dudt * e / (1.0 + e)**2)
    else:  # exp-sinh: x = lo + exp(u)
        x, w = lo + np.exp(u), h * (dudt * np.exp(u))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quad(fn, lo, hi):
    """Integral of ``fn`` over [lo, hi] and its error |I_h - I_2h| by a
    nested double-exponential rule (Takahasi and Mori, 1974): tanh-sinh on
    a finite segment, exp-sinh on [lo, inf).

    ``fn`` is called on each level's new nodes, a cached read-only 1-d
    array shared by a segment's integrands.  The first call gives the rule
    at h = _DE_STEP and 2h; h halves until two levels agree to _DE_REL
    relative, at most _DE_LEVELS times.  On [lo, inf) nodes from the first
    non-finite value on (r^m overflowing where psi underflowed) are
    dropped; the value is nan unless the last term kept is negligible.
    """
    with np.errstate(all="ignore"):
        x, w = _de_nodes(lo, hi, 0)
        terms = w * fn(x)
        cut = math.inf
        if hi == math.inf and not np.isfinite(terms).all():
            first = np.flatnonzero(~np.isfinite(terms))[0]
            if not (first and abs(terms[first - 1])
                    <= _DE_REL * abs(terms[:first].sum())):
                return math.nan, math.nan
            cut = x[first - 1]
            terms[first:] = 0.0
        # Level 0 starts at an even multiple of h: every other node is 2h.
        value, coarse = float(terms.sum()), 2.0 * float(terms[::2].sum())
        for level in range(1, _DE_LEVELS + 1):
            if not abs(value - coarse) > _DE_REL * abs(value):
                break  # agreed, or not finite
            x, w = _de_nodes(lo, hi, level)
            terms = w * fn(x)
            if cut < math.inf:
                terms[x > cut] = 0.0
            value, coarse = 0.5 * value + float(terms.sum()), value
    return value, abs(value - coarse)


def _radial_integrals(profile, terms, segments=None):
    """Integrals over (0, inf) of each term, and the quad error of each.

    A term is (integrand, closed): ``closed(lo, hi, rho)`` gives the
    integral over a "power" segment where psi = r^(-rho), and
    ``integrand(r)``, on an array of radii, is integrated by ``quad`` on
    every other ("numeric") segment.  ``segments`` defaults to the
    profile's, and a profile without segments is one numeric segment on
    (0, inf).
    """
    totals, errs = [0.0] * len(terms), [0.0] * len(terms)
    segments = segments or profile.segments or (("numeric", 0.0, math.inf),)
    for kind, lo, hi, *rho in segments:
        if kind == "power":
            for i, (_, closed) in enumerate(terms):
                totals[i] += closed(lo, hi, *rho)
        else:
            # ``quad`` is looked up on every call, so patching
            # ``quadrature.quad`` reaches every radial integral.
            results = [quad(integrand, lo, hi) for integrand, _ in terms]
            if not all(math.isfinite(value) for value, _ in results):
                raise DomainError(
                    f"radial integral overflows on [{lo:g}, {hi:g}]")
            totals = [t + value for t, (value, _) in zip(totals, results)]
            errs = [e + error for e, (_, error) in zip(errs, results)]
    return totals, errs


def _radial_term(profile, order, m, p, c):
    """(integrand, closed) of r^m |D psi|^p for ``_radial_integrals``, with
    D psi = psi, psi' or psi'' + c psi'/r for order 0, 1 or 2.

    D r^(-rho) = K r^(-rho - order), so on a power segment the term is
    |K|^p times the primitive of r^q, q = (m - order p) - p rho.  Formed
    so, q + 1 = +-2 eps keeps its bits; m - p (rho + order) loses them
    where rho + order rounds.
    """
    dpsi, d2psi = profile.dpsi, profile.d2psi
    derivative, K = (
        (profile.psi, lambda rho: 1.0),
        (dpsi, lambda rho: -rho),
        (lambda r: d2psi(r) + c * dpsi(r) / r,
         lambda rho: rho * (rho + 1.0 - c)),
    )[order]
    return (
        lambda r: r**m * np.abs(derivative(r)) ** p,
        lambda lo, hi, rho: (abs(K(rho)) ** p * _power_primitive(
            lo, hi, (m - order * p) - p * rho)),
    )


def _separable_quotient(u: TrialFunction, params: Params, functional):
    """Both separable quotients from the radial terms of ``_INTEGRANDS``.

    Refuses a trial whose class is not the params' and the general class
    (F = 1), a denominator that is not integrable at the origin, and an
    inadmissible reference constant, as ``rayleigh_quotient`` does.  For
    harmonic F homogeneous of order lam the sphere moment of |F|^p is a
    common factor, so the report carries the radial integrals, each with
    its quad error.  At p = 2 the Hardy numerator's cross term
    2 lam r^(m+1) psi psi' integrates by parts to -lam (m + 1) times the
    mass M = int r^m psi^2, since the boundary terms vanish where M
    converges; with |grad F|^2's share lam (2 lam + d - 2) M that leaves
    lam gamma M + N, N = int r^(m+2) psi'^2.
    """
    _check_tag(u, params)
    if u.class_tag is FunctionClass.GENERAL:
        raise DomainError(
            "the separable reduction is offered for the antisymmetric and "
            "odd classes"
        )
    rows = _INTEGRANDS[functional]
    _radial_shape(u, params, rows[1][1])
    ref = _admissible_reference(params, functional)
    p, lam, profile = params.p, u.angular.homogeneity, u.radial
    c = params.d - 1.0 + 2.0 * lam
    terms = [_radial_term(profile, order,
                          p * lam + params.d - 1.0 - w * p - params.gamma,
                          p, c)
             for order, w in rows]
    # For a Gaussian psi, psi'' + c psi'/r changes sign at sigma sqrt(1 + c):
    # a kink in |.|^p that the rule must not straddle.
    sigma = rows[0][0] == 2 and profile.sigma
    kink = sigma and sigma * math.sqrt(1.0 + c)
    split = kink and (("numeric", 0.0, kink), ("numeric", kink, math.inf))
    (num_rad, den_rad), (num_err, den_err) = _radial_integrals(
        profile, terms, split)
    if den_rad <= 0.0:
        raise DomainError("degenerate radial mass")
    offset = lam * params.gamma if functional is Functional.HARDY else 0.0
    ratio = num_rad / den_rad
    quotient = offset + ratio
    num = Estimate(offset * den_rad + num_rad,
                   abs(offset) * den_err + num_err, 0, 0, "separable")
    den = Estimate(den_rad, den_err, 0, 0, "separable")
    q_err = max((num_err + abs(ratio) * den_err) / den_rad,
                1e-14 * abs(quotient))
    return _report(num, den, quotient, q_err, ref)


def separable_hardy_quotient(u: TrialFunction, params: Params):
    """Exact radial reduction of the Hardy quotient for p = 2: lam gamma
    plus N / M, a one-dimensional weighted Hardy quotient whose infimum
    over psi is ((m + 1)/2)^2, m = 2 lam + d - 3 - gamma."""
    if abs(params.p - 2.0) > 1e-12:
        raise DomainError("the radial reduction of the gradient needs p = 2")
    return _separable_quotient(u, params, Functional.HARDY)


def separable_rellich_quotient(u: TrialFunction, params: Params):
    """Radial reduction of the Rellich quotient (any p >= 1):
    Delta(F psi) = F (psi'' + (d - 1 + 2 lam) psi'/r) for harmonic
    homogeneous F."""
    return _separable_quotient(u, params, Functional.RELLICH)

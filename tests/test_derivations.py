"""Symbolic derivations of the constant formulas (sympy).

Every constant in ``symhardy.constants`` is the Hardy base B or the
Rellich numerator N evaluated at the class's homogeneity order lam.  The
tests below take B and N as the package computes them, on sympy symbols,
and check that:

- at lam = d(d-1)/2, 1 and 0 they are the antisymmetric, odd and
  classical (Mitidieri) forms, each written out here in full;
- N follows Mitidieri's chain ("A simple approach to Hardy inequalities",
  Math. Notes 67, 2000): with m = gamma + 2p - 2,
  N / p^2 = 4 (p-1) / p^2 H2(d, m, lam) - m (m + 2 - d) / p, where H2 is
  the p = 2 Hardy base at weight m;
- both grow with lam for d >= 2, which is why every class constant beats
  the classical one;
- at p = 2, B = lam gamma + ((m + 1)/2)^2 with m = 2 lam + d - 3 - gamma:
  lam gamma plus the sharp constant of the one-dimensional weighted
  Hardy inequality int r^(m+2) psi'^2 >= ((m + 1)/2)^2 int r^m psi^2,
  which is what ``separable_hardy_quotient`` reduces to after
  integrating the cross term by parts;
- the Vandermonde product is harmonic, which the trials' Laplacian
  F (psi'' + c psi'/r) assumes;
- for u = F psi(r) at d = 3, with F the Vandermonde product or the odd
  linear form and psi a generic function, |grad u|^2 =
  r^(2 lam - 2) (psi^2 |T|^2 + (lam psi + r psi')^2 F^2) and
  Delta u = F (psi'' + (d - 1 + 2 lam) psi'/r), F and T = grad F - lam F w
  taken at w = x/r: the factored forms the engines' kernel evaluates.

The certificate function f(t; alpha, beta) of ``symhardy.minimax``,
written out here, is checked too: it is convex in t for p > 2, and its
derivative in t vanishes at the closed-form t0, both symbolically in
(p, lam, d, gamma, alpha, beta) for p > 2; and f at (alpha0, beta0, t0)
is (2/p)^p B^(p/2) with B = (p - 2 + gamma) lam + A^2, symbolically in
(A, B, lam) at six rational p > 2.  The package's f, t0, optimum and
value are then compared with these forms at float points.

Each public constant is then evaluated at rational points with p != 2 and
compared with the exact value of the chain (Rellich) or of the written-out
form (Hardy), so that a Rellich formula off by 1 % fails here.
"""

import pytest
import sympy as sp

from symhardy import constants as cn
from symhardy import minimax as mm

from oracles import vandermonde_laplacian_poly

d, p, gamma, lam = sp.symbols("d p gamma lam")
B = cn._hardy_base(d, p, gamma, lam)
N = cn._rellich_numerator(d, p, gamma, lam)
M = gamma + 2 * p - 2

LAM = {"general": 0, "odd": 1, "antisym": d * (d - 1) / 2}

# The class forms as the per-class formulas wrote them before B and N.
HARDY_FORMS = {
    "antisym": 2 * (p - 2 + gamma) * d * (d - 1) / p**2
    + ((d**2 - p - gamma) / p) ** 2,
    "odd": 4 * (p - 2 + gamma) / p**2 + ((d - p - gamma + 2) / p) ** 2,
    "general": ((d - p - gamma) / p) ** 2,  # the classical constant^(2/p)
}
RELLICH_FORMS = {
    "antisym": (gamma + 2 * p - 2)
    * (2 * (p - 1) * d * (d - 1) + p * (d - gamma - 2 * p))
    + (p - 1) * (d**2 - gamma - 2 * p) ** 2,
    "odd": (gamma + 2 * p - 2) * (4 * (p - 1) + p * (d - gamma - 2 * p))
    + (p - 1) * (d - gamma - 2 * p + 2) ** 2,
    # Mitidieri's f1 f2
    "general": (d - gamma - 2 * p) * ((p - 1) * d + gamma),
}


def h2(dim, weight, order):
    """The p = 2 Hardy base at weight ``weight``, written out."""
    return order * weight + ((dim + 2 * order - 2 - weight) / 2) ** 2


def chain(dim, exponent, weight, order):
    """N / p^2 by Mitidieri's chain."""
    m = weight + 2 * exponent - 2
    return (4 * (exponent - 1) / exponent**2 * h2(dim, m, order)
            - m * (m + 2 - dim) / exponent)


def is_zero(expr):
    return sp.cancel(sp.expand(expr)) == 0


@pytest.mark.parametrize("klass", sorted(LAM))
def test_hardy_base_gives_the_class_form(klass):
    assert is_zero(B.subs(lam, LAM[klass]) - HARDY_FORMS[klass])


@pytest.mark.parametrize("klass", sorted(LAM))
def test_rellich_numerator_gives_the_class_form(klass):
    assert is_zero(N.subs(lam, LAM[klass]) - RELLICH_FORMS[klass])


def test_hardy_base_at_p2_is_h2():
    assert is_zero(cn._hardy_base(d, 2, gamma, lam) - h2(d, gamma, lam))


def test_hardy_base_at_p2_is_lam_gamma_plus_the_radial_constant():
    m = 2 * lam + d - 3 - gamma
    assert is_zero(cn._hardy_base(d, 2, gamma, lam)
                   - (lam * gamma + ((2 * lam + d - 2 - gamma) / 2) ** 2))
    assert is_zero(cn._hardy_base(d, 2, gamma, lam)
                   - (lam * gamma + ((m + 1) / 2) ** 2))
    # The by-parts step: |grad F|^2's share of the mass, lam (2 lam + d - 2),
    # less the cross term's, lam (m + 1).
    assert is_zero(lam * (2 * lam + d - 2) - lam * (m + 1) - lam * gamma)


@pytest.mark.parametrize("dim", range(2, 7))
def test_vandermonde_is_harmonic(dim):
    assert vandermonde_laplacian_poly(dim).is_zero


@pytest.mark.parametrize("klass", ["antisym", "odd"])
def test_factored_gradient_and_laplacian(klass):
    # u = F psi(r) at d = 3, psi a generic function: the factored forms the
    # engines' kernel sums, with F and T = grad F - lam F w taken at w = x/r.
    xs = sp.symbols("x0:3", real=True)
    r = sp.sqrt(sum(x**2 for x in xs))
    psi = sp.Function("psi")
    P0, P1, P2 = sp.symbols("P0 P1 P2")  # psi, psi', psi'' at r
    if klass == "antisym":
        F, order = sp.prod([xs[j] - xs[i] for i in range(3)
                            for j in range(i + 1, 3)]), 3
    else:
        F, order = sum(xs), 1
    u = F * psi(r)

    def at_r(expr):
        # sympy writes psi^(k)(r) as Subs(Derivative(psi(xi), xi, k), xi, r).
        derivs = {a: (P1, P2)[a.expr.derivative_count - 1]
                  for a in expr.atoms(sp.Subs)}
        return expr.xreplace(derivs).xreplace({psi(r): P0})

    on_sphere = {x: x / r for x in xs}
    Fw = F.subs(on_sphere, simultaneous=True)
    T = [sp.diff(F, x).subs(on_sphere, simultaneous=True) - order * Fw * x / r
         for x in xs]
    grad2 = at_r(sum(sp.diff(u, x) ** 2 for x in xs))
    assert sp.simplify(grad2 - r ** (2 * order - 2) * (
        P0**2 * sum(t**2 for t in T) + (order * P0 + r * P1) ** 2 * Fw**2)) == 0
    laplacian = at_r(sum(sp.diff(u, x, 2) for x in xs))
    assert sp.simplify(laplacian - F * (P2 + (3 - 1 + 2 * order) * P1 / r)) == 0


def test_rellich_numerator_is_mitidieris_chain():
    # Identically in lam, so for every class at once.
    assert is_zero(N / p**2 - chain(d, p, gamma, lam))
    assert is_zero(
        N / p**2
        - (4 * (p - 1) / p**2 * cn._hardy_base(d, 2, M, lam)
           - M * (M + 2 - d) / p)
    )


def test_both_formulas_grow_with_lam():
    # d + 2 lam - 2 >= 0 for d >= 2 and lam >= 0, and p > 1.
    assert is_zero(sp.diff(p**2 * B, lam) - 4 * (d + 2 * lam - 2))
    assert is_zero(sp.diff(N, lam) - 4 * (p - 1) * (d + 2 * lam - 2))


# (d, p, gamma) with p != 2 where every constant is admissible.
POINTS = [(7, 2.5, 0.0), (8, 3.0, -0.5), (9, 7 / 3, 0.5), (6, 2.25, -1.0),
          (10, 3.75, 1.25)]

PUBLIC = {
    "classical_hardy": ("hardy", "general"),
    "hardy_antisymmetric": ("hardy", "antisym"),
    "hardy_odd": ("hardy", "odd"),
    "rellich_mitidieri": ("rellich", "general"),
    "rellich_antisymmetric": ("rellich", "antisym"),
    "rellich_odd": ("rellich", "odd"),
}


def exact_value(functional, klass, dim, exponent, weight):
    """The constant at exact rationals, never through B or N."""
    at = {d: dim, p: exponent, gamma: weight}
    if functional == "hardy":
        base = HARDY_FORMS[klass].subs(at)
        return sp.N(base ** (exponent / 2), 40)
    order = sp.sympify(LAM[klass]).subs(d, dim)
    return sp.N(chain(dim, exponent, weight, order) ** exponent, 40)


@pytest.mark.parametrize("name", sorted(PUBLIC))
@pytest.mark.parametrize("point", POINTS, ids=lambda pt: "d%d-p%g-g%g" % pt)
def test_public_constant_matches_exact_value(name, point):
    dim, exponent, weight = point
    result = getattr(cn, name)(dim, exponent, weight)
    assert result.formula_id == name and result.admissible
    # The exact rationals of the float arguments: only the formula rounds.
    exact = exact_value(*PUBLIC[name], sp.Integer(dim),
                        sp.Rational(exponent), sp.Rational(weight))
    assert float(abs(result.value - exact) / exact) < 1e-12


def certificate_f(t, alpha, beta, order, dim, exponent, weight):
    """f(t; alpha, beta), as the ``minimax`` module docstring writes it."""
    radicand = alpha**2 - 2 * alpha * beta * order + beta**2 * t
    return (alpha * (dim - exponent - weight)
            + beta * (exponent - 2 + weight) * order + beta * t
            - (exponent - 1)
            * radicand ** (exponent / (2 * (exponent - 1))))


def t_zero(alpha, beta, order, exponent):
    """The stationary point t0 of t -> f, as ``t_minimizer`` documents it."""
    return ((exponent * beta / 2) ** (2 * (exponent - 1) / (exponent - 2))
            - alpha**2 + 2 * alpha * beta * order) / beta**2


def optimum(A_, B_, exponent):
    """(alpha0, beta0) = (A K, K), K = B^((p-2)/2) (2/p)^(p-1)."""
    K = B_ ** ((exponent - 2) / 2) * (2 / exponent) ** (exponent - 1)
    return A_ * K, K


def test_t0_is_stationary():
    # p = 2 + s with s > 0, beta > 0: the powers of p beta / 2 combine.
    s, beta = sp.symbols("s beta", positive=True)
    alpha, t = sp.symbols("alpha t", real=True)
    exponent = 2 + s
    dfdt = sp.diff(certificate_f(t, alpha, beta, lam, d, exponent, gamma), t)
    assert sp.simplify(dfdt.subs(t, t_zero(alpha, beta, lam, exponent))) == 0


def test_f_is_convex_in_t():
    # d2f/dt2 = p (p-2) / (4 (p-1)) beta^4 R^(q-2), with R the radicand and
    # q = p / (2 (p-1)): positive for p > 2 wherever R > 0.
    s, beta, radicand = sp.symbols("s beta R", positive=True)
    alpha, t = sp.symbols("alpha t", real=True)
    exponent = 2 + s
    d2fdt2 = sp.diff(certificate_f(t, alpha, beta, lam, d, exponent, gamma),
                     t, 2)
    d2fdt2 = d2fdt2.subs(alpha**2 - 2 * alpha * beta * lam + beta**2 * t,
                         radicand)
    q = exponent / (2 * (exponent - 1))
    want = (exponent * (exponent - 2) / (4 * (exponent - 1)) * beta**4
            * radicand ** (q - 2))
    assert sp.simplify(d2fdt2 / want) == 1
    assert want.is_positive


@pytest.mark.parametrize("exponent", [sp.Rational(7, 3), sp.Rational(5, 2),
                                      sp.Rational(11, 4), sp.Integer(3),
                                      sp.Integer(4), sp.Rational(9, 2)])
def test_value_at_the_optimum(exponent):
    # d and gamma through A = (d - p - gamma + 2 lam) / 2 and
    # B = (p - 2 + gamma) lam + A^2, so that B^(1/2) is a symbol's power.
    A_ = sp.Symbol("A", real=True)
    B_, order = sp.symbols("B lam", positive=True)
    weight = (B_ - A_**2) / order - exponent + 2
    dim = 2 * A_ + exponent + weight - 2 * order
    alpha0, beta0 = optimum(A_, B_, exponent)
    t0 = t_zero(alpha0, beta0, order, exponent)
    g = certificate_f(t0, alpha0, beta0, order, dim, exponent, weight)
    assert sp.expand(g - (2 / exponent) ** exponent
                     * B_ ** (exponent / 2)) == 0


# (class, d, p, gamma) with p > 2.
MINIMAX_POINTS = [(cn.FunctionClass.ANTISYMMETRIC, 3, 2.5, 0.0),
                  (cn.FunctionClass.ODD, 4, 3.0, 0.5),
                  (cn.FunctionClass.ANTISYMMETRIC, 4, 2.25, -0.5),
                  (cn.FunctionClass.ODD, 6, 4.0, 1.0),
                  (cn.FunctionClass.ANTISYMMETRIC, 2, 2.75, 0.25)]


@pytest.mark.parametrize("klass, dim, exponent, weight", MINIMAX_POINTS)
def test_minimax_matches_the_written_forms(klass, dim, exponent, weight):
    params = cn.Params(dim, exponent, weight, klass)
    order = sp.Rational(params.lam)
    pe, we = sp.Rational(exponent), sp.Rational(weight)
    A_ = (dim - pe - we + 2 * order) / 2
    B_ = (pe - 2 + we) * order + A_**2
    alpha0, beta0 = optimum(A_, B_, pe)
    t0 = t_zero(alpha0, beta0, order, pe)

    def close(got, want):
        want = sp.N(want, 40)
        return float(abs(got - want) / abs(want)) < 1e-12

    opt = mm.closed_form_optimum(params)
    assert close(opt.alpha, alpha0) and close(opt.beta, beta0)
    assert close(mm.t_minimizer(float(sp.N(alpha0)), float(sp.N(beta0)),
                                params), t0)
    assert close(mm.f_certificate(float(sp.N(t0)), float(sp.N(alpha0)),
                                  float(sp.N(beta0)), params),
                 certificate_f(t0, alpha0, beta0, order, dim, pe, we))
    assert close(mm.closed_form_value(params), (2 / pe) ** pe * B_ ** (pe / 2))

import csv
import math

import pytest

from symhardy import cli
from symhardy import constants as cn
from symhardy.errors import InvalidDimensionError, OutOfRangeError

P_GRID = [2.0, 2.5, 3.0, 4.0]
GAMMA_GRID = [-1.0, 0.0, 1.0, 2.0]


class TestClassical:
    def test_spot_values(self):
        assert cn.classical_hardy(3, 2).value == 0.25
        assert cn.classical_hardy(1, 4).value == 0.31640625
        # weighted: (|d - p - gamma| / p)^p
        assert cn.classical_hardy(3, 2, 1.0).value == 0.0
        assert cn.classical_hardy(3, 2, -1.0).value == 1.0
        assert cn.classical_hardy(5, 2, 1.0).value == 1.0

    def test_vanishes_at_p_equal_d(self):
        c = cn.classical_hardy(3, 3)
        assert c.value == 0.0
        assert c.admissible

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            cn.classical_hardy(3, 0.5)
        with pytest.raises(InvalidDimensionError):
            cn.classical_hardy(0, 2)


class TestHardyAntisymmetric:
    def test_spot_values(self):
        assert cn.hardy_antisymmetric(2, 2).value == 1.0
        assert cn.hardy_antisymmetric(3, 2).value == 12.25
        assert cn.hardy_antisymmetric(2, 4).value == pytest.approx(0.25, rel=1e-14)
        assert cn.hardy_antisymmetric(3, 2, 1.0).value == pytest.approx(12.0, rel=1e-14)

    def test_p2_weighted_form(self):
        # For p = 2 the constant reduces to gamma d(d-1)/2 + ((d^2-2-gamma)/2)^2.
        for d in range(2, 7):
            for gamma in GAMMA_GRID:
                expected = gamma * d * (d - 1) / 2.0 + ((d * d - 2.0 - gamma) / 2.0) ** 2
                got = cn.hardy_antisymmetric(d, 2, gamma).value
                assert got == pytest.approx(expected, rel=1e-13)

    def test_rejects_small_p(self):
        with pytest.raises(OutOfRangeError):
            cn.hardy_antisymmetric(3, 1.5)

    def test_d1_computes_inadmissible(self):
        c = cn.hardy_antisymmetric(1, 3)
        assert not c.admissible
        assert c.value == pytest.approx((2.0 / 3.0) ** 3, rel=1e-13)


class TestHardyOdd:
    def test_spot_values(self):
        assert cn.hardy_odd(3, 2).value == 2.25
        assert cn.hardy_odd(1, 3).value == pytest.approx((2.0 / 3.0) ** 3, rel=1e-14)
        assert cn.hardy_odd(2, 4).value == pytest.approx(0.25, rel=1e-14)

    def test_d1_equals_one_dimensional_constant(self):
        for p in P_GRID:
            assert cn.hardy_odd(1, p).value == pytest.approx(
                ((p - 1.0) / p) ** p, rel=1e-13
            )

    def test_p2_weighted_form(self):
        for d in range(1, 7):
            for gamma in GAMMA_GRID:
                expected = gamma + ((d - gamma) / 2.0) ** 2
                assert cn.hardy_odd(d, 2, gamma).value == pytest.approx(
                    expected, rel=1e-13
                )


class TestCoincidenceAndMonotonicity:
    def test_coincide_at_d2(self):
        for p in P_GRID:
            for gamma in GAMMA_GRID:
                a = cn.hardy_antisymmetric(2, p, gamma).value
                o = cn.hardy_odd(2, p, gamma).value
                assert a == pytest.approx(o, rel=1e-13)

    def test_class_constants_beat_classical(self):
        for d in range(2, 7):
            for p in P_GRID:
                base = cn.classical_hardy(d, p).value
                assert cn.hardy_antisymmetric(d, p).value > base
                assert cn.hardy_odd(d, p).value > base
                for gamma in GAMMA_GRID:
                    base = cn.classical_hardy(d, p, gamma).value
                    assert cn.hardy_antisymmetric(d, p, gamma).value > base
                    assert cn.hardy_odd(d, p, gamma).value > base

    def test_odd_d1_equality_exception(self):
        for p in P_GRID:
            assert cn.hardy_odd(1, p).value == pytest.approx(
                cn.classical_hardy(1, p).value, rel=1e-13
            )
            # The odd base at d = 1 is ((p + gamma - 1) / p)^2 for every gamma.
            for gamma in GAMMA_GRID:
                assert cn.hardy_odd(1, p, gamma).value == pytest.approx(
                    cn.classical_hardy(1, p, gamma).value, rel=1e-13, abs=1e-15
                )

    def test_no_vanishing_at_p_equal_d(self):
        for n in (2, 3, 4):
            p = float(n)
            assert cn.classical_hardy(n, p).value == 0.0
            assert cn.hardy_antisymmetric(n, p).value > 0.0
            assert cn.hardy_odd(n, p).value > 0.0


class TestRellich:
    def test_mitidieri_spot_values(self):
        c5 = cn.rellich_mitidieri(5, 2)
        assert c5.value == pytest.approx(1.5625, rel=1e-14)
        assert c5.value == pytest.approx(5**2 * (5 - 4) ** 2 / 16.0, rel=1e-14)
        assert cn.rellich_mitidieri(6, 2).value == pytest.approx(9.0, rel=1e-14)

    def test_mitidieri_interval(self):
        c = cn.rellich_mitidieri(5, 2, 1.0)  # gamma = d - 2p boundary
        assert not c.admissible
        assert c.condition_residual == 0.0
        inside = cn.rellich_mitidieri(6, 2, 1.0)
        assert inside.admissible
        assert inside.condition_residual > 0.0

    def test_antisymmetric_spot_values(self):
        assert cn.rellich_antisymmetric(3, 2).value == pytest.approx(
            126.5625, rel=1e-14
        )
        assert cn.rellich_antisymmetric(4, 2).value == pytest.approx(2304.0, rel=1e-14)

    def test_odd_spot_values(self):
        assert cn.rellich_odd(3, 2).value == pytest.approx(1.5625, rel=1e-14)
        assert cn.rellich_odd(5, 2).value == pytest.approx(27.5625, rel=1e-14)

    def test_p2_quartic_identities(self):
        for d in range(1, 7):
            for gamma in GAMMA_GRID:
                anti = cn.rellich_antisymmetric(d, 2, gamma).value
                quartic = (d**4 - 4.0 * d**2 - gamma * (gamma + 4.0)) ** 2 / 16.0
                assert anti == pytest.approx(quartic, rel=1e-12, abs=1e-12)
                odd = cn.rellich_odd(d, 2, gamma).value
                quartic_odd = (d**2 - (gamma + 2.0) ** 2) ** 2 / 16.0
                assert odd == pytest.approx(quartic_odd, rel=1e-12, abs=1e-12)

    def test_negative_numerator_flags(self):
        c = cn.rellich_odd(1, 2)  # N = (d-2)(d+2) = -3 < 0
        assert not c.admissible
        assert c.condition_residual < 0.0
        assert c.value == pytest.approx(9.0 / 16.0, rel=1e-14)
        frac = cn.rellich_odd(1, 2.5)
        assert not frac.admissible
        assert math.isnan(frac.value)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(OutOfRangeError):
            cn.rellich_antisymmetric(3, 1.0)


def degree_minimum(d, gamma, degree):
    """min over real xi of |z (z + d - 2) - L|^2 at z = a + i xi, with
    a = (4 + gamma - d)/2 and L = l (l + d - 2): the best p = 2 Rellich
    constant on trials F(x) psi(|x|) with F a harmonic of degree l.  With
    A = a (a + d - 2) - L and B = 2a + d - 2 the modulus is
    (A - xi^2)^2 + xi^2 B^2, least at xi = 0 while A <= B^2 / 2."""
    a = (4.0 + gamma - d) / 2.0
    A = a * (a + d - 2.0) - degree * (degree + d - 2.0)
    B = 2.0 * a + d - 2.0
    return A * A if A <= B * B / 2.0 else B * B * A - B**4 / 4.0


class TestRellichP2HarmonicDegrees:
    """At p = 2 every admissible printed Rellich constant is the least
    harmonic-degree minimum over the class's degrees (l >= 0, 1 and
    d(d-1)/2), reached at the least degree with xi = 0; no formula from
    ``constants`` is read here."""

    LEAST_DEGREE = {"general": lambda d: 0, "odd": lambda d: 1,
                    "antisym": lambda d: d * (d - 1) // 2}

    def test_printed_value_is_the_least_degree_minimum(self, tmp_path):
        out = tmp_path / "c.csv"
        gammas = ",".join(str(-6.0 + 0.5 * k) for k in range(29))
        assert cli.main(["constants", "--class", "all", "--d", "1..8", "--p",
                         "2", f"--gamma={gammas}", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.DictReader(handle)
                    if row["functional"] == "rellich"
                    and row["admissible"] == "true"]
        assert len(rows) == 383
        for row in rows:
            d, gamma, value = int(row["d"]), float(row["gamma"]), float(row["value"])
            least = self.LEAST_DEGREE[row["class"]](d)
            minima = [degree_minimum(d, gamma, l) for l in range(least, least + 60)]
            assert value <= min(minima) * (1.0 + 1e-12), row
            a = (4.0 + gamma - d) / 2.0
            at_xi_zero = (a * (a + d - 2.0) - least * (least + d - 2.0)) ** 2
            assert abs(value - at_xi_zero) <= 1e-12 * at_xi_zero, row


class TestValueNonnegativity:
    def test_admissible_values_are_nonnegative(self):
        for d in range(1, 7):
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
                        if c.admissible:
                            assert c.value >= 0.0


ALL_CONSTANTS = (
    cn.classical_hardy,
    cn.hardy_antisymmetric,
    cn.hardy_odd,
    cn.rellich_mitidieri,
    cn.rellich_antisymmetric,
    cn.rellich_odd,
)
INF, NAN = float("inf"), float("nan")


class TestNonFiniteArguments:
    # round(p) in _real_power used to raise a bare OverflowError (inf) or
    # ValueError (nan) instead of a named error.
    @pytest.mark.parametrize("fn", ALL_CONSTANTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "p, gamma",
        [(INF, 0.0), (-INF, 0.0), (NAN, 0.0), (2.5, INF), (2.5, -INF),
         (2.5, NAN)],
    )
    def test_refused(self, fn, p, gamma):
        with pytest.raises(OutOfRangeError, match="finite"):
            fn(3, p, gamma)


class TestOverflow:
    # A finite p or gamma can still overflow a float in the formula; that
    # used to escape as a bare OverflowError.
    @pytest.mark.parametrize(
        "fn", [cn.rellich_mitidieri, cn.rellich_antisymmetric, cn.rellich_odd],
        ids=lambda f: f.__name__,
    )
    def test_rellich_power_overflow_named(self, fn):
        with pytest.raises(OutOfRangeError, match="overflows") as exc:
            fn(5, 400.0)
        assert "d=5, p=400.0, gamma=0.0" in str(exc.value)
        assert fn.__name__ in str(exc.value)

    @pytest.mark.parametrize(
        "fn", [cn.hardy_antisymmetric, cn.hardy_odd], ids=lambda f: f.__name__
    )
    def test_hardy_p_squared_overflow_named(self, fn):
        with pytest.raises(OutOfRangeError, match="overflows") as exc:
            fn(3, 1e200, -1.0)
        assert "d=3, p=1e+200, gamma=-1.0" in str(exc.value)

    def test_classical_overflow_named(self):
        with pytest.raises(OutOfRangeError, match="overflows"):
            cn.classical_hardy(3, 2.0, 1e200)

    def test_large_finite_values_still_computed(self):
        # The Hardy constants at d = 5, p = 400 are representable.
        assert cn.hardy_antisymmetric(5, 400.0).value == pytest.approx(
            0.012701167890798244, rel=1e-15
        )
        assert cn.hardy_odd(5, 400.0).admissible

    def test_wrapped_names_kept(self):
        assert [fn.__name__ for fn in ALL_CONSTANTS] == [
            "classical_hardy", "hardy_antisymmetric", "hardy_odd",
            "rellich_mitidieri", "rellich_antisymmetric", "rellich_odd",
        ]
        assert cn.hardy_odd(3, 2.0, gamma=1.0) == cn.hardy_odd(3, 2.0, 1.0)


class TestAsymptotics:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_p_limit(self, d):
        # For fixed d both class constants tend to exp(-d) as p grows, their
        # gaps to it shrinking along p = 1e2, 1e3, 1e4.
        limit = math.exp(-d)
        for constant in (cn.hardy_antisymmetric, cn.hardy_odd):
            gaps = [abs(constant(d, p).value - limit) for p in (1e2, 1e3, 1e4)]
            assert gaps[-1] < 1e-3
            assert gaps[0] > gaps[1] > gaps[2]

    def test_growth_rates(self):
        # For fixed p the antisymmetric constant grows like (d^2/p)^p, the
        # classical one like (d/p)^p and the antisymmetric Rellich one like
        # ((p-1) d^4 / p^2)^p: each ratio approaches 1 monotonically in
        # distance along d = 10, 100, 1000.
        p = 2.0
        for constant, rate in (
            (cn.hardy_antisymmetric, lambda d: (d * d / p) ** p),
            (cn.classical_hardy, lambda d: (d / p) ** p),
            (cn.rellich_antisymmetric, lambda d: ((p - 1.0) * d**4 / p**2) ** p),
        ):
            dists = [abs(constant(d, p).value / rate(d) - 1.0)
                     for d in (10, 100, 1000)]
            assert dists[-1] < 0.01
            assert dists == sorted(dists, reverse=True)


class TestParams:
    def test_lambda_by_class(self):
        assert cn.Params(4, 2, 0.0, cn.FunctionClass.ANTISYMMETRIC).lam == 6.0
        assert cn.Params(4, 2, 0.0, cn.FunctionClass.ODD).lam == 1.0
        assert cn.Params(4, 2, 0.0, cn.FunctionClass.GENERAL).lam == 0.0

    def test_validation(self):
        with pytest.raises(InvalidDimensionError):
            cn.Params(0, 2)
        with pytest.raises(OutOfRangeError):
            cn.Params(3, 0.5)
        with pytest.raises(InvalidDimensionError):
            cn.Params(1, 2, 0.0, cn.FunctionClass.ANTISYMMETRIC)

    @pytest.mark.parametrize(
        "p, gamma",
        [(INF, 0.0), (-INF, 0.0), (NAN, 0.0), (2.5, INF), (2.5, -INF),
         (2.5, NAN)],
    )
    def test_non_finite_refused(self, p, gamma):
        # p < 1.0 is false for NaN, so only an explicit check refuses it.
        with pytest.raises(OutOfRangeError, match="finite"):
            cn.Params(3, p, gamma, cn.FunctionClass.ANTISYMMETRIC)

    def test_reference_constant_dispatch(self):
        p = cn.Params(3, 2, 0.0, cn.FunctionClass.ANTISYMMETRIC)
        assert cn.reference_constant(p, cn.Functional.HARDY).value == 12.25
        assert cn.reference_constant(p, cn.Functional.RELLICH).value == pytest.approx(
            126.5625
        )
        po = cn.Params(3, 2, 0.0, cn.FunctionClass.ODD)
        assert cn.reference_constant(po, cn.Functional.HARDY).value == 2.25
        pg = cn.Params(3, 2, 0.0, cn.FunctionClass.GENERAL)
        assert cn.reference_constant(pg, cn.Functional.HARDY).value == 0.25
        # The weighted unrestricted constant (|d - p - gamma| / p)^p.
        weighted = cn.reference_constant(
            cn.Params(3, 2, 1.0, cn.FunctionClass.GENERAL), cn.Functional.HARDY
        )
        assert weighted.value == 0.0
        assert weighted.formula_id == "classical_hardy"
        assert cn.reference_constant(
            cn.Params(5, 2, 1.0, cn.FunctionClass.GENERAL), cn.Functional.HARDY
        ).value == 1.0

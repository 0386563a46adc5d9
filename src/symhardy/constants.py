"""Closed-form Hardy and Rellich constants with admissibility checks.

A Hardy constant C bounds int |grad u|^p |x|^-gamma dx from below by
C int |u|^p |x|^(-p-gamma) dx; a Rellich constant does the same with
|Delta u|^p on the left and |x|^(-2p-gamma) on the right.  With lam the
homogeneity order of the class's angular factor, each is one of

    Hardy    B^(p/2),  B = 4 (p-2+gamma) lam / p^2 + ((d+2 lam-p-gamma)/p)^2
    Rellich  (N/p^2)^p,  N = (gamma+2p-2) (4 (p-1) lam + p (d-gamma-2p))
                             + (p-1) (d + 2 lam - gamma - 2p)^2

    class     least d  lam        Hardy                Rellich
    general   1        0          classical_hardy      rellich_mitidieri
    odd       1        1          hardy_odd            rellich_odd
    antisym   2        d(d-1)/2   hardy_antisymmetric  rellich_antisymmetric

At p != 2 the odd class is u odd under the reflection in the hyperplane
sum x_k = 0, so u = 0 there.  N follows from B at p = 2 by Mitidieri's
chain, and both grow with lam (``tests/test_derivations.py``).  The
general class keeps its factored forms, whose rounding and admissibility
differ.  Inadmissible values (NaN when not real) are flagged; broken
preconditions and float overflow raise named errors.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidDimensionError, OutOfRangeError

__all__ = [
    "FunctionClass", "Functional", "Params", "ConstantValue",
    "classical_hardy", "hardy_antisymmetric", "hardy_odd",
    "rellich_mitidieri", "rellich_antisymmetric", "rellich_odd",
    "reference_constant",
]


class FunctionClass(Enum):
    """A symmetry class, the one key of every class fact: its least
    dimension and the homogeneity lam of its angular factor here, the
    factor in ``polynomials`` and the sector in ``fields``."""

    GENERAL = "general"
    ANTISYMMETRIC = "antisym"
    ODD = "odd"

    @property
    def least_dimension(self):
        """The least d with a nonzero function of the class."""
        return 2 if self is FunctionClass.ANTISYMMETRIC else 1

    def lam(self, d):
        """Homogeneity order of the class's angular factor in dimension d."""
        if self is FunctionClass.ANTISYMMETRIC:
            return d * (d - 1) / 2.0
        return 1.0 if self is FunctionClass.ODD else 0.0

    def check_dimension(self, d):
        if d < self.least_dimension:
            raise InvalidDimensionError(
                f"the {self.name.lower()} class needs d >= {self.least_dimension}"
            )

    def tabulated(self, d, p):
        """Whether the constants table has a row of the class at (d, p):
        d is at least the least dimension, and p >= 2 unless the class is
        general, as the certificate method gives the other Hardy constants."""
        return d >= self.least_dimension and not (
            p < 2.0 and self is not FunctionClass.GENERAL
        )


class Functional(Enum):
    HARDY = "hardy"
    RELLICH = "rellich"


@dataclass(frozen=True)
class Params:
    """Problem parameters: dimension, exponent, weight power, class."""

    d: int
    p: float
    gamma: float = 0.0
    klass: FunctionClass = FunctionClass.GENERAL

    def __post_init__(self):
        _check_args(self.d, self.p, self.gamma)
        object.__setattr__(self, "d", int(self.d))
        if self.p < 1.0:
            raise OutOfRangeError("p must be >= 1")
        self.klass.check_dimension(self.d)

    @property
    def lam(self):
        """Homogeneity order of the class's angular factor."""
        return self.klass.lam(self.d)


@dataclass(frozen=True)
class ConstantValue:
    """A constant with its admissibility verdict; ``condition_residual`` is
    what a Rellich formula needs >= 0 (N, or Mitidieri's min(f1, f2))."""

    value: float
    formula_id: str
    admissible: bool
    condition_residual: float | None = None


def _check_args(d, p, gamma):
    if int(d) != d or d < 1:
        raise InvalidDimensionError("d must be an integer >= 1")
    if not (math.isfinite(p) and math.isfinite(gamma)):
        raise OutOfRangeError(
            f"p and gamma must be finite, got p={p}, gamma={gamma}"
        )


def _real_power(base, p):
    """base**p on the reals: NaN when base < 0 and p is fractional."""
    if base >= 0.0:
        return base**p
    n = round(p)
    if abs(p - n) < 1e-12:
        return float(base ** int(n))
    return float("nan")


# B and N; integer literals round like floats and stay exact on symbols.
def _hardy_base(d, p, gamma, lam):
    a = (d + 2 * lam - p - gamma) / p
    return 4 * (p - 2 + gamma) * lam / p**2 + a**2


def _rellich_numerator(d, p, gamma, lam):
    m, s = gamma + 2 * p - 2, d + 2 * lam - gamma - 2 * p
    return m * (4 * (p - 1) * lam + p * (d - gamma - 2 * p)) + (p - 1) * s**2


def _guarded(formula):
    """Check ``formula``'s arguments, and raise a float overflow inside it
    as ``OutOfRangeError``."""

    @functools.wraps(formula)
    def constant(d, p, gamma=0.0):
        try:
            _check_args(d, p, gamma)
            return formula(d, p, gamma)
        except OverflowError as exc:
            raise OutOfRangeError(
                f"{formula.__name__} overflows a float at d={d}, p={p}, "
                f"gamma={gamma}"
            ) from exc

    return constant


def _in_lam(name, functional, klass, doc):
    """``functional``'s formula at ``klass``'s lam, admissible while B or N
    (the residual) is >= 0 and d is at least the class's least dimension."""

    def constant(d, p, gamma=0.0):
        lam = klass.lam(d)
        if functional is Functional.HARDY:
            if p < 2.0:
                raise OutOfRangeError("the certificate method needs p >= 2")
            bracket = _hardy_base(d, p, gamma, lam)
            value, residual = _real_power(bracket, p / 2.0), None
        else:
            if p <= 1.0:
                raise OutOfRangeError("the Rellich constants need p > 1")
            bracket = residual = _rellich_numerator(d, p, gamma, lam)
            value = _real_power(bracket / p**2, p)
        admissible = d >= klass.least_dimension and bracket >= 0.0
        return ConstantValue(value, name, admissible, residual)

    constant.__name__ = constant.__qualname__ = name
    constant.__doc__ = doc
    return _guarded(constant)


@_guarded
def classical_hardy(d, p, gamma=0.0):
    """(|d - p - gamma| / p)**p, the unrestricted weighted Hardy constant."""
    if p < 1.0:
        raise OutOfRangeError("the classical constant needs p >= 1")
    value = (abs(d - p - gamma) / p) ** p
    return ConstantValue(value, "classical_hardy", True)


@_guarded
def rellich_mitidieri(d, p, gamma=0.0):
    """Unrestricted weighted Rellich constant (f1 f2 / p^2)^p: sharp and
    admissible while f1 = d - gamma - 2p and f2 = (p-1) d + gamma are > 0;
    the residual min(f1, f2) is the distance to the nearer endpoint."""
    if p <= 1.0:
        raise OutOfRangeError("the Rellich constants need p > 1")
    f1 = d - gamma - 2.0 * p
    f2 = (p - 1.0) * d + gamma
    residual = min(f1, f2)
    value = _real_power(f1 * f2 / p**2, p)
    return ConstantValue(value, "rellich_mitidieri", residual > 0.0, residual)


_ODD = (" At p != 2 it covers u odd under the reflection in the hyperplane"
        " sum x_k = 0, so u = 0 there.")
hardy_antisymmetric = _in_lam(
    "hardy_antisymmetric", Functional.HARDY, FunctionClass.ANTISYMMETRIC,
    "Antisymmetric-class Hardy constant, lam = d(d-1)/2; needs d >= 2.")
hardy_odd = _in_lam("hardy_odd", Functional.HARDY, FunctionClass.ODD,
                    "Odd-class Hardy constant, lam = 1." + _ODD)
rellich_antisymmetric = _in_lam(
    "rellich_antisymmetric", Functional.RELLICH, FunctionClass.ANTISYMMETRIC,
    "Antisymmetric-class Rellich constant, lam = d(d-1)/2.")
rellich_odd = _in_lam("rellich_odd", Functional.RELLICH, FunctionClass.ODD,
                      "Odd-class Rellich constant, lam = 1." + _ODD)

_TABLE = {
    (Functional.HARDY, FunctionClass.GENERAL): classical_hardy,
    (Functional.HARDY, FunctionClass.ODD): hardy_odd,
    (Functional.HARDY, FunctionClass.ANTISYMMETRIC): hardy_antisymmetric,
    (Functional.RELLICH, FunctionClass.GENERAL): rellich_mitidieri,
    (Functional.RELLICH, FunctionClass.ODD): rellich_odd,
    (Functional.RELLICH, FunctionClass.ANTISYMMETRIC): rellich_antisymmetric,
}


def reference_constant(params: Params, functional: Functional) -> ConstantValue:
    """The constant a Rayleigh quotient in this class is compared against."""
    return _TABLE[functional, params.klass](params.d, params.p, params.gamma)

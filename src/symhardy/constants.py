"""Closed-form Hardy and Rellich constants with admissibility checks.

A Hardy constant ``C`` bounds the weighted gradient energy from below,

    int |grad u|^p |x|^{-gamma} dx  >=  C  int |u|^p |x|^{-p-gamma} dx,

and a Rellich constant does the same with ``|Delta u|^p`` on the left and
``|x|^{-2p-gamma}`` on the right.  Restricting ``u`` to the antisymmetric
or odd class enlarges the constant; the formulas here evaluate every such
constant in closed form.

Inadmissible parameter combinations do not raise: the algebraic value is
still computed (NaN when it is not real) and flagged ``admissible=False``,
so sweep tools can plot the admissibility boundary.  Hard preconditions
such as ``p >= 2`` for the class-restricted Hardy formulas, and finite
``p`` and ``gamma`` everywhere, do raise, and so does a formula whose
value or intermediate overflows a float (for example the Rellich
constants at d = 5, p = 400).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidDimensionError, OutOfRangeError

__all__ = [
    "FunctionClass",
    "Functional",
    "Params",
    "ConstantValue",
    "classical_hardy",
    "hardy_antisymmetric",
    "hardy_odd",
    "rellich_mitidieri",
    "rellich_antisymmetric",
    "rellich_odd",
    "reference_constant",
]


class FunctionClass(Enum):
    GENERAL = "general"
    ANTISYMMETRIC = "antisym"
    ODD = "odd"


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
        if self.klass is FunctionClass.ANTISYMMETRIC and self.d < 2:
            raise InvalidDimensionError("the antisymmetric class needs d >= 2")

    @property
    def lam(self):
        """Homogeneity order of the class's angular factor."""
        if self.klass is FunctionClass.ANTISYMMETRIC:
            return self.d * (self.d - 1) / 2.0
        if self.klass is FunctionClass.ODD:
            return 1.0
        return 0.0


@dataclass(frozen=True)
class ConstantValue:
    """A constant together with its admissibility verdict.

    ``condition_residual`` is the quantity whose nonnegativity the Rellich
    formulas require (the numerator before the outer power); it is None
    for the Hardy family.
    """

    value: float
    formula_id: str
    admissible: bool
    condition_residual: float | None = None

    def __float__(self):
        return float(self.value)


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


def _refuse_overflow(formula):
    """Raise a float overflow inside ``formula`` as ``OutOfRangeError``."""

    @functools.wraps(formula)
    def constant(d, p, gamma=0.0):
        try:
            return formula(d, p, gamma)
        except OverflowError as exc:
            raise OutOfRangeError(
                f"{formula.__name__} overflows a float at d={d}, p={p}, "
                f"gamma={gamma}"
            ) from exc

    return constant


@_refuse_overflow
def classical_hardy(d, p, gamma=0.0):
    """(|d - p - gamma| / p)**p, the unrestricted weighted Hardy constant;
    vanishes at p + gamma = d."""
    _check_args(d, p, gamma)
    if p < 1.0:
        raise OutOfRangeError("the classical constant needs p >= 1")
    value = (abs(d - p - gamma) / p) ** p
    return ConstantValue(value, "classical_hardy", True)


@_refuse_overflow
def hardy_antisymmetric(d, p, gamma=0.0):
    """Antisymmetric-class Hardy constant.

    C(d, p, gamma) = (2 (p-2+gamma) d (d-1) / p^2
                      + ((d^2 - p - gamma) / p)^2)^(p/2).

    Defined by the certificate method for p >= 2 and d >= 2; the value is
    still computed for d = 1 with admissible=False.
    """
    _check_args(d, p, gamma)
    if p < 2.0:
        raise OutOfRangeError("the certificate method needs p >= 2")
    base = 2.0 * (p - 2.0 + gamma) * d * (d - 1.0) / p**2 + (
        (d * d - p - gamma) / p
    ) ** 2
    value = _real_power(base, p / 2.0)
    admissible = d >= 2 and base >= 0.0
    return ConstantValue(value, "hardy_antisymmetric", admissible)


@_refuse_overflow
def hardy_odd(d, p, gamma=0.0):
    """Odd-class Hardy constant.

    D(d, p, gamma) = (4 (p-2+gamma) / p^2
                      + ((d - p - gamma + 2) / p)^2)^(p/2).
    """
    _check_args(d, p, gamma)
    if p < 2.0:
        raise OutOfRangeError("the certificate method needs p >= 2")
    base = 4.0 * (p - 2.0 + gamma) / p**2 + ((d - p - gamma + 2.0) / p) ** 2
    value = _real_power(base, p / 2.0)
    return ConstantValue(value, "hardy_odd", base >= 0.0)


@_refuse_overflow
def rellich_mitidieri(d, p, gamma=0.0):
    """Unrestricted weighted Rellich constant.

    ((d - gamma - 2p) ((p-1) d + gamma) / p^2)^p, sharp on the open
    interval -(p-1) d < gamma < d - 2p.  Outside it the algebraic value is
    returned with admissible=False; the residual is the distance to the
    nearer interval endpoint.
    """
    _check_args(d, p, gamma)
    if p <= 1.0:
        raise OutOfRangeError("the Rellich constants need p > 1")
    f1 = d - gamma - 2.0 * p
    f2 = (p - 1.0) * d + gamma
    residual = min(f1, f2)
    value = _real_power(f1 * f2 / p**2, p)
    return ConstantValue(value, "rellich_mitidieri", residual > 0.0, residual)


@_refuse_overflow
def rellich_antisymmetric(d, p, gamma=0.0):
    """Antisymmetric-class Rellich constant, (N / p^2)^p with

    N = (gamma + 2p - 2) (2 (p-1) d (d-1) + p (d - gamma - 2p))
        + (p-1) (d^2 - gamma - 2p)^2,

    admissible while N >= 0 (and d >= 2).
    """
    _check_args(d, p, gamma)
    if p <= 1.0:
        raise OutOfRangeError("the Rellich constants need p > 1")
    N = (gamma + 2.0 * p - 2.0) * (
        2.0 * (p - 1.0) * d * (d - 1.0) + p * (d - gamma - 2.0 * p)
    ) + (p - 1.0) * (d * d - gamma - 2.0 * p) ** 2
    value = _real_power(N / p**2, p)
    return ConstantValue(value, "rellich_antisymmetric", d >= 2 and N >= 0.0, N)


@_refuse_overflow
def rellich_odd(d, p, gamma=0.0):
    """Odd-class Rellich constant, (N / p^2)^p with

    N = (gamma + 2p - 2) (4 (p-1) + p (d - gamma - 2p))
        + (p-1) (d - gamma - 2p + 2)^2.
    """
    _check_args(d, p, gamma)
    if p <= 1.0:
        raise OutOfRangeError("the Rellich constants need p > 1")
    N = (gamma + 2.0 * p - 2.0) * (
        4.0 * (p - 1.0) + p * (d - gamma - 2.0 * p)
    ) + (p - 1.0) * (d - gamma - 2.0 * p + 2.0) ** 2
    value = _real_power(N / p**2, p)
    return ConstantValue(value, "rellich_odd", N >= 0.0, N)


def reference_constant(params: Params, functional: Functional) -> ConstantValue:
    """The constant a Rayleigh quotient in this class is compared against."""
    d, p, gamma = params.d, params.p, params.gamma
    if functional is Functional.HARDY:
        if params.klass is FunctionClass.ANTISYMMETRIC:
            return hardy_antisymmetric(d, p, gamma)
        if params.klass is FunctionClass.ODD:
            return hardy_odd(d, p, gamma)
        return classical_hardy(d, p, gamma)
    if params.klass is FunctionClass.ANTISYMMETRIC:
        return rellich_antisymmetric(d, p, gamma)
    if params.klass is FunctionClass.ODD:
        return rellich_odd(d, p, gamma)
    return rellich_mitidieri(d, p, gamma)

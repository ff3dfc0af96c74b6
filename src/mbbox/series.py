"""Truncated Laurent series in the dimensional regulator.

A :class:`RegulatorSeries` is known on the fixed window of powers
``min_power .. max_power``: its coefficients below the window vanish, and
those above it are unknown.  Every operation keeps only the window that its
operands determine, so a result never claims a power it does not have.
Python numbers are the only exact constants.

No route uses this module.  It is the truncated-series helper from which
the Laurent tests build their reference for
:func:`mbbox.closed_form.massless_box_laurent`, and the benchmark's tracer
binds its names.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZeroSeries, DomainError
from .specfun import digamma, ln_gamma, polygamma

__all__ = ["RegulatorSeries", "gamma_series", "power_series"]


@dataclass(frozen=True)
class RegulatorSeries:
    """Laurent series known on the powers ``min_power .. max_power``."""

    min_power: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("empty coefficient window")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def max_power(self) -> int:
        return self.min_power + len(self.coeffs) - 1

    def coeff(self, power: int):
        """Coefficient of the given power: 0 below the window, unknown above it."""
        if power > self.max_power:
            raise DomainError(f"coefficient of power {power} not determined "
                              f"(window {self.min_power}..{self.max_power})")
        return self.coeffs[power - self.min_power] if power >= self.min_power else 0j

    def truncated(self, max_power: int) -> "RegulatorSeries":
        """Drop knowledge above ``max_power``."""
        if max_power < self.min_power:
            return RegulatorSeries(max_power, (0j,))
        return RegulatorSeries(self.min_power, self.coeffs[:max_power - self.min_power + 1])

    def shifted(self, k: int) -> "RegulatorSeries":
        """Multiply by the regulator to the power ``k``."""
        return RegulatorSeries(self.min_power + k, self.coeffs)

    def scaled_arg(self, q) -> "RegulatorSeries":
        """Substitute ``xi -> q*xi`` (q nonzero)."""
        if q == 0:
            raise DomainError("argument scale must be nonzero")
        q = complex(q)
        return RegulatorSeries(self.min_power, tuple(
            c * q ** (self.min_power + i) for i, c in enumerate(self.coeffs)))

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = RegulatorSeries(0, (other,) + (0,) * max(0, self.max_power))
        if not isinstance(other, RegulatorSeries):
            return NotImplemented
        lo = min(self.min_power, other.min_power)
        hi = min(self.max_power, other.max_power)
        return RegulatorSeries(lo, tuple(self.coeff(p) + other.coeff(p)
                                         for p in range(lo, hi + 1)))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return RegulatorSeries(self.min_power, tuple(other * c for c in self.coeffs))
        if not isinstance(other, RegulatorSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        product = np.convolve(self.coeffs[:n], other.coeffs[:n])[:n]
        return RegulatorSeries(self.min_power + other.min_power, product.tolist())

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RegulatorSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if b[0] == 0:
            raise DivisionByZeroSeries("the divisor's leading coefficient is 0")
        q: list = []
        for k in range(min(len(a), len(b))):
            q.append((a[k] - sum(q[j] * b[k - j] for j in range(k))) / b[0])
        return RegulatorSeries(self.min_power - other.min_power, q)

    def exp(self) -> "RegulatorSeries":
        """exp of the series on ``0 .. max_power``, from E' = u' E; the pole
        part must vanish."""
        if any(self.coeff(p) != 0 for p in range(self.min_power, 0)):
            raise DomainError("exp of a series with a pole part")
        u = [self.coeff(p) for p in range(self.max_power + 1)]
        e = [cmath.exp(u[0])]
        for n in range(1, len(u)):
            e.append(sum(k * u[k] * e[n - k] for k in range(1, n + 1)) / n)
        return RegulatorSeries(0, e)


def gamma_series(a: float, order: int) -> RegulatorSeries:
    """Taylor expansion of Gamma(a + xi) through xi**order, away from the poles.

    It is the exponential of the Taylor series of ln Gamma, whose
    coefficients are digamma and polygamma.
    """
    if not 0 <= order <= 4:
        raise DomainError("gamma_series supports orders 0 .. 4")
    lg = [complex(ln_gamma(a)), digamma(a)]
    fact = 1.0
    for k in range(2, order + 1):
        fact *= k
        lg.append(complex(polygamma(k - 1, a)) / fact)
    return RegulatorSeries(0, tuple(lg[: order + 1])).exp()


def power_series(base: float, order: int) -> RegulatorSeries:
    """Expansion of base**xi = exp(xi log base) through xi**order, base > 0."""
    if not base > 0.0:
        raise DomainError(f"power_series needs a positive base, got {base}")
    lb = math.log(base)
    cs = [1.0]
    for k in range(1, order + 1):
        cs.append(cs[-1] * lb / k)
    return RegulatorSeries(0, tuple(cs))

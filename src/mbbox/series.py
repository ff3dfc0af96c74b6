"""Truncated Laurent-series algebra in the dimensional regulator.

A :class:`RegulatorSeries` stores coefficients for a contiguous window of
powers ``min_power .. min_power + len(coeffs) - 1``.  Powers below the
window are known to vanish; powers above it are *unknown* unless the
series is marked ``exact`` (a genuine Laurent polynomial).  Arithmetic
tracks the largest power that is still fully determined, so products of
truncated series never claim more accuracy than they have.

No route uses this module.  The Laurent expansions in eps
(:func:`mbbox.closed_form.massless_box_laurent` and its one-mass twin)
return their three coefficients as a tuple of floats, from the constant
coefficients of their gamma prefactor, and the residue routes read the
coefficients of their auxiliary regulator off Gamma and psi.  The module
stays only because the benchmark's tracer binds its names.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DivisionByZeroSeries, DomainError
from .specfun import (
    digamma,
    ln_gamma,
    polygamma,
)

__all__ = [
    "RegulatorSeries",
    "DEFAULT_TOP",
    "gamma_series",
    "power_series",
]


# Highest power that a quotient or exp of exact series is carried to: the
# boxes are expanded through eps^0 after a shift by eps^-2.
DEFAULT_TOP = 2


def _trim(min_power: int, coeffs: tuple, exact: bool):
    cs = list(coeffs)
    while len(cs) > 1 and cs[0] == 0:
        cs.pop(0)
        min_power += 1
    if exact:
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
    if all(c == 0 for c in cs):
        cs = [0j]
    return min_power, tuple(complex(c) for c in cs)


@dataclass(frozen=True)
class RegulatorSeries:
    """Laurent series truncated to a contiguous coefficient window."""

    min_power: int
    coeffs: tuple
    exact: bool = False

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("empty coefficient window")
        m, cs = _trim(self.min_power, self.coeffs, self.exact)
        object.__setattr__(self, "min_power", m)
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "RegulatorSeries":
        return cls(0, (complex(value),), exact=True)

    @classmethod
    def variable(cls) -> "RegulatorSeries":
        return cls(1, (1.0 + 0j,), exact=True)

    @classmethod
    def zero(cls) -> "RegulatorSeries":
        return cls(0, (0j,), exact=True)

    # -- inspection --------------------------------------------------------

    @property
    def max_power(self) -> int:
        return self.min_power + len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, power: int) -> complex:
        """Coefficient of the given power; raises if it is not determined."""
        if power < self.min_power:
            return 0j
        if power > self.max_power:
            if self.exact:
                return 0j
            raise DomainError(f"coefficient of power {power} not determined "
                              f"(window {self.min_power}..{self.max_power})")
        return self.coeffs[power - self.min_power]

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RegulatorSeries):
            return other
        if isinstance(other, (int, float, complex)):
            return RegulatorSeries.constant(other)
        return NotImplemented

    def _get(self, power: int) -> complex:
        if self.min_power <= power <= self.max_power:
            return self.coeffs[power - self.min_power]
        return 0j

    def truncated(self, max_power: int) -> "RegulatorSeries":
        """Drop knowledge above ``max_power`` (marks the result inexact)."""
        if max_power < self.min_power:
            return RegulatorSeries(max_power, (0j,), exact=False)
        top = min(max_power, self.max_power) if not self.exact else max_power
        cs = tuple(self._get(p) for p in range(self.min_power, top + 1))
        return RegulatorSeries(self.min_power, cs, exact=False)

    def shifted(self, k: int) -> "RegulatorSeries":
        """Multiply by the regulator to the power ``k``."""
        return RegulatorSeries(self.min_power + k, self.coeffs, self.exact)

    def scaled_arg(self, q) -> "RegulatorSeries":
        """Substitute ``xi -> q*xi`` (q nonzero)."""
        if q == 0:
            raise DomainError("argument scale must be nonzero")
        q = complex(q)
        cs = tuple(c * q ** (self.min_power + i) for i, c in enumerate(self.coeffs))
        return RegulatorSeries(self.min_power, cs, self.exact)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return RegulatorSeries(self.min_power, tuple(-c for c in self.coeffs), self.exact)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = min(self.min_power, other.min_power)
        if self.exact and other.exact:
            top = max(self.max_power, other.max_power)
        elif self.exact:
            top = other.max_power
        elif other.exact:
            top = self.max_power
        else:
            top = min(self.max_power, other.max_power)
        if top < m:
            top = m
        cs = tuple(self._get(p) + other._get(p) for p in range(m, top + 1))
        return RegulatorSeries(m, cs, self.exact and other.exact)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # only an exact zero annihilates: 0 + O(xi^k) keeps its truncation
        if (self.exact and self.is_zero) or (other.exact and other.is_zero):
            return RegulatorSeries.zero()
        m = self.min_power + other.min_power
        if self.exact and other.exact:
            top = self.max_power + other.max_power
        else:
            tops = []
            if not self.exact:
                tops.append(self.max_power + other.min_power)
            if not other.exact:
                tops.append(other.max_power + self.min_power)
            top = min(tops)
        cs = []
        for p in range(m, top + 1):
            acc = 0j
            for i in range(self.min_power, self.max_power + 1):
                j = p - i
                if other.min_power <= j <= other.max_power:
                    acc += self._get(i) * other._get(j)
            cs.append(acc)
        return RegulatorSeries(m, tuple(cs), self.exact and other.exact)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZeroSeries("division by the zero series")
        mb = other.min_power
        lead = other.coeffs[0]
        mq = self.min_power - mb
        if self.exact and other.exact:
            top = max(DEFAULT_TOP, mq)
        else:
            tops = []
            if not self.exact:
                tops.append(self.max_power - mb)
            if not other.exact:
                tops.append(self.min_power - 2 * mb + other.max_power)
            top = min(tops)
        if top < mq:
            raise DomainError("division leaves no determined coefficients")
        q: list[complex] = []
        for k in range(top - mq + 1):
            acc = self._get(self.min_power + k)
            for j in range(k):
                acc -= q[j] * other._get(mb + k - j)
            q.append(acc / lead)
        return RegulatorSeries(mq, tuple(q), exact=False)

    def __rtruediv__(self, other):
        return RegulatorSeries.constant(other) / self

    # -- transcendental maps -----------------------------------------------

    def exp(self) -> "RegulatorSeries":
        """exp of the series; the pole part must vanish."""
        if self.min_power < 0 and any(c != 0 for c in self.coeffs[:max(0, -self.min_power)]):
            raise DomainError("exp of a series with a pole part")
        if self.exact:
            top = DEFAULT_TOP
        else:
            top = self.max_power
        c0 = self._get(0)
        # u has min_power >= 1
        u = [self._get(p) for p in range(1, top + 1)]
        out = [0j] * (top + 1)
        out[0] = 1.0 + 0j
        term = [0j] * (top + 1)
        term[0] = 1.0 + 0j
        for k in range(1, top + 1):
            new = [0j] * (top + 1)
            for i in range(top + 1):
                if term[i] == 0:
                    continue
                for j, uj in enumerate(u, start=1):
                    if i + j <= top:
                        new[i + j] += term[i] * uj
            term = [c / k for c in new]
            for i in range(top + 1):
                out[i] += term[i]
            if all(c == 0 for c in term):
                break
        scale = cmath.exp(c0)
        return RegulatorSeries(0, tuple(scale * c for c in out), exact=False)


# ---------------------------------------------------------------------------
# series-valued special functions
# ---------------------------------------------------------------------------

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
    return RegulatorSeries(0, tuple(lg[: order + 1]), exact=False).exp()


def power_series(base: float, order: int) -> RegulatorSeries:
    """Expansion of base**xi = exp(xi log base) through xi**order, base > 0."""
    if not base > 0.0:
        raise DomainError(f"power_series needs a positive base, got {base}")
    lb = math.log(base)
    cs = [1.0]
    for k in range(1, order + 1):
        cs.append(cs[-1] * lb / k)
    return RegulatorSeries(0, tuple(cs), exact=False)

"""Closed-form box-integral evaluators and their regulator expansions.

The massless box and the box with one off-shell external leg are evaluated
from their exact hypergeometric representations, in two algebraically
different forms each, plus the Laurent expansion through the finite order.
All evaluations are restricted to the Euclidean region (every invariant
negative), where the principal-value prescription renders the results real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateKinematics, EuclideanRegionViolation
from .series import RegulatorSeries, gamma_series, power_series
from .specfun import (
    PV,
    CutPrescription,
    f21_1e,
    f21_2e,
    li2,
    ln_gamma,
)

__all__ = [
    "Kinematics",
    "BoxValue",
    "massless_box",
    "massless_box_alt",
    "massless_box_laurent",
    "onemass_box",
    "onemass_box_alt",
    "onemass_box_laurent",
]

DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class Kinematics:
    """A single evaluation point: invariants s, t, optional m^2, and eps.

    Every invariant must be finite, and the Euclidean region is enforced:
    s < 0, t < 0, and msq < 0 when given.
    Degenerate boundaries (s + t = m^2, s = m^2, t = m^2) are rejected
    because the hypergeometric arguments blow up there.
    """

    s: float
    t: float
    eps: float
    msq: float | None = None

    def __post_init__(self):
        for name in ("s", "t", "msq", "eps"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DegenerateKinematics(f"{name}={value} is not finite")
        if not (self.s < 0.0 and self.t < 0.0):
            raise EuclideanRegionViolation(
                f"need s < 0 and t < 0, got s={self.s}, t={self.t}")
        if self.msq is not None and not (self.msq < 0.0):
            raise EuclideanRegionViolation(f"need msq < 0, got msq={self.msq}")
        if not (0.0 < self.eps < 1.0):
            raise DegenerateKinematics(f"need 0 < eps < 1, got eps={self.eps}")
        if self.msq is not None:
            scale = max(abs(self.s), abs(self.t), abs(self.msq))
            for name, x in (("s + t", self.s + self.t), ("s", self.s), ("t", self.t)):
                if abs(x - self.msq) < DEGENERACY_RTOL * scale:
                    raise DegenerateKinematics(f"{name} - msq too close to zero")

    def require_massless(self):
        if self.msq is not None:
            raise DegenerateKinematics("operation defined for msq absent")

    def require_onemass(self):
        if self.msq is None:
            raise DegenerateKinematics("operation requires msq")


@dataclass(frozen=True)
class BoxValue:
    """A box-integral value with its evaluation route and diagnostics."""

    value: complex
    method: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the channel sum shared by both boxes
# ---------------------------------------------------------------------------

def _channels(k: Kinematics) -> tuple:
    """(sign, -invariant, 2F1 argument) of each channel, with q = s + t - msq;
    the massless box is the one-mass box without its subtracted msq channel."""
    s, t = k.s, k.t
    q = s + t - (k.msq or 0.0)
    if k.msq is None:
        return ((1.0, -s, q / t), (1.0, -t, q / s))
    return ((1.0, -s, q / t), (-1.0, -k.msq, k.msq * q / (s * t)), (1.0, -t, q / s))


def _gammas(e: float) -> tuple:
    # Gamma(e)^2 / Gamma(2e) and Gamma(1-e), from log space
    return (math.exp(2.0 * ln_gamma(e).real - ln_gamma(2.0 * e).real),
            math.exp(ln_gamma(1.0 - e).real))


def _closed(k: Kinematics, cut: CutPrescription) -> complex:
    e = k.eps
    g2, g1me = _gammas(e)
    total = sum(sign * neg ** e * f21_1e(z, e, cut) for sign, neg, z in _channels(k))
    return g2 * g1me / e / (k.s * k.t) * total


def _closed_alt(k: Kinematics, cut: CutPrescription) -> complex:
    # F(1,e;1+e;z)/e = 1/e + z/(1+e) F(1,1+e;2+e;z), channel by channel
    e = k.eps
    g2, g1me = _gammas(e)
    head = tail = 0.0
    for sign, neg, z in _channels(k):
        power = sign * neg ** e / (k.s * k.t)
        head += power
        tail += power * z * f21_2e(z, e, cut)
    # head and tail cancel to 1e-9 at (s, t, msq, e) = (-1, -1e-3, -1e3, 0.99),
    # so the order of these roundings sets the route's error there (6e-8)
    return g2 * (g1me / e * head + g1me / (1.0 + e) * tail)


def _laurent(k: Kinematics) -> RegulatorSeries:
    s, t = k.s, k.t
    m2 = k.msq or 0.0
    u = (m2 - t) / s
    v = (m2 - s) / t
    # at msq = 0, uv = 1 and this is -log(s/t)^2/2 - pi^2/2
    combo = (li2(u, PV) + li2(v, PV) - li2(u * v, PV)).real - math.pi ** 2 / 6.0
    powers = power_series(-s, 2) + power_series(-t, 2)
    if k.msq is not None:
        powers = powers - power_series(-m2, 2)
    g = gamma_series(1.0, 2)  # times Gamma(1-e) Gamma(1+e)^2 / Gamma(1+2e)
    series = g.scaled_arg(-1) * g * g / g.scaled_arg(2) \
        * (powers + RegulatorSeries(2, (complex(combo),)))
    return (series * (2.0 / (s * t))).shifted(-2).truncated(0)


# ---------------------------------------------------------------------------
# the public routes: massless and one-mass box
# ---------------------------------------------------------------------------

def massless_box(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Exact massless box from the two-term hypergeometric representation."""
    k.require_massless()
    return BoxValue(_closed(k, cut), "closed")


def massless_box_alt(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Massless box in the shifted-parameter form.

    Algebraically equal to :func:`massless_box` through the contiguous
    relation between the two hypergeometric families; evaluating both is a
    nontrivial numerical cross-check.
    """
    k.require_massless()
    return BoxValue(_closed_alt(k, cut), "closed_alt")


def massless_box_laurent(k: Kinematics) -> RegulatorSeries:
    """Laurent expansion of the massless box through the finite order.

    Assembled analytically from the series module: the double pole carries
    the two power factors, and the finite part collects the dilogarithm
    combination, which reduces to -log(s/t)^2/2 - pi^2/2.
    """
    k.require_massless()
    return _laurent(k)


def onemass_box(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Exact one-mass box: mass-channel pair plus the t-channel term."""
    k.require_onemass()
    return BoxValue(_closed(k, cut), "closed")


def onemass_box_alt(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """One-mass box in the three-power shifted-parameter form."""
    k.require_onemass()
    return BoxValue(_closed_alt(k, cut), "closed_alt")


def onemass_box_laurent(k: Kinematics) -> RegulatorSeries:
    """Laurent expansion of the one-mass box through the finite order.

    The pole part carries the three power factors; the finite part adds the
    dilogarithm combination
    Li2((m^2-t)/s) + Li2((m^2-s)/t) - Li2((m^2-s)(m^2-t)/(s t)) - pi^2/6,
    with principal values where an argument exceeds one.
    """
    k.require_onemass()
    return _laurent(k)

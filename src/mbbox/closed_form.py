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
from .series import RegulatorSeries
from .specfun import (
    EULER_GAMMA,
    PV,
    CutPrescription,
    f21_1e,
    f21_2e,
    gamma,
    li2,
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
DBL_MIN = 2.0 ** -1022  # the smallest normal double
# Gamma(1-e) Gamma(1+e)^2 / Gamma(1+2e) = exp(gamma_E e - pi^2 e^2 / 12 + O(e^3)) through e^2
_LAURENT_PREFACTOR = (1.0, EULER_GAMMA, EULER_GAMMA ** 2 / 2.0 - math.pi ** 2 / 12.0)


@dataclass(frozen=True)
class Kinematics:
    """A single evaluation point: invariants s, t, optional m^2, and eps.

    Every invariant must be finite, and the Euclidean region is enforced:
    s < 0, t < 0, and msq < 0 when given, with t/s and msq/s normal doubles
    (see :meth:`unit`).  Degenerate boundaries (s + t = m^2, s = m^2,
    t = m^2) are rejected because the hypergeometric arguments blow up there.
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
        for name, x in (("t/s", self.t), ("msq/s", self.msq)):
            if x is not None and not DBL_MIN <= x / self.s < math.inf:
                raise DegenerateKinematics(f"{name}={x / self.s} is not a normal double")
        if self.msq is not None:
            scale = max(abs(self.s), abs(self.t), abs(self.msq))
            for name, x in (("s + t", self.s + self.t), ("s", self.s), ("t", self.t)):
                if abs(x - self.msq) < DEGENERACY_RTOL * scale:
                    raise DegenerateKinematics(f"{name} - msq too close to zero")

    def unit(self) -> tuple["Kinematics", float]:
        """The point (-1, t/|s|, msq/|s|) and the factor (-s)^eps / s^2 that takes the
        box there to the box here, as I(l s, l t, l msq) = l^(eps-2) I.  (-s)^(eps-2)
        would cost ln(-s) ulps.  At s = -1 the factor is exactly 1; a subnormal one,
        which has lost bits, is 0, so that the scaled value is out of range."""
        scale = -self.s
        factor = scale ** self.eps / self.s / self.s
        return (Kinematics(-1.0, self.t / scale, self.eps, self.msq and self.msq / scale),
                factor if factor >= DBL_MIN else 0.0)

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
    """(sign, -invariant, 2F1 argument z, 1 - z) of each channel, with
    q = s + t - msq and 1 - z formed from the invariants; the massless box
    is the one-mass box at msq = 0 without its subtracted msq channel."""
    s, t = k.s, k.t
    m = k.msq or 0.0
    q = s + t - m
    s_channel = (1.0, -s, q / t, (m - s) / t)
    t_channel = (1.0, -t, q / s, (m - t) / s)
    if k.msq is None:
        return (s_channel, t_channel)
    return (s_channel, (-1.0, -m, m * q / (s * t), (s - m) * (t - m) / (s * t)), t_channel)


def _gammas(e: float) -> tuple:
    # Gamma(e)^2 / Gamma(2e) and Gamma(1-e); Gamma(e) ~ 1/e, so divide before squaring
    g = gamma(e).real
    return g / gamma(2.0 * e).real * g, gamma(1.0 - e).real


def _closed(k: Kinematics, cut: CutPrescription) -> complex:
    u, factor = k.unit()
    e = k.eps
    g2, g1me = _gammas(e)
    total = sum(sign * neg ** e * f21_1e(z, e, cut) for sign, neg, z, _ in _channels(u))
    return g2 * g1me / e * factor / (u.s * u.t) * total


def _closed_alt(k: Kinematics, cut: CutPrescription) -> complex:
    # F(1,e;1+e;z)/e = 1/e + z/(1+e) F(1,1+e;2+e;z), channel by channel
    u, factor = k.unit()
    e = k.eps
    g2, g1me = _gammas(e)
    head = tail = 0.0
    for sign, neg, z, _ in _channels(u):
        power = sign * neg ** e / (u.s * u.t)
        head += power
        tail += power * z * f21_2e(z, e, cut)
    # head and tail cancel to 1e-9 at (s, t, msq, e) = (-1, -1e-3, -1e3, 0.99),
    # so the order of these roundings sets the route's error there (6e-8)
    return g2 * factor * (g1me / e * head + g1me / (1.0 + e) * tail)


def _laurent(k: Kinematics) -> RegulatorSeries:
    # the channel sum of sign [(-x)^e + e^2 (Li2(1 - z) - pi^2/6)] through e^2,
    # each column summed exactly (math.fsum), times _LAURENT_PREFACTOR; at msq = 0
    # the finite part Li2(-s/t) + Li2(-t/s) - pi^2/3 is -log(s/t)^2/2 - pi^2/2.  The
    # channels are the unit point's; ln(-s) and 1/s^2 expand its factor (-s)^e / s^2
    u, _ = k.unit()
    rows = []
    for sign, neg, _, w in _channels(u):
        log = math.log(neg) + math.log(-k.s)
        rows.append((sign, sign * log,
                     sign * (0.5 * log * log + li2(w).real - math.pi ** 2 / 6.0)))
    cols = [math.fsum(column) for column in zip(*rows)]
    scale = 2.0 / (u.s * u.t) / k.s / k.s
    return RegulatorSeries(-2, tuple(
        scale * math.fsum(_LAURENT_PREFACTOR[n - j] * cols[j] for j in range(n + 1))
        for n in range(3)))


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

    Exact channel sums times the gamma prefactor's constant coefficients:
    the double pole carries the two power factors, and the finite part
    collects the dilogarithm combination, -log(s/t)^2/2 - pi^2/2.
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

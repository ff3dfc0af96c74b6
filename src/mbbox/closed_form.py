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

    The Euclidean region is enforced: s < 0, t < 0, and msq < 0 when given.
    Degenerate boundaries (s + t = m^2, s = m^2, t = m^2) are rejected
    because the hypergeometric arguments blow up there.
    """

    s: float
    t: float
    eps: float
    msq: float | None = None

    def __post_init__(self):
        if not (self.s < 0.0 and self.t < 0.0):
            raise EuclideanRegionViolation(
                f"need s < 0 and t < 0, got s={self.s}, t={self.t}")
        if self.msq is not None and not (self.msq < 0.0):
            raise EuclideanRegionViolation(f"need msq < 0, got msq={self.msq}")
        if not (0.0 < self.eps < 1.0):
            raise DegenerateKinematics(f"need 0 < eps < 1, got eps={self.eps}")
        if self.msq is not None:
            scale = max(abs(self.s), abs(self.t), abs(self.msq))
            if abs(self.s + self.t - self.msq) < DEGENERACY_RTOL * scale:
                raise DegenerateKinematics("s + t - msq too close to zero")
            if abs(self.s - self.msq) < DEGENERACY_RTOL * scale:
                raise DegenerateKinematics("s - msq too close to zero")
            if abs(self.t - self.msq) < DEGENERACY_RTOL * scale:
                raise DegenerateKinematics("t - msq too close to zero")

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
# shared prefactors
# ---------------------------------------------------------------------------

def _prefactor(k: Kinematics) -> float:
    # Gamma(e)^2 / Gamma(2e) * Gamma(1-e) / e, assembled in log space
    e = k.eps
    return math.exp(2.0 * ln_gamma(e).real - ln_gamma(2.0 * e).real
                    + ln_gamma(1.0 - e).real) / e


def _gamma_ratio_series(order: int = 2) -> RegulatorSeries:
    # Gamma(1-e) Gamma(1+e)^2 / Gamma(1+2e) as an eps-series
    num = gamma_series(1.0, order).scaled_arg(-1) * gamma_series(1.0, order) \
        * gamma_series(1.0, order)
    den = gamma_series(1.0, order).scaled_arg(2)
    return num / den


# ---------------------------------------------------------------------------
# massless box
# ---------------------------------------------------------------------------

def massless_box(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Exact massless box from the two-term hypergeometric representation."""
    k.require_massless()
    e = k.eps
    s, t = k.s, k.t
    pref = _prefactor(k) / (s * t)
    term_s = (-s) ** e * f21_1e(1.0 + s / t, e, cut)
    term_t = (-t) ** e * f21_1e(1.0 + t / s, e, cut)
    value = pref * (term_s + term_t)
    return BoxValue(value, "closed", {
        "s_term": pref * term_s,
        "t_term": pref * term_t,
    })


def massless_box_alt(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Massless box in the shifted-parameter form.

    Algebraically equal to :func:`massless_box` through the contiguous
    relation between the two hypergeometric families; evaluating both is a
    nontrivial numerical cross-check.
    """
    k.require_massless()
    e = k.eps
    s, t = k.s, k.t
    g2 = math.exp(2.0 * ln_gamma(e).real - ln_gamma(2.0 * e).real)
    g1me = math.exp(ln_gamma(1.0 - e).real)
    zs = 1.0 + s / t
    zt = 1.0 + t / s
    head = g1me / e * ((-s) ** e + (-t) ** e) / (s * t)
    tail = g1me / (1.0 + e) * (
        (-s) ** e / (s * t) * zs * f21_2e(zs, e, cut)
        + (-t) ** e / (s * t) * zt * f21_2e(zt, e, cut)
    )
    return BoxValue(g2 * (head + tail), "closed_alt", {})


def massless_box_laurent(k: Kinematics) -> RegulatorSeries:
    """Laurent expansion of the massless box through the finite order.

    Assembled analytically from the series module: the double pole carries
    the two power factors, and the finite part collects the dilogarithm
    combination, which reduces to -log(s/t)^2/2 - pi^2/2.
    """
    k.require_massless()
    s, t = k.s, k.t
    big_l = math.log(s / t)
    bracket = power_series(-s, 2) + power_series(-t, 2) \
        + RegulatorSeries(2, (complex(-0.5 * big_l * big_l - 0.5 * math.pi ** 2),))
    series = _gamma_ratio_series(2) * bracket
    return (series * (2.0 / (s * t))).shifted(-2).truncated(0)


# ---------------------------------------------------------------------------
# one-mass box
# ---------------------------------------------------------------------------

def onemass_box(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Exact one-mass box: mass-channel pair plus the t-channel term."""
    k.require_onemass()
    e = k.eps
    s, t, m2 = k.s, k.t, k.msq
    q = s + t - m2
    pref = _prefactor(k) / (s * t)
    part1 = pref * ((-s) ** e * f21_1e(q / t, e, cut)
                    - (-m2) ** e * f21_1e(m2 * q / (s * t), e, cut))
    part2 = pref * (-t) ** e * f21_1e(q / s, e, cut)
    return BoxValue(part1 + part2, "closed", {
        "Im1": part1,
        "Im2": part2,
    })


def onemass_box_alt(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """One-mass box in the three-power shifted-parameter form."""
    k.require_onemass()
    e = k.eps
    s, t, m2 = k.s, k.t, k.msq
    q = s + t - m2
    g2 = math.exp(2.0 * ln_gamma(e).real - ln_gamma(2.0 * e).real)
    g1me = math.exp(ln_gamma(1.0 - e).real)
    zt = q / t
    zs = q / s
    zm = m2 * q / (s * t)
    head = g1me / e * ((-s) ** e + (-t) ** e - (-m2) ** e) / (s * t)
    tail = g1me / (1.0 + e) * (
        (-s) ** e / (s * t) * zt * f21_2e(zt, e, cut)
        + (-t) ** e / (s * t) * zs * f21_2e(zs, e, cut)
        - (-m2) ** e / (s * t) * zm * f21_2e(zm, e, cut)
    )
    return BoxValue(g2 * (head + tail), "closed_alt", {})


def onemass_box_laurent(k: Kinematics) -> RegulatorSeries:
    """Laurent expansion of the one-mass box through the finite order.

    The pole part carries the three power factors; the finite part adds the
    dilogarithm combination
    Li2((m^2-t)/s) + Li2((m^2-s)/t) - Li2((m^2-s)(m^2-t)/(s t)) - pi^2/6,
    with principal values where an argument exceeds one.
    """
    k.require_onemass()
    s, t, m2 = k.s, k.t, k.msq
    u = (m2 - t) / s
    v = (m2 - s) / t
    combo = (li2(u, PV) + li2(v, PV) - li2(u * v, PV)).real - math.pi ** 2 / 6.0
    powers = power_series(-s, 2) + power_series(-t, 2) - power_series(-m2, 2)
    series = _gamma_ratio_series(2) * (powers + RegulatorSeries(2, (complex(combo),)))
    return (series * (2.0 / (s * t))).shifted(-2).truncated(0)

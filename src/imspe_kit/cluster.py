"""Cluster-variable analysis of two-point, one-dimensional designs.

A proximal pair (x1, x2) is reparameterized as a center x_t = (x1+x2)/2 and
a signed half-separation delta = x1 - x_t.  For the Gaussian family the
criterion, viewed as a function of delta, is even and real-analytic in
theta*delta^2, so a short Taylor expansion

    imspe ~= c0 + c2 * theta * delta^2 + O(theta^2 delta^4)

is available in closed form.  Three independent routes to (c0, c2) are
implemented: the hand-collected closed form, a symmetry-operator route built
from the series coefficients of the generic border element, and (in the test
suite) finite-difference extraction.  The always-negative c2 at x_t = 0 is
what rules out coincident-pair optima for this family.

The exact criterion at any delta, and its limit c0 at delta = 0, is the
two-point form of ``imspe`` at the pair x_t +- delta; no switch to the model
is needed.

The exponential family's pair correlation is not smooth at delta = 0, so no
series is offered there; use the direct two-point closed form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import integrals
from .errors import ValidationError
from .imspe import _erf_spread


@dataclass(frozen=True)
class ExpansionSeries:
    """Quadratic expansion of the criterion in theta*delta^2.

    The remainder is O(theta^2 delta^4); no odd or negative powers occur.
    """

    c0: float
    c2: float
    remainder_order: str = "theta^2 delta^4"


def _check_args(theta: float, x_t: float) -> tuple[float, float]:
    return integrals._check_theta(theta), integrals._check_coord(x_t)


# ---------------------------------------------------------------------------
# series coefficients of the generic border element
# ---------------------------------------------------------------------------

def _r2(theta: float, x_t: float) -> float:
    """Coefficient of theta*delta^2 in the border element."""
    ap, am = 1.0 + x_t, 1.0 - x_t
    return -0.5 * (ap * math.exp(-theta * ap * ap) + am * math.exp(-theta * am * am))


def _r4(theta: float, x_t: float) -> float:
    """Coefficient of theta^2*delta^4 in the border element."""
    ap, am = 1.0 + x_t, 1.0 - x_t
    return 0.25 * (
        (ap - 2.0 * theta / 3.0 * ap ** 3) * math.exp(-theta * ap * ap)
        + (am - 2.0 * theta / 3.0 * am ** 3) * math.exp(-theta * am * am)
    )


def border_element(theta: float, x_t: float, delta: float) -> float:
    """The generic Gaussian border element R(x_t, delta, theta)."""
    return integrals._i3(x_t + delta, theta)


# ---------------------------------------------------------------------------
# the expansion, two closed-form routes
# ---------------------------------------------------------------------------

def expansion_gauss(x_t: float, theta: float) -> ExpansionSeries:
    """Hand-collected quadratic expansion for the Gaussian family."""
    theta, x_t = _check_args(theta, x_t)
    ap, am = 1.0 + x_t, 1.0 - x_t
    e2p = math.exp(-2.0 * theta * ap * ap)
    e2m = math.exp(-2.0 * theta * am * am)
    e1p = math.exp(-theta * ap * ap)
    e1m = math.exp(-theta * am * am)
    g1 = math.sqrt(theta)
    g2 = math.sqrt(2.0 * theta)
    erf1 = math.erf(g1 * ap) + math.erf(g1 * am)
    erf2 = math.erf(g2 * ap) + math.erf(g2 * am)
    c0 = (
        2.0
        + 0.25 * (ap * e2p + am * e2m)
        - math.sqrt(math.pi / (4.0 * theta)) * erf1
        - math.sqrt(math.pi / (128.0 * theta)) * erf2
    )
    c2 = (
        -2.0
        + (0.25 + theta / 3.0 * ap * ap) * ap * e2p
        + (0.25 + theta / 3.0 * am * am) * am * e2m
        + ap * e1p
        + am * e1m
        - math.sqrt(math.pi / (128.0 * theta)) * erf2
    )
    return ExpansionSeries(c0=c0, c2=c2)


def expansion_gauss_operator(x_t: float, theta: float) -> ExpansionSeries:
    """Same expansion assembled from the border element's series coefficients.

    The criterion's pole in 1/(theta*delta^2) cancels against the
    doubled-theta border terms, leaving
    c0 = 2 - 2 R0(t) - R0(2t)/2 - R2(2t)/2 and
    c2 = -2 - 2 R2(t) - R2(2t) - R4(2t) - R0(2t)/2.
    The delta^0 coefficient R0 is the single-anchor average ``integrals._i3``.
    """
    theta, x_t = _check_args(theta, x_t)
    t2 = 2.0 * theta
    r0_t2 = integrals._i3(x_t, t2)
    c0 = 2.0 - 2.0 * integrals._i3(x_t, theta) - 0.5 * r0_t2 - 0.5 * _r2(t2, x_t)
    c2 = (
        -2.0
        - 2.0 * _r2(theta, x_t)
        - _r2(t2, x_t)
        - _r4(t2, x_t)
        - 0.5 * r0_t2
    )
    return ExpansionSeries(c0=c0, c2=c2)


def st_term(theta: float) -> float:
    """The centered second-term bracket: the theta*delta^2 coefficient at x_t = 0.

    Its strict negativity over the swept theta range is what excludes
    coincident-pair optima for the Gaussian family.
    """
    return expansion_gauss(0.0, theta).c2


def imspe_quadratic(theta: float, x_t: float, delta: float) -> float:
    """Quadratic-model criterion value c0 + c2*theta*delta^2."""
    series = expansion_gauss(x_t, theta)
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValidationError("delta must be finite")
    return series.c0 + series.c2 * float(theta) * delta * delta


def imspe_operator_form(theta: float, x_t: float, delta: float) -> float:
    """Criterion via the bordered trace written in paired-reflection operators.

    Every term is a sign-flip (delta -> -delta), doubling (theta -> 2 theta),
    or zeroing (delta -> 0) of the single generic border element.  Exact (not
    a truncation), but undefined at delta = 0 where 1/(1 - V) poles.  The
    pole-adjacent terms are grouped so their O(delta^2) cancellation happens
    analytically, through ``imspe._erf_spread``, which the two-point
    criterion also uses.
    """
    theta, x_t = _check_args(theta, x_t)
    delta = float(delta)
    if delta == 0.0:
        raise ValidationError(
            "operator form is singular at delta = 0; use the quadratic model there"
        )
    if abs(x_t) + abs(delta) > 1.0:
        raise ValidationError("x_t +- delta leaves [-1, 1]")
    u2 = theta * delta * delta
    one_minus_v = -math.expm1(-4.0 * u2)
    r_plus = border_element(theta, x_t, delta)
    r_minus = border_element(theta, x_t, -delta)
    rd_zero = border_element(2.0 * theta, x_t, 0.0)
    # (W - 1)/(1 - V) = -1/(1 + e^(-2 theta delta^2)) and (R_D(delta) + R_D(-delta)
    # - 2 R_D(0))/(1 - V) from ``_erf_spread`` stay finite where theta delta^2 underflows
    g = math.sqrt(2.0 * theta)
    pref = math.sqrt(math.pi / (32.0 * theta))
    rd_spread = pref * _erf_spread(g * (1.0 + x_t), g * (1.0 - x_t), g * delta)
    return (
        2.0
        - one_minus_v / 2.0
        - (r_plus + r_minus)
        - rd_zero / (1.0 + math.exp(-2.0 * u2))
        - rd_spread / 2.0
    )

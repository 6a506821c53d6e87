"""Closed-form one-dimensional kernel integrals and R-matrix elements.

Ten basic integrals over the design domain underlie every R-matrix entry:
two for the exponential family on [-1,1] (single-point and pair), their
unit-domain [0,1] variants, two Gaussian-family integrals, and two apiece
for the Matern 3/2 and 5/2 families.  The exponential and Gaussian pair
integrals have compact closed forms; the Matern pair integrals are
evaluated by piecewise analytic integration (polynomial x exponential
antiderivatives on each smooth segment), which avoids the removable
singularities and catastrophic cancellation that the raw computer-algebra
rational forms suffer from.

All exponential terms are arranged as e^(non-positive exponent) so nothing
overflows for theta up to at least 1e4.  Pair integrals accept their two
anchors in either order.
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy.special import erf

from .errors import ValidationError
from .kernels import Family, Kernel, check_point

def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta) or theta <= 0.0:
        raise ValidationError(f"theta = {theta} must be positive and finite")
    return theta


def _check_coord(a: float, lo: float = -1.0, hi: float = 1.0) -> float:
    a = float(a)
    if not math.isfinite(a) or a < lo or a > hi:
        raise ValidationError(f"coordinate {a} outside [{lo}, {hi}]")
    return a


# ---------------------------------------------------------------------------
# exponential family (p = 1)
# ---------------------------------------------------------------------------

def i1(a: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*|a-x|) over [-1, 1].

    The e^(-theta)*cosh(theta*a) term is folded into two pure decaying
    exponentials so large theta cannot overflow.
    """
    a = _check_coord(a)
    theta = _check_theta(theta)
    return (2.0 - math.exp(-theta * (1.0 - a)) - math.exp(-theta * (1.0 + a))) / (2.0 * theta)


def j1(a: float, theta: float) -> float:
    """Integral of e^(-theta*|a-x|) over the unit domain [0, 1]; a in [0, 1]."""
    a = _check_coord(a, 0.0, 1.0)
    theta = _check_theta(theta)
    return (2.0 - math.exp(-theta * a) - math.exp(-theta * (1.0 - a))) / theta


def i2(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*(|a-x|+|b-x|)) over [-1, 1]."""
    a = _check_coord(a)
    b = _check_coord(b)
    theta = _check_theta(theta)
    a, b = min(a, b), max(a, b)
    gap = b - a
    e_gap = math.exp(-theta * gap)
    folded_cosh = 0.5 * (math.exp(-theta * (2.0 + a + b)) + math.exp(-theta * (2.0 - a - b)))
    return (e_gap - folded_cosh) / (2.0 * theta) + 0.5 * gap * e_gap


def j2(a: float, b: float, theta: float) -> float:
    """Integral of e^(-theta*(|a-x|+|b-x|)) over [0, 1]; a, b in [0, 1]."""
    a = _check_coord(a, 0.0, 1.0)
    b = _check_coord(b, 0.0, 1.0)
    theta = _check_theta(theta)
    a, b = min(a, b), max(a, b)
    gap = b - a
    e_gap = math.exp(-theta * gap)
    num = 2.0 * e_gap - math.exp(-theta * (a + b)) - math.exp(-theta * (2.0 - a - b))
    return num / (2.0 * theta) + gap * e_gap


# ---------------------------------------------------------------------------
# Gaussian family (p = 2)
# ---------------------------------------------------------------------------

def i3(a: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*(a-x)^2) over [-1, 1]."""
    a = _check_coord(a)
    theta = _check_theta(theta)
    g = math.sqrt(theta)
    return math.sqrt(math.pi / (16.0 * theta)) * (erf(g * (1.0 + a)) + erf(g * (1.0 - a)))


def i4(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*[(a-x)^2+(b-x)^2]) over [-1, 1]."""
    a = _check_coord(a)
    b = _check_coord(b)
    theta = _check_theta(theta)
    mid = 0.5 * (a + b)
    g2 = math.sqrt(2.0 * theta)
    pref = math.sqrt(math.pi / (32.0 * theta))
    return pref * (erf(g2 * (1.0 + mid)) + erf(g2 * (1.0 - mid))) * math.exp(-0.5 * theta * (a - b) ** 2)


# ---------------------------------------------------------------------------
# Matern single-point integrals (hand-algebra forms)
# ---------------------------------------------------------------------------

def i5(a: float, theta: float) -> float:
    """(1/2) * integral of the Matern-3/2 correlation anchored at ``a`` over [-1, 1].

    Uses the hand-algebra form, whose denominator is free of the zero that
    makes the raw computer-algebra result ill-conditioned.
    """
    a = _check_coord(a)
    theta = _check_theta(theta)
    g = math.sqrt(3.0 * theta)
    up, um = g * (1.0 + a), g * (1.0 - a)
    ep, em = math.exp(-up), math.exp(-um)
    return (2.0 * ((1.0 - ep) + (1.0 - em)) - (up * ep + um * em)) / (2.0 * g)


def i7(a: float, theta: float) -> float:
    """(1/2) * integral of the Matern-5/2 correlation anchored at ``a`` over [-1, 1]."""
    a = _check_coord(a)
    theta = _check_theta(theta)
    g = math.sqrt(5.0 * theta)
    up, um = g * (1.0 + a), g * (1.0 - a)
    ep, em = math.exp(-up), math.exp(-um)
    return (
        8.0 * ((1.0 - ep) + (1.0 - em))
        - 5.0 * (up * ep + um * em)
        - (up * up * ep + um * um * em)
    ) / (6.0 * g)


# ---------------------------------------------------------------------------
# Matern pair integrals: piecewise analytic integration
# ---------------------------------------------------------------------------

def _moment_exp(n: int, alpha: float, beta: float, h: float) -> float:
    """integral of u^n * e^(alpha*u + beta) over [-h, h], exponent <= 0 on the segment.

    Series expansion for small |alpha|*h (recurrence would divide by ~0);
    endpoint recurrence otherwise.
    """
    ah = abs(alpha) * h
    if ah < 4.0:
        # e^beta * sum_m alpha^m/m! * [h^(n+m+1) - (-h)^(n+m+1)]/(n+m+1)
        eb = math.exp(beta)
        total = 0.0
        term_pow = 1.0  # alpha^m / m!
        for m in range(0, 80):
            p = n + m + 1
            if p % 2 == 1:  # odd power of u integrates to 2 h^p / p
                contrib = term_pow * 2.0 * h ** p / p
                total += contrib
                if abs(contrib) < 1e-19 * (abs(total) + 1e-300) and m > 4:
                    break
            term_pow *= alpha / (m + 1.0)
        return eb * total
    # recurrence: I_n = (u^n e^{alpha u + beta})|_{-h}^{h}/alpha - (n/alpha) I_{n-1}
    e_hi = math.exp(alpha * h + beta)
    e_lo = math.exp(-alpha * h + beta)
    vals = [(e_hi - e_lo) / alpha]
    for k in range(1, n + 1):
        boundary = (h ** k * e_hi - (-h) ** k * e_lo) / alpha
        vals.append(boundary - k / alpha * vals[-1])
    return vals[n]


def _poly_mul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _matern_factor_poly(order: int, gamma: float, p: float, s: float):
    """Coefficients (ascending in u) of the Matern polynomial factor on one segment.

    The distance is |anchor - x| = s*(p - u) with s in {-1, +1} chosen so the
    product is nonnegative on the segment; p = anchor - segment midpoint.
    """
    if order == 3:  # nu = 3/2: 1 + gamma*|.|
        return [1.0 + gamma * s * p, -gamma * s]
    # nu = 5/2: 1 + gamma*|.| + gamma^2*|.|^2/3
    g2 = gamma * gamma / 3.0
    return [
        1.0 + gamma * s * p + g2 * p * p,
        -gamma * s - 2.0 * g2 * p,
        g2,
    ]


def _matern_pair_integral(order: int, a: float, b: float, theta: float) -> float:
    """(1/2)*integral over [-1,1] of the product of two Matern factors times the
    shared exponential, split at the anchors where the integrand kinks."""
    a, b = min(a, b), max(a, b)
    gamma = math.sqrt(3.0 * theta) if order == 3 else math.sqrt(5.0 * theta)
    knots = sorted({-1.0, a, b, 1.0})
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        pa, pb = a - mid, b - mid
        sa = 1.0 if a >= hi else -1.0  # sign making s*(p - u) >= 0 on segment
        sb = 1.0 if b >= hi else -1.0
        poly = _poly_mul(
            _matern_factor_poly(order, gamma, pa, sa),
            _matern_factor_poly(order, gamma, pb, sb),
        )
        # exponent: -gamma*(sa*(pa-u) + sb*(pb-u)) = alpha*u + beta
        alpha = gamma * (sa + sb)
        beta = -gamma * (sa * pa + sb * pb)
        total += sum(c * _moment_exp(n, alpha, beta, h) for n, c in enumerate(poly) if c != 0.0)
    return 0.5 * total


def i6(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of the product of two Matern-3/2 correlations over [-1, 1]."""
    a = _check_coord(a)
    b = _check_coord(b)
    theta = _check_theta(theta)
    return _matern_pair_integral(3, a, b, theta)


def i8(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of the product of two Matern-5/2 correlations over [-1, 1]."""
    a = _check_coord(a)
    b = _check_coord(b)
    theta = _check_theta(theta)
    return _matern_pair_integral(5, a, b, theta)


# ---------------------------------------------------------------------------
# R-matrix elements
# ---------------------------------------------------------------------------

_BORDER = {
    Family.EXP_P1: i1,
    Family.GAUSS_P2: i3,
    Family.MATERN32: i5,
    Family.MATERN52: i7,
}

_INNER = {
    Family.EXP_P1: i2,
    Family.GAUSS_P2: i4,
    Family.MATERN32: i6,
    Family.MATERN52: i8,
}


def border_1d(family: Family, a: float, theta: float) -> float:
    """Single-dimension border integral for the given family."""
    return _BORDER[family](a, theta)


def inner_1d(family: Family, a: float, b: float, theta: float) -> float:
    """Single-dimension pair integral for the given family."""
    return _INNER[family](a, b, theta)


def r_border(kernel: Kernel, xi: Sequence[float]) -> float:
    """Bordered-matrix element R_{0,i}: product of per-dimension border integrals."""
    xi = check_point(xi, kernel.d)
    out = 1.0
    for t, a in zip(kernel.theta, xi):
        out *= border_1d(kernel.family, a, t)
    return out


def r_inner(kernel: Kernel, xi: Sequence[float], xj: Sequence[float]) -> float:
    """Bordered-matrix body element R_{i,j}: product of per-dimension pair integrals."""
    xi = check_point(xi, kernel.d)
    xj = check_point(xj, kernel.d)
    out = 1.0
    for t, a, b in zip(kernel.theta, xi, xj):
        out *= inner_1d(kernel.family, a, b, t)
    return out


def j_border(theta: Sequence[float], xi: Sequence[float]) -> float:
    """Unit-domain [0,1]^d border element, exponential family only."""
    theta = tuple(_check_theta(t) for t in theta)
    xi = check_point(xi, len(theta), 0.0, 1.0)
    out = 1.0
    for t, a in zip(theta, xi):
        out *= j1(a, t)
    return out


def j_inner(theta: Sequence[float], xi: Sequence[float], xj: Sequence[float]) -> float:
    """Unit-domain [0,1]^d body element, exponential family only."""
    theta = tuple(_check_theta(t) for t in theta)
    xi = check_point(xi, len(theta), 0.0, 1.0)
    xj = check_point(xj, len(theta), 0.0, 1.0)
    out = 1.0
    for t, a, b in zip(theta, xi, xj):
        out *= j2(a, b, t)
    return out

"""Closed-form one-dimensional kernel integrals and R-matrix elements.

Ten basic integrals over the design domain underlie every R-matrix entry:
two for the exponential family on [-1,1] (single-point and pair), their
unit-domain [0,1] variants, two Gaussian-family integrals, and two apiece
for the Matern 3/2 and 5/2 families.  The exponential and Gaussian pair
integrals have compact closed forms.

The Matern pair integrand is split at the anchors a <= b.  On the middle
segment the two distances sum to b - a, so the exponential is constant and
the polynomial integrates exactly.  On each outer segment both distances
grow with w, the distance from the nearer anchor, and the integrand is a
polynomial in w with nonnegative coefficients times e^(-2*gamma*w); its
moments are regularized incomplete gamma functions, taken down from the
highest by a recurrence that only adds positive terms.  Nothing cancels, so
the pair integrals agree with a 30-digit reference to a few units of
double rounding for theta from 1e-300 to 1e4.  The outer segments start at
lam = gamma*(1 +- x), so one ``gammainc`` call serves all pairs of an axis.

All exponential terms are arranged as e^(non-positive exponent) so nothing
overflows for theta up to at least 1e4.  Pair integrals accept their two
anchors in either order.

Each formula is written once, as an unchecked body (``_i1`` ... ``_i7``,
the Matern pair bodies, ``_r_border``) that takes validated floats; the
public names validate their arguments and call it.  Every pair integral
of a design goes through a per-axis ``_pair_table``; a lone pair of anchors
goes through ``_pair``.  The Gaussian bodies ``_i3``/``_i4``
are built by ``_gauss_averages`` from (sqrt, exp, erf, pi), which also
builds their 40-digit copies from mpmath's functions.
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy.special import erf, gammainc

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

def _i1(a, theta):
    return (2.0 - math.exp(-theta * (1.0 - a)) - math.exp(-theta * (1.0 + a))) / (2.0 * theta)


def i1(a: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*|a-x|) over [-1, 1].

    The e^(-theta)*cosh(theta*a) term is folded into two pure decaying
    exponentials so large theta cannot overflow.
    """
    return _i1(_check_coord(a), _check_theta(theta))


def j1(a: float, theta: float) -> float:
    """Integral of e^(-theta*|a-x|) over the unit domain [0, 1]; a in [0, 1]."""
    a = _check_coord(a, 0.0, 1.0)
    theta = _check_theta(theta)
    return (2.0 - math.exp(-theta * a) - math.exp(-theta * (1.0 - a))) / theta


def _i2(a, b, theta):
    a, b = min(a, b), max(a, b)
    gap = b - a
    e_gap = math.exp(-theta * gap)
    folded_cosh = 0.5 * (math.exp(-theta * (2.0 + a + b)) + math.exp(-theta * (2.0 - a - b)))
    return (e_gap - folded_cosh) / (2.0 * theta) + 0.5 * gap * e_gap


def i2(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*(|a-x|+|b-x|)) over [-1, 1]."""
    return _i2(_check_coord(a), _check_coord(b), _check_theta(theta))


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

def _gauss_averages(sqrt, exp, erf, pi):
    """Gaussian single-anchor and pair averages in the arithmetic of the four
    functions: ``math``/``scipy`` for double precision, ``mpmath`` for more.

    The pair average of an anchor with itself at decay rate theta equals the
    single-anchor average at 2*theta.
    """

    def border(a, theta):
        g = sqrt(theta)
        return sqrt(pi / (16.0 * theta)) * (erf(g * (1.0 + a)) + erf(g * (1.0 - a)))

    def pair(a, b, theta):
        mid = 0.5 * (a + b)
        g2 = sqrt(2.0 * theta)
        pref = sqrt(pi / (32.0 * theta))
        decay = exp(-0.5 * theta * (a - b) ** 2)
        return pref * (erf(g2 * (1.0 + mid)) + erf(g2 * (1.0 - mid))) * decay

    return border, pair


_i3, _i4 = _gauss_averages(math.sqrt, math.exp, erf, math.pi)


def i3(a: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*(a-x)^2) over [-1, 1]."""
    return _i3(_check_coord(a), _check_theta(theta))


def i4(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of e^(-theta*[(a-x)^2+(b-x)^2]) over [-1, 1]."""
    return _i4(_check_coord(a), _check_coord(b), _check_theta(theta))


# ---------------------------------------------------------------------------
# Matern single-point integrals (hand-algebra forms)
# ---------------------------------------------------------------------------

def _i5(a, theta):
    g = math.sqrt(3.0 * theta)
    up, um = g * (1.0 + a), g * (1.0 - a)
    ep, em = math.exp(-up), math.exp(-um)
    return (2.0 * ((1.0 - ep) + (1.0 - em)) - (up * ep + um * em)) / (2.0 * g)


def i5(a: float, theta: float) -> float:
    """(1/2) * integral of the Matern-3/2 correlation anchored at ``a`` over [-1, 1].

    Uses the hand-algebra form, whose denominator is free of the zero that
    makes the raw computer-algebra result ill-conditioned.
    """
    return _i5(_check_coord(a), _check_theta(theta))


def _i7(a, theta):
    g = math.sqrt(5.0 * theta)
    up, um = g * (1.0 + a), g * (1.0 - a)
    ep, em = math.exp(-up), math.exp(-um)
    return (
        8.0 * ((1.0 - ep) + (1.0 - em))
        - 5.0 * (up * ep + um * em)
        - (up * up * ep + um * um * em)
    ) / (6.0 * g)


def i7(a: float, theta: float) -> float:
    """(1/2) * integral of the Matern-5/2 correlation anchored at ``a`` over [-1, 1]."""
    return _i7(_check_coord(a), _check_theta(theta))


# ---------------------------------------------------------------------------
# Matern pair integrals: exact integration on the three segments
# ---------------------------------------------------------------------------

def _exp_moments(lams: Sequence[float], k: int) -> list[list[float]]:
    """Integrals of u^j * e^(-2u) over [0, lam] for j = 0..k, for each lam.

    The j = k moments are k!/2^(k+1) * P(k+1, 2*lam), from one ``gammainc``
    call over the whole sequence; the lower ones follow per lam from
    m_(j-1) = (2/j) * (m_j + lam^j * e^(-2*lam) / 2), which adds only
    positive terms.
    """
    scale = math.factorial(k) / 2.0 ** (k + 1)
    out = []
    for lam, p in zip(lams, gammainc(k + 1.0, [2.0 * lam for lam in lams]).tolist()):
        e = math.exp(-2.0 * lam)
        m = scale * p
        ms = [m]
        for j in range(k, 0, -1):
            m = (m + 0.5 * lam ** j * e) * 2.0 / j
            ms.append(m)
        out.append(ms[::-1])
    return out


def _m32_pair(s, g, m_lo, m_hi):
    # in u = gamma*distance the correlation is (1 + u) e^(-u); s = gamma*(b - a)
    total = s * (1.0 + s * (1.0 + s / 6.0))  # middle segment
    for m0, m1, m2 in (m_lo, m_hi):
        total += (1.0 + s) * m0 + (2.0 + s) * m1 + m2
    return math.exp(-s) * total / (2.0 * g)


def i6(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of the product of two Matern-3/2 correlations over [-1, 1]."""
    return inner_1d(Family.MATERN32, a, b, theta)


def _m52_pair(s, g, m_lo, m_hi):
    # in u = gamma*distance the correlation is (1 + u + u^2/3) e^(-u)
    total = s * (1.0 + s * (1.0 + s * (7.0 / 18.0 + s * (1.0 / 18.0 + s / 270.0))))
    q0, q1 = 1.0 + s * (1.0 + s / 3.0), 1.0 + s * (2.0 / 3.0)
    c0, c1, c2, c3, c4 = q0, q0 + q1, q0 / 3.0 + q1 + 1.0 / 3.0, (q1 + 1.0) / 3.0, 1.0 / 9.0
    for m0, m1, m2, m3, m4 in (m_lo, m_hi):
        total += c0 * m0 + c1 * m1 + c2 * m2 + c3 * m3 + c4 * m4
    return math.exp(-s) * total / (2.0 * g)


def i8(a: float, b: float, theta: float) -> float:
    """(1/2) * integral of the product of two Matern-5/2 correlations over [-1, 1]."""
    return inner_1d(Family.MATERN52, a, b, theta)


# ---------------------------------------------------------------------------
# R-matrix elements
# ---------------------------------------------------------------------------

_BORDER = {
    Family.EXP_P1: _i1,
    Family.GAUSS_P2: _i3,
    Family.MATERN32: _i5,
    Family.MATERN52: _i7,
}

#: exponential and Gaussian pair bodies (a, b, theta)
_INNER = {Family.EXP_P1: _i2, Family.GAUSS_P2: _i4}

#: Matern pair bodies (s, gamma, m_lo, m_hi), their moment order and gamma^2/theta
_MATERN_INNER = {Family.MATERN32: (_m32_pair, 2, 3.0), Family.MATERN52: (_m52_pair, 4, 5.0)}


def _pair_table(family: Family, xs: Sequence[float], theta: float):
    """R's pair integral ``table(i, j)`` of any two of one axis's coordinates ``xs``.

    A Matern table takes the moments of all 2n lam = gamma*(1 +- x) from one
    ``_exp_moments`` call; pair (i, j) uses lam = gamma*(1 + a) of its smaller
    coordinate a and lam = gamma*(1 - b) of its larger b.
    """
    if family in _INNER:
        body = _INNER[family]
        return lambda i, j: body(xs[i], xs[j], theta)
    body, k, scale = _MATERN_INNER[family]
    g = math.sqrt(scale * theta)
    moments = _exp_moments([g * (1.0 + x) for x in xs] + [g * (1.0 - x) for x in xs], k)

    def table(i, j):
        if xs[j] < xs[i]:
            i, j = j, i
        return body(g * (xs[j] - xs[i]), g, moments[i], moments[len(xs) + j])

    return table


def _pair(family: Family, a, b, theta):
    """R's pair integral of two coordinates, ``_pair_table(family, (a, b),
    theta)(0, 1)``; a Matern pair takes only the 2 moment sets it reads."""
    if family in _INNER:
        return _INNER[family](a, b, theta)
    body, k, scale = _MATERN_INNER[family]
    g = math.sqrt(scale * theta)
    if b < a:
        a, b = b, a
    m_lo, m_hi = _exp_moments([g * (1.0 + a), g * (1.0 - b)], k)
    return body(g * (b - a), g, m_lo, m_hi)


def border_1d(family: Family, a: float, theta: float) -> float:
    """Single-dimension border integral for the given family."""
    return _BORDER[family](_check_coord(a), _check_theta(theta))


def inner_1d(family: Family, a: float, b: float, theta: float) -> float:
    """Single-dimension pair integral for the given family."""
    return _pair(family, _check_coord(a), _check_coord(b), _check_theta(theta))


def _r_border(kernel: Kernel, xi) -> float:
    body = _BORDER[kernel.family]
    out = 1.0
    for t, a in zip(kernel.theta, xi):
        out *= body(a, t)
    return out


def _inner_table(kernel: Kernel, pts):
    """R's body entry ``inner(i, j)`` of validated points: per-axis tables, in axis order."""
    tables = [_pair_table(kernel.family, xs, t) for xs, t in zip(zip(*pts), kernel.theta)]

    def inner(i, j):
        out = 1.0
        for table in tables:
            out *= table(i, j)
        return out

    return inner


def r_border(kernel: Kernel, xi: Sequence[float]) -> float:
    """Bordered-matrix element R_{0,i}: product of per-dimension border integrals."""
    return _r_border(kernel, check_point(xi, kernel.d))


def r_inner(kernel: Kernel, xi: Sequence[float], xj: Sequence[float]) -> float:
    """Bordered-matrix body element R_{i,j}: product of per-dimension pair integrals."""
    pairs = zip(kernel.theta, check_point(xi, kernel.d), check_point(xj, kernel.d))
    return math.prod((_pair(kernel.family, a, b, t) for t, a, b in pairs), start=1.0)


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

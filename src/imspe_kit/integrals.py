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
moments are regularized incomplete gamma functions of integer order, which
``_gamma_p`` takes from elementary functions: a series of positive terms
below the order, one cancellation of at most about 3x above.  Nothing else
cancels, so the pair integrals agree with a 30-digit reference to a few
units of double rounding for theta from 1e-300 to 1e4.  The outer segments
start at lam = gamma*(1 +- x), so one moment set per coordinate serves all
pairs of an axis.

All exponential terms are arranged as e^(non-positive exponent) so nothing
overflows for theta up to at least 1e4.  Pair integrals accept their two
anchors in either order.

Each formula is written once, as an unchecked body (``_i1`` ... ``_i7``,
the Matern pair bodies, ``_r_border``) that takes validated floats; the
public names validate their arguments and call it.  Every pair integral
of a design goes through a per-axis ``_pair_table``; a lone pair of anchors
goes through ``_pair``.  The Gaussian bodies ``_i3``/``_i4``
are built by ``_gauss_averages`` from (sqrt, exp, erf, pi), which also
builds their 40-digit copies from mpmath's functions.  Their erf is
``_erf``, a float port of the cephes routine behind ``scipy.special.erf``
that gives its values bit for bit, so no path loads ``scipy.special``.
"""

from __future__ import annotations

import math
from typing import Sequence

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
    functions: ``math`` with ``_erf`` for double precision, ``mpmath`` for more.

    The pair average of an anchor with itself at decay rate theta equals the
    single-anchor average at 2*theta.  The constants are built once, in the
    functions' own number type (``exp(0)`` is exactly 1 in both), so mpmath
    converts no float literal per operation; each is a power of two, exact
    in both arithmetics, so the values are those of the literals.
    """
    one = exp(0)
    half, two, c16, c32 = one / 2, one * 2, one * 16, one * 32

    def border(a, theta):
        g = sqrt(theta)
        return sqrt(pi / (c16 * theta)) * (erf(g * (one + a)) + erf(g * (one - a)))

    def pair(a, b, theta):
        mid = half * (a + b)
        g2 = sqrt(two * theta)
        pref = sqrt(pi / (c32 * theta))
        decay = exp(-half * theta * (a - b) ** 2)
        return pref * (erf(g2 * (one + mid)) + erf(g2 * (one - mid))) * decay

    return border, pair


def _erf(x):
    """The error function of a float, operation for operation as cephes' ``erf``,
    which ``scipy.special.erf`` evaluates, so the values are scipy's bit for bit.

    |x| <= 1 takes the rational form x T(x^2)/U(x^2).  Above, erf = 1 - erfc with
    erfc = e^(-x^2) P(x)/Q(x) below 8 and e^(-x^2) R(x)/S(x) from 8 on, and 1 once
    x^2 exceeds log(DBL_MAX) = 709.78; negative x gives -erf(-x).  e^(-x^2) is a
    plain exp of -x*x, as in the routine scipy builds: cephes' ``expx2``, which
    splits x^2 for accuracy, gives other last bits.
    """
    a = abs(x)
    if not a > 1.0:  # |x| <= 1, or NaN
        z = x * x
        return x * ((((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
                       + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
                    + 5.55923013010394962768e4) / (((((z + 3.35617141647503099647e1) * z
                    + 5.21357949780152679795e2) * z + 4.59432382970980127987e3) * z
                    + 2.26290000613890934246e4) * z + 4.92673942608635921086e4)
    z = -a * a
    if z < -7.09782712893383996843e2:
        return math.copysign(1.0, x)
    if a < 8.0:
        p = ((((((((2.46196981473530512524e-10 * a + 5.64189564831068821977e-1) * a
                   + 7.46321056442269912687e0) * a + 4.86371970985681366614e1) * a
                 + 1.96520832956077098242e2) * a + 5.26445194995477358631e2) * a
               + 9.34528527171957607540e2) * a + 1.02755188689515710272e3) * a
             + 5.57535335369399327526e2)
        q = ((((((((a + 1.32281951154744992508e1) * a + 8.67072140885989742329e1) * a
                   + 3.54937778887819891062e2) * a + 9.75708501743205489753e2) * a
                 + 1.82390916687909736289e3) * a + 2.24633760818710981792e3) * a
               + 1.65666309194161350182e3) * a + 5.57535340817727675546e2)
    else:
        p = (((((5.64189583547755073984e-1 * a + 1.27536670759978104416e0) * a
                + 5.01905042251180477414e0) * a + 6.16021097993053585195e0) * a
              + 7.40974269950448939160e0) * a + 2.97886665372100240670e0)
        q = ((((((a + 2.26052863220117276590e0) * a + 9.39603524938001434673e0) * a
                + 1.20489539808096656605e1) * a + 1.70814450747565897222e1) * a
              + 9.60896809063285067018e0) * a + 3.36907645100081516050e0)
    y = 1.0 - math.exp(z) * p / q
    return y if x > 0.0 else -y


#: the double-precision Gaussian bodies.  They keep scipy's erf values: the
#: scenario's float solve (cond(L) up to 1.6e8, 1 - tr(L^-1 R) near 1e-4) turns
#: a change in the last bits of its R entries into changed output digits.
_i3, _i4 = _gauss_averages(math.sqrt, math.exp, _erf, math.pi)


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

def _series_coeffs(n, x):
    """Horner coefficients 1/(n + m)!, m = D, ..., 1, of the series sum_m x^m/(n + m)!,
    D the smallest degree whose dropped tail is below 2^-53 of the sum at x."""
    total, term, d = 1.0, 1.0, 0  # in units of 1/n!
    while term * x / (n + d + 1) > 2.0 ** -53 * total * (1.0 - x / (n + d + 2)):
        d += 1
        term *= x / (n + d)
        total += term
    return tuple(1.0 / math.factorial(n + m) for m in range(d, 0, -1))


#: per order n, the series coefficients for each x in [b/8, (b + 1)/8), b = int(8 x) < 8 (n - 1)
_SERIES = {n: tuple(_series_coeffs(n, (b + 1) / 8.0) for b in range(8 * (n - 1))) for n in (2, 3, 5)}
#: per order n, (j - 1, 1/j!, j) for j = n, ..., 1
_LOWER_ORDERS = {n: tuple((j - 1, 1.0 / math.factorial(j), j) for j in range(n, 0, -1)) for n in _SERIES}


def _gamma_p(n: int, x: float, scale: Sequence[float]) -> list[float]:
    """scale[j - 1] * P(j, x) for j = 1..n, P the regularized lower incomplete gamma
    function, for n in {2, 3, 5} and x >= 0.

    Below x = n - 1 it is e^(-x) x^j sum_m x^m/(j + m)!, a series of positive terms:
    Horner over the table of x's bucket sums it for j = n, and each further step
    s_j = x s_(j+1) + 1/j! gives the next order down.  From x = n - 1 on it is
    1 - e^(-x) sum_(i < j) x^i/i!, whose cancellation costs at most a factor
    1/P(j, x) < 4.  ``scale`` folds a caller's constants into the same pass.
    """
    e = math.exp(-x)
    if e == 0.0:  # every P(j, x) rounds to 1, and x^j may overflow
        return list(scale)
    if x < n - 1:
        s, out = 0.0, [0.0] * n
        for c in _SERIES[n][int(8.0 * x)]:
            s = s * x + c
        for i, c, j in _LOWER_ORDERS[n]:
            s = s * x + c
            out[i] = scale[i] * e * x ** j * s
        return out
    out, term, partial = [scale[0] * -math.expm1(-x)], 1.0, 1.0
    for j in range(1, n):
        term *= x / j
        partial += term
        out.append(scale[j] * (1.0 - e * partial))
    return out


#: per moment order k, the j!/2^(j+1), j = 0..k, that turn P(j + 1, 2 lam) into moments
_MOMENT_SCALES = {k: tuple(math.factorial(j) / 2.0 ** (j + 1) for j in range(k + 1)) for k in (2, 4)}


def _exp_moments(lams: Sequence[float], k: int) -> list[list[float]]:
    """Integrals m_j of u^j * e^(-2u) over [0, lam] for j = 0..k, for each lam:
    m_j = j!/2^(j+1) * P(j + 1, 2 lam), from one ``_gamma_p`` call per lam."""
    scales = _MOMENT_SCALES[k]
    return [_gamma_p(k + 1, 2.0 * lam, scales) for lam in lams]


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

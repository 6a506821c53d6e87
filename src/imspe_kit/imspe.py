"""Integrated mean-squared prediction error of a kriging design.

The central object is the pair of bordered (n+1) x (n+1) matrices: ``L``
with a zero corner, unit border, and pairwise-correlation body, and ``R``
with a unit corner and design-domain-averaged correlation products in the
border and body.  The criterion is ``imspe = 1 - tr(solve(L) @ R)`` (process
variance normalized to 1).

One-dimensional closed forms (n = 1 and n = 2 for every family) sit beside
the general solve path, with the affine domain rescaling that keeps the
criterion invariant.  Each family's two-point criterion is written once
(``_N2_FORMS``), with no cancellation at any separation, and all four refuse
only coincident points.  The exponential and Gaussian forms
(``_exp_two_point``, ``_gauss_two_point``) split it into a theta-only
constant C(theta) plus a residual of positive terms; the design search
minimises the residual, and the criterion is the same terms with C folded
into the large ones, so neither loses digits to the other.  For the Matern
families C = 0, and ``_matern_two_point`` writes 1 - rho and the second
difference of R as integrals of squares over the three segments the points
cut the domain into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import integrals
from .errors import NearSingularError, SolveError, ValidationError
from .kernels import Family, Kernel, check_point, corr_pair

#: condition-number ceiling of L beyond which the solve path refuses (the
#: two-point closed forms solve nothing and need no ceiling)
COND_LIMIT = 1e13


@dataclass(frozen=True)
class ImspeMatrices:
    """Assembled bordered matrices, the criterion value, and conditioning."""

    L: np.ndarray
    R: np.ndarray
    imspe: float
    cond_estimate: float


def _as_design(design, d: int, lo=-1.0, hi=1.0) -> tuple[tuple[float, ...], ...]:
    pts = [check_point(p, d, lo, hi) for p in np.atleast_2d(np.asarray(design, dtype=float))]
    if not pts:
        raise ValidationError("design must contain at least one point")
    return tuple(pts)


def _fill_bordered(m, corner, edge, body):
    """Fill the symmetric bordered (n+1) x (n+1) matrix ``m`` in place.

    ``m`` is a zeroed numpy array or mpmath matrix; ``corner`` goes to
    ``m[0, 0]``, ``edge(i)`` to the border entries of point i, and
    ``body(i, j)`` (called for i <= j only) to both body entries of the pair.
    """
    n = len(m) - 1
    m[0, 0] = corner
    for i in range(n):
        m[0, 1 + i] = m[1 + i, 0] = edge(i)
        for j in range(i, n):
            m[1 + i, 1 + j] = m[1 + j, 1 + i] = body(i, j)
    return m


def _check_cond(cond: float) -> float:
    """Refuse an L whose 2-norm condition number is non-finite or above the ceiling."""
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise SolveError(
            f"bordered matrix condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}",
            cond_estimate=cond,
        )
    return cond


def _check_value(value: float, cond: float) -> float:
    """Refuse a criterion value that is not finite."""
    if not math.isfinite(value):
        raise SolveError("criterion evaluated to a non-finite value", cond_estimate=cond)
    return value


def _solve_bordered(kernel: Kernel, pts, border, inner) -> ImspeMatrices:
    """Criterion of validated points with R entries ``border(i)``, ``inner(i, j)``.

    Refuses (``SolveError``) when L is too ill-conditioned to trust.
    """
    n = len(pts)
    big_l = _fill_bordered(
        np.zeros((n + 1, n + 1)),
        0.0,
        lambda i: 1.0,
        lambda i, j: 1.0 if i == j else corr_pair(kernel, pts[i], pts[j]),
    )
    big_r = _fill_bordered(np.zeros((n + 1, n + 1)), 1.0, border, inner)
    try:
        cond = _check_cond(float(np.linalg.cond(big_l)))
        solved = np.linalg.solve(big_l, big_r)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"linear solve failed: {exc}") from exc
    value = _check_value(1.0 - float(np.trace(solved)), cond)
    return ImspeMatrices(L=big_l, R=big_r, imspe=value, cond_estimate=cond)


def build_matrices(kernel: Kernel, design) -> ImspeMatrices:
    """Assemble L and R for a design and compute the criterion.

    The points must be pairwise distinct (L invertibility).  The design is
    validated once here; R is filled from the unchecked integral bodies.
    """
    pts = _as_design(design, kernel.d)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] == pts[j]:
                raise NearSingularError(
                    f"design points {i} and {j} coincide at {pts[i]}", pair=(i, j)
                )
    return _solve_bordered(
        kernel,
        pts,
        lambda i: integrals._r_border(kernel, pts[i]),
        integrals._inner_table(kernel, pts),
    )


def imspe(kernel: Kernel, design) -> float:
    """Criterion value for a design (solve path)."""
    return build_matrices(kernel, design).imspe


def _kernel_theta(kernel: Kernel, theta: float, what: str) -> float:
    """The decay rate of a one-dimensional kernel, which ``theta`` must repeat."""
    if kernel.d != 1:
        raise ValidationError(f"{what} requires d = 1")
    if float(theta) != kernel.theta[0]:
        raise ValidationError(f"theta = {theta} differs from kernel.theta[0] = {kernel.theta[0]}")
    return kernel.theta[0]


def imspe_closed_n1(kernel: Kernel, theta: float, x1: float) -> float:
    """Closed form for a single point in one dimension.

    Equals ``2 * (1 - border(x1))`` for every family, where ``border`` is the
    single-anchor design-average integral.  ``theta`` must equal
    ``kernel.theta[0]``.
    """
    theta = _kernel_theta(kernel, theta, "closed n=1 form")
    return float(2.0 * (1.0 - integrals.border_1d(kernel.family, x1, theta)))


def _check_pair(x1: float, x2: float) -> tuple[float, float]:
    """Validate two one-dimensional points and refuse a coincident pair."""
    x1, x2 = integrals._check_coord(x1), integrals._check_coord(x2)
    if x1 == x2:
        raise NearSingularError(
            "coincident pair: the two-point closed form has a removable domain "
            "boundary here; use the cluster-variable analysis instead",
            pair=(0, 1),
        )
    return x1, x2


def _expm1_ratio(y):
    """(1 - e^(-y))/y without cancellation, 1 at y = 0."""
    return -math.expm1(-y) / y if y else 1.0


def _exp_two_point(theta, x1, x2, criterion):
    """The exponential two-point criterion if ``criterion``, else the residual
    criterion - C(theta), C = 3/2 - 5/(2 theta).  With lo <= hi the points,
    s = hi - lo, t = theta s, rho = e^(-t), r(y) = (1 - e^(-y))/y, f the folded
    e^(-theta) cosh(theta x) and W = s r(t) (e^(-2 theta (1 - hi)) + e^(-2 theta (1 + lo)))/8,
    the residual is rho/2 + (f1 + f2)/theta + W + rho/(2 theta r(t)), positive
    terms with exponents <= 0, and the criterion, with C folded in, is
    3/2 + rho/2 - sum_(a = +-x1, +-x2) (1 + a) r(theta (1 + a))/2 + W - s g(t)/2,
    g(t) = (1 - (1 + t) e^(-t))/(t (1 - e^(-t))) = P(2, t)/(t^2 r(t)), P(2, t) from
    ``integrals._gamma_p``, and below t = 1e-8 1/2 - t/12, exact in double precision
    there and finite where t^2 underflows."""
    lo, hi = min(x1, x2), max(x1, x2)
    s = hi - lo
    t = theta * s
    rho, r = math.exp(-t), _expm1_ratio(t)
    walls = s * r * (math.exp(-2.0 * theta * (1.0 - hi)) + math.exp(-2.0 * theta * (1.0 + lo))) / 8
    signed = (x1, -x1, x2, -x2)
    if criterion:
        one_minus_f = 0.5 * sum((1.0 + a) * _expm1_ratio(theta * (1.0 + a)) for a in signed)
        g = integrals._gamma_p(2, t, (0.0, 1.0))[1] / (t * t * r) if t > 1e-8 else 0.5 - t / 12.0
        return 1.5 + 0.5 * rho - one_minus_f + walls - 0.5 * s * g
    f = 0.5 * sum(math.exp(-theta * (1.0 + a)) for a in signed)
    return 0.5 * rho + f / theta + walls + rho / (2.0 * theta * r)


def _erf_series_table(order=20):
    """Coefficients c[i][k] of (erf(u + h) + erf(u - h) - 2 erf(u)) / h^2 as the
    even-order Taylor series u e^(-u^2) sum_i,k c[i][k] (u h)^(2i) h^(2k), from
    erf^(n) = (2/sqrt(pi)) q_n(u) e^(-u^2), q_1 = 1, q_(n+1) = q_n' - 2 u q_n."""
    q, rows = [1.0], []
    for n in range(2, order + 1):
        dq = [i * c for i, c in enumerate(q)][1:] + [0.0, 0.0]
        q = [a - 2.0 * b for a, b in zip(dq, [0.0] + q)]
        if n % 2 == 0:
            rows.append([4.0 / math.sqrt(math.pi) * c / math.factorial(n) for c in q[1::2]])
    return tuple(tuple(row[i] for row in rows[i:]) for i in range(len(rows)))


_ERF_SERIES = _erf_series_table()


def _horner(coeffs, x):
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _erf_spread(u1, u2, h):
    """Sum over u = u1, u2 (each >= |h|) of erf(u + h) + erf(u - h) - 2 erf(u), over
    1 - e^(-2 h^2): by erfc differences where |h| max(u, 1) > 0.35, else as the
    Taylor series in h over (1 - e^(-2 h^2))/h^2, a ratio of divided differences
    that is finite where h^2 underflows."""
    h2, out = h * h, 0.0
    den = -math.expm1(-2.0 * h2)
    series = [_horner(col, h2) for col in _ERF_SERIES] if abs(h) <= 0.35 else None
    for u in (u1, u2):
        if abs(h) * max(u, 1.0) <= 0.35:
            out += u * math.exp(-u * u) * _horner(series, h2 * u * u) / (den / h2 if h2 else 2.0)
        else:
            out -= (math.erfc(u + h) + math.erfc(u - h) - 2.0 * math.erfc(u)) / den
    return out


def _gauss_two_point(theta, x1, x2, criterion):
    """The Gaussian two-point criterion if ``criterion``, else the residual
    criterion - C(theta), C = 3/2 - 4 s1 - 2 s2, s1, s2 = sqrt(pi/(16 theta)),
    sqrt(pi/(32 theta)), in cluster coordinates x_t = (x1 + x2)/2, delta = (x1 - x2)/2.
    With d = e^(-2 theta delta^2), E(a) = erfc(sqrt(theta)(1 + a)) + erfc(sqrt(theta)(1 - a)),
    F the same at 2 theta, u+- = sqrt(2 theta)(1 +- x_t), h = sqrt(2 theta) delta and
    T = -s2 (CD(u+) + CD(u-))/(2 (1 - d^2)) >= 0 from ``_erf_spread``, the residual is
    d^2/2 + s2 (2 d + F(x_t))/(1 + d) + s1 (E(x1) + E(x2)) + T and the criterion, with
    C folded into P = 2 - E and Q = 2 - F, 3/2 + d^2/2 - s1 (P(x1) + P(x2)) - s2 Q(x_t)/(1 + d) + T.
    """
    x_t, delta = 0.5 * (x1 + x2), 0.5 * (x1 - x2)
    g1, g2 = math.sqrt(theta), math.sqrt(2.0 * theta)
    s1, s2 = math.sqrt(math.pi / (16.0 * theta)), math.sqrt(math.pi / (32.0 * theta))
    up, um, h = g2 * (1.0 + x_t), g2 * (1.0 - x_t), g2 * delta
    d = math.exp(-2.0 * theta * delta * delta)
    shared = 0.5 * d * d - 0.5 * s2 * _erf_spread(up, um, h)
    ef = math.erf if criterion else math.erfc
    pair = ef(g1 * (1.0 + x1)) + ef(g1 * (1.0 - x1)) + ef(g1 * (1.0 + x2)) + ef(g1 * (1.0 - x2))
    if criterion:
        return 1.5 + shared - s1 * pair - s2 * (ef(up) + ef(um)) / (1.0 + d)
    return shared + s2 * (2.0 * d + ef(up) + ef(um)) / (1.0 + d) + s1 * pair


def _gamma_ratios(n, s):
    """P(j, s)/s^j for j = 1..n, P the regularized lower incomplete gamma function:
    ``integrals._gamma_p`` over s^j above s = 1e-8, else 1/j! - j s/(j + 1)!, exact in
    double precision there and finite where s^j underflows."""
    if s > 1e-8:
        return [p / s**j for j, p in enumerate(integrals._gamma_p(n, s, (1.0, 1.0, 1.0)), 1)]
    return [(1.0 - j * s / (j + 1)) / math.factorial(j) for j in range(1, n + 1)]


def _middle_series(c, q, terms=24):
    """Coefficients a_n, n = 5..28, of e^s M(s) = sum_n a_n (s/2)^n, M(s) =
    2 sum_j c_j m_j(s) - 2 e^(-s) sum_i q_i s^i with m_j the moments of
    ``integrals._exp_moments``, whose terms below s^5 cancel.  The s^n coefficient
    of e^s m_j(s) is j!/(2^(j + 1) n!) sum_(j < i <= n) C(n, i) 2^i (-1)^(n - i)."""
    out, fact = [], math.factorial
    for n in range(5, 5 + terms):
        alt = [math.comb(n, i) * 2**i * (-1) ** (n - i) for i in range(n + 1)]
        moments = sum(cj * fact(j) / 2 ** (j + 1) * sum(alt[j + 1 :]) for j, cj in enumerate(c))
        out.append((moments / fact(n) - (q[n] if n < len(q) else 0.0)) * 2.0 ** (n + 1))
    return out


def _matern_two_point(family, weights):
    """The two-point criterion, which is also the residual (C(theta) = 0), of the
    Matern correlation k(u) = sum_n w_n Q(n, u) = p(u) e^(-u) of u = g |x - y|,
    g = sqrt(3 theta) or sqrt(5 theta), Q = 1 - P, for the (n, w_n) of ``weights``.

    With lo <= hi the points, s = g (hi - lo) and b0 = 1 - rho = sum_n w_n P(n, s) the
    criterion is 2 - b0/2 - r01 - r02 - N/(2 b0).  The border r0i is (F(g (1 + xi)) +
    F(g (1 - xi)))/(2 g), F(lam) = integral over [0, lam] of k = sum_j c_j P(j, lam)
    with c_j = sum_(n >= j) w_n, written as -C expm1(-lam) - e^(-lam) lam t(lam):
    F >= P(1, lam) = -expm1(-lam), so the subtraction removes at most 5/8 of the first
    term and F keeps its relative accuracy where g is small (``integrals``' own
    borders form 1 - e^(-u) and lose it).  And N = r11 + r22 - 2 r12 =
    (O(g (1 + lo)) + O(g (1 - hi)) + M(s))/(2 g), integrals of squares over the
    three segments the points cut the domain into.  On an outer
    segment k(v) - k(v + s) = e^(-v) sum_j b_j v^j with b_j = sum_n w_n P(n - j, s)/j!,
    all positive, so O(lam) = integral over [0, lam] of (k(v) - k(v + s))^2 =
    sum_j (b * b)_j m_j(lam).  In the middle, M(s) = integral over [0, s] of
    (k(v) - k(s - v))^2 is e^(-s) times ``_middle_series`` in s/2 below s = 2, and
    from s = 2 on 2 sum_j (p * p)_j m_j(s) - 2 e^(-s) Q(s) = A - e^(-2s) B(s) -
    2 e^(-s) Q(s), the moments in closed form and Q(s) the integral of p(v) p(s - v)
    over [0, s].  N and b0 are taken over s^2, so their quotient is finite where
    they underflow.
    """
    fact, top = math.factorial, max(n for n, _ in weights)
    ends = [sum(w for n, w in weights if n > i) for i in range(top)]
    p = [c / fact(i) for i, c in enumerate(ends)]
    _, k, scale = integrals._MATERN_INNER[family]
    root = math.sqrt(scale)
    # C = sum_j c_j, and t's lam^(i - 1) coefficient sum_(j > i) c_j/i!: t = t0 + t1 lam,
    # t1 = 0 for 3/2 (top <= 3)
    total = sum(ends)
    t0, t1 = [sum(ends[i:]) / fact(i) for i in range(1, top)] + [0.0] * (3 - top)
    # c = p * p, and Q's s^n coefficient q_n from the Beta integrals of v^i (s - v)^j
    c, q = [0.0] * (2 * top - 1), [0.0] * (2 * top)
    for i, a in enumerate(p):
        for j, b in enumerate(p):
            c[i + j] += a * b
            q[i + j + 1] += a * b * fact(i) * fact(j) / fact(i + j + 1)
    series, two_q = _middle_series(c, q), [2.0 * x for x in q]
    # m_j(s) = j!/2^(j + 1) (1 - e^(-2s) sum_(i <= j) (2s)^i/i!)
    big_a = sum(cj * fact(j) / 2**j for j, cj in enumerate(c))
    big_b = [sum(c[j] * fact(j) / fact(i) / 2 ** (j - i) for j in range(i, len(c))) for i in range(len(c))]
    # b0/s^2 and b_j/s, j >= 1, as sums of f r[m] s^e, r[m] = P(m + 1, s)/s^(m + 1)
    d_terms = tuple((w, n - 1, n - 2) for n, w in weights)
    rows = tuple(tuple((w / fact(j), n - j - 1) for n, w in weights if n > j) for j in range(1, top))

    def form(theta, x1, x2, criterion):
        lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
        g = root * math.sqrt(theta)  # finite for every finite theta
        # from s = 64 on every term that depends on s has its limit in double
        # precision (e^(-s) s^5 < 1e-19), and the cap keeps the powers of s finite
        s = min(g * (hi - lo), 64.0)
        r, pw = _gamma_ratios(top, s), (1.0, s)
        d = 0.0
        for f, m, e in d_terms:
            d += f * r[m] * pw[e]
        beta = [d * s]
        for row in rows:
            b = 0.0
            for f, m in row:
                b += f * r[m] * pw[m]
            beta.append(b)
        m_lo, m_hi = integrals._exp_moments((g * (1.0 + lo), g * (1.0 - hi)), k)
        outer = 0.0
        for i, bi in enumerate(beta):
            for j, bj in enumerate(beta):
                outer += bi * bj * (m_lo[i + j] + m_hi[i + j])
        e = math.exp(-s)
        if s < 2.0:
            middle = e * (0.5 * s) ** 3 * _horner(series, 0.5 * s) / 4.0
        else:
            middle = (big_a - e * (e * _horner(big_b, s) + _horner(two_q, s))) / (s * s)
        borders = 0.0
        for u in (g * (1.0 + x1), g * (1.0 - x1), g * (1.0 + x2), g * (1.0 - x2)):
            borders -= total * math.expm1(-u) + math.exp(-u) * u * (t0 + t1 * u)
        borders /= 2.0 * g
        return 2.0 - 0.5 * s * s * d - borders - (outer + middle) / (4.0 * g * d)

    return form


#: the two-point criterion and residual of each family, from one cancellation-free body
_N2_FORMS = {
    Family.EXP_P1: _exp_two_point,
    Family.GAUSS_P2: _gauss_two_point,
    Family.MATERN32: _matern_two_point(Family.MATERN32, ((2, 1.0),)),
    Family.MATERN52: _matern_two_point(Family.MATERN52, ((3, 2.0 / 3.0), (2, 1.0 / 3.0))),
}


def imspe_closed_n2_exp(theta: float, x1: float, x2: float) -> float:
    """Two-point, one-dimensional exponential criterion, as ``imspe_n2`` gives it."""
    return imspe_n2(Kernel(Family.EXP_P1, (theta,)), theta, x1, x2)


def _n2_closed(family: Family, theta: float, x1: float, x2: float) -> float:
    """``imspe_n2`` of validated points (also the limit at x1 == x2)."""
    return _check_value(_N2_FORMS[family](theta, x1, x2, True), None)


def imspe_n2(kernel: Kernel, theta: float, x1: float, x2: float) -> float:
    """Two-point, one-dimensional criterion in closed form for every family
    (``_exp_two_point``, ``_gauss_two_point``, ``_matern_two_point``): refused only
    for a coincident pair, and within 2e-15 of a high-precision reference for
    theta in [0.01, 1] at any separation.  ``theta`` must equal ``kernel.theta[0]``."""
    theta = _kernel_theta(kernel, theta, "two-point form")
    return _n2_closed(kernel.family, theta, *_check_pair(x1, x2))


def _n2_residual(family: Family, theta: float, x1: float, x2: float) -> float:
    """``imspe_n2`` minus its theta-only part C(theta), as a sum of positive terms.

    At large theta the criterion rounds to C while the residual keeps its
    relative accuracy: within 1e-13 relative of a high-precision reference for
    theta in [1, 1e3] at any separation.  For the Matern families C = 0 and the
    residual is ``imspe_n2`` itself.  Refuses exactly the pairs ``imspe_n2`` refuses.
    """
    x1, x2 = _check_pair(x1, x2)
    return _check_value(_N2_FORMS[family](theta, x1, x2, False), None)


def domain_transform(
    theta: float, x: float, from_interval: tuple[float, float], to_interval: tuple[float, float]
) -> tuple[float, float]:
    """Rescale (theta, x) between design domains so the criterion is invariant.

    The hyperparameter scales with the length ratio and the coordinate maps
    affinely; the round trip is the identity.
    """
    a, b = (float(v) for v in from_interval)
    at, bt = (float(v) for v in to_interval)
    if b <= a or bt <= at:
        raise ValidationError("intervals must have positive length")
    x = float(x)
    if not math.isfinite(x) or x < a or x > b:
        raise ValidationError(f"coordinate {x} outside [{a}, {b}]")
    ratio = (b - a) / (bt - at)
    theta_new = ratio * float(theta)
    x_new = at + (x - a) / ratio
    return theta_new, x_new


def build_matrices_unit_exp(theta: Sequence[float], design) -> ImspeMatrices:
    """Exponential-family criterion on the unit cube [0, 1]^d.

    Companion to :func:`domain_transform`; the averaged-matrix elements come
    from the unit-domain integrals.
    """
    kernel = Kernel(Family.EXP_P1, tuple(theta))
    pts = _as_design(design, kernel.d, 0.0, 1.0)
    return _solve_bordered(
        kernel,
        pts,
        lambda i: integrals.j_border(kernel.theta, pts[i]),
        lambda i, j: integrals.j_inner(kernel.theta, pts[i], pts[j]),
    )

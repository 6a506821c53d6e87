"""Integrated mean-squared prediction error of a kriging design.

The central object is the pair of bordered (n+1) x (n+1) matrices: ``L``
with a zero corner, unit border, and pairwise-correlation body, and ``R``
with a unit corner and design-domain-averaged correlation products in the
border and body.  The criterion is ``imspe = 1 - tr(solve(L) @ R)`` (process
variance normalized to 1).

One-dimensional closed forms (n = 1 and n = 2 for every family) sit beside
the general solve path, with the affine domain rescaling that keeps the
criterion invariant.  The exponential and Gaussian two-point criteria are
written once each (``_exp_two_point``, ``_gauss_two_point``), as a theta-only
constant C(theta) plus a residual of positive terms that cancel at no
separation.  The design search minimises the residual; the criterion is the
same terms with C folded into the large ones, so neither loses digits to the
other.  Both refuse only coincident points.  The Matern two-point criterion
is the explicit bordered inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import integrals
from .errors import NearSingularError, SolveError, ValidationError
from .kernels import Family, Kernel, check_point, corr1, corr_pair

#: condition-number ceiling of L beyond which the solve path and the Matern n = 2
#: form refuse (the exponential and Gaussian n = 2 forms need no ceiling)
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


#: the families whose two-point criterion and residual come from one cancellation-free body
_N2_FORMS = {Family.EXP_P1: _exp_two_point, Family.GAUSS_P2: _gauss_two_point}


def imspe_closed_n2_exp(theta: float, x1: float, x2: float) -> float:
    """Two-point, one-dimensional exponential criterion, as ``imspe_n2`` gives it."""
    return imspe_n2(Kernel(Family.EXP_P1, (theta,)), theta, x1, x2)


def _n2_bordered_form(rho, r01, r02, r11, r22, r12):
    """Two-point criterion from the explicit inverse of L = [[0,1,1],[1,1,rho],[1,rho,1]]
    and R's border ``r0i`` and body ``rij``."""
    return 1.0 + (1.0 + rho) / 2.0 - r01 - r02 - (r11 + r22 - 2.0 * r12) / (2.0 * (1.0 - rho))


def _cond_n2(rho: float) -> float:
    """Exact 2-norm condition number of the two-point L: its eigenvalues are 1 - rho
    and ((1+rho) +- sqrt((1+rho)^2+8))/2, and for 0 <= rho <= 1 the extremes in
    magnitude are the positive root and 1 - rho."""
    lam = 0.5 * (1.0 + rho + math.sqrt((1.0 + rho) ** 2 + 8.0))
    return lam / (1.0 - rho) if rho < 1.0 else math.inf


def _n2_closed(family: Family, theta: float, x1: float, x2: float) -> float:
    """``imspe_n2`` of validated points (exp/gauss: the limit at x1 == x2 too)."""
    form = _N2_FORMS.get(family)
    if form is not None:
        return _check_value(form(theta, x1, x2, True), None)
    rho = corr1(family, theta, x1 - x2)
    cond = _check_cond(_cond_n2(rho))
    border, body = integrals._BORDER[family], integrals._matern_n2_body(family, x1, x2, theta)
    value = _n2_bordered_form(rho, border(x1, theta), border(x2, theta), *body)
    return _check_value(float(value), cond)


def imspe_n2(kernel: Kernel, theta: float, x1: float, x2: float) -> float:
    """Two-point, one-dimensional criterion in closed form for every family:
    ``_exp_two_point`` or ``_gauss_two_point``, refused only for a coincident pair
    and within 2e-15 of a high-precision reference for theta >= 0.01 at any
    separation; for Matern the explicit bordered inverse, under
    the solve path's ceiling on the exact condition number of L.  ``theta`` must
    equal ``kernel.theta[0]``."""
    theta = _kernel_theta(kernel, theta, "two-point form")
    return _n2_closed(kernel.family, theta, *_check_pair(x1, x2))


def _n2_residual(family: Family, theta: float, x1: float, x2: float) -> float:
    """``imspe_n2`` minus its theta-only part C(theta), as a sum of positive terms.

    At large theta the criterion rounds to C while the residual keeps its
    relative accuracy: within 1e-13 relative of a high-precision reference for
    theta in [1, 1e3] at any separation (``_exp_two_point``, ``_gauss_two_point``).  For
    the Matern families C = 0 and the residual is ``imspe_n2`` itself.
    Refuses exactly the pairs ``imspe_n2`` refuses.
    """
    x1, x2 = _check_pair(x1, x2)
    form = _N2_FORMS.get(family)
    if form is None:
        return _n2_closed(family, theta, x1, x2)
    return _check_value(form(theta, x1, x2, False), None)


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

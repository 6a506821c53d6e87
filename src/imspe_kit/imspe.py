"""Integrated mean-squared prediction error of a kriging design.

The central object is the pair of bordered (n+1) x (n+1) matrices: ``L``
with a zero corner, unit border, and pairwise-correlation body, and ``R``
with a unit corner and design-domain-averaged correlation products in the
border and body.  The criterion is ``imspe = 1 - tr(solve(L) @ R)`` (process
variance normalized to 1).

One-dimensional closed forms (n = 1 and n = 2 for every family: at n = 2 the
six-term exponential form, or else the explicit bordered inverse) sit beside
the general solve path, with the affine domain rescaling that keeps the
criterion invariant.  The two-point criterion is also written as a
theta-only constant plus a residual of positive terms, which the design
search minimises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc

from . import integrals
from .errors import NearSingularError, SolveError, ValidationError
from .kernels import Family, Kernel, check_point, corr1, corr_pair

#: condition-number ceiling of L beyond which the solve path and the n = 2 form refuse
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
    cond = _check_cond(float(np.linalg.cond(big_l)))
    try:
        solved = np.linalg.solve(big_l, big_r)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check fires first
        raise SolveError(f"linear solve failed: {exc}", cond_estimate=cond) from exc
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


def _fold_cosh(t, x):
    """e^{-t} * cosh(t x) for |x| <= 1, via decaying exponentials only."""
    return 0.5 * (math.exp(-t * (1.0 - x)) + math.exp(-t * (1.0 + x)))


def _n2_exp_form(theta, x1, x2):
    """Six-term two-point exponential criterion, refused as the bordered form of
    the other families is: on the exact condition number of L and a non-finite
    value."""
    s = abs(x1 - x2)
    e_s = math.exp(-theta * s)
    cond = _check_cond(_cond_n2(e_s))
    theta2 = 2.0 * theta
    den = theta2 * (1.0 - e_s)
    a1 = (1.0 - _fold_cosh(theta, x1)) / theta
    a2 = (1.0 - _fold_cosh(theta, x2)) / theta
    b1 = (1.0 - _fold_cosh(theta2, x1)) / (2.0 * den)
    b2 = (1.0 - _fold_cosh(theta2, x2)) / (2.0 * den)
    cross = 0.5 * (math.exp(-theta * (2.0 - (x1 + x2))) + math.exp(-theta * (2.0 + x1 + x2)))
    c = (e_s - cross + theta * s * e_s) / den
    return _check_value(0.5 * (3.0 + e_s) + c - a1 - a2 - b1 - b2, cond)


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


def imspe_closed_n2_exp(theta: float, x1: float, x2: float) -> float:
    """Six-term closed form for two points, one dimension, exponential family.

    All cosh products are folded into pure decaying exponentials so the form
    is overflow-safe at large theta.
    """
    theta = integrals._check_theta(theta)
    x1, x2 = _check_pair(x1, x2)
    return _n2_exp_form(theta, x1, x2)


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
    """``imspe_n2`` of a checked pair at a checked decay rate."""
    if family is Family.EXP_P1:
        return _n2_exp_form(theta, x1, x2)
    rho = corr1(family, theta, x1 - x2)
    cond = _check_cond(_cond_n2(rho))
    border, inner = integrals._BORDER[family], integrals._pair_table(family, (x1, x2), theta)
    r11, r22, r12 = inner(0, 0), inner(1, 1), inner(0, 1)
    value = _n2_bordered_form(rho, border(x1, theta), border(x2, theta), r11, r22, r12)
    return _check_value(float(value), cond)


def imspe_n2(kernel: Kernel, theta: float, x1: float, x2: float) -> float:
    """Two-point, one-dimensional criterion in closed form for every family: the
    six-term exponential form, or the explicit bordered inverse guarded by the
    solve path's ceiling on the exact condition number of L.  ``theta`` must
    equal ``kernel.theta[0]``."""
    theta = _kernel_theta(kernel, theta, "two-point form")
    return _n2_closed(kernel.family, theta, *_check_pair(x1, x2))


def _n2_residual(family: Family, theta: float, x1: float, x2: float) -> float:
    """``imspe_n2`` minus its theta-only part C(theta), as a sum of positive terms.

    The criterion is a theta-only constant plus terms that decay like e^(-theta)
    and its powers, so at large theta the raw value rounds to C in double
    precision while this residual keeps its relative accuracy.  With
    s = |x1 - x2| and m = (x1 + x2)/2:

    * exponential family: C = 3/2 - 5/(2 theta); the residual is
      e^(-theta s)/2 + (f1 + f2)/theta + (g1 + g2)/(2 den)
      + (theta s e^(-theta s) - g(m))/den, with f, g the folded e^(-t) cosh(t x)
      at t = theta, 2 theta and den = 2 theta (1 - e^(-theta s));
    * Gaussian family: C = 3/2 - 4 s1 - 2 s2 with s1 = sqrt(pi/(16 theta)),
      s2 = sqrt(pi/(32 theta)); the residual is d^2/2 + 2 s2 d/(1 + d)
      + s1 (E(x1) + E(x2)) + s2 (F(x1) + F(x2) - 2 d F(m)) / (2 (1 - d^2)), with
      d = e^(-theta s^2 / 2), E(a) = erfc(sqrt(theta)(1 + a)) + erfc(sqrt(theta)(1 - a))
      and F the same sum at 2 theta;
    * Matern families: C = 0 and the residual is ``imspe_n2`` itself.

    Refuses exactly the pairs ``imspe_n2`` refuses.
    """
    x1, x2 = _check_pair(x1, x2)
    if family is Family.MATERN32 or family is Family.MATERN52:
        return _n2_closed(family, theta, x1, x2)
    s, m = abs(x1 - x2), 0.5 * (x1 + x2)
    rho = corr1(family, theta, s)
    cond = _check_cond(_cond_n2(rho))
    if family is Family.EXP_P1:
        den = -2.0 * theta * math.expm1(-theta * s)
        f = _fold_cosh(theta, x1) + _fold_cosh(theta, x2)
        g = _fold_cosh(2.0 * theta, x1) + _fold_cosh(2.0 * theta, x2)
        cross = _fold_cosh(2.0 * theta, m)
        value = 0.5 * rho + f / theta + g / (2.0 * den) + (theta * s * rho - cross) / den
        return _check_value(value, cond)
    g1, g2 = math.sqrt(theta), math.sqrt(2.0 * theta)
    s1, s2 = math.sqrt(math.pi / (16.0 * theta)), math.sqrt(math.pi / (32.0 * theta))
    e_sum = lambda a: erfc(g1 * (1.0 + a)) + erfc(g1 * (1.0 - a))
    f_sum = lambda a: erfc(g2 * (1.0 + a)) + erfc(g2 * (1.0 - a))
    d = math.exp(-0.5 * theta * s * s)
    value = (
        0.5 * d * d
        + 2.0 * s2 * d / (1.0 + d)
        + s1 * (e_sum(x1) + e_sum(x2))
        + s2 * (f_sum(x1) + f_sum(x2) - 2.0 * d * f_sum(m)) / (-2.0 * math.expm1(-theta * s * s))
    )
    return _check_value(float(value), cond)


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

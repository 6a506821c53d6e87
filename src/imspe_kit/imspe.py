"""Integrated mean-squared prediction error of a kriging design.

The central object is the pair of bordered (n+1) x (n+1) matrices: ``L``
with a zero corner, unit border, and pairwise-correlation body, and ``R``
with a unit corner and design-domain-averaged correlation products in the
border and body.  The criterion is ``imspe = 1 - tr(solve(L) @ R)`` (process
variance normalized to 1).

One-dimensional closed forms (n = 1 and n = 2 for every family: at n = 2 the
six-term exponential form, or else the explicit bordered inverse) sit beside
the general solve path, with the affine domain rescaling that keeps the
criterion invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import integrals
from .errors import NearSingularError, SolveError, ValidationError
from .kernels import Family, Kernel, check_point, corr1, corr_pair

#: condition-number ceiling of L beyond which the solve path and the n = 2 form refuse
COND_LIMIT = 1e13


def trace_of_product_sym(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A B) for symmetric A, B as the sum of elementwise products."""
    return float(np.sum(a * b))


def inverse_sym_3x3(m: np.ndarray) -> np.ndarray:
    """Adjugate inverse of a symmetric 3x3 matrix.

    Used as a cross-check against the general solve path on two-point
    designs; not a production path.
    """
    m = np.asarray(m, dtype=float)
    a, b, c = m[0, 0], m[0, 1], m[0, 2]
    d, e = m[1, 1], m[1, 2]
    f = m[2, 2]
    det = a * d * f - a * e * e - b * b * f + 2.0 * b * c * e - c * c * d
    if det == 0.0 or not math.isfinite(det):
        raise SolveError(f"3x3 determinant {det} is singular")
    adj = np.array(
        [
            [d * f - e * e, c * e - b * f, b * e - c * d],
            [c * e - b * f, a * f - c * c, b * c - a * e],
            [b * e - c * d, b * c - a * e, a * d - b * b],
        ]
    )
    return adj / det


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
        lambda i, j: integrals._r_inner(kernel, pts[i], pts[j]),
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
    return 2.0 * (1.0 - integrals.border_1d(kernel.family, x1, theta))


def _fold_cosh(exp, one, half, t, x):
    """e^{-t} * cosh(t x) for |x| <= 1, via decaying exponentials only."""
    return half * (exp(-t * (one - x)) + exp(-t * (one + x)))


def _n2_exp_form(theta, x1, x2, exp, one):
    """Six-term two-point exponential criterion in the arithmetic of ``exp``.

    ``exp`` and ``one`` are ``math.exp`` and 1.0 for double precision, or an
    mpmath exponential and ``mp.mpf(1)`` for extended precision.  Every
    constant is built from ``one`` because operations that mix number types
    are slow in both arithmetics.
    """
    two = one + one
    half = one / two
    s = abs(x1 - x2)
    e_s = exp(-theta * s)
    theta2 = two * theta
    den = theta2 * (one - e_s)
    a1 = (one - _fold_cosh(exp, one, half, theta, x1)) / theta
    a2 = (one - _fold_cosh(exp, one, half, theta, x2)) / theta
    b1 = (one - _fold_cosh(exp, one, half, theta2, x1)) / (two * den)
    b2 = (one - _fold_cosh(exp, one, half, theta2, x2)) / (two * den)
    cross = half * (exp(-theta * (two - (x1 + x2))) + exp(-theta * (two + x1 + x2)))
    c = (e_s - cross + theta * s * e_s) / den
    return half * (one + two + e_s) + c - a1 - a2 - b1 - b2


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
    return _n2_exp_form(theta, x1, x2, math.exp, 1.0)


def _n2_bordered_form(rho, r01, r02, r11, r22, r12, one):
    """Two-point criterion from the explicit inverse of L = [[0,1,1],[1,1,rho],[1,rho,1]]
    and R's border ``r0i`` and body ``rij``, in the arithmetic of ``one`` (1.0 or mpf)."""
    two = one + one
    return one + (one + rho) / two - r01 - r02 - (r11 + r22 - two * r12) / (two * (one - rho))


def _cond_n2(rho: float) -> float:
    """Exact 2-norm condition number of the two-point L: its eigenvalues are 1 - rho
    and ((1+rho) +- sqrt((1+rho)^2+8))/2, and for 0 <= rho <= 1 the extremes in
    magnitude are the positive root and 1 - rho."""
    lam = 0.5 * (1.0 + rho + math.sqrt((1.0 + rho) ** 2 + 8.0))
    return lam / (1.0 - rho) if rho < 1.0 else math.inf


def imspe_n2(kernel: Kernel, theta: float, x1: float, x2: float) -> float:
    """Two-point, one-dimensional criterion in closed form for every family: the
    six-term exponential form, or the explicit bordered inverse guarded by the
    solve path's ceiling on the exact condition number of L.  ``theta`` must
    equal ``kernel.theta[0]``."""
    theta = _kernel_theta(kernel, theta, "two-point form")
    x1, x2 = _check_pair(x1, x2)
    if kernel.family is Family.EXP_P1:
        return _n2_exp_form(theta, x1, x2, math.exp, 1.0)
    rho = corr1(kernel.family, theta, x1 - x2)
    cond = _check_cond(_cond_n2(rho))
    border, inner = integrals._BORDER[kernel.family], integrals._INNER[kernel.family]
    r01, r02, r12 = border(x1, theta), border(x2, theta), inner(x1, x2, theta)
    value = _n2_bordered_form(rho, r01, r02, inner(x1, x1, theta), inner(x2, x2, theta), r12, 1.0)
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

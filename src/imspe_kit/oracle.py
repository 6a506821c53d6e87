"""Independent quadrature oracle for cross-validating the closed forms.

Everything here is deliberately dumb and slow: adaptive Simpson quadrature
on the raw correlation integrands, with forced subdivision at the anchor
points where the exponential/Matern integrands kink.  No closed form from
the rest of the package is reused, so agreement between the two paths is
meaningful evidence; only the bookkeeping that fills a bordered matrix is
shared with the fast path.  An adjugate inverse of the 3x3 bordered matrix
gives a second route to the two-point solve.

The oracle raises :class:`QuadratureError` instead of silently returning a
low-quality estimate when the tolerance cannot be met.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError, SolveError
from .imspe import _fill_bordered
from .kernels import Family, Kernel, corr1, corr_point

_MAX_DEPTH = 60


def _simpson(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a}, {b}] (residual {abs(delta):.3e})"
        )
    half = 0.5 * tol
    return _adapt(f, a, fa, m, fm, lm, flm, left, half, depth + 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, half, depth + 1
    )


def quad_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    split_points: Sequence[float] = (),
) -> float:
    """Adaptive Simpson integral of ``f`` on [a, b].

    ``split_points`` are interior locations (kinks of the integrand) where
    the panel boundaries are forced, so Simpson's rule never straddles a
    derivative discontinuity at low depth.
    """
    pts = sorted({a, b, *(p for p in split_points if a < p < b)})
    total = 0.0
    n_panels = len(pts) - 1
    for lo, hi in zip(pts[:-1], pts[1:]):
        m = 0.5 * (lo + hi)
        flo, fhi, fm = f(lo), f(hi), f(m)
        whole = _simpson(f, lo, flo, hi, fhi, m, fm)
        total += _adapt(f, lo, flo, hi, fhi, m, fm, whole, abs_tol / n_panels, 0)
    return total


# ---------------------------------------------------------------------------
# oracle versions of the basic integrals and R-matrix elements
# ---------------------------------------------------------------------------

def border_1d_quad(family: Family, a: float, theta: float, *, abs_tol: float = 1e-12) -> float:
    """Quadrature value of the single-anchor design-average integral."""
    f = lambda x: corr1(family, theta, a - x)
    return 0.5 * quad_adaptive(f, -1.0, 1.0, abs_tol=abs_tol, split_points=(a,))


def inner_1d_quad(
    family: Family, a: float, b: float, theta: float, *, abs_tol: float = 1e-12
) -> float:
    """Quadrature value of the two-anchor design-average integral."""
    f = lambda x: corr1(family, theta, a - x) * corr1(family, theta, b - x)
    return 0.5 * quad_adaptive(f, -1.0, 1.0, abs_tol=abs_tol, split_points=(a, b))


def unit_border_1d_quad(a: float, theta: float, *, abs_tol: float = 1e-12) -> float:
    """Quadrature value of the exponential single-anchor integral on [0, 1]."""
    f = lambda x: corr1(Family.EXP_P1, theta, a - x)
    return quad_adaptive(f, 0.0, 1.0, abs_tol=abs_tol, split_points=(a,))


def unit_inner_1d_quad(a: float, b: float, theta: float, *, abs_tol: float = 1e-12) -> float:
    """Quadrature value of the exponential two-anchor integral on [0, 1]."""
    f = lambda x: corr1(Family.EXP_P1, theta, a - x) * corr1(Family.EXP_P1, theta, b - x)
    return quad_adaptive(f, 0.0, 1.0, abs_tol=abs_tol, split_points=(a, b))


def r_border_quad(kernel: Kernel, xi: Sequence[float], *, abs_tol: float = 1e-12) -> float:
    """Border element of the averaged matrix, dimension by dimension."""
    out = 1.0
    for t, a in zip(kernel.theta, xi):
        out *= border_1d_quad(kernel.family, float(a), t, abs_tol=abs_tol)
    return out


def r_inner_quad(
    kernel: Kernel, xi: Sequence[float], xj: Sequence[float], *, abs_tol: float = 1e-12
) -> float:
    """Body element of the averaged matrix, dimension by dimension."""
    out = 1.0
    for t, a, b in zip(kernel.theta, xi, xj):
        out *= inner_1d_quad(kernel.family, float(a), float(b), t, abs_tol=abs_tol)
    return out


def _corr_matrix(kernel: Kernel, design: np.ndarray) -> np.ndarray:
    """Bordered correlation matrix L from raw ``corr1`` products."""
    n = design.shape[0]

    def body(i, j):
        if i == j:
            return 1.0
        v = 1.0
        for t, a, b in zip(kernel.theta, design[i], design[j]):
            v *= corr1(kernel.family, t, a - b)
        return v

    return _fill_bordered(np.zeros((n + 1, n + 1)), 0.0, lambda i: 1.0, body)


def imspe_quad(kernel: Kernel, design, *, abs_tol: float = 1e-12) -> float:
    """Integrated MSPE via the bordered-trace identity with quadrature elements.

    Same linear algebra as the fast path, but every averaged-matrix entry
    comes from adaptive quadrature instead of the closed forms.
    """
    design = np.asarray(design, dtype=float)
    n = design.shape[0]
    big_l = _corr_matrix(kernel, design)
    big_r = _fill_bordered(
        np.zeros((n + 1, n + 1)),
        1.0,
        lambda i: r_border_quad(kernel, design[i], abs_tol=abs_tol),
        lambda i, j: r_inner_quad(kernel, design[i], design[j], abs_tol=abs_tol),
    )
    return 1.0 - float(np.trace(np.linalg.solve(big_l, big_r)))


def mspe_grid_quad(kernel: Kernel, design, n_grid: int = 401) -> float:
    """Brute-force IMSPE: average the pointwise kriging MSPE over a tensor grid.

    Cross-check of the trace identity itself (one-dimensional designs use a
    dense trapezoid grid; multi-dimensional a tensor product).  Accuracy is
    limited by the grid, so use only with loose tolerances.
    """
    design = np.asarray(design, dtype=float)
    n, d = design.shape
    big_l = _corr_matrix(kernel, design)
    axis = np.linspace(-1.0, 1.0, n_grid)
    w1 = np.ones(n_grid)
    w1[0] = w1[-1] = 0.5
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * d), indexing="ij")
    weights = np.ones_like(wgrids[0])
    for wg in wgrids:
        weights = weights * wg
    weights = weights.ravel()
    total_w = weights.sum()
    acc = 0.0
    inv = np.linalg.inv(big_l)
    for p, w in zip(pts, weights):
        rvec = np.empty(n + 1)
        rvec[0] = 1.0
        for i in range(n):
            rvec[1 + i] = corr_point(kernel, tuple(design[i]), tuple(p))
        acc += w * (1.0 - float(rvec @ inv @ rvec))
    return acc / total_w


# ---------------------------------------------------------------------------
# adjugate route for the two-point bordered solve
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# derivative oracle
# ---------------------------------------------------------------------------

def central_diff(f: Callable[[float], float], x: float, order: int, h: float) -> float:
    """Central finite difference of the given order (1-4) at step ``h``."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2.0 * h ** 3)
    if order == 4:
        return (
            f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)
        ) / h ** 4
    raise ValueError(f"unsupported derivative order {order}")


def richardson_diff(
    f: Callable[[float], float], x: float, order: int = 1, h0: float = 1e-2, levels: int = 4
) -> float:
    """Richardson-extrapolated central difference.

    Builds the standard triangular tableau on step halvings; central
    differences have even-power error, so each level cancels an h^2 term.
    """
    tab = [[central_diff(f, x, order, h0 / 2 ** k)] for k in range(levels)]
    for j in range(1, levels):
        for k in range(levels - j):
            p = 4.0 ** j
            tab[k].append((p * tab[k + 1][j - 1] - tab[k][j - 1]) / (p - 1.0))
    return tab[0][levels - 1]

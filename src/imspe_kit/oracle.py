"""Independent quadrature oracle for cross-validating the closed forms.

Adaptive Simpson quadrature on raw ``corr1`` products, forced to split at the
anchor points where the exponential/Matern integrands kink.  One driver runs a
batch of integrals one depth at a time, with one array call of the integrand
per depth for the open intervals of all of them, and caps the number of open
intervals per integral so that an integrand that never converges fails fast.
The one-dimensional quadratures take arrays of anchors and theta, so
``validate`` makes one call per case.  No closed form from the rest of the
package is reused, so agreement between the two paths is meaningful evidence;
only the bookkeeping that fills a bordered matrix is shared with the fast path.  An adjugate inverse of the
3x3 bordered matrix gives a second route to the two-point solve.

The oracle raises :class:`QuadratureError` instead of silently returning a
low-quality estimate when the tolerance cannot be met.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError, SolveError
from .imspe import _fill_bordered
from .kernels import Family, Kernel, corr1

_MAX_DEPTH = 60
#: open intervals one integral may hold at one depth (``validate --samples 500``
#: needs 690 for its widest integral, the tests 1,864)
_MAX_OPEN = 8192
#: integrals per driver pass.  ``validate --samples 500`` ran at 32, 64 and 128
#: within the spread of repeated runs, and about 25 % slower at 16; its peak
#: traced memory grows with the batch (11.0 MB at 32, 16.0 at 128, 36.5 unbounded)
_BATCH = 32
#: per row of ``known``: the rows of (known, mid, fmid, halves) holding it for each child
_CHILD_ROWS = np.array([0, 1, 7, 8, 1, 2, 3, 4, 9, 10, 4, 5, 11, 12])


def _quad_batch(f: Callable, intervals: Sequence[tuple], abs_tol: float) -> list[float]:
    """Adaptive Simpson integrals, one per ``(a, b, split_points)`` of ``intervals``.

    ``f(x, k)`` maps an array of nodes ``x``, one column per interval, and the
    index ``k`` of the integral each column belongs to onto the integrand values
    at the nodes.  The intervals of all the integrals that are open at one depth
    get their new nodes from one call of ``f``.  Each integral keeps its own
    tolerance, acceptance and sum, so its value is the one it would get alone.

    ``split_points`` are interior kinks of the integrand where panel boundaries are
    forced, so Simpson's rule never straddles a derivative discontinuity at low depth.
    An interval is accepted when its halves' Simpson sums differ from its own by at
    most 15 times its tolerance (halved per depth), and then counts their sum plus
    delta / 15 (Lyness 1969).  The accepted values are added up in the order of a
    depth-first recursion: each parent as left plus right child, panels left to right.
    """
    breaks = [sorted({a, b, *(p for p in splits if a < p < b)}) for a, b, splits in intervals]
    # a == b leaves no panel
    tol = np.array([abs_tol / max(len(pts) - 1, 1) for pts in breaks])
    owner = np.array([k for k, pts in enumerate(breaks) for _ in pts[1:]], dtype=np.intp)
    lo = np.array([p for pts in breaks for p in pts[:-1]], dtype=float)
    hi = np.array([p for pts in breaks for p in pts[1:]], dtype=float)
    x = np.array([lo, 0.5 * (lo + hi), hi])
    # one column per open interval: a, m, b, f(a), f(m), f(b) and its Simpson sum
    known = np.concatenate((x, f(x, owner), np.empty_like(x[:1])))
    known[6] = (x[2] - x[0]) / 6.0 * (known[3] + 4.0 * known[4] + known[5])
    panel_owner, levels = owner.tolist(), []
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (known[0:2] + known[1:3])
        fmid = f(mid, owner)
        halves = (known[1:3] - known[0:2]) / 6.0 * (known[3:5] + 4.0 * fmid + known[4:6])
        both = halves[0] + halves[1]
        delta = both - known[6]
        split = ~(np.abs(delta) <= 15.0 * tol[owner])
        levels.append((both + delta / 15.0, split))
        n_open = np.count_nonzero(split)
        if not n_open:
            break
        if depth == _MAX_DEPTH or 2 * n_open > _MAX_OPEN:  # then some integral may fail
            per_integral = np.bincount(owner[split], minlength=len(breaks))
            failed = per_integral > 0 if depth == _MAX_DEPTH else 2 * per_integral > _MAX_OPEN
            if failed.any():
                k = np.argmax(failed)
                i = np.argmax(split & (owner == k))
                raise QuadratureError(
                    f"adaptive Simpson did not converge on [{known[0, i]}, {known[2, i]}] at "
                    f"depth {depth}, {per_integral[k]} intervals open (residual {abs(delta[i]):.3e})"
                )
        # children of the open intervals: all left ones, then all right ones
        known = np.concatenate((known, mid, fmid, halves)).compress(split, axis=1)
        known = known[_CHILD_ROWS].reshape(7, -1)
        owner = owner[split]
        owner = np.concatenate((owner, owner))
        tol *= 0.5
    value = levels.pop()[0]
    while levels:
        parent, split = levels.pop()
        parent[split] = value[: len(value) // 2] + value[len(value) // 2 :]
        value = parent
    totals = [0.0] * len(breaks)
    for k, v in zip(panel_owner, value.tolist()):
        totals[k] += v
    return totals


def quad_adaptive(
    f: Callable, a: float, b: float, *, abs_tol: float = 1e-12, split_points: Sequence[float] = ()
) -> float:
    """Adaptive Simpson integral on [a, b] of ``f``, which maps a 1-d array of nodes
    to values: the batch of one of ``_quad_batch``, which says how it is computed."""
    g = lambda x, k: f(x.ravel()).reshape(x.shape)
    return _quad_batch(g, [(a, b, split_points)], abs_tol)[0]


# ---------------------------------------------------------------------------
# oracle versions of the basic integrals and R-matrix elements
# ---------------------------------------------------------------------------

def _anchored_quad(family: Family, lo: float, anchors: tuple, theta, abs_tol: float):
    """Integral over [lo, 1] of the product over ``anchors`` of ``corr1(family, theta,
    anchor - x)``, split at the anchors.  Float arguments give a float; equal-length
    arrays of anchors and theta give an array, one integral per entry, computed
    ``_BATCH`` integrals per driver pass."""
    columns = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (*anchors, theta)]
    out = np.empty(len(columns[-1]))
    for start in range(0, len(out), _BATCH):
        *ends, thetas = (c[start : start + _BATCH] for c in columns)

        def f(x, k):
            t, values = thetas[k], 1.0
            for e in ends:
                values = values * corr1(family, t, e[k] - x, np)
            return values

        splits = zip(*(e.tolist() for e in ends))
        out[start : start + _BATCH] = _quad_batch(f, [(lo, 1.0, s) for s in splits], abs_tol)
    return float(out[0]) if np.ndim(theta) == 0 else out


def border_1d_quad(family: Family, a, theta, *, abs_tol: float = 1e-12):
    """Quadrature value of the single-anchor design-average integral; equal-length
    arrays of ``a`` and ``theta`` give an array of them."""
    return 0.5 * _anchored_quad(family, -1.0, (a,), theta, abs_tol)


def inner_1d_quad(family: Family, a, b, theta, *, abs_tol: float = 1e-12):
    """Quadrature value of the two-anchor design-average integral; equal-length
    arrays of ``a``, ``b`` and ``theta`` give an array of them."""
    return 0.5 * _anchored_quad(family, -1.0, (a, b), theta, abs_tol)


def unit_border_1d_quad(a, theta, *, abs_tol: float = 1e-12):
    """Quadrature value of the exponential single-anchor integral on [0, 1]; arrays
    as in ``border_1d_quad``."""
    return _anchored_quad(Family.EXP_P1, 0.0, (a,), theta, abs_tol)


def unit_inner_1d_quad(a, b, theta, *, abs_tol: float = 1e-12):
    """Quadrature value of the exponential two-anchor integral on [0, 1]; arrays as
    in ``inner_1d_quad``."""
    return _anchored_quad(Family.EXP_P1, 0.0, (a, b), theta, abs_tol)


def _axis_products(quad, kernel: Kernel, entries, abs_tol: float) -> list[float]:
    """For each tuple of points in ``entries``, the product over the axes, in axis
    order, of ``quad(family, *coordinates, theta)``, from one array call for all of
    them; a batch gives each integral its lone value, so every product is too."""
    d = kernel.d
    columns = [np.array([p[k] for p in points for k in range(d)], dtype=float) for points in zip(*entries)]
    thetas = np.tile(np.asarray(kernel.theta, dtype=float), len(entries))
    values = quad(kernel.family, *columns, thetas, abs_tol=abs_tol).reshape(len(entries), d)
    return [math.prod(row, start=1.0) for row in values.tolist()]


def r_border_quad(kernel: Kernel, xi: Sequence[float], *, abs_tol: float = 1e-12) -> float:
    """Border element of the averaged matrix, dimension by dimension."""
    return _axis_products(border_1d_quad, kernel, [(xi,)], abs_tol)[0]


def r_inner_quad(
    kernel: Kernel, xi: Sequence[float], xj: Sequence[float], *, abs_tol: float = 1e-12
) -> float:
    """Body element of the averaged matrix, dimension by dimension."""
    return _axis_products(inner_1d_quad, kernel, [(xi, xj)], abs_tol)[0]


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
    comes from adaptive quadrature instead of the closed forms: the border
    entries from one batched quadrature call, the body entries from another.
    """
    design = np.asarray(design, dtype=float)
    n = design.shape[0]
    big_l = _corr_matrix(kernel, design)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    border = _axis_products(border_1d_quad, kernel, [(p,) for p in design], abs_tol)
    entries = [(design[i], design[j]) for i, j in pairs]
    inner = dict(zip(pairs, _axis_products(inner_1d_quad, kernel, entries, abs_tol)))
    big_r = _fill_bordered(np.zeros((n + 1, n + 1)), 1.0, border.__getitem__, lambda i, j: inner[i, j])
    return 1.0 - float(np.trace(np.linalg.solve(big_l, big_r)))


def mspe_grid_quad(kernel: Kernel, design, n_grid: int = 401) -> float:
    """Brute-force IMSPE: average the pointwise kriging MSPE over a tensor grid.

    Cross-check of the trace identity itself (one-dimensional designs use a
    dense trapezoid grid; multi-dimensional a tensor product).  Accuracy is
    limited by the grid, so use only with loose tolerances.
    """
    design = np.asarray(design, dtype=float)
    n, d = design.shape
    axis = np.linspace(-1.0, 1.0, n_grid)
    w1 = np.ones(n_grid)
    w1[0] = w1[-1] = 0.5
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")])
    weights = np.prod([g.ravel() for g in np.meshgrid(*([w1] * d), indexing="ij")], axis=0)
    rvec = np.ones((n + 1, pts.shape[1]))
    for i in range(n):
        for t, a, x in zip(kernel.theta, design[i], pts):
            rvec[1 + i] *= corr1(kernel.family, t, a - x, np)
    mspe = 1.0 - np.sum(rvec * np.linalg.solve(_corr_matrix(kernel, design), rvec), axis=0)
    return float(weights @ mspe / weights.sum())


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

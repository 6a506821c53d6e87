"""Independent reference values for the benchmark's correctness checks.

Nothing here imports imspe_kit.  Correlations are evaluated with numpy, the
design-averaged matrix entries by composite Gauss-Legendre quadrature split
at the anchors (where the exponential and Matern integrands kink), and the
criterion by a batched dense solve.  Near-coincident Gaussian designs, which
the double-precision solve cannot resolve, get a 40-digit mpmath evaluation
of the textbook erf closed forms.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
#: evaluations per quadrature batch, to bound the temporary arrays
_CHUNK = 1_500_000


def corr(family: str, theta: float, r: np.ndarray) -> np.ndarray:
    """One-dimensional correlation at absolute coordinate difference ``r``."""
    r = np.abs(r)
    if family == "exp-p1":
        return np.exp(-theta * r)
    if family == "matern-3-2":
        t = math.sqrt(3.0 * theta) * r
        return (1.0 + t) * np.exp(-t)
    if family == "matern-5-2":
        t = math.sqrt(5.0 * theta) * r
        return (1.0 + t + t * t / 3.0) * np.exp(-t)
    if family == "gauss-p2":
        return np.exp(-theta * r * r)
    raise ValueError(f"unknown family {family!r}")


def _panels(family: str, theta: float) -> int:
    """Panels per segment so that no 12-node panel spans more than ~6 decay lengths."""
    rate = {
        "exp-p1": 2.0 * theta,
        "matern-3-2": 2.0 * math.sqrt(3.0 * theta),
        "matern-5-2": 2.0 * math.sqrt(5.0 * theta),
        "gauss-p2": 4.0 * math.sqrt(theta),
    }[family]
    return max(2, math.ceil(2.0 * rate / 6.0))


def average(family: str, theta: float, anchors: list[np.ndarray]) -> np.ndarray:
    """(1/2) * integral over [-1, 1] of prod_k corr(anchor_k - x), elementwise.

    ``anchors`` holds one or two equal-length arrays; the integral is split
    at every anchor, and each segment into equal Gauss-Legendre panels.
    """
    anchors = [np.asarray(a, dtype=float) for a in anchors]
    m = anchors[0].shape[0]
    knots = np.sort(
        np.stack([np.full(m, -1.0), *anchors, np.full(m, 1.0)], axis=1), axis=1
    )
    lo, hi = knots[:, :-1], knots[:, 1:]  # (m, segments)
    k = _panels(family, theta)
    width = (hi - lo) / k
    # node offsets inside one segment, in units of the panel width
    offs = (np.arange(k)[:, None] + 0.5 * (_GL_NODES[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * _GL_WEIGHTS, k)
    out = np.empty(m)
    step = max(1, _CHUNK // (lo.shape[1] * offs.size))
    for s in range(0, m, step):
        sl = slice(s, s + step)
        x = lo[sl, :, None] + width[sl, :, None] * offs[None, None, :]
        f = np.ones_like(x)
        for a in anchors:
            f *= corr(family, theta, a[sl, None, None] - x)
        out[sl] = 0.5 * np.sum(f * wts * width[sl, :, None], axis=(1, 2))
    return out


def criterion(family: str, theta, designs) -> dict:
    """Bordered matrices, criterion and condition number for a batch of designs.

    ``designs`` has shape (batch, n, d) and ``theta`` length d.  No design in
    the batch may contain coincident points.
    """
    designs = np.asarray(designs, dtype=float)
    batch, n, d = designs.shape
    theta = [float(t) for t in theta]
    iu, ju = np.triu_indices(n)
    big_l = np.zeros((batch, n + 1, n + 1))
    big_r = np.zeros((batch, n + 1, n + 1))
    big_l[:, 0, 1:] = big_l[:, 1:, 0] = 1.0
    big_r[:, 0, 0] = 1.0
    body_l = np.ones((batch, iu.size))
    body_r = np.ones((batch, iu.size))
    border = np.ones((batch, n))
    for k in range(d):
        xs = designs[:, :, k]
        a, b = xs[:, iu].ravel(), xs[:, ju].ravel()
        body_l *= corr(family, theta[k], a - b).reshape(batch, -1)
        body_r *= average(family, theta[k], [a, b]).reshape(batch, -1)
        border *= average(family, theta[k], [xs.ravel()]).reshape(batch, n)
    big_l[:, 1 + iu, 1 + ju] = big_l[:, 1 + ju, 1 + iu] = body_l
    big_r[:, 1 + iu, 1 + ju] = big_r[:, 1 + ju, 1 + iu] = body_r
    big_r[:, 0, 1:] = big_r[:, 1:, 0] = border
    value = 1.0 - np.trace(np.linalg.solve(big_l, big_r), axis1=1, axis2=2)
    return {"imspe": value, "cond": np.linalg.cond(big_l), "L": big_l, "R": big_r}


def gauss_criterion_mp(theta, design, dps: int = 40) -> float:
    """Gaussian-family criterion of one design at ``dps`` digits (erf closed forms)."""
    with mp.workdps(dps):
        th = [mp.mpf(float(t)) for t in theta]
        pts = [[mp.mpf(float(c)) for c in p] for p in design]
        n = len(pts)

        def border(p):
            out = mp.mpf(1)
            for t, a in zip(th, p):
                g = mp.sqrt(t)
                out *= mp.sqrt(mp.pi / t) / 4 * (mp.erf(g * (1 + a)) + mp.erf(g * (1 - a)))
            return out

        def inner(p, q):
            out = mp.mpf(1)
            for t, a, b in zip(th, p, q):
                g, mid = mp.sqrt(2 * t), (a + b) / 2
                out *= (
                    mp.sqrt(mp.pi / (2 * t)) / 4
                    * (mp.erf(g * (1 + mid)) + mp.erf(g * (1 - mid)))
                    * mp.exp(-t * (a - b) ** 2 / 2)
                )
            return out

        big_l = mp.matrix(n + 1, n + 1)
        big_r = mp.matrix(n + 1, n + 1)
        big_r[0, 0] = 1
        for i in range(n):
            big_l[0, 1 + i] = big_l[1 + i, 0] = 1
            big_r[0, 1 + i] = big_r[1 + i, 0] = border(pts[i])
            for j in range(i, n):
                v = mp.exp(-sum(t * (a - b) ** 2 for t, a, b in zip(th, pts[i], pts[j])))
                big_l[1 + i, 1 + j] = big_l[1 + j, 1 + i] = v
                big_r[1 + i, 1 + j] = big_r[1 + j, 1 + i] = inner(pts[i], pts[j])
        solved = mp.inverse(big_l) * big_r
        return float(1 - sum(solved[i, i] for i in range(n + 1)))

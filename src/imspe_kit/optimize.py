"""Criterion-optimal design search and grid scanning.

The single-point optimum is the centre of the interval for every family and
decay rate, so it is reported in closed form without a search.

Two-point optima use deterministic-multistart Nelder-Mead (no randomness
anywhere, so repeated runs and parallel runs are bit-identical) on the
criterion minus its theta-only constant, ``imspe._n2_residual``.  The
Nelder-Mead is a two-dimensional loop on floats that takes scipy's steps bit
for bit.  At large decay rates the criterion itself rounds to that constant
across a wide basin in double precision, while the residual keeps its
relative accuracy, so one double-precision search serves every decay rate.
Scans and theta-sweeps are embarrassingly parallel; results are assembled in
index order so output is independent of the worker count.

The ``symmetric_pair`` search is Brent's bounded scalar method, also a loop
on floats that takes scipy's steps bit for bit, so no search loads
``scipy.optimize``.  ``mpmath`` is imported only by the scenario's 40-digit
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import integrals
from .errors import ImspeKitError, NearSingularError, SolveError, ValidationError
from .imspe import _fill_bordered, _kernel_theta, _n2_residual
from .imspe import build_matrices, imspe_closed_n1, imspe_n2
from .kernels import Family, Kernel, corr1

#: deterministic multistart lattice for the two-point search (ordered pairs
#: x1 > x2 from {+-0.8, +-0.5, +-0.2})
_START_VALUES = (0.8, 0.5, 0.2, -0.2, -0.5, -0.8)
MULTISTART_PAIRS = tuple(
    (a, b) for i, a in enumerate(_START_VALUES) for b in _START_VALUES[i + 1 :]
)

# -- the constrained two-dimensional demonstration scenario -----------------
FIG_THETA = (0.064, 0.00016)
FIG_FIXED = ((0.767117, 0.0), (-0.767117, 0.0))


def fig_kernel() -> Kernel:
    """Kernel of the constrained four-point, two-dimensional scenario."""
    return Kernel(Family.GAUSS_P2, FIG_THETA)


def fig_design(t: Sequence[float]) -> np.ndarray:
    """Four-point design with two fixed points and an inversion pair (t, -t)."""
    t = np.asarray(t, dtype=float)
    return np.array([FIG_FIXED[0], FIG_FIXED[1], tuple(t), tuple(-t)])


#: working precision (decimal digits) of the scenario's extended-precision solve
_HP_DPS = 40


def _fig_imspe_hp(design: np.ndarray) -> float:
    """Extended-precision criterion for the constrained scenario.

    Near a pair coincidence the bordered matrix condition number grows like
    1/separation^2 and the 64-bit solve loses the directional-limit signal;
    a 40-digit solve keeps it.
    """
    import mpmath as mp

    hp_border, hp_pair = integrals._gauss_averages(mp.sqrt, mp.exp, mp.erf, mp.pi)
    theta = [mp.mpf(t) for t in FIG_THETA]
    pts = [[mp.mpf(float(c)) for c in p] for p in design]
    n = len(pts)
    one = mp.mpf(1)

    def corr(i, j):
        if i == j:
            return one
        return mp.exp(-sum(t * (a - b) ** 2 for t, a, b in zip(theta, pts[i], pts[j])))

    def border(i):
        return math.prod((hp_border(a, t) for t, a in zip(theta, pts[i])), start=one)

    def inner(i, j):
        terms = (hp_pair(a, b, t) for t, a, b in zip(theta, pts[i], pts[j]))
        return math.prod(terms, start=one)

    with mp.workdps(_HP_DPS):
        big_l = _fill_bordered(mp.zeros(n + 1), mp.mpf(0), lambda i: one, corr)
        big_r = _fill_bordered(mp.zeros(n + 1), one, border, inner)
        linv = mp.inverse(big_l)
        trace = sum(linv[i, j] * big_r[j, i] for i in range(n + 1) for j in range(n + 1))
        return float(1 - trace)


#: below this pairwise separation, the scenario evaluator switches to the
#: extended-precision solve
_FIG_HP_SEPARATION = 1e-2


def fig_imspe(t1: float, t2: float) -> float:
    """Criterion of the constrained scenario as a function of the free pair."""
    design = fig_design((t1, t2))
    min_sep = min(
        float(np.linalg.norm(design[i] - design[j]))
        for i in range(len(design))
        for j in range(i + 1, len(design))
    )
    if 0.0 < min_sep < _FIG_HP_SEPARATION:
        return _fig_imspe_hp(design)
    return build_matrices(fig_kernel(), design).imspe  # raises the pair error at 0


@dataclass(frozen=True)
class OptimumReport:
    """Outcome of a design search with the routine optimality diagnostics."""

    design: tuple[tuple[float, ...], ...]
    imspe_value: float
    converged: bool
    gradient_norm: float
    second_order_check: tuple[float, ...]
    boundary_distance: float


def _failed_report(n: int) -> OptimumReport:
    """All-NaN, non-converged report for an n-point search that found nothing."""
    return OptimumReport(
        design=((math.nan,),) * n,
        imspe_value=math.nan,
        converged=False,
        gradient_norm=math.nan,
        second_order_check=(math.nan,) * n,
        boundary_distance=math.nan,
    )


def _n1_derivative(kernel: Kernel, theta: float, x: float) -> float:
    """d/dx of the single-point criterion: rho(1-x) - rho(1+x)."""
    return corr1(kernel.family, theta, 1.0 - x) - corr1(kernel.family, theta, 1.0 + x)


def optimize_n1(kernel: Kernel, theta: float) -> OptimumReport:
    """Single-point optimal design on [-1, 1]: the centre, in closed form.

    The criterion is ``2 * (1 - border(x))``; its derivative
    rho(1-x) - rho(1+x) (rho the one-dimensional correlation) has the sign of
    x for every family, because each correlation strictly decreases with
    distance, so x = 0 is the exact optimum at every decay rate.  The gradient
    and curvature are central differences at 0; at large decay rates the
    curvature underflows to 0.0 while the design stays exact.  ``theta`` must
    equal ``kernel.theta[0]``.
    """
    theta = _kernel_theta(kernel, theta, "single-point optimum")
    h = 1e-6
    grad = (imspe_closed_n1(kernel, theta, h) - imspe_closed_n1(kernel, theta, -h)) / (2.0 * h)
    hc = 1e-2
    curvature = (
        _n1_derivative(kernel, theta, hc) - _n1_derivative(kernel, theta, -hc)
    ) / (2.0 * hc)
    return OptimumReport(
        design=((0.0,),),
        imspe_value=imspe_closed_n1(kernel, theta, 0.0),
        converged=True,
        gradient_norm=abs(grad),
        second_order_check=(curvature,),
        boundary_distance=1.0,
    )


def _pair_objective(family: Family, theta: float) -> Callable[[float, float], float]:
    """Two-point search objective of a pair (x1, x2): the criterion residual
    ``_n2_residual`` inside the box, ``math.inf`` outside it and where the
    residual refuses the pair (coincident or ill-conditioned)."""

    def objective(x1, x2):
        if abs(x1) > 1.0 or abs(x2) > 1.0:
            return math.inf
        try:
            return _n2_residual(family, theta, x1, x2)
        except (NearSingularError, SolveError):
            return math.inf

    return objective


class _BudgetSpent(Exception):
    """The Nelder-Mead evaluation budget ran out inside an iteration."""


def _nelder_mead(objective, x0, tol_x: float):
    """Two-dimensional Nelder-Mead on floats: (best vertex, its value, evaluations).

    Step for step scipy's ``minimize(method="Nelder-Mead")`` with ``xatol=tol_x``,
    ``fatol=1e-14`` and ``maxiter = maxfev = 4000``: the same coefficients (1, 2,
    1/2, 1/2), initial simplex, order of arithmetic, stable sort by value (NaN
    last) and stop test (a NaN difference fails it).  An iteration cut short by
    the evaluation budget is dropped; the iteration budget never binds first,
    because every iteration evaluates at least once.
    """
    nfev = 0

    def f(p):
        nonlocal nfev
        if nfev >= 4000:
            raise _BudgetSpent
        nfev += 1
        return objective(*p)

    a, b = x0
    sim = [(a, b), (1.05 * a if a else 0.00025, b), (a, 1.05 * b if b else 0.00025)]
    fs = [f(p) for p in sim]
    while True:
        order = sorted(range(3), key=lambda i: (fs[i] != fs[i], fs[i]))
        sim, fs = [sim[i] for i in order], [fs[i] for i in order]
        (p0, q0), (p1, q1), (p2, q2) = sim
        if nfev >= 4000:
            break
        dx = (p1 - p0, q1 - q0, p2 - p0, q2 - q0)
        if all(abs(d) <= tol_x for d in dx) and all(abs(fs[0] - v) <= 1e-14 for v in fs[1:]):
            break
        xb, yb = (p0 + p1) / 2, (q0 + q1) / 2
        try:
            fr = f(xr := (2 * xb - p2, 2 * yb - q2))
            if fr < fs[0]:
                fe = f(xe := (3 * xb - 2 * p2, 3 * yb - 2 * q2))
                sim[2], fs[2] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fs[1]:
                sim[2], fs[2] = xr, fr
            else:
                if fr < fs[2]:  # outside contraction
                    fc = f(xc := (1.5 * xb - 0.5 * p2, 1.5 * yb - 0.5 * q2))
                    accept = fc <= fr
                else:  # inside contraction
                    fc = f(xc := (0.5 * xb + 0.5 * p2, 0.5 * yb + 0.5 * q2))
                    accept = fc < fs[2]
                if accept:
                    sim[2], fs[2] = xc, fc
                else:  # shrink towards the best vertex
                    for j in (1, 2):
                        sim[j] = (p0 + 0.5 * (sim[j][0] - p0), q0 + 0.5 * (sim[j][1] - q0))
                        fs[j] = f(sim[j])
        except _BudgetSpent:
            pass
    return sim[0], fs[0] if fs[2] == fs[2] else math.nan, nfev  # numpy's min keeps a NaN


_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_brent(f, lo: float, hi: float, xatol: float) -> float:
    """Minimiser of ``f`` on [lo, hi] by Brent's bounded method, on floats.

    Step for step scipy's ``minimize_scalar(method="bounded")`` with ``xatol``:
    the same first point lo + golden_mean * (hi - lo), parabolic-fit test,
    boundary guard, smallest step ``tol1`` (the sign of 0 counted as +1),
    bracket and three-point updates in the same order of comparisons, and the
    500-evaluation cap.  A NaN or infinite value makes the parabola's p and q
    NaN, so every comparison on them fails, as in scipy.
    """
    a, b = lo, hi
    fulc = nfc = xf = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def _multistart(objective, starts, tol_x: float):
    """Best (x1, x2) of Nelder-Mead runs from each start, in order; None if no
    run returned a value below infinity."""
    best_pt, best_val = None, math.inf
    for start in starts:
        pt, val, _ = _nelder_mead(objective, start, tol_x)
        if val < best_val:
            best_pt, best_val = pt, val
    return best_pt


def _fd_diagnostics(
    f: Callable[[float, float], float], x1: float, x2: float
) -> tuple[float, tuple[float, float], float]:
    """Central-difference gradient norm and Hessian eigenvalues of a 2-d map,
    and the round-off level of those second differences: a curvature below it
    is noise."""
    h = 1e-6
    g1 = (f(x1 + h, x2) - f(x1 - h, x2)) / (2.0 * h)
    g2 = (f(x1, x2 + h) - f(x1, x2 - h)) / (2.0 * h)
    hh = 1e-4
    f00 = f(x1, x2)
    h11 = (f(x1 + hh, x2) - 2.0 * f00 + f(x1 - hh, x2)) / hh ** 2
    h22 = (f(x1, x2 + hh) - 2.0 * f00 + f(x1, x2 - hh)) / hh ** 2
    h12 = (
        f(x1 + hh, x2 + hh) - f(x1 + hh, x2 - hh) - f(x1 - hh, x2 + hh) + f(x1 - hh, x2 - hh)
    ) / (4.0 * hh ** 2)
    # scaling by a power of two is exact and keeps the squares below from
    # underflowing at the tiny curvatures of large decay rates
    k = math.frexp(max(abs(h11), abs(h22), abs(h12)))[1]
    h11, h22, h12 = (math.ldexp(v, -k) for v in (h11, h22, h12))
    tr = h11 + h22
    disc = math.sqrt(max(0.0, (h11 - h22) ** 2 + 4.0 * h12 ** 2))
    eigs = (math.ldexp((tr - disc) / 2.0, k), math.ldexp((tr + disc) / 2.0, k))
    return math.hypot(g1, g2), eigs, 4.0 * math.ulp(f00) / hh ** 2


def optimize_n2(
    kernel: Kernel,
    theta: float,
    *,
    constraint: str | None = None,
    tol_x: float = 1e-8,
) -> OptimumReport:
    """Two-point optimal design on [-1, 1], one dimension.

    ``constraint='symmetric_pair'`` restricts to x2 = -x1 and searches the
    scalar half-separation by Brent's bounded method on [1e-6, 1]; the default
    searches both coordinates by Nelder-Mead from the deterministic multistart
    lattice.  ``tol_x`` is the searches' absolute tolerance in x and must be
    positive and finite.  Both minimise
    ``_n2_residual``; the report carries ``imspe_n2`` at the optimum and the
    gradient and Hessian eigenvalues of the residual there, and is
    ``converged`` only if the gradient is small and both eigenvalues exceed
    the round-off level of their finite differences.  ``theta`` must equal
    ``kernel.theta[0]``.

    Converged reports were checked against a high-precision grid (value at
    or below every symmetric grid pair, x1 within 1e-4 of the true optimum)
    up to theta = 1100 for the exponential family, 2000 for the Gaussian,
    400 for Matern 3/2 and 350 for Matern 5/2.  Beyond those the residual has no
    curvature left in double precision, and on a scan of theta up to 1e4
    every report there said ``converged=False``.
    """
    theta = _kernel_theta(kernel, theta, "two-point search")
    if not 0.0 < tol_x < math.inf:
        raise ValidationError(f"tol_x = {tol_x} must be positive and finite")
    objective = _pair_objective(kernel.family, theta)
    if constraint == "symmetric_pair":
        a = _bounded_brent(lambda a: objective(a, -a), 1e-6, 1.0, tol_x)
        best_pt = (a, -a) if objective(a, -a) < math.inf else None
    elif constraint is None:
        best_pt = _multistart(objective, MULTISTART_PAIRS, tol_x)
    else:
        raise ValidationError(f"unknown constraint: {constraint!r}")
    if best_pt is None:
        return _failed_report(2)
    x1, x2 = best_pt
    value = imspe_n2(kernel, theta, x1, x2)
    grad_norm, eigs, noise = _fd_diagnostics(objective, x1, x2)
    return OptimumReport(
        design=((x1,), (x2,)),
        imspe_value=value,
        converged=bool(grad_norm <= 1e-5 and min(eigs) > noise),
        gradient_norm=grad_norm,
        second_order_check=eigs,
        boundary_distance=min(1.0 - abs(x1), 1.0 - abs(x2)),
    )


def log_grid(lo: float, hi: float, num: int) -> np.ndarray:
    """Inclusive log-uniform grid."""
    if not 0.0 < lo < hi < math.inf or num < 2:
        raise ValidationError("log grid needs 0 < lo < hi < inf and at least 2 points")
    return np.logspace(math.log10(lo), math.log10(hi), num)


def _sweep_point(args) -> OptimumReport:
    family, n, theta = args
    try:
        kernel = Kernel(family, (theta,))
        if n == 1:
            return optimize_n1(kernel, theta)
        return optimize_n2(kernel, theta)
    except ImspeKitError:
        return _failed_report(n)


def sweep_theta(
    kernel: Kernel,
    n: int,
    theta_grid: Sequence[float],
    *,
    parallel: int = 1,
) -> list[OptimumReport]:
    """Per-theta optimal designs over a hyperparameter grid.

    Each grid value is the decay rate of a kernel of ``kernel``'s family;
    ``kernel.theta`` itself is not used.  Failures at individual grid points
    yield non-converged NaN reports rather than aborting the sweep.  Results
    are in grid order regardless of ``parallel``.
    """
    if n not in (1, 2):
        raise ValidationError("sweeps support n in {1, 2}")
    if kernel.d != 1:
        raise ValidationError("sweeps support d = 1")
    tasks = [(kernel.family, n, float(t)) for t in theta_grid]
    if parallel <= 1:
        return [_sweep_point(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(_sweep_point, tasks))


def envelope_x1(reports: Sequence[OptimumReport]) -> tuple[float, float]:
    """(min, max) of the larger coordinate of two-point optima over a sweep."""
    values = [
        max(r.design[0][0], r.design[1][0])
        for r in reports
        if r.converged and not math.isnan(r.imspe_value)
    ]
    if not values:
        raise ValidationError("no converged optima in sweep")
    return min(values), max(values)


def _scan_eval(args):
    kernel, design = args
    try:
        return build_matrices(kernel, design).imspe
    except (NearSingularError, SolveError):
        return None


def scan_surface(
    kernel: Kernel,
    axes: Sequence[np.ndarray],
    builder: Callable[[tuple[float, ...]], np.ndarray],
    *,
    parallel: int = 1,
) -> list[tuple]:
    """Row-major raster of the criterion over a tensor grid.

    ``builder`` maps grid coordinates to a full design.  Degenerate nodes
    (coincident points, singular solves) carry ``None`` in the value slot
    instead of a fabricated number.
    """
    for ax in axes:
        if len(ax) < 2:
            raise ValidationError("each scan axis needs at least 2 points")
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    tasks = [(kernel, builder(tuple(c))) for c in coords]
    if parallel <= 1:
        values = [_scan_eval(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = math.ceil(len(tasks) / (4 * parallel))
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            values = list(pool.map(_scan_eval, tasks, chunksize=chunk))
    return [tuple(c) + (v,) for c, v in zip(coords, values)]


@dataclass(frozen=True)
class ProbeReport:
    """Directional-limit probe of the criterion at a candidate discontinuity."""

    center: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]
    values: tuple[tuple, ...]  # per direction, per step; None where singular
    limits: tuple[float, ...]  # last finite value along each direction
    residuals: tuple[float, ...]  # per-direction Cauchy residual (last gap)
    max_gap: float  # max pairwise difference between directional limits


def discontinuity_probe(
    f: Callable[..., float],
    center: Sequence[float],
    directions: Sequence[Sequence[float]],
    h_sequence: Sequence[float],
) -> ProbeReport:
    """Approach ``center`` along each direction with shrinking steps.

    Direction-dependent limits (a large ``max_gap`` relative to the
    per-direction residuals) certify an essential discontinuity; a smooth
    point shows a gap of the same order as the residuals.
    """
    center = tuple(float(c) for c in center)
    dirs = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise ValidationError("probe directions must be nonzero")
        dirs.append(tuple(d / norm))
    steps = [float(h) for h in h_sequence]
    if not steps or any(h <= 0 for h in steps):
        raise ValidationError("h_sequence must be positive")
    all_values, limits, residuals = [], [], []
    for d in dirs:
        vals = []
        for h in steps:
            pt = tuple(c + h * dc for c, dc in zip(center, d))
            try:
                vals.append(f(*pt))
            except (NearSingularError, SolveError):
                vals.append(None)
        finite = [v for v in vals if v is not None]
        if len(finite) < 2:
            raise ValidationError("probe needs at least two finite evaluations per direction")
        all_values.append(tuple(vals))
        limits.append(finite[-1])
        residuals.append(abs(finite[-1] - finite[-2]))
    max_gap = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            max_gap = max(max_gap, abs(limits[i] - limits[j]))
    return ProbeReport(
        center=center,
        directions=tuple(dirs),
        values=tuple(all_values),
        limits=tuple(limits),
        residuals=tuple(residuals),
        max_gap=max_gap,
    )

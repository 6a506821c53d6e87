"""Criterion-optimal design search and grid scanning.

Single-point optima use a bounded scalar search polished by bisection on the
analytic derivative of the criterion: at large decay rates the criterion is
flat near the center to machine precision, but the derivative
rho(1-x) - rho(1+x) (rho the one-dimensional correlation) keeps a correct
sign arbitrarily close to the root, so the polished optimum is centered to
far better than the flat-region width.

Two-point optima use deterministic-multistart Nelder-Mead (no randomness
anywhere, so repeated runs and parallel runs are bit-identical).  For the
exponential and Gaussian families at decay rates of at least
``HP_THRESHOLD`` the criterion is flat to double precision near the optimum,
so the same multistart and penalised objective are run again on the 40-digit
criterion, whose Gaussian averages are the float formulas of ``integrals``
evaluated in mpmath arithmetic.  Scans and
theta-sweeps are embarrassingly parallel; results are assembled in index
order so output is independent of the worker count.

``scipy.optimize`` is imported by the search functions themselves, so code
that only evaluates or scans designs never loads it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from . import integrals
from .errors import ImspeKitError, NearSingularError, SolveError, ValidationError
from .imspe import _fill_bordered, _kernel_theta, _n2_bordered_form, _n2_exp_form
from .imspe import build_matrices, imspe_closed_n1, imspe_n2
from .kernels import Family, Kernel, corr1

#: objective value assigned to out-of-domain or degenerate trial points
_PENALTY_BASE = 10.0

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


#: the Gaussian design averages of ``integrals`` in mpmath arithmetic
_hp_gauss_border, _hp_gauss_pair = integrals._gauss_averages(mp.sqrt, mp.exp, mp.erf, mp.pi)


def _fig_imspe_hp(design: np.ndarray) -> float:
    """Extended-precision criterion for the constrained scenario.

    Near a pair coincidence the bordered matrix condition number grows like
    1/separation^2 and the 64-bit solve loses the directional-limit signal;
    a 40-digit solve keeps it.
    """
    theta = [mp.mpf(t) for t in FIG_THETA]
    pts = [[mp.mpf(float(c)) for c in p] for p in design]
    n = len(pts)
    one = mp.mpf(1)

    def corr(i, j):
        if i == j:
            return one
        return mp.exp(-sum(t * (a - b) ** 2 for t, a, b in zip(theta, pts[i], pts[j])))

    def border(i):
        return math.prod((_hp_gauss_border(a, t) for t, a in zip(theta, pts[i])), start=one)

    def inner(i, j):
        terms = (_hp_gauss_pair(a, b, t) for t, a, b in zip(theta, pts[i], pts[j]))
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


def _n1_objective(kernel: Kernel, theta: float, x: float) -> float:
    if abs(x) > 1.0:
        return _PENALTY_BASE + (abs(x) - 1.0)
    return imspe_closed_n1(kernel, theta, x)


def _n1_derivative(kernel: Kernel, theta: float, x: float) -> float:
    """d/dx of the single-point criterion: rho(1-x) - rho(1+x)."""
    return corr1(kernel.family, theta, 1.0 - x) - corr1(kernel.family, theta, 1.0 + x)


def optimize_n1(kernel: Kernel, theta: float, *, tol_x: float = 1e-8) -> OptimumReport:
    """Single-point optimal design on [-1, 1]; ``theta`` must equal ``kernel.theta[0]``."""
    from scipy.optimize import minimize_scalar

    theta = _kernel_theta(kernel, theta, "single-point search")
    res = minimize_scalar(
        lambda x: _n1_objective(kernel, theta, x),
        bounds=(-1.0, 1.0),
        method="bounded",
        options={"xatol": tol_x},
    )
    x_star = float(res.x)
    # polish on the analytic derivative; the criterion itself can be flat to
    # machine precision near the center while the derivative keeps its sign
    lo, hi = max(-0.999, x_star - 0.5), min(0.999, x_star + 0.5)
    f_lo, f_hi = _n1_derivative(kernel, theta, lo), _n1_derivative(kernel, theta, hi)
    if f_lo == 0.0 and f_hi == 0.0:
        lo, hi = -0.999, 0.999
        f_lo, f_hi = _n1_derivative(kernel, theta, lo), _n1_derivative(kernel, theta, hi)
    converged = res.success
    if f_lo < 0.0 < f_hi:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = _n1_derivative(kernel, theta, mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if f_mid < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        x_star = 0.5 * (lo + hi)
        converged = True
    value = imspe_closed_n1(kernel, theta, x_star)
    h = 1e-6
    grad = (
        imspe_closed_n1(kernel, theta, x_star + h)
        - imspe_closed_n1(kernel, theta, x_star - h)
    ) / (2.0 * h)
    hc = 1e-2
    curvature = (
        _n1_derivative(kernel, theta, x_star + hc)
        - _n1_derivative(kernel, theta, x_star - hc)
    ) / (2.0 * hc)
    return OptimumReport(
        design=((x_star,),),
        imspe_value=value,
        converged=bool(converged and abs(grad) <= 1e-5),
        gradient_norm=abs(grad),
        second_order_check=(curvature,),
        boundary_distance=1.0 - abs(x_star),
    )


# -- high-precision two-point objectives ------------------------------------
#
# At large decay rates the two-point criterion is flat across a wide basin at
# double precision (the coordinate-dependent terms underflow relative to the
# O(1) constant part), so the minimizer is not recoverable from the 64-bit
# objective.  For the two families whose closed forms are cheap to evaluate
# at extended precision, the search is refined on a rescaled 40-digit
# residual, which restores the lost structure.

#: above this decay rate, exponential/Gaussian two-point searches are refined
#: at extended precision
HP_THRESHOLD = 15.0
_HP_DPS = 40


def _hp_imspe_exp(theta, x1, x2):
    """Two-point exponential-family criterion in mpmath arithmetic."""
    return _n2_exp_form(theta, x1, x2, mp.exp, mp.mpf(1))


def _hp_imspe_gauss(theta, x1, x2):
    """Two-point Gaussian-family criterion in mpmath arithmetic: the explicit
    bordered inverse of the float path, fed with the 40-digit averages (the
    same-anchor pair average taken as the single-anchor one at 2*theta)."""
    r01, r02 = _hp_gauss_border(x1, theta), _hp_gauss_border(x2, theta)
    r11, r22 = _hp_gauss_border(x1, 2 * theta), _hp_gauss_border(x2, 2 * theta)
    rho, r12 = mp.exp(-theta * (x1 - x2) ** 2), _hp_gauss_pair(x1, x2, theta)
    return _n2_bordered_form(rho, r01, r02, r11, r22, r12, mp.mpf(1))


def _penalised(f: Callable[[float, float], float]) -> Callable[[Sequence[float]], float]:
    """Two-point search objective of a pair (x1, x2): ``f(x1, x2)`` inside the
    box, else ``_PENALTY_BASE`` plus the box overshoot; ``_PENALTY_BASE`` at
    x1 == x2 and where ``f`` refuses the pair."""

    def objective(pt):
        x1, x2 = float(pt[0]), float(pt[1])
        overshoot = max(0.0, abs(x1) - 1.0) + max(0.0, abs(x2) - 1.0)
        if overshoot > 0.0:
            return _PENALTY_BASE + overshoot
        if x1 == x2:
            return _PENALTY_BASE
        try:
            return f(x1, x2)
        except (NearSingularError, SolveError):
            return _PENALTY_BASE

    return objective


def _multistart(objective, starts, tol_x: float, fatol: float, maxfev: int):
    """Best (x1, x2) and value of Nelder-Mead runs from each start, in order;
    (None, inf) if no run returned a value below infinity."""
    from scipy.optimize import minimize

    best_pt, best_val = None, math.inf
    for start in starts:
        res = minimize(
            objective,
            np.asarray(start, dtype=float),
            method="Nelder-Mead",
            options={"xatol": tol_x, "fatol": fatol, "maxiter": maxfev, "maxfev": maxfev},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_pt = (float(res.x[0]), float(res.x[1]))
    return best_pt, best_val


def _hp_refine_n2(family: Family, theta: float, seeds, tol_x: float):
    """Multistart on the extended-precision criterion, rescaled so that the
    ``seeds`` (double-precision starting pairs) span [0, 1].

    Returns the best (x1, x2) with the gradient norm and Hessian eigenvalues
    of the rescaled objective there.
    """
    hp_f = _hp_imspe_exp if family is Family.EXP_P1 else _hp_imspe_gauss
    with mp.workdps(_HP_DPS):
        t = mp.mpf(theta)
        value = lambda a, b: hp_f(t, mp.mpf(a), mp.mpf(b))
        base_vals = [value(a, b) for a, b in seeds]
        low = min(base_vals)
        spread = max(base_vals) - low
        if spread <= 0:
            spread = mp.mpf("1e-30")
        objective = _penalised(lambda a, b: float((value(a, b) - low) / spread))
        best_pt, _ = _multistart(objective, seeds, tol_x, 1e-24, 2000)
        g, eigs = _fd_diagnostics(lambda a, b: objective((a, b)), *best_pt)
    return best_pt, g, eigs


def _fd_diagnostics(
    f: Callable[[float, float], float], x1: float, x2: float
) -> tuple[float, tuple[float, float]]:
    """Central-difference gradient norm and Hessian eigenvalues of a 2-d map."""
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
    tr = h11 + h22
    disc = math.sqrt(max(0.0, (h11 - h22) ** 2 + 4.0 * h12 ** 2))
    eigs = ((tr - disc) / 2.0, (tr + disc) / 2.0)
    return math.hypot(g1, g2), eigs


def optimize_n2(
    kernel: Kernel,
    theta: float,
    *,
    constraint: str | None = None,
    tol_x: float = 1e-8,
) -> OptimumReport:
    """Two-point optimal design on [-1, 1], one dimension.

    ``constraint='symmetric_pair'`` restricts to x2 = -x1 and searches the
    scalar half-separation; the default searches both coordinates by
    Nelder-Mead from the deterministic multistart lattice.  ``theta`` must
    equal ``kernel.theta[0]``.
    """
    from scipy.optimize import minimize_scalar

    theta = _kernel_theta(kernel, theta, "two-point search")
    # imspe_n2 is looked up when called, so a wrapper around this module's
    # name sees every evaluation
    objective = _penalised(lambda x1, x2: imspe_n2(kernel, theta, x1, x2))
    if constraint == "symmetric_pair":
        res = minimize_scalar(
            lambda a: objective((a, -a)),
            bounds=(1e-6, 1.0),
            method="bounded",
            options={"xatol": tol_x},
        )
        a = float(res.x)
        best_pt, best_val = (a, -a), objective((a, -a))
    elif constraint is None:
        best_pt, best_val = _multistart(objective, MULTISTART_PAIRS, tol_x, 1e-14, 4000)
    else:
        raise ValidationError(f"unknown constraint: {constraint!r}")
    if best_pt is None or best_val >= _PENALTY_BASE:
        return _failed_report(2)
    x1, x2 = best_pt
    if (
        kernel.family in (Family.EXP_P1, Family.GAUSS_P2)
        and theta >= HP_THRESHOLD
    ):
        # refine on the extended-precision residual; the double-precision
        # objective is flat across the basin at these decay rates
        half = 0.5 * abs(x1 - x2)
        seeds = [
            (x1, x2),
            (half, -half),
            (0.3, -0.3),
            (0.4, -0.4),
            (0.5, -0.5),
        ]
        (x1, x2), grad_norm, eigs = _hp_refine_n2(kernel.family, theta, seeds, tol_x)
        if constraint == "symmetric_pair":
            half = 0.5 * (x1 - x2)
            x1, x2 = half, -half
        best_val = objective((x1, x2))
    else:
        grad_norm, eigs = _fd_diagnostics(lambda a, b: objective((a, b)), x1, x2)
    return OptimumReport(
        design=((x1,), (x2,)),
        imspe_value=best_val,
        converged=bool(math.isfinite(best_val) and grad_norm <= 1e-5),
        gradient_norm=grad_norm,
        second_order_check=eigs,
        boundary_distance=min(1.0 - abs(x1), 1.0 - abs(x2)),
    )


def log_grid(lo: float, hi: float, num: int) -> np.ndarray:
    """Inclusive log-uniform grid."""
    if lo <= 0.0 or hi <= lo or num < 2:
        raise ValidationError("log grid needs 0 < lo < hi and at least 2 points")
    return np.logspace(math.log10(lo), math.log10(hi), num)


def _sweep_point(args) -> OptimumReport:
    family, n, theta, constraint = args
    try:
        kernel = Kernel(family, (theta,))
        if n == 1:
            return optimize_n1(kernel, theta)
        return optimize_n2(kernel, theta, constraint=constraint)
    except ImspeKitError:
        return _failed_report(n)


def sweep_theta(
    kernel: Kernel,
    n: int,
    theta_grid: Sequence[float],
    *,
    constraint: str | None = None,
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
    tasks = [(kernel.family, n, float(t), constraint) for t in theta_grid]
    if parallel <= 1:
        return [_sweep_point(t) for t in tasks]
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

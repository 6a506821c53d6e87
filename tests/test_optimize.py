"""Design search, sweeps, rasters, and the directional-limit probe."""

import math

import mpmath as mp
import numpy as np
import pytest

import imspe_kit.optimize as search_module
from imspe_kit import (
    Family,
    ImspeKitError,
    Kernel,
    ValidationError,
    build_matrices,
    discontinuity_probe,
    envelope_x1,
    fig_design,
    fig_imspe,
    fig_kernel,
    imspe_closed_n1,
    imspe_n2,
    log_grid,
    optimize_n1,
    optimize_n2,
    scan_surface,
    sweep_theta,
)
from imspe_kit.imspe import _n2_closed, _n2_residual
from imspe_kit.integrals import _gauss_averages
from imspe_kit.optimize import (
    FIG_FIXED,
    FIG_THETA,
    MULTISTART_PAIRS,
    OptimumReport,
    _bounded_brent,
    _fd_diagnostics,
    _mirror_diagnostics,
    _nelder_mead,
    _pair_objective,
)

#: the Gaussian design averages of ``integrals`` in mpmath arithmetic
_hp_gauss_border, _hp_gauss_pair = _gauss_averages(mp.sqrt, mp.exp, mp.erf, mp.pi)

ALL_FAMILIES = list(Family)


# ---------------------------------------------------------------------------
# single point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
def test_n1_optimum_is_centered(family, theta):
    rep = optimize_n1(Kernel(family, (theta,)), theta)
    assert abs(rep.design[0][0]) <= 1e-6
    assert rep.converged
    assert all(v > 0 for v in rep.second_order_check)


def test_n1_report_fields():
    rep = optimize_n1(Kernel(Family.EXP_P1, (1.0,)), 1.0)
    assert 0.0 < rep.imspe_value < 2.0
    assert rep.boundary_distance == pytest.approx(1.0, abs=1e-5)
    assert rep.gradient_norm <= 1e-6


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_n1_report_fields_every_family(family):
    rep = optimize_n1(Kernel(family, (1.0,)), 1.0)
    assert type(rep.imspe_value) is float
    assert 0.0 < rep.imspe_value < 2.0
    assert rep.boundary_distance == pytest.approx(1.0, abs=1e-5)
    assert rep.gradient_norm <= 1e-6


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("theta", [700.0, 1e4, 1e6])
def test_n1_optimum_is_centre_at_large_theta(family, theta):
    # the criterion is flat to double precision over most of [-1, 1] here
    rep = optimize_n1(Kernel(family, (theta,)), theta)
    assert rep.design == ((0.0,),)
    assert rep.converged
    assert rep.boundary_distance == 1.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("theta", [0.01, 1.0, 100.0])
def test_n1_closed_form_is_lowest_at_centre(family, theta):
    kernel = Kernel(family, (theta,))
    centre = imspe_closed_n1(kernel, theta, 0.0)
    for x in np.linspace(-1.0, 1.0, 201):
        assert imspe_closed_n1(kernel, theta, float(x)) >= centre, x


# ---------------------------------------------------------------------------
# two points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_n2_optimum_symmetric_and_interior(family):
    rep = optimize_n2(Kernel(family, (1.0,)), 1.0)
    x1, x2 = rep.design[0][0], rep.design[1][0]
    assert rep.converged
    assert abs(x1 + x2) <= 1e-5
    assert rep.boundary_distance >= 0.05
    assert all(v > 0 for v in rep.second_order_check)


def test_n2_symmetric_constraint_matches_free_search():
    kernel = Kernel(Family.MATERN52, (2.0,))
    free = optimize_n2(kernel, 2.0)
    tied = optimize_n2(kernel, 2.0, constraint="symmetric_pair")
    assert tied.imspe_value == pytest.approx(free.imspe_value, abs=1e-9)
    assert max(p[0] for p in tied.design) == pytest.approx(
        max(p[0] for p in free.design), abs=1e-4
    )


@pytest.mark.parametrize("family", [Family.EXP_P1, Family.GAUSS_P2])
def test_n2_flat_basin_large_theta(family):
    # at very large decay rates the criterion is flat to 64-bit precision
    # around the optimum; the search on the residual must still land near
    # the quarter-point design
    rep = optimize_n2(Kernel(family, (100.0,)), 100.0)
    x1 = max(p[0] for p in rep.design)
    assert rep.converged
    assert 0.3 < x1 < 0.7
    assert abs(rep.design[0][0] + rep.design[1][0]) <= 1e-5


def test_n2_beats_coincident_pair():
    # the optimal spread pair must beat the near-coincident configuration
    kernel = Kernel(Family.GAUSS_P2, (1.0,))
    rep = optimize_n2(kernel, 1.0)
    assert rep.imspe_value < _n2_closed(Family.GAUSS_P2, 1.0, 0.0, 0.0)


def _theta_constant(family, t):
    """The theta-only part C(theta) of the two-point criterion, in mpmath (0 for
    the Matern families)."""
    if family is Family.EXP_P1:
        return mp.mpf(3) / 2 - 5 / (2 * t)
    if family is Family.GAUSS_P2:
        return mp.mpf(3) / 2 - 4 * mp.sqrt(mp.pi / (16 * t)) - 2 * mp.sqrt(mp.pi / (32 * t))
    return mp.mpf(0)


_DECAY = {Family.EXP_P1: 0.28, Family.GAUSS_P2: 0.15}


def _digits(family, theta, gap=1.0):
    """Working digits for a reference residual: C(theta) plus about 16 digits
    of a residual that decays like e^(-0.65 theta) (exp) or e^(-0.35 theta)
    (Gaussian) at the optimum, plus two per decade of min(theta, 1) times a pair
    gap below 1, which the bordered solve loses to 1 - rho and to the second
    differences of R (1 - rho shrinks with theta as well as with the gap)."""
    close = max(0, -2 * math.floor(math.log10(min(theta, 1.0)) + math.log10(gap)))
    return 50 + int(_DECAY.get(family, 0.0) * theta) + close


def _bordered_residual(family, t, rho, r01, r02, r11, r22, r12):
    """1 - tr(L^-1 R) - C(theta) at the working precision."""
    big_l = mp.matrix([[0, 1, 1], [1, 1, rho], [1, rho, 1]])
    big_r = mp.matrix([[1, r01, r02], [r01, r11, r12], [r02, r12, r22]])
    s = mp.inverse(big_l) * big_r
    return 1 - (s[0, 0] + s[1, 1] + s[2, 2]) - _theta_constant(family, t)


def _mp_corr(family, t):
    """The correlation of two points in mpmath at decay rate ``t``."""
    if family is Family.EXP_P1:
        return lambda u, v: mp.exp(-t * abs(u - v))
    if family is Family.GAUSS_P2:
        return lambda u, v: mp.exp(-t * (u - v) ** 2)
    g = mp.sqrt((3 if family is Family.MATERN32 else 5) * t)
    poly = (lambda w: 1 + w) if family is Family.MATERN32 else (lambda w: 1 + w + w * w / 3)
    return lambda u, v: poly(g * abs(u - v)) * mp.exp(-g * abs(u - v))


def _residual_quad(family, theta, x1, x2):
    """Reference residual with R entries by mpmath.quad split at the anchors."""
    with mp.workdps(_digits(family, theta, abs(x1 - x2))):
        t, a, b = mp.mpf(theta), mp.mpf(x1), mp.mpf(x2)
        corr = _mp_corr(family, t)
        nodes = [-1, min(a, b), max(a, b), 1]
        avg = lambda f: mp.quad(f, nodes) / 2
        return _bordered_residual(
            family,
            t,
            corr(a, b),
            avg(lambda x: corr(a, x)),
            avg(lambda x: corr(b, x)),
            avg(lambda x: corr(a, x) ** 2),
            avg(lambda x: corr(b, x) ** 2),
            avg(lambda x: corr(a, x) * corr(b, x)),
        )


def _residual_mp(family, theta, x1, x2):
    """Reference residual with R entries from the closed-form averages in
    mpmath (cheap enough for a grid)."""
    with mp.workdps(_digits(family, theta, abs(x1 - x2))):
        t = mp.mpf(theta)
        if family is Family.EXP_P1:
            border = lambda a: (2 - mp.exp(-t * (1 - a)) - mp.exp(-t * (1 + a))) / (2 * t)

            def pair(a, b):
                gap, e = abs(a - b), mp.exp(-t * abs(a - b))
                fold = (mp.exp(-t * (2 + a + b)) + mp.exp(-t * (2 - a - b))) / 2
                return (e - fold) / (2 * t) + gap * e / 2

            rho = lambda a, b: mp.exp(-t * abs(a - b))
        else:
            border = lambda a: _hp_gauss_border(a, t)
            pair = lambda a, b: _hp_gauss_pair(a, b, t)
            rho = lambda a, b: mp.exp(-t * (a - b) ** 2)
        a, b = mp.mpf(x1), mp.mpf(x2)
        return _bordered_residual(
            family, t, rho(a, b), border(a), border(b), pair(a, a), pair(b, b), pair(a, b)
        )


#: two-point optima at theta = 15, 30, 100 (from the former 40-digit
#: refinement), 300 and 1000
_LARGE_THETA_OPTIMA = {
    Family.EXP_P1: (
        (15.0, (0.40588457401609673, -0.40588457401635636)),
        (30.0, (0.37715656844395273, -0.37715656844407075)),
        (100.0, (0.3504347388029875, -0.3504346532806637)),
        (300.0, (0.34024542326785023, -0.34024542672898767)),
        (1000.0, (0.3358069834893329, -0.3358069804038938)),
    ),
    Family.GAUSS_P2: (
        (15.0, (0.4485867013974073, -0.44858670139725826)),
        (30.0, (0.43512435633840085, -0.43512435633857505)),
        (100.0, (0.42253307893602865, -0.4225330790479809)),
        (300.0, (0.4176243710098915, -0.41762437277862974)),
        (1000.0, (0.41544848911026777, -0.4154484878114124)),
    ),
}


@pytest.mark.parametrize("family", [Family.EXP_P1, Family.GAUSS_P2])
def test_two_point_residual_matches_high_precision_quadrature(family):
    for theta, (x1, x2) in _LARGE_THETA_OPTIMA[family]:
        ref = _residual_quad(family, theta, x1, x2)
        value = _n2_residual(family, theta, x1, x2)
        assert abs(value - ref) <= 1e-13 * ref, (family, theta)
    # a near-coincident pair is refused exactly where imspe_n2 refuses it;
    # neither family's residual refuses it, and both stay accurate
    for theta, _ in _LARGE_THETA_OPTIMA[family][:3]:
        x1, x2 = 0.3, 0.3 + 1e-9
        try:
            imspe_n2(Kernel(family, (theta,)), theta, x1, x2)
        except ImspeKitError as exc:
            with pytest.raises(type(exc)):
                _n2_residual(family, theta, x1, x2)
            continue
        ref = _residual_quad(family, theta, x1, x2)
        assert abs(_n2_residual(family, theta, x1, x2) - ref) <= 1e-13 * ref


#: symmetric optima at theta = 300 and 1000, by golden-section search on
#: ``_residual_mp``
_TRUE_X1 = {
    (Family.EXP_P1, 300.0): 0.3402454,
    (Family.EXP_P1, 1000.0): 0.3358070,
    (Family.GAUSS_P2, 300.0): 0.4176244,
    (Family.GAUSS_P2, 1000.0): 0.4154485,
}


@pytest.mark.parametrize(("family", "theta"), list(_TRUE_X1))
def test_n2_search_finds_large_theta_optima(family, theta):
    grid = min(_residual_mp(family, theta, a, -a) for a in np.linspace(0.005, 1.0, 200))
    for constraint in (None, "symmetric_pair"):
        rep = optimize_n2(Kernel(family, (theta,)), theta, constraint=constraint)
        (x1,), (x2,) = rep.design
        assert rep.converged, constraint
        assert abs(max(x1, x2) - _TRUE_X1[family, theta]) <= 1e-4, constraint
        assert _residual_mp(family, theta, x1, x2) <= grid, constraint


@pytest.mark.parametrize(
    ("family", "theta", "constraint"),
    [
        (Family.MATERN32, 1e4, "symmetric_pair"),
        (Family.MATERN52, 1e4, "symmetric_pair"),
        (Family.EXP_P1, 2000.0, None),
        (Family.EXP_P1, 2000.0, "symmetric_pair"),
        (Family.MATERN32, 900.0, None),
    ],
)
def test_n2_search_without_curvature_is_not_converged(family, theta, constraint):
    # the residual is flat in double precision here: at exp theta = 2000 it
    # underflows to 0, and the Matern theta = 900 curvature is positive but
    # below the round-off of its finite differences
    rep = optimize_n2(Kernel(family, (theta,)), theta, constraint=constraint)
    assert not rep.converged


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_mirror_certificate_matches_the_full_hessian(family):
    # at a symmetric optimum the five-evaluation certificate reports the
    # gradient norm and Hessian eigenvalues of the 2-d central differences,
    # with the same noise level.  The two stencils differ by their O(hh^2)
    # truncation (2.5e-5 relative for exp at theta = 100) and by round-off
    # (up to 9e-4 relative for Gaussian at theta = 0.01, where the noise
    # level is 1e-3 of the eigenvalue)
    for theta in (0.01, 1.0, 100.0):
        objective = _pair_objective(family, theta)
        a, f00 = _bounded_brent(lambda a: objective(a, -a), 1e-6, 1.0, 1e-8)
        grad, eigs, noise = _mirror_diagnostics(objective, a, f00)
        grad_2d, eigs_2d, noise_2d = _fd_diagnostics(objective, a, -a, f00)
        assert noise == noise_2d and grad <= 1e-5 and grad_2d <= 1e-5, theta
        for got, want in zip(eigs, eigs_2d):
            assert noise < got and abs(got - want) <= 2e-3 * want + 100.0 * noise, (theta, eigs, eigs_2d)


#: objective calls of one symmetric search at theta = 0.01, 1 and 100: the
#: bounded search's, and 5 for the mirror certificate, which takes the value
#: at the optimum from the search
_SYMMETRIC_CALLS = {
    Family.EXP_P1: (24, 14, 20),
    Family.MATERN32: (18, 14, 24),
    Family.MATERN52: (21, 15, 24),
    Family.GAUSS_P2: (29, 16, 20),
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_symmetric_search_evaluates_each_design_once(family, monkeypatch):
    calls, real = [], search_module._n2_residual
    monkeypatch.setattr(
        search_module, "_n2_residual", lambda *args: calls.append(args[2:]) or real(*args)
    )
    for theta, pinned in zip((0.01, 1.0, 100.0), _SYMMETRIC_CALLS[family]):
        calls.clear()
        rep = optimize_n2(Kernel(family, (theta,)), theta, constraint="symmetric_pair")
        (a,), _ = rep.design
        brent = _traced_brent(lambda a: real(family, theta, a, -a), 1e-6, 1.0, 1e-8)[2]
        assert len(calls) == pinned == brent + 5, theta
        assert len(set(calls)) == len(calls) and (a, -a) in calls, theta


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_matern_search_reports_its_own_value(family, monkeypatch):
    # C(theta) = 0 for the Matern families, so the residual the search found at
    # its optimum is the criterion; the other families evaluate it once more
    calls, real = [], search_module.imspe_n2
    monkeypatch.setattr(search_module, "imspe_n2", lambda *args: calls.append(args) or real(*args))
    searches = [(theta, "symmetric_pair") for theta in (0.01, 1.0, 100.0)] + [(1.0, None)]
    for theta, constraint in searches:
        calls.clear()
        kernel = Kernel(family, (theta,))
        rep = optimize_n2(kernel, theta, constraint=constraint)
        (x1,), (x2,) = rep.design
        assert len(calls) == (0 if "matern" in family.value else 1), (theta, constraint)
        assert rep.imspe_value == real(kernel, theta, x1, x2), (theta, constraint)


def _scipy_nelder_mead(objective, start):
    """(x, fun, nfev) of scipy's Nelder-Mead with the search's options."""
    from scipy.optimize import minimize

    res = minimize(
        lambda p: objective(float(p[0]), float(p[1])),
        np.asarray(start, dtype=float),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-14, "maxiter": 4000, "maxfev": 4000},
    )
    return (float(res.x[0]), float(res.x[1])), float(res.fun), res.nfev


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_nelder_mead_takes_scipys_steps(family):
    for theta in (0.01, 1.0, 100.0, 1000.0):
        objective = _pair_objective(family, theta)
        for start in MULTISTART_PAIRS:
            expected = _scipy_nelder_mead(objective, start)
            assert _nelder_mead(objective, start) == expected, (theta, start)


def _nan_ring(x1, x2):
    r2 = (x1 - 0.3) ** 2 + (x2 - 0.1) ** 2
    return math.nan if 0.04 < r2 < 0.09 else r2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nelder_mead_stop_paths_match_scipy():
    # math.inf everywhere: every value difference is NaN, so only the
    # evaluation budget stops the search; the unbounded slope runs the
    # simplex out to overflow, where the values become -inf and NaN; the
    # NaN ring puts NaN vertices in the sort and the stop test
    objectives = (lambda x1, x2: math.inf, lambda x1, x2: -x1 - 2.0 * x2, _nan_ring)
    for k, objective in enumerate(objectives):
        for start in MULTISTART_PAIRS + ((0.0, 0.0), (0.0, 0.3)):
            x, fun, nfev = _nelder_mead(objective, start)
            expected = _scipy_nelder_mead(objective, start)
            assert x == expected[0] and nfev == expected[2], (k, start)
            assert fun == expected[1] or (math.isnan(fun) and math.isnan(expected[1])), (k, start)
            assert k == 2 or nfev == 4000


def _scipy_bounded(f, lo, hi, xatol):
    """(x, points evaluated, nfev) of scipy's bounded scalar search."""
    from scipy.optimize import minimize_scalar

    points = []
    res = minimize_scalar(
        lambda a: points.append(float(a)) or f(float(a)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": xatol},
    )
    return float(res.x), points, res.nfev


def _traced_brent(f, lo, hi, xatol):
    """(x, points evaluated, their count) of ``_bounded_brent``, which also
    returns the value it took at x, bit for bit."""
    points = []
    x, fx = _bounded_brent(lambda a: points.append(a) or f(a), lo, hi, xatol)
    assert fx == f(x) or (math.isnan(fx) and math.isnan(f(x)))
    return x, points, len(points)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_bounded_brent_takes_scipys_steps(family):
    for theta in (0.01, 1.0, 100.0, 1000.0, 1e4):
        objective = _pair_objective(family, theta)
        for xatol in (1e-5, 1e-8):
            args = (lambda a: objective(a, -a), 1e-6, 1.0, xatol)
            assert _traced_brent(*args) == _scipy_bounded(*args), (theta, xatol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bounded_brent_stop_paths_match_scipy():
    # NaN and math.inf everywhere make every parabola fail, so the search
    # runs on golden sections alone; |x - 0.3| over (-1e300, 1e300) needs
    # more steps than the 500-evaluation cap allows
    for objective, lo, hi in (
        (lambda a: math.nan, 1e-6, 1.0),
        (lambda a: math.inf, 1e-6, 1.0),
        (lambda a: abs(a - 0.3), -1e300, 1e300),
    ):
        for xatol in (1e-5, 1e-8):
            got = _traced_brent(objective, lo, hi, xatol)
            assert got == _scipy_bounded(objective, lo, hi, xatol), (lo, xatol)
            assert hi < 1e300 or got[2] == 500


def test_theta_must_match_kernel():
    for family in (Family.EXP_P1, Family.GAUSS_P2):
        kernel = Kernel(family, (2.0,))
        for call in (
            lambda: imspe_closed_n1(kernel, 3.0, 0.1),
            lambda: imspe_n2(kernel, 3.0, 0.1, -0.2),
            lambda: optimize_n1(kernel, 3.0),
            lambda: optimize_n2(kernel, 3.0),
        ):
            with pytest.raises(ValidationError, match="kernel.theta"):
                call()
    # a sweep takes each decay rate from its grid, whatever the kernel's own
    grid = [0.5, 4.0]
    for n, search in ((1, optimize_n1), (2, optimize_n2)):
        reports = sweep_theta(Kernel(Family.MATERN32, (7.0,)), n, grid)
        assert reports == [search(Kernel(Family.MATERN32, (t,)), t) for t in grid]


# ---------------------------------------------------------------------------
# grids, sweeps, envelopes
# ---------------------------------------------------------------------------

def test_log_grid_endpoints_and_monotonicity():
    g = log_grid(0.01, 100.0, 9)
    assert g[0] == pytest.approx(0.01, rel=1e-12)
    assert g[-1] == pytest.approx(100.0, rel=1e-12)
    assert np.all(np.diff(g) > 0)
    assert g[4] == pytest.approx(1.0, rel=1e-12)


def test_log_grid_rejects_bad_args():
    with pytest.raises(ValidationError):
        log_grid(-1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        log_grid(1.0, 1.0, 5)
    for lo, hi in ((1.0, math.inf), (1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValidationError):
            log_grid(lo, hi, 5)


def test_sweep_serial_and_parallel_agree():
    kernel = Kernel(Family.MATERN32, (1.0,))
    grid = log_grid(0.1, 10.0, 4)
    serial = sweep_theta(kernel, 2, grid, parallel=1)
    parallel = sweep_theta(kernel, 2, grid, parallel=2)
    for a, b in zip(serial, parallel):
        assert a.design == b.design
        assert a.imspe_value == b.imspe_value


def test_envelope_x1():
    def rep(*xs, ok=True):
        return OptimumReport(
            design=tuple((x,) for x in xs),
            imspe_value=0.5,
            converged=ok,
            gradient_norm=0.0,
            second_order_check=(1.0, 1.0),
            boundary_distance=0.1,
        )

    lo, hi = envelope_x1([rep(0.4, -0.4), rep(-0.55, 0.55), rep(0.9, -0.9, ok=False)])
    assert (lo, hi) == (0.4, 0.55)
    # a one-point sweep's envelope is that of its single points
    assert envelope_x1([rep(0.0), rep(0.25), rep(0.9, ok=False)]) == (0.0, 0.25)


def test_envelope_requires_converged_reports():
    with pytest.raises(ValidationError):
        envelope_x1([])


# ---------------------------------------------------------------------------
# rasters
# ---------------------------------------------------------------------------

def test_scan_surface_row_major_order_and_values():
    kernel = Kernel(Family.EXP_P1, (1.0,))
    axes = [np.array([-0.5, 0.5]), np.array([-0.25, 0.25])]
    rows = scan_surface(
        kernel, axes, lambda c: np.array([[c[0]], [c[1]]]), parallel=1
    )
    assert [r[:2] for r in rows] == [
        (-0.5, -0.25),
        (-0.5, 0.25),
        (0.5, -0.25),
        (0.5, 0.25),
    ]
    assert all(r[2] is not None for r in rows)


def test_scan_surface_masks_singular_nodes():
    kernel = Kernel(Family.EXP_P1, (1.0,))
    axes = [np.array([-0.3, 0.0, 0.3])]
    rows = scan_surface(
        kernel, axes, lambda c: np.array([[c[0]], [0.0]]), parallel=1
    )
    values = {r[0]: r[1] for r in rows}
    assert values[0.0] is None
    assert values[-0.3] is not None


# ---------------------------------------------------------------------------
# constrained demo scenario
# ---------------------------------------------------------------------------

def test_fig_design_layout():
    d = fig_design((0.2, -0.1))
    assert d.shape == (4, 2)
    assert tuple(d[0]) == FIG_FIXED[0]
    assert tuple(d[1]) == FIG_FIXED[1]
    assert tuple(d[2]) == (0.2, -0.1)
    assert tuple(d[3]) == (-0.2, 0.1)


def test_fig_kernel_parameters():
    k = fig_kernel()
    assert k.family is Family.GAUSS_P2
    assert k.theta == FIG_THETA


def test_fig_imspe_continuous_on_smooth_region():
    base = fig_imspe(0.4, 0.2)
    assert fig_imspe(0.4 + 1e-7, 0.2) == pytest.approx(base, abs=1e-9)


def test_fig_imspe_precision_handoff_is_seamless():
    # values just inside and outside the extended-precision switchover
    # must agree to solve accuracy
    from imspe_kit.optimize import _FIG_HP_SEPARATION

    t_out = _FIG_HP_SEPARATION / 2.0 * 1.05  # pair separation just above
    t_in = _FIG_HP_SEPARATION / 2.0 * 0.95
    gap = abs(fig_imspe(t_out, 0.0) - fig_imspe(t_in, 0.0))
    assert gap < 1e-6


@pytest.mark.parametrize("t", [(0.3, 0.2), (0.9, 0.05)])
def test_fig_extended_precision_matches_double_on_separated_designs(t):
    from imspe_kit.optimize import _fig_imspe_hp

    design = fig_design(t)
    result = build_matrices(fig_kernel(), design)
    gap = abs(_fig_imspe_hp(design) - result.imspe)
    assert gap <= 1e-12 + 1e-14 * result.cond_estimate


def test_probe_certifies_origin_discontinuity():
    h_seq = (0.01, 0.005, 0.002, 0.001, 1e-4, 1e-5)
    rep = discontinuity_probe(fig_imspe, (0.0, 0.0), ((1, 0), (0, 1)), h_seq)
    assert rep.max_gap > 10.0 * max(rep.residuals)


def test_probe_no_false_positive_at_smooth_point():
    h_seq = (0.01, 0.005, 0.002, 0.001, 1e-4, 1e-5)
    rep = discontinuity_probe(fig_imspe, (0.5, 0.3), ((1, 0), (0, 1)), h_seq)
    assert rep.max_gap <= 10.0 * max(max(rep.residuals), 1e-12)


def test_probe_validates_inputs():
    with pytest.raises(ValidationError):
        discontinuity_probe(fig_imspe, (0, 0), ((0, 0),), (0.1, 0.01))
    with pytest.raises(ValidationError):
        discontinuity_probe(fig_imspe, (0, 0), ((1, 0),), ())

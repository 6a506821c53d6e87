"""Bordered-matrix criterion: closed forms, symmetries, and conditioning."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from imspe_kit import integrals
from imspe_kit import (
    Family,
    Kernel,
    NearSingularError,
    SolveError,
    ValidationError,
    build_matrices,
    build_matrices_unit_exp,
    domain_transform,
    imspe,
    imspe_closed_n1,
    imspe_closed_n2_exp,
    imspe_n2,
    imspe_quadratic,
)
from imspe_kit.imspe import COND_LIMIT, _n2_residual
from imspe_kit.oracle import inverse_sym_3x3, trace_of_product_sym
from test_optimize import _digits, _mp_corr, _residual_mp, _residual_quad, _theta_constant

ALL_FAMILIES = list(Family)
RNG = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# linear-algebra helpers
# ---------------------------------------------------------------------------

def test_trace_of_product_on_random_symmetric_pairs():
    for n in range(2, 7):
        for _ in range(10):
            a = RNG.standard_normal((n, n))
            a = a + a.T
            b = RNG.standard_normal((n, n))
            b = b + b.T
            assert trace_of_product_sym(a, b) == pytest.approx(
                float(np.trace(a @ b)), abs=1e-12, rel=1e-12
            )


def test_inverse_sym_3x3_matches_numpy():
    for _ in range(20):
        m = RNG.standard_normal((3, 3))
        m = m + m.T + 4.0 * np.eye(3)
        assert np.max(np.abs(inverse_sym_3x3(m) - np.linalg.inv(m))) < 1e-12


def test_inverse_sym_3x3_rejects_singular():
    m = np.ones((3, 3))
    with pytest.raises(SolveError):
        inverse_sym_3x3(m)


# ---------------------------------------------------------------------------
# closed forms vs the general solve path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("theta", [0.05, 1.0, 30.0])
def test_closed_n1_matches_solve(family, theta):
    k = Kernel(family, (theta,))
    for x in (-0.9, -0.3, 0.0, 0.45, 1.0):
        assert imspe_closed_n1(k, theta, x) == pytest.approx(
            build_matrices(k, [[x]]).imspe, abs=1e-13
        )


@pytest.mark.parametrize("theta", [0.05, 1.0, 30.0])
def test_closed_n2_exp_matches_solve(theta):
    k = Kernel(Family.EXP_P1, (theta,))
    for x1, x2 in [(0.6, -0.6), (0.9, 0.1), (-1.0, 1.0), (0.3, 0.2)]:
        assert imspe_closed_n2_exp(theta, x1, x2) == pytest.approx(
            build_matrices(k, [[x1], [x2]]).imspe, abs=1e-12
        )


def test_closed_n2_exp_overflow_safe_at_large_theta():
    v = imspe_closed_n2_exp(1e4, 0.5, -0.5)
    assert math.isfinite(v)
    assert 0.0 < v < 2.0


def _n2_designs(rng, count):
    """(theta, x1, x2): theta log-uniform on [1e-2, 1e3]; even draws are random
    pairs, odd ones near-coincident pairs separated by 1e-7 to 1e-1."""
    out = []
    while len(out) < count:
        theta = float(10.0 ** rng.uniform(-2.0, 3.0))
        x1 = float(rng.uniform(-1.0, 1.0))
        if len(out) % 2 == 0:
            x2 = float(rng.uniform(-1.0, 1.0))
        else:
            x2 = x1 + float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, -1.0))
        if abs(x2) <= 1.0 and x1 != x2:
            out.append((theta, x1, x2))
    return out


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_imspe_n2_dispatch(family):
    k = Kernel(family, (2.0,))
    direct = imspe_n2(k, 2.0, 0.5, -0.4)
    assert type(direct) is float
    assert direct == pytest.approx(build_matrices(k, [[0.5], [-0.4]]).imspe, abs=1e-12)
    # random and near-coincident pairs: same value as the solve path within
    # its conditioning bound wherever the solve answers, and an answer for
    # every pair, also those one ulp to 1e-14 apart that the solve refuses
    tiny = [
        (theta, 0.3, x2)
        for theta in (0.01, 1.0, 1000.0)
        for x2 in (math.nextafter(0.3, 1.0), 0.3 + 2e-16, 0.3 + 1e-15, 0.3 + 1e-14)
    ]
    for theta, x1, x2 in _n2_designs(np.random.default_rng(17), 200) + tiny:
        kt = Kernel(family, (theta,))
        value = imspe_n2(kt, theta, x1, x2)
        assert type(value) is float and math.isfinite(value), (theta, x1, x2)
        try:
            solved = build_matrices(kt, [[x1], [x2]])
        except SolveError:
            continue
        assert abs(value - solved.imspe) <= 1e-12 + 1e-14 * solved.cond_estimate, (theta, x1, x2)


# ---------------------------------------------------------------------------
# exponential and Gaussian two-point forms against a high-precision reference
# ---------------------------------------------------------------------------

_RESIDUAL_FAMILIES = (Family.EXP_P1, Family.GAUSS_P2)

#: absolute error bound of the exponential and Gaussian two-point criterion for
#: theta in [0.01, 1], where |C(theta)| reaches 248 (exp) and 22 (Gaussian)
_SMALL_THETA_ABS = 2e-15


def _reference(family, theta, x1, x2):
    """(residual, criterion) of a pair from the tests' mpmath bordered solve."""
    residual = _residual_mp(family, theta, x1, x2)
    with mp.workdps(60):
        return residual, residual + _theta_constant(family, mp.mpf(theta))


def _two_point_errors(family, theta, x1, x2):
    """Relative error of ``_n2_residual`` and absolute error of ``imspe_n2``."""
    residual, value = _reference(family, theta, x1, x2)
    got = imspe_n2(Kernel(family, (theta,)), theta, x1, x2)
    rel = abs(_n2_residual(family, theta, x1, x2) - residual) / residual
    return float(rel), float(abs(got - value))


def test_exp_close_pairs_at_former_failure_points():
    # the six-term form erred by 7.4e-5 down to 2.2e-7 at these separations
    for s in (5e-13, 1e-12, 1e-11, 1e-10):
        rel, err = _two_point_errors(Family.EXP_P1, 1.0, 0.3, 0.3 + s)
        assert rel <= 1e-13 and err <= 1e-15, (s, rel, err)


def test_exp_small_theta_close_pair_is_accurate():
    # the six-term form returned -2.44e-4 here; the criterion is 0.0128624
    x1, x2 = 0.5408061093933778, 0.5408061093613006
    rel, err = _two_point_errors(Family.EXP_P1, 0.01, x1, x2)
    assert rel <= 1e-15 and err <= _SMALL_THETA_ABS, (rel, err)
    kernel = Kernel(Family.EXP_P1, (0.01,))
    assert imspe_closed_n2_exp(0.01, x1, x2) == imspe_n2(kernel, 0.01, x1, x2)


def test_gauss_close_pairs_at_former_failure_points():
    # the bordered inverse erred by 8.0e-9, 9.7e-7 and 8.8e-5 at the first
    # three separations and refused the last
    for s in (1e-4, 1e-5, 1e-6, 1e-9):
        rel, err = _two_point_errors(Family.GAUSS_P2, 1.0, 0.1 + s / 2, 0.1 - s / 2)
        assert rel <= 1e-13 and err <= 1e-15, (s, rel, err)


@pytest.mark.parametrize("family", _RESIDUAL_FAMILIES)
def test_separated_pairs_at_small_theta(family):
    # the former forms erred by up to about 4e-12 on such pairs at theta = 0.01
    rng = np.random.default_rng(23)
    for _ in range(40):
        x1, x2 = rng.uniform(-1.0, 1.0, 2).tolist()
        if abs(x1 - x2) < 0.05:
            continue
        _, err = _two_point_errors(family, 0.01, x1, x2)
        assert err <= _SMALL_THETA_ABS, (x1, x2, err)


def test_erf_spread_matches_mpmath():
    from imspe_kit.imspe import _erf_spread

    rng = np.random.default_rng(29)
    for _ in range(300):
        h = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, math.log10(1.5)))
        us = [abs(h) + float(rng.uniform(0.0, 1.0) * rng.choice((0.1, 1.0, 5.0))) for _ in "uu"]
        with mp.workdps(40 + max(0, -2 * math.floor(math.log10(abs(h))))):
            big_h = mp.mpf(h)
            ref = sum(
                mp.erf(mp.mpf(u) + big_h) + mp.erf(mp.mpf(u) - big_h) - 2 * mp.erf(mp.mpf(u))
                for u in us
            ) / -mp.expm1(-2 * big_h**2)
        if abs(ref) < 1e-290:
            continue
        bound = 5e-15 * max(1.0, *(u * u for u in us)) * abs(ref)
        assert abs(_erf_spread(*us, h) - ref) <= bound, (us, h)


def _pair_near(data, x1):
    """A second point: anywhere, one ulp away, a decade-spaced gap from 1e-300
    to 1e-1, or the mirror image (whose gap squared underflows for tiny x1)."""
    kind = data.draw(st.sampled_from(("any", "ulp", "gap", "mirror")))
    if kind == "any":
        return data.draw(st.floats(min_value=-1.0, max_value=1.0))
    if kind == "ulp":
        return math.nextafter(x1, data.draw(st.sampled_from((-1.0, 1.0))))
    if kind == "mirror":
        return -x1
    gap = 10.0 ** data.draw(st.floats(min_value=-300.0, max_value=-1.0))
    return x1 + gap if x1 + gap <= 1.0 else x1 - gap


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(_RESIDUAL_FAMILIES),
    log_theta=st.floats(min_value=0.0, max_value=math.log(1e3)),
    x1=st.floats(min_value=-1.0, max_value=1.0),
    data=st.data(),
)
def test_two_point_residual_relative_error_for_theta_above_one(family, log_theta, x1, data):
    x2 = _pair_near(data, x1)
    assume(x1 != x2)
    theta = math.exp(log_theta)
    rel, err = _two_point_errors(family, theta, x1, x2)
    assert rel <= 1e-13, (theta, x1, x2, rel)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(_RESIDUAL_FAMILIES),
    log_theta=st.floats(min_value=math.log(0.01), max_value=0.0),
    x1=st.floats(min_value=-1.0, max_value=1.0),
    data=st.data(),
)
def test_two_point_absolute_error_for_theta_below_one(family, log_theta, x1, data):
    x2 = _pair_near(data, x1)
    assume(x1 != x2)
    theta = math.exp(log_theta)
    rel, err = _two_point_errors(family, theta, x1, x2)
    assert err <= _SMALL_THETA_ABS and rel <= 1e-13, (theta, x1, x2, rel, err)


# ---------------------------------------------------------------------------
# Matern two-point forms against a high-precision quadrature
# ---------------------------------------------------------------------------

_MATERN = (Family.MATERN32, Family.MATERN52)


def _matern_criterion_quad(family, theta, x1, x2):
    """60-digit quadrature criterion of a Matern pair, 2 - b0/2 - r01 - r02 - N/(2 b0)
    with b0 = 1 - rho and N = (1/2) integral of (k(x1, x) - k(x2, x))^2, each by
    mpmath.quad split at the anchors.  b0 and the difference of the two correlations
    are evaluated with the digits of ``_digits``, so neither loses digits to
    cancellation, and N is integrated over b0, so that the quadrature's absolute
    tolerance is relative to it."""
    inner = _digits(family, theta, abs(x1 - x2)) + 10
    with mp.workdps(inner):
        corr = _mp_corr(family, mp.mpf(theta))
        b0 = 1 - corr(mp.mpf(x1), mp.mpf(x2))

    def scaled_square(x):
        with mp.workdps(inner):
            d = corr(x1, x) - corr(x2, x)
        return d * d / b0

    with mp.workdps(60):
        nodes = [-1, min(x1, x2), max(x1, x2), 1]
        r01, r02, n = (
            mp.quad(f, nodes) / 2 for f in (lambda x: corr(x1, x), lambda x: corr(x2, x), scaled_square)
        )
        return 2 - b0 / 2 - r01 - r02 - n / 2


@pytest.mark.parametrize("family", _MATERN)
@settings(max_examples=30, deadline=None)
@given(
    log_theta=st.floats(min_value=math.log(0.01), max_value=math.log(1e3)),
    x1=st.floats(min_value=-1.0, max_value=1.0),
    data=st.data(),
)
def test_matern_two_point_criterion_matches_quadrature(family, log_theta, x1, data):
    # 2e-15 absolute for theta in [0.01, 1], 1e-13 relative above; the
    # bordered inverse this replaced erred by up to 7e-5 on such pairs and
    # refused those closer than about 1e-6/sqrt(theta)
    x2 = _pair_near(data, x1)
    assume(x1 != x2)
    theta = math.exp(log_theta)
    ref = _matern_criterion_quad(family, theta, x1, x2)
    got = imspe_n2(Kernel(family, (theta,)), theta, x1, x2)
    assert _n2_residual(family, theta, x1, x2) == got
    err = float(abs(got - ref))
    bound = _SMALL_THETA_ABS if theta <= 1.0 else 1e-13 * float(ref)
    assert err <= bound, (theta, x1, x2, err)


@pytest.mark.parametrize("family", _MATERN)
@pytest.mark.parametrize("theta", [1e-4, 1e-6, 1e-10, 1e-20, 1e-300, 5e-324])
def test_matern_small_theta_criterion_is_accurate(family, theta):
    # the bordered inverse gave 1.7e-10 for 1.04e-12 (5/2, theta = 1e-6) here,
    # and -2.1e-5 for 1.0e-20 at theta = 1e-10.  The borders r0i tend to 1 as
    # theta shrinks and the criterion to 0 (1.04 theta^2 for 5/2), so the
    # bound is absolute: each border must keep its relative accuracy.  From
    # theta = 1e-300 on the criterion is below 1e-500 (a 650-digit quadrature
    # rounds it to 0) and the reference is 0
    pairs = [(0.3, -0.2), (-1.0, 1.0), (0.9, math.nextafter(0.9, 1.0))]
    for x1, x2 in pairs if theta < 1e-8 else pairs[:1]:
        ref = _residual_quad(family, theta, x1, x2) if theta > 1e-100 else 0.0
        got = imspe_n2(Kernel(family, (theta,)), theta, x1, x2)
        assert abs(got - ref) <= _SMALL_THETA_ABS, (theta, x1, x2, got)


def _record_gammainc(monkeypatch):
    """Record the argument 2 lam of every incomplete-gamma (``_gamma_p``) call
    the integrals make, one per moment set."""
    calls, real = [], integrals._gamma_p

    def recorded(n, x, scale):
        calls.append(x)
        return real(n, x, scale)

    monkeypatch.setattr(integrals, "_gamma_p", recorded)
    return calls


@pytest.mark.parametrize("family", [Family.MATERN32, Family.MATERN52])
def test_matern_two_point_criterion_takes_one_gammainc_call(family, monkeypatch):
    # one incomplete-gamma call at the gap s = gamma*|x1 - x2| for 1 - rho and
    # the outer-segment coefficients, and one moment set per outer segment, at
    # lam = gamma*(1 + lo) and gamma*(1 - hi); a gap below 1e-8 takes no call
    calls = _record_gammainc(monkeypatch)
    g = math.sqrt(3.0 if family is Family.MATERN32 else 5.0) * math.sqrt(2.0)
    for x1, x2 in ((0.41, -0.37), (-0.9, 0.2), (0.95, 0.5), (0.3, 0.3 + 1e-9)):
        calls.clear()
        imspe_n2(Kernel(family, (2.0,)), 2.0, x1, x2)
        lo, hi = min(x1, x2), max(x1, x2)
        gap = [g * (hi - lo)] if g * (hi - lo) > 1e-8 else []
        assert calls == gap + [2.0 * g * (1.0 + lo), 2.0 * g * (1.0 - hi)], (x1, x2)


@pytest.mark.parametrize("family", [Family.MATERN32, Family.MATERN52])
@pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (9, 3)])
def test_matern_assembly_takes_one_gammainc_call_per_dimension(family, n, d, monkeypatch):
    # one moment set per lam = gamma*(1 +- x): 2n per axis, in axis order
    calls = _record_gammainc(monkeypatch)
    thetas, pts = tuple(np.geomspace(0.5, 9.0, d)), RNG.uniform(-1, 1, (n, d))
    build_matrices(Kernel(family, thetas), pts)
    scale = 3.0 if family is Family.MATERN32 else 5.0
    expected = []
    for t, xs in zip(thetas, pts.T.tolist()):
        g = math.sqrt(scale * t)
        expected += [2.0 * g * (1.0 + x) for x in xs] + [2.0 * g * (1.0 - x) for x in xs]
    assert len(calls) == 2 * n * d
    assert calls == expected


@pytest.mark.parametrize("family", [Family.MATERN32, Family.MATERN52])
def test_matern_anchor_pair_takes_two_moment_sets(family, monkeypatch):
    # a lone pair reads only lam = gamma*(1 + a) of its smaller anchor a and
    # lam = gamma*(1 - b) of its larger b, and equals the table's entry
    calls = _record_gammainc(monkeypatch)
    scale = 3.0 if family is Family.MATERN32 else 5.0
    scalar = integrals.i6 if family is Family.MATERN32 else integrals.i8
    rng = np.random.default_rng(17)
    for _ in range(200):
        thetas = (10.0 ** rng.uniform(-2, 3, 2)).tolist()
        xi, xj = rng.uniform(-1, 1, (2, 2)).tolist()
        expected, tables = [], 1.0
        for t, a, b in zip(thetas, xi, xj):
            g = math.sqrt(scale * t)
            expected.append([2.0 * g * (1.0 + min(a, b)), 2.0 * g * (1.0 - max(a, b))])
            tables *= integrals._pair_table(family, (a, b), t)(0, 1)
        (a, b), theta, first = (xi[0], xj[0]), thetas[0], expected[:1]
        table = integrals._pair_table(family, (a, b), theta)(0, 1)
        for call, want, lams in (
            (lambda: integrals.inner_1d(family, a, b, theta), table, first),
            (lambda: scalar(b, a, theta), table, first),
            (lambda: integrals.r_inner(Kernel(family, tuple(thetas)), xi, xj), tables, expected),
        ):
            calls.clear()
            assert call().hex() == want.hex(), (thetas, xi, xj)
            assert calls == [x for pair in lams for x in pair], (thetas, xi, xj)


def test_imspe_against_3x3_adjugate():
    for family in ALL_FAMILIES:
        k = Kernel(family, (1.7,))
        mats = build_matrices(k, [[0.55], [-0.35]])
        value = 1.0 - trace_of_product_sym(inverse_sym_3x3(mats.L), mats.R)
        assert value == pytest.approx(mats.imspe, abs=1e-12)


def test_stiff_matern_pair_matches_40_digit_value():
    # 40-digit reference criterion of this design
    value = build_matrices(Kernel(Family.MATERN52, (3000.0,)), [[0.9], [0.95]]).imspe
    assert abs(value - 1.4658850702157534) <= 1e-14
    value = imspe_n2(Kernel(Family.MATERN52, (3000.0,)), 3000.0, 0.9, 0.95)
    assert abs(value - 1.4658850702157534) <= 1e-14


# ---------------------------------------------------------------------------
# structural symmetries
# ---------------------------------------------------------------------------

def test_fill_bordered_numpy_and_mpmath_agree():
    import mpmath as mp

    from imspe_kit.imspe import _fill_bordered

    n = 4
    calls = []

    def edge(i):
        return 0.5 + 0.125 * i

    def body(i, j):
        calls.append((i, j))
        return 1.0 / (1.0 + i + 2.0 * j)

    arr = _fill_bordered(np.zeros((n + 1, n + 1)), 0.25, edge, body)
    mat = _fill_bordered(mp.zeros(n + 1), 0.25, edge, body)
    # body is asked once per unordered pair, i <= j, for each matrix
    assert calls == [(i, j) for i in range(n) for j in range(i, n)] * 2
    assert np.array_equal(arr, arr.T)
    assert arr[0, 0] == 0.25
    assert [arr[0, 1 + i] for i in range(n)] == [edge(i) for i in range(n)]
    for i in range(n + 1):
        for j in range(n + 1):
            assert float(mat[i, j]) == arr[i, j]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_reflection_symmetry(family):
    k = Kernel(family, (3.0,))
    a = imspe(k, [[0.62], [-0.18]])
    b = imspe(k, [[-0.62], [0.18]])
    assert a == pytest.approx(b, rel=1e-13)


def test_permutation_symmetry():
    k = Kernel(Family.MATERN32, (0.9,))
    design_a = [[0.1], [0.7], [-0.6]]
    design_b = [[-0.6], [0.1], [0.7]]
    assert imspe(k, design_a) == pytest.approx(imspe(k, design_b), rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    theta=st.floats(min_value=1e-2, max_value=1e2),
)
def test_criterion_in_unit_interval(x, theta):
    k = Kernel(Family.GAUSS_P2, (theta,))
    v = imspe(k, [[x]])
    assert 0.0 < v < 2.0


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(ALL_FAMILIES),
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_assembled_r_is_the_public_elements_bit_for_bit(family, d, n, data):
    log_theta = st.floats(min_value=math.log(1e-2), max_value=math.log(1e3))
    kernel = Kernel(family, tuple(math.exp(data.draw(log_theta)) for _ in range(d)))
    point = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * d)
    pts = data.draw(st.lists(point, min_size=n, max_size=n, unique=True))
    try:
        big_r = build_matrices(kernel, pts).R
    except (NearSingularError, SolveError):
        return  # R is only returned with a criterion
    for i in range(n):
        assert big_r[0, 1 + i] == integrals.r_border(kernel, pts[i])
        for j in range(n):
            assert big_r[1 + i, 1 + j] == integrals.r_inner(kernel, pts[i], pts[j])


# ---------------------------------------------------------------------------
# degeneracy handling
# ---------------------------------------------------------------------------

def test_coincident_points_raise():
    k = Kernel(Family.EXP_P1, (1.0,))
    with pytest.raises(NearSingularError):
        build_matrices(k, [[0.3], [0.3]])
    with pytest.raises(NearSingularError):
        imspe_closed_n2_exp(1.0, 0.3, 0.3)
    with pytest.raises(NearSingularError):
        imspe_n2(Kernel(Family.GAUSS_P2, (1.0,)), 1.0, 0.3, 0.3)


def test_overflowing_decay_rate_is_refused_not_raised_by_numpy():
    # sqrt(3 theta) overflows, so L holds NaN and the condition number's SVD
    # fails; that failure is a SolveError like a failed solve
    with pytest.raises(SolveError):
        build_matrices(Kernel(Family.MATERN32, (1.7e308, 1.0)), [[0.3, 0.1], [-0.2, 0.5]])


@pytest.mark.parametrize("family", _MATERN)
def test_matern_two_point_answers_at_huge_decay_rates(family):
    # gamma |x1 - x2| up to 1e154, to the largest float theta: the powers of
    # the gap and the moments' x^j e^(-x) stay finite, and a separated pair
    # tends to 3/2
    for theta in (1e100, 1e200, 1e300, 1e307, sys.float_info.max):
        for x1, x2 in ((0.3, -0.2), (0.9, 0.95), (-1.0, 1.0)):
            assert imspe_n2(Kernel(family, (theta,)), theta, x1, x2) == 1.5, (theta, x1, x2)


def test_near_singular_solve_refused():
    # Gaussian pair separated by 1e-9: 1 - V ~ 1e-18, far beyond the
    # condition ceiling; the solve path must refuse, not fabricate a value
    k = Kernel(Family.GAUSS_P2, (1.0,))
    with pytest.raises(SolveError) as exc_info:
        build_matrices(k, [[0.1], [0.1 + 1e-9]])
    assert exc_info.value.cond_estimate > COND_LIMIT
    # the two-point forms need no solve and stay accurate there, and one ulp
    # apart, where e^(-theta s) rounds to 1
    _, value = _reference(Family.GAUSS_P2, 1.0, 0.1, 0.1 + 1e-9)
    assert abs(imspe_n2(k, 1.0, 0.1, 0.1 + 1e-9) - value) <= 1e-15
    x2 = math.nextafter(0.3, 1.0)
    _, value = _reference(Family.EXP_P1, 1.0, 0.3, x2)
    assert abs(imspe_closed_n2_exp(1.0, 0.3, x2) - value) <= 1e-15


def test_conditioning_honesty_against_expansion():
    # as the pair separation shrinks, the solve either stays close to the
    # well-conditioned quadratic model or refuses with a SolveError; it never
    # silently returns a wildly wrong number
    theta = 1.0
    k = Kernel(Family.GAUSS_P2, (theta,))
    for sep in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        delta = sep / 2.0
        ref = imspe_quadratic(theta, 0.0, delta)
        try:
            val = build_matrices(k, [[delta], [-delta]]).imspe
        except SolveError:
            continue
        # quadratic-model truncation is O(theta^2 delta^4); allow for solve
        # round-off amplified by the known conditioning
        cond = 1.0 / (1.0 - math.exp(-4.0 * theta * delta * delta))
        tol = theta * theta * delta ** 4 * 10.0 + cond * 1e-14
        assert abs(val - ref) <= tol


# ---------------------------------------------------------------------------
# domain rescaling
# ---------------------------------------------------------------------------

def test_domain_transform_round_trip():
    theta, x = 3.0, 0.42
    t2, x2 = domain_transform(theta, x, (-1.0, 1.0), (0.0, 1.0))
    t3, x3 = domain_transform(t2, x2, (0.0, 1.0), (-1.0, 1.0))
    assert t3 == pytest.approx(theta, rel=1e-15)
    assert x3 == pytest.approx(x, rel=1e-15)


def test_domain_transform_scaling_rule():
    t2, x2 = domain_transform(3.0, 0.5, (-1.0, 1.0), (0.0, 1.0))
    assert t2 == pytest.approx(6.0, rel=1e-15)
    assert x2 == pytest.approx(0.75, rel=1e-15)


def test_domain_transform_rejects_bad_intervals():
    with pytest.raises(ValidationError):
        domain_transform(1.0, 0.0, (1.0, -1.0), (0.0, 1.0))
    with pytest.raises(ValidationError):
        domain_transform(1.0, 2.0, (-1.0, 1.0), (0.0, 1.0))


def test_unit_domain_criterion_invariance():
    for theta, x in [(0.3, -0.8), (2.0, 0.1), (40.0, 0.66)]:
        k = Kernel(Family.EXP_P1, (theta,))
        base = build_matrices(k, [[x]]).imspe
        t2, x2 = domain_transform(theta, x, (-1.0, 1.0), (0.0, 1.0))
        unit = build_matrices_unit_exp((t2,), [[x2]]).imspe
        assert unit == pytest.approx(base, abs=1e-13)


def test_unit_domain_two_points():
    theta, xa, xb = 1.5, -0.4, 0.7
    k = Kernel(Family.EXP_P1, (theta,))
    base = build_matrices(k, [[xa], [xb]]).imspe
    t2, ya = domain_transform(theta, xa, (-1.0, 1.0), (0.0, 1.0))
    _, yb = domain_transform(theta, xb, (-1.0, 1.0), (0.0, 1.0))
    unit = build_matrices_unit_exp((t2,), [[ya], [yb]]).imspe
    assert unit == pytest.approx(base, abs=1e-13)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_empty_design_rejected():
    k = Kernel(Family.EXP_P1, (1.0,))
    with pytest.raises(ValidationError):
        build_matrices(k, np.empty((0, 1)))


def test_dimension_mismatch_rejected():
    k = Kernel(Family.EXP_P1, (1.0, 2.0))
    with pytest.raises(ValidationError):
        build_matrices(k, [[0.1]])

"""Bordered-matrix criterion: closed forms, symmetries, and conditioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from imspe_kit.imspe import COND_LIMIT, _cond_n2
from imspe_kit.oracle import inverse_sym_3x3, trace_of_product_sym

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
    # its conditioning bound, and the same refusals away from the ceiling;
    # the pairs one ulp to 1e-14 apart are refused by both
    tiny = [
        (theta, 0.3, x2)
        for theta in (0.01, 1.0, 1000.0)
        for x2 in (math.nextafter(0.3, 1.0), 0.3 + 2e-16, 0.3 + 1e-15, 0.3 + 1e-14)
    ]
    for theta, x1, x2 in _n2_designs(np.random.default_rng(17), 200) + tiny:
        kt = Kernel(family, (theta,))
        try:
            solved = build_matrices(kt, [[x1], [x2]])
        except SolveError as exc:
            solved, cond = None, exc.cond_estimate
        else:
            cond = solved.cond_estimate
        try:
            value = imspe_n2(kt, theta, x1, x2)
        except SolveError:
            value = None
        if abs(cond / COND_LIMIT - 1.0) <= 0.01:
            continue
        assert (value is None) == (solved is None), (theta, x1, x2, cond)
        if value is not None:
            assert type(value) is float
            assert abs(value - solved.imspe) <= 1e-12 + 1e-14 * cond, (theta, x1, x2)


def _record_gammainc(monkeypatch):
    """Record the argument list of every ``gammainc`` call the integrals make."""
    calls, real = [], integrals.gammainc

    def recorded(a, x):
        calls.append(list(x))
        return real(a, x)

    monkeypatch.setattr(integrals, "gammainc", recorded)
    return calls


@pytest.mark.parametrize("family", [Family.MATERN32, Family.MATERN52])
def test_matern_two_point_criterion_takes_one_gammainc_call(family, monkeypatch):
    # the pair integral and both same-anchor integrals share one table of the
    # four lam = gamma*(1 +- x): each distinct lam is computed once
    calls = _record_gammainc(monkeypatch)
    g = math.sqrt((3.0 if family is Family.MATERN32 else 5.0) * 2.0)
    for x1, x2 in ((0.41, -0.37), (-0.9, 0.2), (0.95, 0.5)):
        calls.clear()
        imspe_n2(Kernel(family, (2.0,)), 2.0, x1, x2)
        lams = [g * (1.0 + x1), g * (1.0 + x2), g * (1.0 - x1), g * (1.0 - x2)]
        assert calls == [[2.0 * lam for lam in lams]], (x1, x2)


@pytest.mark.parametrize("family", [Family.MATERN32, Family.MATERN52])
@pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (9, 3)])
def test_matern_assembly_takes_one_gammainc_call_per_dimension(family, n, d, monkeypatch):
    calls = _record_gammainc(monkeypatch)
    build_matrices(Kernel(family, tuple(np.geomspace(0.5, 9.0, d))), RNG.uniform(-1, 1, (n, d)))
    assert [len(c) for c in calls] == [2 * n] * d


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
            assert calls == lams, (thetas, xi, xj)


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


def test_closed_form_condition_number_matches_svd():
    # rho from 0 up to where cond(L) = (1 + sqrt(3)) / (1 - rho) reaches 1e10
    last_gap = (1.0 + math.sqrt(3.0)) / 1e10
    gaps = np.concatenate([np.linspace(1.0, 0.1, 100), np.geomspace(0.1, last_gap, 100)])
    for rho in 1.0 - gaps:
        big_l = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, rho], [1.0, rho, 1.0]])
        assert _cond_n2(rho) == pytest.approx(float(np.linalg.cond(big_l)), rel=1e-6)


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


def test_near_singular_solve_refused():
    # Gaussian pair separated by 1e-9: 1 - V ~ 1e-18, far beyond the
    # condition ceiling; the solve path must refuse, not fabricate a value
    k = Kernel(Family.GAUSS_P2, (1.0,))
    with pytest.raises(SolveError) as exc_info:
        build_matrices(k, [[0.1], [0.1 + 1e-9]])
    assert exc_info.value.cond_estimate > COND_LIMIT
    with pytest.raises(SolveError) as exc_info:
        imspe_n2(k, 1.0, 0.1, 0.1 + 1e-9)
    assert exc_info.value.cond_estimate > COND_LIMIT
    # one ulp apart, the exponential form's 1 - e^(-theta s) rounds to 0:
    # refused, not a division by zero
    with pytest.raises(SolveError) as exc_info:
        imspe_closed_n2_exp(1.0, 0.3, math.nextafter(0.3, 1.0))
    assert exc_info.value.cond_estimate == math.inf


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

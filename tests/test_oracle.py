"""Self-tests of the independent quadrature and differentiation oracle."""

import math
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imspe_kit import Family, Kernel, QuadratureError, build_matrices
from imspe_kit import oracle


def test_adaptive_quadrature_on_smooth_function():
    v = oracle.quad_adaptive(np.sin, 0.0, math.pi, abs_tol=1e-13)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_adaptive_quadrature_exact_on_cubics():
    # both panel rules integrate cubics exactly; the adaptive driver must not
    # degrade that
    v = oracle.quad_adaptive(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0, abs_tol=1e-13)
    exact = (2.0 ** 4 / 4 - 2 * 2.0 ** 2 / 2 + 2.0) - (0.25 - 1.0 - 1.0)
    assert v == pytest.approx(exact, abs=1e-12)
    assert oracle.quad_adaptive(lambda x: x ** 3 - 2 * x + 1, 0.5, 0.5) == 0.0


def test_adaptive_quadrature_with_kink_and_split_points():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.5 * (1.3 ** 2 + 0.7 ** 2)
    v = oracle.quad_adaptive(f, -1.0, 1.0, abs_tol=1e-12, split_points=(0.3,))
    assert v == pytest.approx(exact, abs=1e-11)


def test_adaptive_quadrature_stiff_peak():
    # sharply peaked integrand; exact value sqrt(pi/theta) * erf-mass inside
    theta = 1e4
    v = oracle.quad_adaptive(
        lambda x: np.exp(-theta * x * x), -1.0, 1.0, abs_tol=1e-14, split_points=(0.0,)
    )
    assert v == pytest.approx(math.sqrt(math.pi / theta), rel=1e-10)


def test_quadrature_error_on_depth_exhaustion():
    # a non-integrable singularity can never meet the tolerance; the driver
    # must give up loudly instead of looping or returning garbage (here the
    # cap on open intervals fires before depth 60)
    f = lambda x: np.divide(1.0, x, out=np.zeros_like(x), where=x > 0.0)
    with pytest.raises(QuadratureError):
        oracle.quad_adaptive(f, 0.0, 1.0, abs_tol=1e-12)


def test_quadrature_error_at_the_depth_limit():
    # a lone unit value at x = 0 keeps exactly one interval open per depth
    f = lambda x: (x == 0.0).astype(float)
    with pytest.raises(QuadratureError, match=f"at depth {oracle._MAX_DEPTH}, 1 intervals open"):
        oracle.quad_adaptive(f, 0.0, 1.0, abs_tol=1e-12)


def test_quadrature_error_when_open_intervals_exceed_the_cap():
    # an unreachable tolerance keeps (nearly) every interval open, so their
    # number doubles per depth; the cap stops the quadrature long before depth 60
    start = time.perf_counter()
    with pytest.raises(QuadratureError) as info:
        oracle.quad_adaptive(np.sin, 0.0, math.pi, abs_tol=1e-300)
    assert time.perf_counter() - start < 1.0
    depth, n_open = re.search(r"at depth (\d+), (\d+) intervals open", str(info.value)).groups()
    assert int(depth) < oracle._MAX_DEPTH and 2 * int(n_open) > oracle._MAX_OPEN


def test_panel_rules_integrate_monomials_exactly_to_their_degree():
    # the 7-point rule through degree 9, the 13-point rule through degree 19,
    # with the float constants taken exactly; the refined constants meet the
    # even moments to 2e-17, the 15-digit published ones only to 7e-16
    nodes = [*(-v for v in oracle._NODES), *oracle._NODES[-2::-1]]
    with mp.workdps(50):
        for weights, degree in ((oracle._K7, 9), (oracle._K13, 19)):
            w = [*weights, *weights[-2::-1]]
            for d in range(degree + 2):
                rule = mp.fsum(mp.mpf(wi) * mp.mpf(x) ** d for wi, x in zip(w, nodes))
                error = abs(rule - mp.mpf(1 + (-1) ** d) / (d + 1))
                assert error <= 1e-16 if d <= degree else error > 1e-7, (degree, d, error)


#: the oracle's one-dimensional quadratures: (function, family argument, anchor domain, anchors)
_QUADS = [
    *((oracle.border_1d_quad, (fam,), -1.0, 1) for fam in Family),
    *((oracle.inner_1d_quad, (fam,), -1.0, 2) for fam in Family),
    (oracle.unit_border_1d_quad, (), 0.0, 1),
    (oracle.unit_inner_1d_quad, (), 0.0, 2),
]


@st.composite
def _quad_batches(draw):
    """A quadrature and a batch of 1-40 (anchors..., theta) draws: theta log-uniform
    on [0.01, 1e4], anchors anywhere in the domain, on its ends, or equal."""
    quad, family, lo, n_anchors = draw(st.sampled_from(_QUADS))
    anchor = st.one_of(st.floats(lo, 1.0), st.sampled_from([lo, 1.0]))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        anchors = [draw(anchor)]
        if n_anchors == 2:
            anchors.append(draw(st.one_of(anchor, st.just(anchors[0]))))
        rows.append((*anchors, 10.0 ** draw(st.floats(-2.0, 4.0))))
    return quad, family, rows


@settings(max_examples=80, deadline=None)
@given(_quad_batches())
def test_a_batch_equals_its_integrals_one_at_a_time_bit_for_bit(case):
    # batches above oracle._BATCH integrals take more than one driver pass
    quad, family, rows = case
    batch = quad(*family, *map(np.array, zip(*rows)))
    assert batch.tolist() == [quad(*family, *row) for row in rows]


def test_a_batch_names_the_integral_that_cannot_converge():
    # integral 1 is a lone unit value at x = 0, which keeps one interval open
    # per depth; the error names its interval and depth as a lone quadrature would
    f = lambda x, k: np.where(k == 1, x == 0.0, np.sin(x))
    intervals = [(0.0, math.pi, ()), (0.0, 1.0, ()), (0.0, math.pi, ())]
    with pytest.raises(QuadratureError) as info:
        oracle._quad_batch(f, intervals, 1e-12)
    with pytest.raises(QuadratureError) as alone:
        oracle.quad_adaptive(lambda x: (x == 0.0).astype(float), 0.0, 1.0, abs_tol=1e-12)
    assert str(info.value) == str(alone.value)
    assert re.match(
        rf"Lobatto-Kronrod quadrature did not converge on \[0.0, {2.0 ** -60}\] at depth {oracle._MAX_DEPTH}, "
        r"1 intervals open \(residual ",
        str(info.value),
    )


def test_the_open_interval_cap_counts_each_integral_alone(monkeypatch):
    # 40 integrals whose open intervals together exceed the cap converge as
    # they do one at a time
    monkeypatch.setattr(oracle, "_MAX_OPEN", 64)
    widest = []

    def f(x, k):
        widest.append(x.shape[1])
        return np.exp(-np.abs(x - 0.1 * (k % 7)))

    intervals = [(-1.0, 1.0, (0.1 * (k % 7),)) for k in range(40)]
    got = oracle._quad_batch(f, intervals, 1e-9)
    assert max(widest) > oracle._MAX_OPEN
    for k, (a, b, splits) in enumerate(intervals):
        one = lambda x: np.exp(-np.abs(x - 0.1 * (k % 7)))
        assert got[k] == oracle.quad_adaptive(one, a, b, abs_tol=1e-9, split_points=splits)


def test_imspe_quad_matches_solve_path():
    for family, theta in [
        (Family.EXP_P1, 1.3),
        (Family.MATERN32, 0.4),
        (Family.MATERN52, 7.0),
        (Family.GAUSS_P2, 2.2),
    ]:
        k = Kernel(family, (theta,))
        design = [[0.45], [-0.52]]
        assert oracle.imspe_quad(k, design) == pytest.approx(
            build_matrices(k, design).imspe, abs=1e-10
        )


def test_imspe_quad_two_dimensional():
    k = Kernel(Family.GAUSS_P2, (0.8, 1.6))
    design = [[0.3, -0.2], [-0.5, 0.6]]
    assert oracle.imspe_quad(k, design) == pytest.approx(
        build_matrices(k, design).imspe, abs=1e-10
    )


def test_imspe_quad_takes_its_entries_from_two_batched_calls(monkeypatch):
    # one border and one body call for the whole matrix, and each entry the
    # lone quadrature's value: the product of one-anchor calls per axis
    kernel = Kernel(Family.MATERN52, (0.7, 3.0, 40.0))
    design = np.random.default_rng(5).uniform(-1, 1, (4, 3))
    lone_border = lambda p: math.prod(
        (oracle.border_1d_quad(kernel.family, float(a), t) for t, a in zip(kernel.theta, p)), start=1.0
    )
    lone_inner = lambda p, q: math.prod(
        (oracle.inner_1d_quad(kernel.family, float(a), float(b), t) for t, a, b in zip(kernel.theta, p, q)),
        start=1.0,
    )
    big_l = oracle._corr_matrix(kernel, design)
    big_r = oracle._fill_bordered(
        np.zeros((5, 5)), 1.0, lambda i: lone_border(design[i]), lambda i, j: lone_inner(design[i], design[j])
    )
    expected = 1.0 - float(np.trace(np.linalg.solve(big_l, big_r)))
    border, inner = lone_border(design[1]), lone_inner(design[1], design[2])
    calls = []
    for name in ("border_1d_quad", "inner_1d_quad"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
    assert oracle.imspe_quad(kernel, design) == expected
    assert calls == ["border_1d_quad", "inner_1d_quad"]
    calls.clear()
    assert oracle.r_border_quad(kernel, design[1]) == border
    assert oracle.r_inner_quad(kernel, design[1], design[2]) == inner
    assert calls == ["border_1d_quad", "inner_1d_quad"]


def test_mspe_grid_quad_agrees_coarsely():
    # brute-force trapezoid average of the pointwise error; slow convergence,
    # so only coarse agreement is expected
    k = Kernel(Family.GAUSS_P2, (1.0,))
    design = [[0.5], [-0.5]]
    brute = oracle.mspe_grid_quad(k, design, n_grid=801)
    assert brute == pytest.approx(build_matrices(k, design).imspe, abs=1e-5)


def test_central_diff_orders():
    f = math.sin
    x = 0.3
    assert oracle.central_diff(f, x, 1, 1e-5) == pytest.approx(math.cos(x), abs=1e-9)
    assert oracle.central_diff(f, x, 2, 1e-4) == pytest.approx(-math.sin(x), abs=1e-6)
    assert oracle.central_diff(f, x, 3, 1e-2) == pytest.approx(-math.cos(x), abs=1e-4)
    assert oracle.central_diff(f, x, 4, 5e-2) == pytest.approx(math.sin(x), abs=1e-3)


def test_richardson_beats_plain_central_difference():
    f = math.exp
    x = 0.7
    plain = abs(oracle.central_diff(f, x, 1, 1e-2) - math.exp(x))
    rich = abs(oracle.richardson_diff(f, x, order=1, h0=1e-2) - math.exp(x))
    assert rich < plain / 100.0
    assert rich < 1e-11


def test_richardson_second_derivative():
    f = lambda x: math.cos(2.0 * x)
    val = oracle.richardson_diff(f, 0.4, order=2, h0=1e-2)
    assert val == pytest.approx(-4.0 * math.cos(0.8), abs=1e-9)


def test_border_quad_tensor_product():
    k = Kernel(Family.EXP_P1, (1.0, 2.0))
    v = oracle.r_border_quad(k, (0.2, -0.3))
    v1 = oracle.border_1d_quad(Family.EXP_P1, 0.2, 1.0)
    v2 = oracle.border_1d_quad(Family.EXP_P1, -0.3, 2.0)
    assert v == pytest.approx(v1 * v2, rel=1e-10)


def _mp_corr(family, theta, r):
    """The four correlations in mpmath, for the reference integrals."""
    r = abs(r)
    if family is Family.EXP_P1:
        return mp.exp(-theta * r)
    if family is Family.GAUSS_P2:
        return mp.exp(-theta * r * r)
    t = mp.sqrt((3 if family is Family.MATERN32 else 5) * theta) * r
    poly = 1 + t if family is Family.MATERN32 else 1 + t + t * t / 3
    return poly * mp.exp(-t)


def test_oracle_within_its_absolute_contract_of_high_precision_integrals():
    # the oracle's contract is absolute, over the whole theta range the closed
    # forms claim: each quadrature at abs_tol = 1e-12 is compared with a
    # 30-digit integral split at the anchors.  Relative errors of tiny entries
    # are larger.  The first case, a steep unit-domain pair at theta = 1168 that
    # is also among the random draws, is one that adaptive Simpson missed by 2.97e-12
    rng = np.random.default_rng(2024)
    worst = 0.0
    with mp.workdps(30):
        a, b, theta = 0.6140793014110142, 0.6337531224057359, 1167.621568653471
        tm = mp.mpf(theta)
        ref = mp.quad(lambda x: mp.exp(-tm * (abs(a - x) + abs(b - x))), [0, a, b, 1])
        worst = max(worst, abs(oracle.unit_inner_1d_quad(a, b, theta) - ref))
        for family in Family:
            for _ in range(8):
                theta = float(10.0 ** rng.uniform(-2.0, 4.0))
                a, b = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
                tm = mp.mpf(theta)
                ref = mp.quad(lambda x: _mp_corr(family, tm, a - x), sorted([-1, a, 1])) / 2
                worst = max(worst, abs(oracle.border_1d_quad(family, a, theta) - ref))
                ref = mp.quad(
                    lambda x: _mp_corr(family, tm, a - x) * _mp_corr(family, tm, b - x),
                    sorted([-1, a, b, 1]),
                ) / 2
                worst = max(worst, abs(oracle.inner_1d_quad(family, a, b, theta) - ref))
        for _ in range(8):
            theta = float(10.0 ** rng.uniform(-2.0, 4.0))
            a, b = (float(v) for v in rng.uniform(0.0, 1.0, 2))
            tm = mp.mpf(theta)
            f1 = lambda x: _mp_corr(Family.EXP_P1, tm, a - x)
            ref = mp.quad(f1, sorted([0, a, 1]))
            worst = max(worst, abs(oracle.unit_border_1d_quad(a, theta) - ref))
            ref = mp.quad(lambda x: f1(x) * _mp_corr(Family.EXP_P1, tm, b - x), sorted([0, a, b, 1]))
            worst = max(worst, abs(oracle.unit_inner_1d_quad(a, b, theta) - ref))
    assert worst <= 1e-12


def test_oracle_samples_a_peak_at_the_panel_end():
    # at theta = 1e4 the exponential border integrand is a spike of width 1e-4
    # at the anchor, which is a panel end: a rule with nodes only inside its
    # panels (Gauss-Kronrod 7/15) misses it whole, 1.0e-4 off
    theta = 1e4
    with mp.workdps(30):
        tm = mp.mpf(theta)
        ref = mp.quad(lambda x: mp.exp(-tm * abs(0.3 - x)), [-1, 0.3, 1]) / 2
    assert abs(oracle.border_1d_quad(Family.EXP_P1, 0.3, theta) - ref) <= oracle._ABS_TOL

"""Closed-form averaged-correlation integrals against the quadrature oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from imspe_kit import Family, Kernel, ValidationError
from imspe_kit import integrals, oracle

RNG = np.random.default_rng(7)

ABS_TOL = 1e-11

unit_coords = st.floats(min_value=0.0, max_value=1.0)
coords = st.floats(min_value=-1.0, max_value=1.0)
thetas = st.floats(min_value=1e-2, max_value=1e2)


def _samples(n=40, lo=-1.0, hi=1.0):
    for _ in range(n):
        theta = float(10.0 ** RNG.uniform(-2, 2))
        a = float(RNG.uniform(lo, hi))
        b = float(RNG.uniform(lo, hi))
        yield theta, a, b


# ---------------------------------------------------------------------------
# single-anchor (border) integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fn,family",
    [
        (integrals.i1, Family.EXP_P1),
        (integrals.i3, Family.GAUSS_P2),
        (integrals.i5, Family.MATERN32),
        (integrals.i7, Family.MATERN52),
    ],
)
def test_border_integrals_match_oracle(fn, family):
    for theta, a, _ in _samples():
        assert fn(a, theta) == pytest.approx(
            oracle.border_1d_quad(family, a, theta), abs=ABS_TOL
        )


def test_unit_border_matches_oracle():
    for theta, a, _ in _samples(lo=0.0):
        assert integrals.j1(a, theta) == pytest.approx(
            oracle.unit_border_1d_quad(a, theta), abs=ABS_TOL
        )


# ---------------------------------------------------------------------------
# pair (inner) integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fn,family",
    [
        (integrals.i2, Family.EXP_P1),
        (integrals.i4, Family.GAUSS_P2),
        (integrals.i6, Family.MATERN32),
        (integrals.i8, Family.MATERN52),
    ],
)
def test_inner_integrals_match_oracle(fn, family):
    for theta, a, b in _samples():
        assert fn(a, b, theta) == pytest.approx(
            oracle.inner_1d_quad(family, a, b, theta), abs=ABS_TOL
        )


def test_unit_inner_matches_oracle():
    for theta, a, b in _samples(lo=0.0):
        assert integrals.j2(a, b, theta) == pytest.approx(
            oracle.unit_inner_1d_quad(a, b, theta), abs=ABS_TOL
        )


@pytest.mark.parametrize(
    "fn,family",
    [
        (integrals.i2, Family.EXP_P1),
        (integrals.i4, Family.GAUSS_P2),
        (integrals.i6, Family.MATERN32),
        (integrals.i8, Family.MATERN52),
    ],
)
@pytest.mark.parametrize(
    "a,b,theta",
    [
        (0.3, 0.3, 1.0),       # coincident anchors
        (0.5, -0.5, 2.0),      # mirror anchors
        (1.0, -1.0, 0.5),      # both endpoints
        (0.999999, 1.0, 50.0), # near-coincident at the boundary, stiff decay
        (0.0, 0.0, 1e-2),      # nearly flat integrand
        (-0.7, 0.2, 100.0),    # sharply peaked at both anchors
    ],
)
def test_inner_integrals_edge_cases(fn, family, a, b, theta):
    assert fn(a, b, theta) == pytest.approx(
        oracle.inner_1d_quad(family, a, b, theta), abs=1e-10
    )


def _mp_matern_rho(order, theta):
    g = mp.sqrt(order * mp.mpf(theta))

    def rho(r):
        t = g * abs(r)
        return (1 + t + (t * t / 3 if order == 5 else 0)) * mp.exp(-t)

    return rho


def _mp_matern_pair(order, a, b, theta):
    """(1/2) * integral of a Matern pair product to 30 digits, split at the anchors."""
    with mp.workdps(30):
        rho = _mp_matern_rho(order, theta)
        knots = sorted({mp.mpf(-1), mp.mpf(a), mp.mpf(b), mp.mpf(1)})
        return mp.quad(lambda x: rho(x - a) * rho(x - b), knots) / 2


def _mp_matern_border(order, a, theta, dps=60):
    """(1/2) * integral of a Matern correlation to ``dps`` digits, split at the anchor."""
    with mp.workdps(dps):
        rho = _mp_matern_rho(order, theta)
        return mp.quad(lambda x: rho(x - a), sorted({mp.mpf(-1), mp.mpf(a), mp.mpf(1)})) / 2


@pytest.mark.parametrize("fn,order", [(integrals.i6, 3), (integrals.i8, 5)])
@pytest.mark.parametrize(
    "a,b,theta",
    [
        (0.9670248270405626, 0.9670248270405626, 2959.3066409872763),  # same anchor, stiff
        (0.999999, 1.0, 1e4),  # near-coincident at the boundary, stiffest theta
        (0.3, -0.4, 1e-300),  # tiny incomplete-gamma arguments
        (-1.0, 1.0, 1e-12),  # empty outer segments, nearly flat integrand
        (0.5, -0.25, 1e-8),
        (-0.9, 0.7, 1.0),
        (0.2, 0.6, 100.0),
    ],
)
def test_matern_pair_integrals_match_30_digit_reference(fn, order, a, b, theta):
    assert abs(fn(a, b, theta) - float(_mp_matern_pair(order, a, b, theta))) <= 1e-14


@pytest.mark.parametrize("fn,order", [(integrals.i5, 3), (integrals.i7, 5)])
@pytest.mark.parametrize("theta", [1e-6, 1e-10])
def test_matern_border_integrals_keep_relative_accuracy_at_small_theta(fn, order, theta):
    # the 1 - e^(-u) form of the hand-written borders was off by 2e-14 and 1.2e-12
    # (3/2), 2.9e-14 and 1.6e-12 (5/2) here
    ref = _mp_matern_border(order, 0.3, theta)
    assert abs(fn(0.3, theta) - ref) <= 1e-15 * ref


def _hand_border(order, a, theta):
    """The hand-algebra Matern borders, an independent reference for the weight table."""
    g = math.sqrt(order * theta)
    up, um = g * (1.0 + a), g * (1.0 - a)
    ep, em = math.exp(-up), math.exp(-um)
    if order == 3:
        return (2.0 * ((1.0 - ep) + (1.0 - em)) - (up * ep + um * em)) / (2.0 * g)
    total = 8.0 * ((1.0 - ep) + (1.0 - em)) - 5.0 * (up * ep + um * em)
    return (total - (up * up * ep + um * um * em)) / (6.0 * g)


def _pair_at_own_inputs(order, a, b, theta):
    """The exact Matern pair integral at the rounded g, s = g (b - a) and lam =
    g (1 + a), g (1 - b) that ``integrals._pair`` computes for a <= b: the pair
    polynomials Q(s) and o_j(s) in their rational coefficients, in 40-digit
    arithmetic, with 40-digit moments m_j(lam)."""
    a, b = min(a, b), max(a, b)
    g = math.sqrt(order * theta)
    with mp.workdps(40):
        s, one = mp.mpf(g * (b - a)), mp.mpf(1)
        if order == 3:  # (1 + u) e^(-u)
            total = s * (1 + s * (1 + s / 6))
            coefs = (1 + s, 2 + s, one)
        else:  # (1 + u + u^2/3) e^(-u)
            total = s * (1 + s * (1 + s * (7 * one / 18 + s * (one / 18 + s / 270))))
            q0, q1 = 1 + s * (1 + s / 3), 1 + s * 2 / 3
            coefs = (q0, q0 + q1, q0 / 3 + q1 + one / 3, (q1 + 1) / 3, one / 9)
        for lam in (g * (1.0 + a), g * (1.0 - b)):
            total += sum(c * m for c, m in zip(coefs, _exp_moments_mp(lam, order - 1)))
        return mp.exp(-s) * total / (2 * g)


#: bound on the Matern pair's rounding at its own inputs, in units u = 2^-53 of
#: its value, per order (see the weight-table test)
_PAIR_ROUNDING = {3: 18, 5: 22}


edge_coords = st.one_of(
    coords,
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-12.0, max_value=-1.0)).map(
        lambda t: t[0] * (1.0 - 10.0 ** t[1])
    ),
)


@settings(max_examples=25, deadline=None)
@given(
    a=edge_coords,
    b=edge_coords,
    theta=st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0 ** e),
)
@example(a=-0.2504086537702238, b=0.9999997290650375, theta=61.50537722421476)
def test_matern_weight_table_no_worse_than_hand_algebra(a, b, theta):
    # against a 60-digit quadrature (mpmath's at 40 digits erred by 1.5e-8 on a
    # middle segment at theta = 876), the borders generated from the weight table
    # are within 4 units of 2^-53 of the hand-written ones' error; on 300 draws the
    # excess was at most 2.1 units.
    #
    # The pairs are held to their exact value at the rounded g, s and lam they
    # compute: against the true integral, that rounding, amplified by e^(-s), is
    # most of the error of any formula (at the example, s = 17, the 3/2 pair is
    # 33 units off the true value and the hand algebra 29.2, but the pair is 0.55
    # units off its own exact value).  Every term of e^(-s) [Q(s) + sum_j o_j(s)
    # (m_j(lam_lo) + m_j(lam_hi))]/(2 g) is positive, so to first order the
    # relative errors, in units u = 2^-53, add up along the longest chain:
    # a coefficient's rounding 1 (the table's are within 0.8 u of 1/6, 7/18,
    # 1/270, ...), 2 per Horner step of an outer o_j of degree d_o, 1 for o_j m_j,
    # 6 for a moment (``test_exp_moments_match_high_precision_reference``), k for
    # adding up the k + 1 terms of an outer sum, 2 for the sums of the bracket,
    # 2 for exp (1 ulp), 1 each for the product with e^(-s) and the division by
    # 2 g: 14 + 2 d_o + k, that is 18 for 3/2 (d_o = 1, k = 2) and 22 for 5/2
    # (d_o = 2, k = 4).  The middle term's chain, 8 + 2 d_Q with d_Q = 2 and 4, is
    # shorter.  On 100,001 random draws (the example, then a and b uniform or
    # within 1e-12 ... 0.1 of an end, log10 theta uniform on [-2, 3]) the largest
    # errors were 5.1 units (3/2) and 6.4 (5/2).
    for fn, inner, order in ((integrals.i5, integrals.i6, 3), (integrals.i7, integrals.i8, 5)):
        ref = _mp_matern_border(order, a, theta)
        slack = 4 * 2.0 ** -53 * ref
        assert abs(fn(a, theta) - ref) <= abs(_hand_border(order, a, theta) - ref) + slack
        exact = _pair_at_own_inputs(order, a, b, theta)
        bound = _PAIR_ROUNDING[order] * 2.0 ** -53 * exact + 2.0 ** -1074
        assert abs(inner(a, b, theta) - exact) <= bound


@settings(max_examples=60, deadline=None)
@given(a=coords, b=coords, theta=thetas)
def test_inner_integrals_symmetric_in_anchors(a, b, theta):
    for fn in (integrals.i2, integrals.i4, integrals.i6, integrals.i8):
        assert fn(a, b, theta) == pytest.approx(fn(b, a, theta), rel=1e-13, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(a=coords, theta=thetas)
def test_border_integrals_even_in_anchor(a, theta):
    for fn in (integrals.i1, integrals.i3, integrals.i5, integrals.i7):
        assert fn(a, theta) == pytest.approx(fn(-a, theta), rel=1e-13, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(a=coords, b=coords, theta=thetas)
def test_integral_bounds(a, b, theta):
    # interval averages of correlations in (0, 1] stay in (0, 1]
    for fn in (integrals.i1, integrals.i3, integrals.i5, integrals.i7):
        assert 0.0 < fn(a, theta) <= 1.0
    for fn in (integrals.i2, integrals.i4, integrals.i6, integrals.i8):
        assert 0.0 < fn(a, b, theta) <= 1.0


def _exp_moments_mp(lam, k):
    """40-digit moments j!/2^(j+1) * P(j + 1, 2 lam), j = 0..k."""
    with mp.workdps(40):
        x = 2 * mp.mpf(lam)
        return [
            mp.factorial(j) / mp.mpf(2) ** (j + 1) * mp.gammainc(j + 1, 0, x, regularized=True)
            for j in range(k + 1)
        ]


@pytest.mark.parametrize("k", [2, 4])
def test_exp_moments_match_high_precision_reference(k):
    # every moment within 6 units of 2^-53 relative (measured on these 503 lam:
    # at most 3.3 for k = 2 and 3.8 for k = 4); the scipy gammainc formula it
    # replaced erred by up to 79 and 89 units on them
    draws = np.exp(RNG.uniform(math.log(1e-6), math.log(500.0), 500))
    lams = [0.0, 1e-300, 1e-20] + draws.tolist()
    table = integrals._exp_moments(lams, k)
    assert len(table) == len(lams)
    for lam, moments in zip(lams, table):
        for m, ref in zip(moments, _exp_moments_mp(lam, k)):
            assert abs(m - ref) <= 6 * 2.0 ** -53 * ref + 2.0 ** -1074, (lam, k, m, ref)


# ---------------------------------------------------------------------------
# dispatch tables and tensor products
# ---------------------------------------------------------------------------

def test_border_dispatch_matches_direct():
    assert integrals.border_1d(Family.MATERN32, 0.4, 2.0) == integrals.i5(0.4, 2.0)
    assert integrals.inner_1d(Family.GAUSS_P2, 0.1, -0.2, 3.0) == integrals.i4(
        0.1, -0.2, 3.0
    )


def test_r_border_r_inner_are_normalized_products():
    # the 1-d integrals are already interval averages, so the tensor elements
    # are plain products across axes
    k = Kernel(Family.MATERN52, (1.5, 0.5))
    xi, xj = (0.2, -0.3), (0.6, 0.1)
    expected_border = integrals.i7(0.2, 1.5) * integrals.i7(-0.3, 0.5)
    assert integrals.r_border(k, xi) == pytest.approx(expected_border, rel=1e-14)
    expected_inner = integrals.i8(0.2, 0.6, 1.5) * integrals.i8(-0.3, 0.1, 0.5)
    assert integrals.r_inner(k, xi, xj) == pytest.approx(expected_inner, rel=1e-14)


def test_unit_domain_products():
    theta = (2.0, 0.8)
    xi, xj = (0.2, 0.9), (0.5, 0.5)
    assert integrals.j_border(theta, xi) == pytest.approx(
        integrals.j1(0.2, 2.0) * integrals.j1(0.9, 0.8), rel=1e-14
    )
    assert integrals.j_inner(theta, xi, xj) == pytest.approx(
        integrals.j2(0.2, 0.5, 2.0) * integrals.j2(0.9, 0.5, 0.8), rel=1e-14
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_bad_theta_rejected():
    for fn in (integrals.i1, integrals.i3, integrals.i5, integrals.i7):
        with pytest.raises(ValidationError):
            fn(0.0, -1.0)


def test_out_of_domain_anchor_rejected():
    with pytest.raises(ValidationError):
        integrals.i1(1.5, 1.0)
    with pytest.raises(ValidationError):
        integrals.j1(-0.1, 1.0)
    with pytest.raises(ValidationError):
        integrals.i4(0.0, math.nan, 1.0)


def test_erf_port_equals_scipy_erf_bit_for_bit():
    # integrals._erf is cephes' erf, which scipy.special.erf evaluates, written
    # on floats; the Gaussian averages rely on it giving scipy's values exactly
    from scipy.special import erf

    rng = np.random.default_rng(11)
    n = 25_000
    draws = [
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-8.0, 8.0, n),
        rng.uniform(-30.0, 30.0, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 3.0, n),
    ]
    edges = [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.0, 26.5, 26.7, 27.0, 28.0, -27.0]
    edges += [math.nextafter(v, t) for v in (1.0, -1.0, 8.0) for t in (-math.inf, math.inf)]
    edges += [1e300, -1e300, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -1e-310, math.nan]
    x = np.concatenate([*draws, edges])
    got = np.array([integrals._erf(v) for v in x.tolist()])
    expected = erf(x)
    assert np.array_equal(np.isnan(got), np.isnan(x))
    finite = ~np.isnan(x)
    assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))

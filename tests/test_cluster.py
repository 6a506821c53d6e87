"""Proximal-pair expansion: coefficient routes, parity, and switchover."""

import pytest

from imspe_kit import (
    Family,
    Kernel,
    ValidationError,
    expansion_gauss,
    expansion_gauss_operator,
    imspe_n2,
    imspe_operator_form,
    imspe_quadratic,
    st_term,
)
from imspe_kit.cluster import border_element
from imspe_kit.imspe import _n2_closed
from test_imspe import _reference

THETA_GRID = (0.5, 1.0, 5.0)
XT_GRID = (0.0, 0.2, 0.5)


# ---------------------------------------------------------------------------
# coefficient routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("x_t", XT_GRID)
def test_hand_and_operator_routes_agree(theta, x_t):
    hand = expansion_gauss(x_t, theta)
    oper = expansion_gauss_operator(x_t, theta)
    assert oper.c0 == pytest.approx(hand.c0, rel=1e-12, abs=1e-14)
    assert oper.c2 == pytest.approx(hand.c2, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("x_t", XT_GRID)
def test_coefficients_match_exact_evaluator(theta, x_t):
    # fit c0 + c2*u + c4*u^2 in u = theta*delta^2 through three small-delta
    # values of the exact operator evaluator; including the quartic term
    # removes its bias from the extracted (c0, c2)
    import numpy as np

    series = expansion_gauss(x_t, theta)
    deltas = (0.005, 0.01, 0.015, 0.02)
    us = np.array([theta * d * d for d in deltas])
    fs = np.array([imspe_operator_form(theta, x_t, d) for d in deltas])
    coeffs = np.polyfit(us, fs, 3)
    c0_fit, c2_fit = coeffs[-1], coeffs[-2]
    assert c0_fit == pytest.approx(series.c0, rel=1e-10)
    assert c2_fit == pytest.approx(series.c2, rel=1e-8)


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("x_t", XT_GRID)
def test_operator_evaluator_matches_direct_solve(theta, x_t):
    kernel = Kernel(Family.GAUSS_P2, (theta,))
    for delta in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        if abs(x_t) + delta > 1.0:
            continue
        direct = imspe_n2(kernel, theta, x_t + delta, x_t - delta)
        assert imspe_operator_form(theta, x_t, delta) == pytest.approx(
            direct, abs=1e-10
        )


def test_operator_evaluator_rejects_zero_delta():
    with pytest.raises(ValidationError):
        imspe_operator_form(1.0, 0.0, 0.0)


def test_operator_evaluator_where_delta_squared_underflows():
    # theta delta^2 rounds to 0: the value is the coincident limit, not 0/0
    for x_t in (0.0, 0.4):
        assert imspe_operator_form(1.0, x_t, 1e-200) == pytest.approx(
            expansion_gauss(x_t, 1.0).c0, rel=1e-14
        )


# ---------------------------------------------------------------------------
# parity and remainder order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("x_t", XT_GRID)
def test_even_in_delta(theta, x_t):
    for delta in (0.05, 0.15, 0.25):
        plus = imspe_operator_form(theta, x_t, delta)
        minus = imspe_operator_form(theta, x_t, -delta)
        assert abs(plus - minus) <= 1e-12


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("x_t", XT_GRID)
def test_quadratic_model_error_is_quartic(theta, x_t):
    # halving delta must shrink the truncation error ~16x
    delta = 0.04
    e1 = abs(imspe_quadratic(theta, x_t, delta) - imspe_operator_form(theta, x_t, delta))
    e2 = abs(
        imspe_quadratic(theta, x_t, delta / 2)
        - imspe_operator_form(theta, x_t, delta / 2)
    )
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0


# ---------------------------------------------------------------------------
# centered second term and switchover
# ---------------------------------------------------------------------------

def test_st_term_negative_on_sample():
    for theta in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert st_term(theta) < 0.0


def test_st_term_is_centered_c2():
    assert st_term(2.5) == expansion_gauss(0.0, 2.5).c2


def test_switchover_continuity():
    # no switch to the quadratic model is left: on both sides of the former
    # threshold sqrt(theta) |delta| = 1e-4, and far below it, the two-point
    # form of the pair x_t +- delta matches a high-precision reference of it
    theta = 1.0
    for delta in (1.01e-4, 0.99e-4, 1e-8, 1e-12):
        x1, x2 = 0.1 + delta, 0.1 - delta
        _, value = _reference(Family.GAUSS_P2, theta, x1, x2)
        assert abs(_n2_closed(Family.GAUSS_P2, theta, x1, x2) - value) <= 1e-15, delta
    # where x_t +- delta round to one point the value is the coincident limit
    assert _n2_closed(Family.GAUSS_P2, theta, 0.1, 0.1) == pytest.approx(
        expansion_gauss(0.1, theta).c0, rel=1e-15
    )


def test_cluster_dispatch_zero_delta_uses_model():
    v = _n2_closed(Family.GAUSS_P2, 1.0, 0.0, 0.0)
    assert v == pytest.approx(expansion_gauss(0.0, 1.0).c0, rel=1e-15)


def test_expansion_validates_inputs():
    with pytest.raises(ValidationError):
        expansion_gauss(1.5, 1.0)
    with pytest.raises(ValidationError):
        expansion_gauss(0.0, -1.0)

"""Correlation-family primitives: values, symmetries, and input validation."""

import math

import pytest
from hypothesis import given, strategies as st

from imspe_kit import FAMILY_NAMES, Family, Kernel, ValidationError, corr_pair
from imspe_kit.kernels import check_point, corr1

ALL_FAMILIES = list(Family)

thetas = st.floats(min_value=1e-2, max_value=1e2)
coords = st.floats(min_value=-1.0, max_value=1.0)


def test_family_names_cover_all_families():
    assert set(FAMILY_NAMES) == {"exp-p1", "matern-3-2", "matern-5-2", "gauss-p2"}
    assert all(FAMILY_NAMES[f.value] is f for f in Family)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_corr1_is_one_at_zero_separation(family):
    assert corr1(family, 3.7, 0.0) == 1.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
@given(theta=thetas, dx=st.floats(min_value=-2.0, max_value=2.0))
def test_corr1_even_bounded_positive(family, theta, dx):
    v = corr1(family, theta, dx)
    assert 0.0 < v <= 1.0
    assert v == corr1(family, theta, -dx)


def test_matern52_corr1_never_rounds_above_one():
    # near t = sqrt(5 theta)|dx| = 2e-8 the product (1 + t + t^2/3) e^(-t)
    # rounds to 1 + 2^-52 unless it is capped
    dxs = [10.0 ** (-9.0 + i / 500.0) for i in range(1000)]
    assert corr1(Family.MATERN52, 83.0, 1e-9) <= 1.0
    assert max(corr1(Family.MATERN52, 1.0, dx) for dx in dxs) <= 1.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_corr1_decreases_with_separation(family):
    seps = [0.0, 0.1, 0.3, 0.7, 1.5, 2.0]
    vals = [corr1(family, 2.0, s) for s in seps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_known_values():
    assert corr1(Family.EXP_P1, 2.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert corr1(Family.GAUSS_P2, 2.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-15)
    t = math.sqrt(3.0 * 2.0) * 0.5
    assert corr1(Family.MATERN32, 2.0, 0.5) == pytest.approx(
        (1.0 + t) * math.exp(-t), rel=1e-15
    )
    t = math.sqrt(5.0 * 2.0) * 0.5
    assert corr1(Family.MATERN52, 2.0, 0.5) == pytest.approx(
        (1.0 + t + t * t / 3.0) * math.exp(-t), rel=1e-15
    )


def test_corr_pair_is_product_across_dimensions():
    k = Kernel(Family.GAUSS_P2, (1.5, 0.25))
    xi, xj = (0.2, -0.4), (-0.1, 0.7)
    expected = corr1(Family.GAUSS_P2, 1.5, 0.3) * corr1(Family.GAUSS_P2, 0.25, -1.1)
    assert corr_pair(k, xi, xj) == pytest.approx(expected, rel=1e-15)


def test_corr_pair_exactly_one_at_coincidence():
    k = Kernel(Family.MATERN52, (1.0, 2.0, 3.0))
    p = (0.123456, -0.5, 0.999)
    assert corr_pair(k, p, p) == 1.0


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
def test_kernel_rejects_bad_theta(theta):
    with pytest.raises(ValidationError):
        Kernel(Family.EXP_P1, (theta,))


def test_kernel_rejects_empty_theta():
    with pytest.raises(ValidationError):
        Kernel(Family.EXP_P1, ())


def test_kernel_dimension_property():
    assert Kernel(Family.GAUSS_P2, (1.0, 2.0)).d == 2


def test_check_point_rejects_out_of_domain():
    with pytest.raises(ValidationError):
        check_point((1.5,), 1)
    with pytest.raises(ValidationError):
        check_point((0.1, 0.2), 1)
    with pytest.raises(ValidationError):
        check_point((math.nan,), 1)
    assert check_point((0.25, -1.0), 2) == (0.25, -1.0)


def test_check_point_custom_interval():
    assert check_point((0.5,), 1, 0.0, 1.0) == (0.5,)
    with pytest.raises(ValidationError):
        check_point((-0.5,), 1, 0.0, 1.0)

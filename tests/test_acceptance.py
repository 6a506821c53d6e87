"""End-to-end acceptance suite.

Each test covers one release gate at its stated tolerance and prints a
single PASS line on success (pytest -v shows the same verdict per test).
Budgeted runtimes are asserted where the gate carries one.
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from imspe_kit import (
    Family,
    Kernel,
    NearSingularError,
    build_matrices,
    build_matrices_unit_exp,
    discontinuity_probe,
    domain_transform,
    envelope_x1,
    expansion_gauss,
    expansion_gauss_operator,
    fig_imspe,
    imspe_operator_form,
    imspe_n2,
    imspe_quadratic,
    log_grid,
    optimize_n1,
    st_term,
    sweep_theta,
)
from imspe_kit.cli import main, run_validation
from imspe_kit.oracle import inverse_sym_3x3, trace_of_product_sym

ALL_FAMILIES = list(Family)

ENVELOPES = {
    Family.EXP_P1: (0.35, 0.60),
    Family.MATERN32: (0.42, 0.59),
    Family.MATERN52: (0.41, 0.58),
    Family.GAUSS_P2: (0.42, 0.58),
}


def _report(name: str) -> None:
    print(f"PASS: {name}")


def test_criterion_01_closed_forms_match_oracle():
    start = time.monotonic()
    rows, ok = run_validation(500)
    elapsed = time.monotonic() - start
    for label, worst, tol, passed in rows:
        assert passed, f"{label}: worst error {worst:.3e} > {tol:.1e}"
    assert ok
    assert elapsed <= 120.0, f"oracle agreement took {elapsed:.1f}s > 2 min"
    _report("criterion 1, closed-form integrals match quadrature oracle")


def test_criterion_02_single_point_optimum_is_centered():
    for family in ALL_FAMILIES:
        for theta in (0.01, 0.1, 1.0, 10.0, 100.0):
            rep = optimize_n1(Kernel(family, (theta,)), theta)
            x_star = rep.design[0][0]
            assert abs(x_star) <= 1e-6, f"{family.value} theta={theta}: x*={x_star}"
            assert all(v > 0 for v in rep.second_order_check), (
                f"{family.value} theta={theta}: curvature {rep.second_order_check}"
            )
    _report("criterion 2, single-point optima centered with positive curvature")


def test_criterion_03_two_point_envelopes():
    start = time.monotonic()
    grid = log_grid(0.01, 100.0, 25)
    for family, (lo_ref, hi_ref) in ENVELOPES.items():
        kernel = Kernel(family, (1.0,))
        reports = sweep_theta(kernel, 2, grid, parallel=4)
        assert all(r.converged for r in reports), f"{family.value}: sweep failures"
        lo, hi = envelope_x1(reports)
        assert abs(lo - lo_ref) <= 0.01, f"{family.value}: envelope min {lo}"
        assert abs(hi - hi_ref) <= 0.01, f"{family.value}: envelope max {hi}"
        for r in reports:
            x1, x2 = r.design[0][0], r.design[1][0]
            assert abs(x1 + x2) <= 1e-5, f"{family.value}: asymmetric {x1}, {x2}"
            assert r.boundary_distance >= 0.05, f"{family.value}: boundary {x1}"
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, f"envelope sweeps took {elapsed:.1f}s > 5 min"
    _report("criterion 3, two-point optimum envelopes over the decay-rate range")


def test_criterion_04_coincident_pair_term_always_negative():
    for theta in log_grid(0.01, 100.0, 200):
        assert st_term(float(theta)) < 0.0, f"theta={theta}"
    # cross-check the centered quadratic coefficient against a derivative
    # extraction from the exact evaluator
    for theta in (0.1, 1.0, 10.0):
        deltas = (0.005, 0.01, 0.015, 0.02)
        us = np.array([theta * d * d for d in deltas])
        fs = np.array([imspe_operator_form(theta, 0.0, d) for d in deltas])
        c2_fd = np.polyfit(us, fs, 3)[-2]
        rel = abs(c2_fd - st_term(theta)) / abs(st_term(theta))
        assert rel <= 1e-6, f"theta={theta}: relative gap {rel:.2e}"
    _report("criterion 4, centered pair coefficient negative on the full grid")


def test_criterion_05_expansion_parity_and_remainder_order():
    for theta in (0.5, 1.0, 5.0):
        for x_t in (0.0, 0.2, 0.5):
            for delta in (0.05, 0.15, 0.25):
                plus = imspe_operator_form(theta, x_t, delta)
                minus = imspe_operator_form(theta, x_t, -delta)
                assert abs(plus - minus) <= 1e-12
            delta = 0.04
            e1 = abs(
                imspe_quadratic(theta, x_t, delta)
                - imspe_operator_form(theta, x_t, delta)
            )
            e2 = abs(
                imspe_quadratic(theta, x_t, delta / 2)
                - imspe_operator_form(theta, x_t, delta / 2)
            )
            ratio = e1 / e2
            assert 12.0 <= ratio <= 20.0, (
                f"theta={theta} x_t={x_t}: halving ratio {ratio:.2f}"
            )
    _report("criterion 5, expansion even in delta with quartic remainder")


def test_criterion_06_three_route_coefficient_agreement():
    for theta in (0.5, 1.0, 5.0):
        for x_t in (0.0, 0.2, 0.5):
            hand = expansion_gauss(x_t, theta)
            oper = expansion_gauss_operator(x_t, theta)
            assert abs(oper.c0 - hand.c0) <= 1e-8 * abs(hand.c0)
            assert abs(oper.c2 - hand.c2) <= 1e-8 * abs(hand.c2)
            deltas = (0.005, 0.01, 0.015, 0.02)
            us = np.array([theta * d * d for d in deltas])
            fs = np.array([imspe_operator_form(theta, x_t, d) for d in deltas])
            coeffs = np.polyfit(us, fs, 3)
            assert abs(coeffs[-1] - hand.c0) <= 1e-8 * abs(hand.c0)
            assert abs(coeffs[-2] - hand.c2) <= 1e-8 * abs(hand.c2)
            kernel = Kernel(Family.GAUSS_P2, (theta,))
            for delta in (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3):
                if abs(x_t) + delta > 1.0:
                    continue
                direct = imspe_n2(kernel, theta, x_t + delta, x_t - delta)
                gap = abs(imspe_operator_form(theta, x_t, delta) - direct)
                assert gap <= 1e-10, (
                    f"theta={theta} x_t={x_t} delta={delta}: gap {gap:.2e}"
                )
    _report("criterion 6, three coefficient routes and exact evaluator agree")


def test_criterion_07_matrix_identity_suite():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for _ in range(20):
            a = rng.standard_normal((n, n))
            a = a + a.T
            b = rng.standard_normal((n, n))
            b = b + b.T
            gap = abs(trace_of_product_sym(a, b) - float(np.trace(a @ b)))
            assert gap <= 1e-12 * max(1.0, abs(float(np.trace(a @ b))))
    for family in ALL_FAMILIES:
        kernel = Kernel(family, (1.7,))
        mats = build_matrices(kernel, [[0.55], [-0.35]])
        via_adjugate = 1.0 - trace_of_product_sym(inverse_sym_3x3(mats.L), mats.R)
        assert abs(via_adjugate - mats.imspe) <= 1e-12
        assert np.max(np.abs(inverse_sym_3x3(mats.L) - np.linalg.inv(mats.L))) <= 1e-12
    _report("criterion 7, trace identity and 3x3 adjugate inverse")


def test_criterion_08_domain_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = float(10.0 ** rng.uniform(-2.0, 2.0))
        x = float(rng.uniform(-1.0, 1.0))
        kernel = Kernel(Family.EXP_P1, (theta,))
        base = build_matrices(kernel, [[x]]).imspe
        t2, x2 = domain_transform(theta, x, (-1.0, 1.0), (0.0, 1.0))
        unit = build_matrices_unit_exp((t2,), [[x2]]).imspe
        assert abs(unit - base) <= 1e-12, f"theta={theta} x={x}: gap {unit - base}"
        t3, x3 = domain_transform(t2, x2, (0.0, 1.0), (-1.0, 1.0))
        assert abs(t3 - theta) <= 1e-12 * theta
        assert abs(x3 - x) <= 1e-12
    _report("criterion 8, criterion invariant under affine domain rescaling")


def test_criterion_09_constrained_scenario_slice_and_probe():
    start = time.monotonic()
    ts = np.linspace(-1.0, 1.0, 201)

    def safe(t):
        try:
            return fig_imspe(float(t), 0.0)
        except NearSingularError:
            return math.nan  # coincident free pair at t = 0

    vals = np.array([safe(t) for t in ts])
    # interior local minima of the abscissa slice
    minima = [
        float(ts[i])
        for i in range(1, 200)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    ]
    inner = sorted(t for t in minima if abs(t) < 0.6)
    assert len(inner) == 2, f"expected a symmetric inner pair, got {minima}"
    from scipy.optimize import minimize_scalar

    for t0 in inner:
        res = minimize_scalar(
            lambda t: fig_imspe(t, 0.0), bounds=(t0 - 0.02, t0 + 0.02), method="bounded"
        )
        assert abs(abs(res.x) - 0.3675) <= 2e-3, f"refined minimum at {res.x}"
    h_seq = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 1e-4, 1e-5)
    probe = discontinuity_probe(fig_imspe, (0.0, 0.0), ((1, 0), (0, 1)), h_seq)
    assert probe.max_gap > 10.0 * max(probe.residuals), (
        f"gap {probe.max_gap:.2e} vs residuals {probe.residuals}"
    )
    smooth = discontinuity_probe(fig_imspe, (0.5, 0.3), ((1, 0), (0, 1)), h_seq)
    assert smooth.max_gap <= 10.0 * max(max(smooth.residuals), 1e-12), (
        "false discontinuity flagged at a smooth point"
    )
    elapsed = time.monotonic() - start
    assert elapsed <= 180.0, f"scenario checks took {elapsed:.1f}s > 3 min"
    _report("criterion 9, scenario slice minima and directional-limit probe")


def _capture(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_10_byte_identical_outputs():
    validate = ["validate", "--samples", "60"]
    code_a, out_a = _capture(validate)
    code_b, out_b = _capture(validate)
    assert code_a == code_b == 0
    assert out_a == out_b

    sweep = [
        "sweep",
        "--kernel", "matern-3-2",
        "--theta", "1",
        "--n", "2",
        "--theta-grid", "0.1:10:5log",
    ]
    outs = []
    for degree in ("1", "8", "1"):
        code, out = _capture(sweep + ["--parallel", degree])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]

    scan = [
        "scan",
        "--mode", "n2",
        "--kernel", "gauss-p2",
        "--theta", "2",
        "--grid=-0.8:0.8:5",
    ]
    outs = []
    for degree in ("1", "8", "1"):
        code, out = _capture(scan + ["--parallel", degree])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    _report("criterion 10, byte-identical outputs across runs and parallelism")

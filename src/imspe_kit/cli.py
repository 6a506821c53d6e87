"""Deterministic command-line surface for the criterion library.

Subcommands: eval, optimize, sweep, scan, expand, probe, validate.  All
output is reproducible byte-for-byte: no randomness without a fixed seed,
no locale- or time-dependent formatting, and scan/sweep rows are assembled
in grid order regardless of the parallelism degree.

Exit codes: 0 success, 2 usage or argument validation, 3 singular design,
4 solver failure, 5 validation-suite tolerance breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import integrals, oracle
from .cluster import expansion_gauss, st_term
from .errors import (
    ImspeKitError,
    NearSingularError,
    QuadratureError,
    SolveError,
    ValidationError,
)
from .imspe import build_matrices
from .kernels import FAMILY_NAMES, Family, Kernel
from .optimize import (
    discontinuity_probe,
    fig_design,
    fig_imspe,
    fig_kernel,
    log_grid,
    optimize_n1,
    optimize_n2,
    scan_surface,
    sweep_theta,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_SOLVER = 4
EXIT_VALIDATION = 5

SCAN_HEADER = "# imspe-kit scan v1"
SWEEP_HEADER = "# imspe-kit sweep v1"


def _fmt(x: float) -> str:
    """17-significant-digit float formatting (round-trip safe)."""
    return format(float(x), ".17g")


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {what}: {text!r}") from exc


def _parse_points(text: str, d: int) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            coords = [float(v) for v in chunk.split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad point: {chunk!r}") from exc
        if len(coords) != d:
            raise ValidationError(
                f"point {chunk!r} has {len(coords)} coordinates, expected {d}"
            )
        pts.append(coords)
    if not pts:
        raise ValidationError("no points given")
    return np.asarray(pts)


def _parse_theta_grid(text: str) -> np.ndarray:
    """Grid spec lo:hi:N or lo:hi:Nlog (inclusive endpoints)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"bad grid spec: {text!r} (want lo:hi:N or lo:hi:Nlog)")
    lo_s, hi_s, n_s = parts
    log_scale = n_s.endswith("log")
    if log_scale:
        n_s = n_s[:-3]
    try:
        lo, hi, num = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ValidationError(f"bad grid spec: {text!r}") from exc
    if num < 2 or hi <= lo or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"bad grid spec: {text!r}")
    if log_scale:
        return log_grid(lo, hi, num)
    return np.linspace(lo, hi, num)


def _kernel_from_args(args) -> Kernel:
    family = FAMILY_NAMES.get(args.kernel)
    if family is None:
        raise ValidationError(
            f"unknown kernel {args.kernel!r}; choose from {sorted(FAMILY_NAMES)}"
        )
    if args.theta is None:
        raise ValidationError("--theta is required")
    return Kernel(family, _parse_floats(args.theta, "theta list"))


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, allow_nan=False, separators=(", ", ": ")) + "\n"


def _report_to_dict(report) -> dict:
    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return "singular"
        return v

    return {
        "design": [[clean(c) for c in p] for p in report.design],
        "imspe": clean(report.imspe_value),
        "converged": report.converged,
        "gradient_norm": clean(report.gradient_norm),
        "second_order_check": [clean(v) for v in report.second_order_check],
        "boundary_distance": clean(report.boundary_distance),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    kernel = _kernel_from_args(args)
    pts = _parse_points(args.points, kernel.d)
    result = build_matrices(kernel, pts)
    record = {
        "imspe": result.imspe,
        "n": int(pts.shape[0]),
        "d": kernel.d,
        "kernel": kernel.family.value,
        "theta": list(kernel.theta),
        "points": [list(p) for p in pts],
        "condition_estimate": result.cond_estimate,
    }
    _emit(args, _json_dumps(record))
    return EXIT_OK


def cmd_optimize(args) -> int:
    kernel = _kernel_from_args(args)
    if kernel.d != 1:
        raise ValidationError("optimize supports d = 1")
    theta = kernel.theta[0]
    if args.n == 1:
        report = optimize_n1(kernel, theta)
    else:
        constraint = "symmetric_pair" if args.symmetric else None
        report = optimize_n2(kernel, theta, constraint=constraint, tol_x=args.tol_x)
    record = {"kernel": kernel.family.value, "theta": theta, "n": args.n}
    record.update(_report_to_dict(report))
    _emit(args, _json_dumps(record))
    return EXIT_OK


def cmd_sweep(args) -> int:
    kernel = _kernel_from_args(args)
    if kernel.d != 1:
        raise ValidationError("sweep supports d = 1")
    grid = _parse_theta_grid(args.theta_grid)
    if grid[0] <= 0.0:
        raise ValidationError(f"decay rates must be positive: {args.theta_grid!r}")
    reports = sweep_theta(kernel, args.n, grid, parallel=args.parallel)
    lines = [SWEEP_HEADER, "theta,x1,x2,imspe,converged"]
    xs = []
    for t, rep in zip(grid, reports):
        if args.n == 1:
            x1 = rep.design[0][0]
            x2 = math.nan
        else:
            a, b = rep.design[0][0], rep.design[1][0]
            x1, x2 = max(a, b), min(a, b)
        ok = rep.converged and math.isfinite(rep.imspe_value)
        if ok:
            xs.append(x1)
        lines.append(
            ",".join(
                [
                    _fmt(t),
                    _fmt(x1) if math.isfinite(x1) else "failed",
                    _fmt(x2) if math.isfinite(x2) else ("" if args.n == 1 else "failed"),
                    _fmt(rep.imspe_value) if math.isfinite(rep.imspe_value) else "failed",
                    "1" if ok else "0",
                ]
            )
        )
    if xs:
        lines.append("envelope," + _fmt(min(xs)) + "," + _fmt(max(xs)) + ",,")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.mode in ("n1", "n2"):
        kernel = _kernel_from_args(args)
        if kernel.d != 1:
            raise ValidationError(f"scan mode {args.mode} supports d = 1")
        axis = _parse_theta_grid(args.grid)
        if args.mode == "n1":
            axes = [axis]
            builder = lambda c: np.array([[c[0]]])
            names = ["x1"]
        else:
            axes = [axis, axis]
            builder = lambda c: np.array([[c[0]], [c[1]]])
            names = ["x1", "x2"]
    elif args.mode in ("fig", "fig-slice"):
        kernel = fig_kernel()
        axis = _parse_theta_grid(args.grid)
        if args.mode == "fig":
            axes = [axis, axis]
            builder = lambda c: fig_design(c)
            names = ["x31", "x32"]
        else:
            axes = [axis]
            builder = lambda c: fig_design((c[0], 0.0))
            names = ["x31"]
    else:
        raise ValidationError(f"unknown scan mode {args.mode!r}")
    rows = scan_surface(kernel, axes, builder, parallel=args.parallel)
    lines = [SCAN_HEADER, ",".join(names) + ",imspe"]
    for row in rows:
        coords, value = row[:-1], row[-1]
        cell = "singular" if value is None else _fmt(value)
        lines.append(",".join(_fmt(c) for c in coords) + "," + cell)
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_expand(args) -> int:
    series = expansion_gauss(args.xt, args.theta)
    record = {
        "theta": args.theta,
        "xt": args.xt,
        "c0": series.c0,
        "c2": series.c2,
        "st_term": st_term(args.theta),
        "remainder_order": series.remainder_order,
    }
    _emit(args, _json_dumps(record))
    return EXIT_OK


def cmd_probe(args) -> int:
    center = _parse_points(args.center, 2)
    if len(center) != 1:
        raise ValidationError("probe center must be a single point")
    directions = _parse_points(args.directions, 2)
    h_sequence = _parse_floats(args.h_sequence, "step list")
    report = discontinuity_probe(fig_imspe, center[0], directions, h_sequence)
    record = {
        "center": list(report.center),
        "directions": [list(d) for d in report.directions],
        "limits": list(report.limits),
        "residuals": list(report.residuals),
        "max_gap": report.max_gap,
        "values": [
            ["singular" if v is None else v for v in vals] for vals in report.values
        ],
    }
    _emit(args, _json_dumps(record))
    return EXIT_OK


#: label, family argument, lower end of the anchor domain (the upper end is
#: 1), number of anchors, closed form in ``integrals``, quadrature in ``oracle``
_VALIDATE_CASES = (
    ("single-anchor exp", (Family.EXP_P1,), -1.0, 1, "border_1d", "border_1d_quad"),
    ("pair exp", (Family.EXP_P1,), -1.0, 2, "inner_1d", "inner_1d_quad"),
    ("single-anchor gauss", (Family.GAUSS_P2,), -1.0, 1, "border_1d", "border_1d_quad"),
    ("pair gauss", (Family.GAUSS_P2,), -1.0, 2, "inner_1d", "inner_1d_quad"),
    ("single-anchor matern-3-2", (Family.MATERN32,), -1.0, 1, "border_1d", "border_1d_quad"),
    ("pair matern-3-2", (Family.MATERN32,), -1.0, 2, "inner_1d", "inner_1d_quad"),
    ("single-anchor matern-5-2", (Family.MATERN52,), -1.0, 1, "border_1d", "border_1d_quad"),
    ("pair matern-5-2", (Family.MATERN52,), -1.0, 2, "inner_1d", "inner_1d_quad"),
    ("unit-domain single-anchor exp", (), 0.0, 1, "j1", "unit_border_1d_quad"),
    ("unit-domain pair exp", (), 0.0, 2, "j2", "unit_inner_1d_quad"),
)


def run_validation(samples: int, *, abs_tol: float = 1e-9) -> tuple[list[tuple], bool]:
    """Closed-form vs quadrature agreement over log-uniform random draws.

    Returns per-case worst-error rows and an overall pass flag.  The random
    stream is fixed-seed, so the run is reproducible.  ``samples`` must be
    at least 1, so that a pass rests on comparisons.
    """
    if samples < 1:
        raise ValidationError(f"samples = {samples} must be at least 1")
    rng = np.random.default_rng(20240817)
    rows = []
    ok = True
    for label, family, lo, n_anchors, closed_name, ref_name in _VALIDATE_CASES:
        closed, ref = getattr(integrals, closed_name), getattr(oracle, ref_name)
        worst = 0.0
        for _ in range(samples):
            theta = float(10.0 ** rng.uniform(-2.0, 2.0))
            anchors = [float(rng.uniform(lo, 1.0)) for _ in range(n_anchors)]
            err = abs(closed(*family, *anchors, theta) - ref(*family, *anchors, theta))
            worst = max(worst, err)
        passed = worst <= abs_tol
        ok = ok and passed
        rows.append((label, worst, abs_tol, passed))
    return rows, ok


def cmd_validate(args) -> int:
    samples = 60 if args.quick else args.samples
    try:
        rows, ok = run_validation(samples)
    except QuadratureError as exc:
        sys.stderr.write(f"quadrature failure during validation: {exc}\n")
        return EXIT_VALIDATION
    lines = ["case,worst_abs_error,tolerance,pass"]
    for label, worst, tol, passed in rows:
        lines.append(f"{label},{_fmt(worst)},{_fmt(tol)},{'1' if passed else '0'}")
    lines.append(f"overall,{'pass' if ok else 'FAIL'},,")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imspe-kit",
        description="Integrated mean-squared prediction error of kriging designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kernel=True):
        if kernel:
            p.add_argument("--kernel", required=True, help="correlation family name")
            p.add_argument("--theta", required=True, help="comma-separated decay rates")
        p.add_argument("--output", help="write output to this file instead of stdout")

    p = sub.add_parser("eval", help="criterion of an explicit design")
    add_common(p)
    p.add_argument("--points", required=True, help="semicolon-separated points")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("optimize", help="optimal one- or two-point design")
    add_common(p)
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--symmetric", action="store_true", help="restrict to x2 = -x1")
    p.add_argument("--tol-x", type=float, default=1e-8, help="two-point search tolerance")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="optimal designs over a theta grid")
    add_common(p)
    p.add_argument("--n", type=int, choices=(1, 2), default=2)
    p.add_argument("--theta-grid", required=True, help="lo:hi:N or lo:hi:Nlog")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scan", help="criterion raster over a grid")
    p.add_argument("--mode", choices=("n1", "n2", "fig", "fig-slice"), required=True)
    p.add_argument("--kernel", help="correlation family (modes n1, n2)")
    p.add_argument("--theta", help="decay rate (modes n1, n2)")
    p.add_argument("--grid", required=True, help="lo:hi:N per free axis")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("expand", help="proximal-pair expansion coefficients")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--xt", type=float, default=0.0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("probe", help="directional-limit probe of the demo scenario")
    p.add_argument("--center", default="0,0")
    p.add_argument("--directions", default="1,0;0,1")
    p.add_argument(
        "--h-sequence", default="0.1,0.05,0.02,0.01,0.005,0.002,0.001,0.0001,0.00001"
    )
    p.add_argument("--output")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("validate", help="closed-form vs quadrature agreement suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--output")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NearSingularError as exc:
        sys.stderr.write(f"singular design: {exc}\n")
        return EXIT_SINGULAR
    except SolveError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except ImspeKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

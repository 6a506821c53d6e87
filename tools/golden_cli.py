"""Record the output of a fixed list of CLI commands, for a golden diff.

Each command runs in process through ``imspe_kit.cli.main``; its exit code
and standard output go to ``OUT/<n>.txt`` (n = 1 ... 56, in list order).
Record two checkouts and compare them:

    python tools/golden_cli.py /tmp/golden-new
    python tools/golden_cli.py /tmp/golden-old --src ../old-checkout/src
    diff -r /tmp/golden-old /tmp/golden-new

``--src`` selects the package to import (default: ``src/`` next to this
script), so the script also records checkouts that do not contain it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

FAMILIES = ("exp-p1", "matern-3-2", "matern-5-2", "gauss-p2")
POINTS_3D = "0.1,0.2,-0.3;0.5,-0.6,0.7;-0.8,0.9,0.05;0.3,0.3,0.3"


def commands() -> list[list[str]]:
    """The 56 commands: nine per family, the scenario, probe and validate,
    two-point searches at decay rates where the criterion rounds to a constant,
    one-point optima at large decay rates, exp/gauss symmetric searches at
    theta = 0.01, where the theta-only part C(theta) of the two-point
    criterion is -248 (exp) and -22 (gauss) against a criterion near 0,
    a validate whose cases each fill more than one quadrature batch, and
    Matern symmetric searches at theta = 1e-4, where the criterion is near 1e-6
    (3/2) and 1e-8 (5/2), and Matern evaluations of a separated pair at decay
    rates where the criterion is 3/2 and e^(-u) underflows in the pair integral,
    and a scenario slice whose midpoint, -1.1e-16, the solve path refuses
    (it prints ``singular``) and whose nodes at +-0.772 are one design with the
    free pair listed in either order."""
    out = []
    for fam in FAMILIES:
        k = ["--kernel", fam]
        # the symmetric search runs where each family's criterion is hardest:
        # at theta = 30 exp/gauss are flat to double precision around the
        # optimum, at 0.01 the Matern basin is flat
        sym_theta = "30" if fam in ("exp-p1", "gauss-p2") else "0.01"
        out += [
            ["eval", *k, "--theta", "1.5,0.7,3", "--points", POINTS_3D],
            ["eval", *k, "--theta", "3000", "--points", "0.9;0.95"],
            ["scan", "--mode", "n1", *k, "--theta", "1", "--grid=-1:1:21"],
            ["scan", "--mode", "n2", *k, "--theta", "1", "--grid=-1:1:21"],
            ["scan", "--mode", "n2", *k, "--theta", "300", "--grid=-1:1:21"],
            ["sweep", *k, "--theta", "1", "--n", "2", "--theta-grid", "0.1:50:6log"],
            ["optimize", *k, "--theta", "0.7", "--n", "1"],
            ["optimize", *k, "--theta", "30", "--n", "2"],
            ["optimize", *k, "--theta", sym_theta, "--n", "2", "--symmetric"],
        ]
    out += [
        ["scan", "--mode", "fig", "--grid=-1:1:21"],
        ["scan", "--mode", "fig-slice", "--grid=-1:1:101"],
        ["probe"],
        ["probe", "--directions", "1,0;0,1;0.6,0.8"],
        ["validate", "--samples", "40"],
    ]
    for fam in ("exp-p1", "gauss-p2"):
        opt = ["optimize", "--kernel", fam, "--theta", "1000", "--n", "2"]
        out += [opt, [*opt, "--symmetric"]]
    out.append(
        ["optimize", "--kernel", "matern-3-2", "--theta", "10000", "--n", "2", "--symmetric"]
    )
    out += [
        ["optimize", "--kernel", "exp-p1", "--theta", "10000", "--n", "1"],
        ["sweep", "--kernel", "gauss-p2", "--theta", "1", "--n", "1"]
        + ["--theta-grid", "1:10000:5log"],
    ]
    for fam in ("exp-p1", "gauss-p2"):
        out.append(["optimize", "--kernel", fam, "--theta", "0.01", "--n", "2", "--symmetric"])
    out.append(["validate", "--samples", "200"])
    for fam in ("matern-3-2", "matern-5-2"):
        out.append(["optimize", "--kernel", fam, "--theta", "0.0001", "--n", "2", "--symmetric"])
    for fam, theta in (("matern-5-2", "1e150"), ("matern-3-2", "1e307")):
        out.append(["eval", "--kernel", fam, "--theta", theta, "--points", "0.3;-0.2"])
    out.append(["scan", "--mode", "fig-slice", "--grid=-0.965:0.965:101"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the <n>.txt files")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from imspe_kit import cli

    args.out.mkdir(parents=True, exist_ok=True)
    for n, cmd in enumerate(commands(), start=1):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(cmd)
            except Exception as exc:  # record an uncaught error instead of stopping
                code = f"uncaught {type(exc).__name__}: {exc}"
        text = f"$ imspe-kit {' '.join(cmd)}\nexit {code}\n{buf.getvalue()}"
        (args.out / f"{n}.txt").write_text(text, encoding="utf-8")
        print(f"{n:2d} exit {code}  {' '.join(cmd)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

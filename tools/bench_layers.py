"""Per-layer timings of two checkouts, measured in fresh processes.

Compares an old and a new checkout (each a directory holding ``src/`` and
``perfbench/``).  Every round runs one fresh measuring process per checkout,
alternating which goes first, and the report gives each number's median and
range over the rounds, and marks a row ``unresolved`` when the two ranges
overlap:

    python tools/bench_layers.py --old ../parent --new . --rounds 5 \\
        --tier1 2 --e2e search-n2:31-40 --e2e raster:31-33 --out BENCH.json

Layer numbers (one process per checkout and round):

* microseconds per ``imspe._n2_closed`` and ``imspe._n2_residual`` call at
  theta in {0.01, 1, 100}, and for the Matern families also at 1e-4 and 0.1,
  over 3000 fresh random pairs (|x1 - x2| > 1e-3), over 3000 near pairs
  (|x1 - x2| from 1e-4 to 1e-2, suffix ``.near``) and over 3000 close pairs
  (|x1 - x2| from 1e-9 to 1e-6, suffix ``.close``), with the number of pairs
  each refuses;
* incomplete-gamma calls, and the values they take, per Matern
  ``imspe_n2`` evaluation: of ``integrals.gammainc`` where the checkout has
  it (scipy's, one array call per axis), else of ``integrals._gamma_p``
  (one call per moment set);
* ``build_matrices`` time of a Matern n = 2 raster node (theta = 1) and of a
  random n = 200, d = 3 design at theta = (2, 5, 10), and microseconds per
  Matern ``integrals.border_1d`` and ``inner_1d`` call at theta in
  {1e-4, 1, 100};
* one free ``optimize_n2`` search per family at theta = 1, and one
  ``symmetric_pair`` search per family at theta in {0.01, 1, 100}: its
  latency and its objective (``_n2_residual``) calls;
* in-process wall time of the golden ``sweep --n 2`` commands;
* microseconds per quadrature-oracle ``border_1d_quad`` (anchor 0.3) and
  ``inner_1d_quad`` (anchors 0.3, -0.4) per family at theta in
  {0.01, 1, 100}, and the in-process wall time of ``validate --samples N``
  for N in {9, 13, 17, 40, 500}, each with the number of integrand values
  it takes from ``oracle.corr1`` (suffix ``.corr1_values``);
* the tracemalloc peak of one in-process ``validate`` request at 13 and at
  500 samples;
* microseconds per call of the float erf of the Gaussian averages:
  ``integrals._erf`` where the checkout has it, else ``scipy.special.erf``;
* in a fresh process that imports ``imspe_kit.cli`` and runs one
  ``symmetric_pair`` search: its ``ru_maxrss``, and whether it loaded
  ``scipy.optimize``;
* wall time of a fresh ``python -m imspe_kit.cli optimize --kernel gauss-p2
  --theta 1 --n 2 --symmetric`` process;
* start-up, in a fresh process: wall time and ``ru_maxrss`` of
  ``import imspe_kit.cli``, ``ru_maxrss`` after one ``symmetric_pair``
  search per family, whether ``numpy`` is loaded after the import and after
  the searches, and whether ``scipy.special`` is loaded after the import,
  after the searches and after a Gaussian ``build_matrices``;
* ``ru_maxrss`` of a fresh process that imports ``imspe_kit.cli`` and runs
  ``validate --samples 17``, or ``scan --mode fig``, and whether that loaded
  ``scipy.special``.

``--tier1 K`` adds K alternating tier-1 wall times per checkout, and
``--e2e WORKLOAD:SEEDS`` adds alternating 25-second perfbench runs, one pair
per seed (``31-40`` or ``1,4,9``).  The per-request ``_n2_residual`` counts of
one search-n2 pass (perfbench seed ``[1, 0]``) and the non-blank lines of each
module of ``src/imspe_kit`` (``src.lines.*``, as perfbench counts them) are
counts and are taken once per checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SWEEP_N2 = ["--theta", "1", "--n", "2", "--theta-grid", "0.1:50:6log"]
FAMILIES = ("exp-p1", "matern-3-2", "matern-5-2", "gauss-p2")
SYMMETRIC_CLI = ["optimize", "--kernel", "gauss-p2", "--theta", "1", "--n", "2", "--symmetric"]
VALIDATE_SAMPLES = (9, 13, 17, 40, 500)
E2E_METRICS = ("setup_s", "ops_per_s", "req_p50_ms", "req_tail_ms", "peak_rss_mb")
METHOD = {
    "layers": "one fresh process per checkout and round, alternating which runs first; "
    "each number is the smallest of several repeats inside the process; median and range "
    "over the rounds",
    "n2_eval": "_n2_closed / _n2_residual(family, theta, x1, x2), theta in {0.01, 1, 100} "
    "and for the Matern families also {1e-4, 0.1}, over 3000 random pairs (numpy seed 5, "
    "|x1 - x2| > 1e-3), suffix .near, 3000 near pairs (x1 uniform on [-0.98, 0.98], "
    "|x1 - x2| log-uniform on [1e-4, 1e-2]) and, suffix .close, 3000 close pairs (the same "
    "x1, |x1 - x2| log-uniform on [1e-9, 1e-6]); smallest of 5 repeats, each call inside a "
    "try that counts the ImspeKitError refusals (n2_refused.*)",
    "gammainc": "incomplete-gamma calls (and values passed) during one _n2_closed(family, "
    "2, 0.41, -0.37): integrals.gammainc where the checkout has it, else integrals._gamma_p",
    "build_matrices": "n2_node: 500 pairs of those, theta = 1, smallest of 5; n200_d3: "
    "uniform design (numpy seed 3), theta = (2, 5, 10), smallest of 3",
    "matern_1d": "integrals.border_1d(family, a, theta) and inner_1d(family, a, b, theta) over "
    "the same 500 pairs, theta in {1e-4, 1, 100}, smallest of 5",
    "unresolved": "a layer row whose parent and change ranges over the rounds overlap",
    "free_search": "optimize_n2(Kernel(family, (1,)), 1), smallest of 3",
    "symmetric_search": "optimize_n2(Kernel(family, (theta,)), theta, "
    "constraint='symmetric_pair'), smallest of 20",
    "symmetric_search_calls": "calls of optimize._n2_residual during one such search",
    "symmetric_search_rss": "a fresh process imports imspe_kit.cli, runs optimize_n2("
    "Kernel(gauss-p2, (1,)), 1, constraint='symmetric_pair') and reports ru_maxrss / 1024 "
    "and 'scipy.optimize' in sys.modules (1 or 0)",
    "symmetric_cli_wall": "wall time of a fresh 'python -m imspe_kit.cli "
    + " ".join(SYMMETRIC_CLI) + "' process, timed by the parent process",
    "startup": "a fresh process times 'import imspe_kit.cli' (perf_counter) and reads "
    "ru_maxrss / 1024 after it, then runs optimize_n2(Kernel(family, (1,)), 1, "
    "constraint='symmetric_pair') for each family and reads ru_maxrss / 1024 again; reports "
    "'numpy' in sys.modules (1 or 0) after the import and after the searches, and "
    "'scipy.special' in sys.modules after the import, after the searches and after "
    "build_matrices(Kernel(gauss-p2, (1, 2)), 5 uniform points, numpy seed 0)",
    "golden_sweep_n2": "in-process cli.main of the tools/golden_cli.py 'sweep --n 2' command, "
    "smallest of 3",
    "oracle": "border_1d_quad(family, 0.3, theta) and inner_1d_quad(family, 0.3, -0.4, theta), "
    "theta in {0.01, 1, 100}, smallest of 10; validate_N: in-process cli.main(['validate', "
    "'--samples', 'N']), smallest of 5 (of 2 for N = 500); suffix .corr1_values: the sum of "
    "numpy.size of the coordinate argument over the oracle.corr1 calls of one such call, "
    "one value per quadrature node and anchor (a node of a two-anchor integral takes two)",
    "validate_tracemalloc": "tracemalloc peak of one in-process validate request, tracing "
    "started after a warm-up request",
    "erf": "one call per value of 10,000 uniform draws on [-3, 3] (numpy seed 9) of "
    "integrals._erf, or of scipy.special.erf on a float where the checkout has no _erf, "
    "smallest of 5",
    "command_rss": "a fresh process imports imspe_kit.cli, runs cli.main on the command and "
    "reports ru_maxrss / 1024 and 'scipy.special' in sys.modules (1 or 0)",
    "n2_residual_calls_per_request": "calls of optimize._n2_residual per request of one "
    "search-n2 pass, perfbench SearchN2().make_pass(numpy.random.default_rng([1, 0]))",
    "tier1": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors, wall time "
    "of the whole command, alternating",
    "end_to_end": "python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0 in "
    "each checkout, alternating which runs first; quartiles inclusive; change_better_pairs "
    "counts the pairs where the change is better",
}


def _best(fn, repeat):
    """Smallest wall time of ``repeat`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _corr1_values(oracle, fn) -> int:
    """Integrand values one call of ``fn`` takes from ``oracle.corr1``."""
    import numpy as np

    real, sizes = oracle.corr1, []
    oracle.corr1 = lambda family, theta, dx, *rest: sizes.append(np.size(dx)) or real(family, theta, dx, *rest)
    try:
        fn()
    finally:
        oracle.corr1 = real
    return sum(sizes)


def measure_layers() -> dict:
    """The layer numbers of the package on ``sys.path`` (run in a fresh process)."""
    import numpy as np

    from imspe_kit import Family, ImspeKitError, Kernel, build_matrices, cli, integrals, oracle
    from imspe_kit import optimize, optimize_n2
    from imspe_kit.imspe import _n2_closed, _n2_residual

    rng = np.random.default_rng(5)
    pairs = [p for p in rng.uniform(-1, 1, (4000, 2)).tolist() if abs(p[0] - p[1]) > 1e-3][:3000]
    sign = rng.choice([-1.0, 1.0], 3000)
    starts = rng.uniform(-0.98, 0.98, 3000).tolist()
    near = [(a, a + g) for a, g in zip(starts, (sign * 10.0 ** rng.uniform(-4, -2, 3000)).tolist())]
    gaps = sign * 10.0 ** rng.uniform(-9, -6, 3000)
    close = [(a, a + g) for a, g in zip(starts, gaps.tolist())]
    out = {}

    def refusals(fn, fam, theta, ps):
        refused = 0
        for a, b in ps:
            try:
                fn(fam, theta, a, b)
            except ImspeKitError:
                refused += 1
        return refused

    for fam in map(Family, FAMILIES):
        thetas = (0.01, 1.0, 100.0) + ((1e-4, 0.1) if "matern" in fam.value else ())
        for name, fn in (("n2_closed", _n2_closed), ("n2_residual", _n2_residual)):
            for theta in thetas:
                for suffix, ps in (("", pairs), (".near", near), (".close", close)):
                    t = _best(lambda: refusals(fn, fam, theta, ps), 5)
                    key = f"{name}.{fam.value}.theta={theta:g}{suffix}"
                    out[key] = ("us/call", 1e6 * t / len(ps))
                    out[f"n2_refused.{key}"] = ("count", refusals(fn, fam, theta, ps))
    name = "gammainc" if hasattr(integrals, "gammainc") else "_gamma_p"
    real = getattr(integrals, name)
    for fam in (Family.MATERN32, Family.MATERN52):
        sizes = []
        setattr(integrals, name, lambda a, x, *rest: sizes.append(np.size(x)) or real(a, x, *rest))
        try:
            _n2_closed(fam, 2.0, 0.41, -0.37)
        finally:
            setattr(integrals, name, real)
        out[f"gammainc_calls_per_n2_eval.{fam.value}"] = ("calls", len(sizes))
        out[f"gammainc_values_per_n2_eval.{fam.value}"] = ("values", sum(sizes))
        node = Kernel(fam, (1.0,))
        t = _best(lambda: [build_matrices(node, [[a], [b]]) for a, b in pairs[:500]], 5)
        out[f"build_matrices.{fam.value}.n2_node"] = ("us/call", 1e6 * t / 500)
        for theta in (1e-4, 1.0, 100.0):
            t = _best(lambda: [integrals.border_1d(fam, a, theta) for a, _ in pairs[:500]], 5)
            out[f"border_1d.{fam.value}.theta={theta:g}"] = ("us/call", 1e6 * t / 500)
            t = _best(lambda: [integrals.inner_1d(fam, a, b, theta) for a, b in pairs[:500]], 5)
            out[f"inner_1d.{fam.value}.theta={theta:g}"] = ("us/call", 1e6 * t / 500)
    big = np.random.default_rng(3).uniform(-1, 1, (200, 3))
    for fam in map(Family, FAMILIES):
        out[f"build_matrices.{fam.value}.n200_d3"] = (
            "s", _best(lambda: build_matrices(Kernel(fam, (2.0, 5.0, 10.0)), big), 3)
        )
        kernel = Kernel(fam, (1.0,))
        out[f"free_search.{fam.value}.theta=1"] = ("s", _best(lambda: optimize_n2(kernel, 1.0), 3))
        for theta in (0.01, 1.0, 100.0):
            kernel = Kernel(fam, (theta,))
            t = _best(lambda: optimize_n2(kernel, theta, constraint="symmetric_pair"), 20)
            out[f"symmetric_search.{fam.value}.theta={theta:g}"] = ("us", 1e6 * t)
            real, calls = optimize._n2_residual, []
            optimize._n2_residual = lambda *args: calls.append(1) or real(*args)
            try:
                optimize_n2(kernel, theta, constraint="symmetric_pair")
            finally:
                optimize._n2_residual = real
            out[f"symmetric_search_calls.{fam.value}.theta={theta:g}"] = ("calls", len(calls))
        argv = ["sweep", "--kernel", fam.value, *SWEEP_N2]
        with contextlib.redirect_stdout(io.StringIO()):
            t = _best(lambda: cli.main(argv), 3)
        out[f"golden_sweep_n2.{fam.value}"] = ("s", t)
        for theta in (0.01, 1.0, 100.0):
            for name, fn in (
                ("border_1d_quad", lambda: oracle.border_1d_quad(fam, 0.3, theta)),
                ("inner_1d_quad", lambda: oracle.inner_1d_quad(fam, 0.3, -0.4, theta)),
            ):
                key = f"oracle.{name}.{fam.value}.theta={theta:g}"
                out[key] = ("us/call", 1e6 * _best(fn, 10))
                out[f"{key}.corr1_values"] = ("values", _corr1_values(oracle, fn))
    with contextlib.redirect_stdout(io.StringIO()):
        for n in VALIDATE_SAMPLES:
            fn = lambda: cli.main(["validate", "--samples", str(n)])
            out[f"oracle.validate_{n}"] = ("s", _best(fn, 2 if n > 100 else 5))
            out[f"oracle.validate_{n}.corr1_values"] = ("values", _corr1_values(oracle, fn))
        for n in (13, 500):
            tracemalloc.start()
            cli.main(["validate", "--samples", str(n)])
            out[f"oracle.validate_{n}.tracemalloc_peak_mb"] = ("MB", tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    erf = getattr(integrals, "_erf", None)
    if erf is None:
        from scipy.special import erf
    xs = np.random.default_rng(9).uniform(-3.0, 3.0, 10_000).tolist()
    out["erf.per_call"] = ("us/call", 1e6 * _best(lambda: [erf(x) for x in xs], 5) / len(xs))
    return {k: {"unit": u, "value": v} for k, (u, v) in out.items()}


def measure_symmetric_rss() -> dict:
    """Peak RSS of a fresh process after one symmetric search, and whether it
    loaded ``scipy.optimize``."""
    import resource

    import imspe_kit.cli  # noqa: F401  (the start-up the CLI pays)
    from imspe_kit import Family, Kernel, optimize_n2

    optimize_n2(Kernel(Family.GAUSS_P2, (1.0,)), 1.0, constraint="symmetric_pair")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loaded = int("scipy.optimize" in sys.modules)
    return {
        "symmetric_search.peak_rss_mb": {"unit": "MB", "value": rss},
        "symmetric_search.scipy_optimize_loaded": {"unit": "bool", "value": loaded},
    }


def measure_startup() -> dict:
    """Import time and peak RSS of ``import imspe_kit.cli`` in a fresh process, its
    peak RSS after one symmetric search per family, and which of the later calls
    load ``numpy`` and ``scipy.special``."""
    import resource

    start = time.perf_counter()
    import imspe_kit.cli  # noqa: F401  (the start-up the CLI pays)

    out = {
        "startup.import_s": ("s", time.perf_counter() - start),
        "startup.import_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "startup.numpy.after_import": ("bool", int("numpy" in sys.modules)),
        "startup.scipy_special.after_import": ("bool", int("scipy.special" in sys.modules)),
    }
    from imspe_kit import Family, Kernel, build_matrices, optimize_n2

    for fam in map(Family, FAMILIES):
        optimize_n2(Kernel(fam, (1.0,)), 1.0, constraint="symmetric_pair")
    out["startup.searches_rss_mb"] = ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out["startup.numpy.after_searches"] = ("bool", int("numpy" in sys.modules))
    out["startup.scipy_special.after_searches"] = ("bool", int("scipy.special" in sys.modules))
    import numpy as np

    build_matrices(Kernel(Family.GAUSS_P2, (1.0, 2.0)), np.random.default_rng(0).uniform(-1, 1, (5, 2)))
    out["startup.scipy_special.after_gauss_build"] = ("bool", int("scipy.special" in sys.modules))
    return {k: {"unit": u, "value": v} for k, (u, v) in out.items()}


def measure_command_rss(name: str, argv: list[str]) -> dict:
    """Peak RSS of a fresh process after one CLI command, and whether it loaded
    ``scipy.special``."""
    import resource

    from imspe_kit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return {
        f"{name}.peak_rss_mb": {"unit": "MB", "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        f"{name}.scipy_special_loaded": {"unit": "bool", "value": int("scipy.special" in sys.modules)},
    }


def _symmetric_cli_wall(root: Path) -> dict:
    """Wall time of one fresh ``optimize --n 2 --symmetric`` CLI process."""
    cmd = [sys.executable, "-m", "imspe_kit.cli", *SYMMETRIC_CLI]
    start = time.perf_counter()
    subprocess.run(cmd, env=_child_env(root), capture_output=True, check=True)
    return {"symmetric_cli_wall": {"unit": "s", "value": time.perf_counter() - start}}


def measure_counts(root: Path) -> dict:
    """``_n2_residual`` calls per request of one search-n2 pass, and the source size."""
    import numpy as np

    from imspe_kit import optimize
    from workloads import WORKLOADS

    wl = WORKLOADS["search-n2"]
    real, counts, label = optimize._n2_residual, {}, [None]

    def counted(*args):
        counts[label[0]] = counts.get(label[0], 0) + 1
        return real(*args)

    optimize._n2_residual = counted
    try:
        for req in wl.make_pass(np.random.default_rng([1, 0])):
            label[0] = req.kind
            wl.call(req)
    finally:
        optimize._n2_residual = real
    lines = {
        f"src.lines.{p.stem}": sum(1 for ln in open(p, encoding="utf-8") if ln.strip())
        for p in sorted((root / "src" / "imspe_kit").glob("*.py"))
    }
    lines["src.lines.total"] = sum(lines.values())
    return {"n2_residual_calls": dict(sorted(counts.items())), "src_lines": lines}


def _machine() -> dict:
    import mpmath
    import numpy
    import scipy

    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(root: Path, what: str) -> dict:
    cmd = [sys.executable, __file__, "--child", what, "--root", str(root)]
    out = subprocess.run(cmd, env=_child_env(root), capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(old: list[float], new: list[float], digits: int = 4) -> dict:
    mo, mn = statistics.median(old), statistics.median(new)
    return {
        "parent": round(mo, digits),
        "change": round(mn, digits),
        "parent_range": [round(min(old), digits), round(max(old), digits)],
        "change_range": [round(min(new), digits), round(max(new), digits)],
        "rounds": len(old),
        "ratio": round(mn / mo, 3) if mo else None,
        "unresolved": max(min(old), min(new)) <= min(max(old), max(new)),
    }


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return [round(q[0], 4), round(q[2], 4)]


def _perfbench(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "25", "--trace", "0"]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(ln for ln in lines if ln.startswith("# detail "))[len("# detail "):])
    row = {m: result["metrics"][m]["value"] for m in E2E_METRICS}
    row.update(failed=result["failed"], attempted=result["attempted"], passes=detail["passes"])
    return row


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def compare(args) -> dict:
    roots = {"parent": args.old.resolve(), "change": args.new.resolve()}
    runs = {side: [] for side in roots}
    for r in range(args.rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            root = roots[side]
            runs[side].append(
                {**_child(root, "layers"), **_child(root, "rss"), **_child(root, "startup"),
                 **_child(root, "validate_rss"), **_child(root, "fig_rss"), **_symmetric_cli_wall(root)}
            )
    first = runs["parent"][0]
    layers = {
        name: {"unit": first[name]["unit"], **_summary(
            [run[name]["value"] for run in runs["parent"]], [run[name]["value"] for run in runs["change"]]
        )}
        for name in first
    }
    counts = {side: _child(root, "counts") for side, root in roots.items()}
    report = {
        "machine": _machine(),
        "method": METHOD,
        "layers": layers,
        "n2_residual_calls_per_request": {
            "equal": counts["parent"]["n2_residual_calls"] == counts["change"]["n2_residual_calls"],
            "total": sum(counts["change"]["n2_residual_calls"].values()),
            "change": counts["change"]["n2_residual_calls"],
        },
        "src_lines": {
            name: {side: c["src_lines"][name] for side, c in counts.items()}
            for name in counts["change"]["src_lines"]
        },
    }
    if args.tier1:
        walls = {side: [] for side in roots}
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        cmd += ["-p", "no:cacheprovider"]
        for r in range(args.tier1):
            for side in (("change", "parent") if r % 2 == 0 else ("parent", "change")):
                env = dict(os.environ, PYTHONPATH=str(roots[side] / "src"))
                start = time.perf_counter()
                done = subprocess.run(cmd, cwd=roots[side], env=env, capture_output=True, text=True)
                walls[side].append(round(time.perf_counter() - start, 1))
                walls[f"{side}_summary"] = done.stdout.strip().splitlines()[-1]
        report["tier1_wall_s"] = walls
    e2e = {}
    for spec in args.e2e:
        workload, seeds = spec.split(":")
        rows = {side: [] for side in roots}
        for i, seed in enumerate(_seeds(seeds)):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                rows[side].append(_perfbench(roots[side], workload, seed))
        better = {"setup_s": -1, "ops_per_s": 1, "req_p50_ms": -1, "req_tail_ms": -1, "peak_rss_mb": -1}
        out = {}
        for m in E2E_METRICS:
            old = [row[m] for row in rows["parent"]]
            new = [row[m] for row in rows["change"]]
            out[m] = {
                "parent_median": round(statistics.median(old), 4),
                "parent_quartiles": _quartiles(old),
                "change_median": round(statistics.median(new), 4),
                "change_quartiles": _quartiles(new),
                "ratio": round(statistics.median(new) / statistics.median(old), 3),
                "change_better_pairs": sum(better[m] * (b - a) > 0 for a, b in zip(old, new)),
                "pairs": len(old),
            }
        out["passes"] = {side: [row["passes"] for row in rows[side]] for side in roots}
        out["failed"] = {side: [row["failed"] for row in rows[side]] for side in roots}
        out["seeds"] = _seeds(seeds)
        e2e[workload] = out
    if e2e:
        report["end_to_end"] = e2e
    return report


CHILDREN = {
    "layers": lambda root: measure_layers(),
    "rss": lambda root: measure_symmetric_rss(),
    "startup": lambda root: measure_startup(),
    "validate_rss": lambda root: measure_command_rss("validate_17", ["validate", "--samples", "17"]),
    "fig_rss": lambda root: measure_command_rss("fig_scan", ["scan", "--mode", "fig", "--grid=-1:1:21"]),
    "counts": measure_counts,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", type=Path, help="checkout measured as the parent")
    parser.add_argument("--new", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--tier1", type=int, default=0, help="alternating tier-1 runs per checkout")
    parser.add_argument("--e2e", action="append", default=[], help="WORKLOAD:SEEDS perfbench pairs")
    parser.add_argument("--out", type=Path, help="write the JSON report here (default: stdout)")
    parser.add_argument("--child", choices=tuple(CHILDREN), help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(CHILDREN[args.child](args.root)))
        return 0
    if args.old is None:
        parser.error("--old is required")
    text = json.dumps(compare(args), indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of imspe-kit: one workload, one seed, one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload raster --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures set-up time (fresh interpreters started
until ``imspe_kit.cli`` is ready), then runs passes of the workload until
``--seconds`` seconds have been measured and reports the end-to-end
metrics.  Timings of a ``--trace 0`` run are corrected for the host's speed
at the moment they were taken, which a fixed calibration loop measures
between requests (see ``HostClock``).  With
``--trace 1`` it runs one pass untraced and the same pass again with span
tracing of the package's public functions, and reports per-module metrics
and the tracing overhead.  Every op's output is checked against an
independent reference either way.  The last line of standard output is the
result as JSON; the line before it holds machine information, within-run
spread and the counts behind each metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: BLAS threads per process.  The program is serial Python, so one thread
#: keeps the benchmark plus its set-up children within the machine's cores.
BLAS_THREADS = 1
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 7
#: rounds of the calibration loop: 3-5 ms on a shared 2-vCPU Xeon host
CALIB_LOOPS = 600
#: calibration time that defines reference speed; a timing taken while the
#: calibration ran in t seconds is reported as if it ran in CALIB_REF_S
CALIB_REF_S = 0.003
#: passes a timed phase runs at least, so that each request kind has a median
MIN_PASSES = 4
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "import imspe_kit, imspe_kit.cli\n"
    "imspe_kit.cli.build_parser()\n"
    "print('ready', flush=True)\n"
)
#: optimize_n2 calls at or above this decay rate count as ``theta_hi``
THETA_SPLIT = 15.0
FAMILIES = ("exp-p1", "matern-3-2", "matern-5-2", "gauss-p2")
MODULES = ("__init__", "cli", "cluster", "errors", "imspe", "integrals", "kernels", "optimize", "oracle")
ORACLE_QUADS = ("border_1d_quad", "inner_1d_quad", "unit_border_1d_quad", "unit_inner_1d_quad")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernels.corr_pair.calls": "count",
    "kernels.corr_pair.s": "s",
    "integrals.r_border.calls": "count",
    "integrals.r_border.s": "s",
    "integrals.r_inner.calls": "count",
    "integrals.r_inner.s": "s",
    **{f"integrals.r_inner.{f}.s": "s" for f in FAMILIES},
    "integrals.scalar.calls": "count",
    "integrals.scalar.s": "s",
    "imspe.build_matrices.calls": "count",
    "imspe.build_matrices.s": "s",
    "imspe.build_matrices.self_s": "s",
    "imspe.build_matrices.refused": "count",
    "imspe.imspe_n2.calls": "count",
    "imspe.imspe_n2.s": "s",
    "optimize.optimize_n2.calls": "count",
    "optimize.optimize_n2.s": "s",
    "optimize.optimize_n2.self_s": "s",
    **{f"optimize.optimize_n2.{f}.s": "s" for f in FAMILIES},
    "optimize.optimize_n2.theta_lo.s": "s",
    "optimize.optimize_n2.theta_hi.s": "s",
    "optimize.evals_per_optimum": "eval/op",
    "optimize.converged_frac": "ratio",
    "optimize.scan_surface.s": "s",
    "optimize.scan_surface.nodes": "count",
    "optimize.scan_surface.par2_speedup": "x",
    "optimize.discontinuity_probe.s": "s",
    "oracle.border_1d_quad.calls": "count",
    "oracle.inner_1d_quad.calls": "count",
    "oracle.quad.s": "s",
    "oracle.integrand.calls": "count",
    "oracle.integrand_per_quad": "call/quad",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    **{f"src.lines.{m}": "lines" for m in MODULES},
    "src.lines.total": "lines",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Call:
    req: object
    out: object
    latency: float
    error: str | None


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def iqr_frac(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def machine_info(np) -> dict:
    import mpmath
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_thread_cap": BLAS_THREADS,
    }


class HostClock:
    """Measures how fast the host runs right now, with a fixed calibration loop.

    On a shared host, identical work runs up to twice as slow for seconds to
    tens of seconds at a time, as neighbours load the same cores and caches.
    The loop below touches no code of the program: it mixes interpreted
    arithmetic with small numpy calls, like the program's per-call work.
    Dividing a timing by the calibration time measured around it, and
    multiplying by ``CALIB_REF_S``, reports the timing at reference speed:
    the host's drift cancels, while any change in the program's own cost
    shows in full.
    """

    def __init__(self, np):
        self._np = np
        self._x = np.linspace(0.1, 1.0, 9)
        self.samples: list[float] = []

    def calibrate(self) -> float:
        np, x = self._np, self._x
        start = time.perf_counter()
        acc = 0.0
        for i in range(CALIB_LOOPS):
            acc += math.exp(-0.001 * i) * (i % 7)
            acc += float(np.sum(np.exp(-x * (i % 5))))
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("calibration loop produced a non-finite sum")
        self.samples.append(elapsed)
        return elapsed

    def scale(self, calibrations: list[float]) -> float:
        """Factor that turns a timing taken between these calibrations into reference time."""
        return CALIB_REF_S / statistics.median(calibrations)


def measure_setup(samples: int, clock: HostClock) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until imspe_kit.cli is ready.

    Returns the raw times and the times at reference speed.
    """
    raw, scaled = [], []
    for _ in range(samples):
        before = [clock.calibrate(), clock.calibrate()]
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
        after = [clock.calibrate(), clock.calibrate()]
        raw.append(elapsed)
        scaled.append(elapsed * clock.scale(before + after))
    return raw, scaled


def run_request(wl, req, tracer=None) -> Call:
    span = tracer.open("request") if tracer else None
    start = time.perf_counter()
    try:
        out, error = wl.call(req), None
    except Exception:  # an op that raises is a failed op; keep measuring
        out, error = None, traceback.format_exc()
    latency = time.perf_counter() - start
    if tracer:
        tracer.close(span)
    return Call(req, out, latency, error)


def count_failures(wl, calls) -> int:
    failed = 0
    for c in calls:
        if c.error is None:
            try:
                bad = wl.check(c.req, c.out)
            except Exception:  # unreadable output fails every op of the request
                bad, c.error = c.req.ops, traceback.format_exc()
        else:
            bad = c.req.ops
        if bad:
            sys.stderr.write(f"perfbench: {bad} of {c.req.ops} ops failed in {c.req.args[:4]}\n")
            if c.error:
                sys.stderr.write(c.error)
        failed += min(bad, c.req.ops)
    return failed


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported with the number of samples beyond it (zero).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl, seed: int, seconds: float, np):
    clock = HostClock(np)
    setup_raw, setup = measure_setup(SETUP_SAMPLES, clock)
    wl.warmup()
    calls, scaled, pass_rates, elapsed = [], [], [], 0.0
    gap = [clock.calibrate(), clock.calibrate()]
    while elapsed < seconds or len(pass_rates) < MIN_PASSES:
        reqs = wl.make_pass(np.random.default_rng([seed, len(pass_rates)]))
        pass_s = 0.0
        for r in reqs:
            call = run_request(wl, r)
            after = [clock.calibrate(), clock.calibrate()]
            # the host's speed around a request: the calibrations just before and just after it
            scaled.append(call.latency * clock.scale(gap + after))
            calls.append(call)
            gap = after
            pass_s += call.latency
        pass_rates.append(sum(r.ops for r in reqs) / pass_s)
        elapsed += pass_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Every pass holds one request of each kind; a request's typical latency is
    # the median of its kind's latencies at reference speed, and a typical
    # pass costs the sum over the kinds.
    by_kind = {}
    for c, t in zip(calls, scaled):
        by_kind.setdefault(c.req.kind, []).append((c, t))
    typical = {kind: statistics.median(t for _, t in group) for kind, group in by_kind.items()}
    pass_ops = sum(group[0][0].req.ops for group in by_kind.values())
    typical_by_request = [typical[c.req.kind] for c in calls]
    # the tail is taken over the first MIN_PASSES passes only, so its sample
    # count, and with it the percentile, does not depend on the machine speed
    tail, tail_pct, beyond = latency_tail(typical_by_request[: MIN_PASSES * len(by_kind)])
    latencies = [c.latency for c in calls]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": pass_ops / sum(typical.values()),
        "req_p50_ms": 1000.0 * statistics.median(typical_by_request),
        "req_tail_ms": 1000.0 * tail,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "passes": len(pass_rates),
        "requests": len(calls),
        "timed_s": elapsed,
        "req_tail_percentile": tail_pct,
        "req_tail_samples_beyond": beyond,
        "calibration_ref_s": CALIB_REF_S,
        "calibration_s": {
            "median": statistics.median(clock.samples),
            "min": min(clock.samples),
            "max": max(clock.samples),
            "count": len(clock.samples),
        },
        "plain": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": sum(c.req.ops for c in calls) / elapsed,
            "req_p50_ms": 1000.0 * statistics.median(latencies),
            "req_tail_ms": 1000.0 * latency_tail(latencies)[0],
        },
        "setup_s_samples": setup,
        "setup_s_raw_samples": setup_raw,
        "ops_per_s_by_pass": pass_rates,
        "latency_ms_by_kind": {kind: [1000.0 * c.latency for c, _ in g] for kind, g in by_kind.items()},
        "scaled_latency_ms_by_kind": {kind: [1000.0 * t for _, t in g] for kind, g in by_kind.items()},
        "spread_iqr_frac": {
            "setup_s": iqr_frac(setup),
            "ops_per_s_by_pass": iqr_frac(pass_rates),
        },
    }
    return calls, metrics, detail


def install_tracing(tracer) -> None:
    from imspe_kit.errors import NearSingularError, SolveError

    # the package re-exports a function named ``imspe``, so look modules up by name
    cli, imspe, integrals, optimize, oracle = (
        importlib.import_module(f"imspe_kit.{m}") for m in ("cli", "imspe", "integrals", "optimize", "oracle")
    )

    def by_family(kernel, *args, **kwargs):
        return kernel.family.value

    def by_family_and_theta(kernel, theta, *args, **kwargs):
        side = "theta_lo" if float(theta) < THETA_SPLIT else "theta_hi"
        return f"{kernel.family.value}|{side}"

    tracer.wrap(imspe, "corr_pair", "kernels.corr_pair")
    tracer.wrap(integrals, "r_border", "integrals.r_border")
    tracer.wrap(integrals, "r_inner", "integrals.r_inner", tag=by_family)
    tracer.wrap_everywhere(
        "imspe_kit", imspe.build_matrices, "imspe.build_matrices", refusals=(NearSingularError, SolveError)
    )
    tracer.wrap(optimize, "imspe_n2", "imspe.imspe_n2")
    tracer.wrap_everywhere(
        "imspe_kit",
        optimize.optimize_n2,
        "optimize.optimize_n2",
        tag=by_family_and_theta,
        on_result=lambda report: int(report.converged),
    )
    tracer.wrap(cli, "scan_surface", "optimize.scan_surface", on_result=len)
    tracer.wrap(cli, "discontinuity_probe", "optimize.discontinuity_probe")
    tracer.wrap(cli, "main", "cli.main")
    tracer.view(cli, "integrals", {fn: "integrals.scalar" for fn in ("border_1d", "inner_1d", "j1", "j2")})
    tracer.view(cli, "oracle", {fn: f"oracle.{fn}" for fn in ORACLE_QUADS})
    tracer.count(oracle, "corr1", "oracle.integrand")


def layer_metrics(tracer) -> dict:
    totals = tracer.totals()

    def total(base, field, tag=None):
        out = 0.0
        for name, t in totals.items():
            parts = name.split("|")
            if parts[0] == base and (tag is None or tag in parts[1:]):
                out += t[field]
        return out

    m = {}
    for base in (
        "kernels.corr_pair",
        "integrals.r_border",
        "integrals.r_inner",
        "integrals.scalar",
        "imspe.imspe_n2",
        "optimize.optimize_n2",
    ):
        m[f"{base}.calls"] = total(base, "calls")
        m[f"{base}.s"] = total(base, "s")
    for fam in FAMILIES:
        m[f"integrals.r_inner.{fam}.s"] = total("integrals.r_inner", "s", fam)
        m[f"optimize.optimize_n2.{fam}.s"] = total("optimize.optimize_n2", "s", fam)
    for field in ("calls", "s", "self_s"):
        m[f"imspe.build_matrices.{field}"] = total("imspe.build_matrices", field)
    m["imspe.build_matrices.refused"] = total("imspe.build_matrices", "calls", "refused")
    m["optimize.optimize_n2.self_s"] = total("optimize.optimize_n2", "self_s")
    for side in ("theta_lo", "theta_hi"):
        m[f"optimize.optimize_n2.{side}.s"] = total("optimize.optimize_n2", "s", side)
    optima = m["optimize.optimize_n2.calls"]
    m["optimize.evals_per_optimum"] = m["imspe.imspe_n2.calls"] / optima if optima else 0.0
    m["optimize.converged_frac"] = tracer.counts.get("optimize.optimize_n2", 0) / optima if optima else 0.0
    m["optimize.scan_surface.s"] = total("optimize.scan_surface", "s")
    m["optimize.scan_surface.nodes"] = tracer.counts.get("optimize.scan_surface", 0)
    m["optimize.discontinuity_probe.s"] = total("optimize.discontinuity_probe", "s")
    m["oracle.border_1d_quad.calls"] = total("oracle.border_1d_quad", "calls")
    m["oracle.inner_1d_quad.calls"] = total("oracle.inner_1d_quad", "calls")
    quads = sum(total(f"oracle.{q}", "calls") for q in ORACLE_QUADS)
    m["oracle.quad.s"] = sum(total(f"oracle.{q}", "s") for q in ORACLE_QUADS)
    m["oracle.integrand.calls"] = tracer.counts.get("oracle.integrand", 0)
    m["oracle.integrand_per_quad"] = m["oracle.integrand.calls"] / quads if quads else 0.0
    m["cli.main.s"] = total("cli.main", "s")
    m["cli.self_s"] = total("cli.main", "self_s")
    m["trace.spans"] = len(tracer.name)
    return m


def source_lines() -> dict:
    """Non-blank lines per module of the package under src/."""
    pkg = SRC / "imspe_kit"

    def lines(path):
        with open(path, encoding="utf-8") as fh:
            return sum(1 for ln in fh if ln.strip())

    m = {f"src.lines.{mod}": 0 for mod in MODULES}
    for path in pkg.glob("*.py"):
        if path.stem in MODULES:
            m[f"src.lines.{path.stem}"] = lines(path)
    m["src.lines.total"] = sum(lines(p) for p in SRC.rglob("*.py"))
    return m


def traced(wl, seed: int, np):
    from tracer import Tracer

    reqs = wl.make_pass(np.random.default_rng([seed, 0]))
    wl.warmup()
    start = time.perf_counter()
    plain = [run_request(wl, r) for r in reqs]
    untraced_s = time.perf_counter() - start
    tracer = Tracer()
    install_tracing(tracer)
    try:
        start = time.perf_counter()
        calls = []
        for i, r in enumerate(reqs):
            tracer.request = i
            calls.append(run_request(wl, r, tracer))
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(tracer))
    metrics.update(source_lines())
    metrics["cli.output_bytes"] = sum(wl.output_bytes(c.out) for c in calls if c.error is None)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "requests": len(calls)}
    extra = wl.parallel_check(plain)
    if extra is not None:
        metrics["optimize.scan_surface.par2_speedup"], par_call = extra
        calls.append(par_call)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.npz"
    tracer.save(trace_path)
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    bounds = [wl.expected_refusals(r) for r in reqs]
    detail["refused_expected"] = [sum(b[0] for b in bounds), sum(b[1] for b in bounds)]
    detail["refused_traced"] = metrics["imspe.build_matrices.refused"]
    return calls, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "imspe_kit" / "__init__.py").is_file():
        return fail(f"no imspe_kit package under {SRC}; run from a checkout of the repository")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import imspe_kit
    from workloads import TOLERANCES, WORKLOADS

    if Path(imspe_kit.__file__).resolve().parent != SRC / "imspe_kit":
        return fail(f"imported imspe_kit from {imspe_kit.__file__}, not from {SRC}")
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    if args.trace:
        calls, metrics, detail = traced(wl, args.seed, np)
        units = PER_LAYER
    else:
        calls, metrics, detail = end_to_end(wl, args.seed, args.seconds, np)
        units = END_TO_END
    attempted = sum(c.req.ops for c in calls)
    failed = count_failures(wl, calls)
    detail.update(
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        failed_frac=failed / attempted,
        machine=machine_info(np),
        tolerances=TOLERANCES,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    for name, unit in units.items():
        print(f"# {name:40s} {metrics[name]:.6g} {unit}")
    print(f"# {'failed_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

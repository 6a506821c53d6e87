"""The four benchmark workloads: inputs from a seed, requests, op counts, checks.

Each workload drives one module of imspe_kit through its public API.  A
*pass* is one balanced set of requests; the timed phase repeats passes with
fresh inputs, so every pass has the same mix of work.  Every op's output is
checked against the independent values of ``reference``; the tolerances
are in ``TOLERANCES``.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import imspe_kit
import reference
from imspe_kit import cli

FAMILIES = ("exp-p1", "matern-3-2", "matern-5-2", "gauss-p2")

#: a criterion value may differ from the reference by ATOL + COND_TOL * cond(L):
#: the forward-error bound of a backward-stable solve, with headroom
ATOL = 1e-12
COND_TOL = 1e-14
TOLERANCES = {
    "criterion_abs": f"{ATOL:g} + {COND_TOL:g} * cond(L)",
    "R_entry_abs": 1e-12,
    "L_entry_abs": 1e-14,
    "optimum_gap_abs": f"{ATOL:g} + {COND_TOL:g} * cond(L)",
    "validate_worst_abs": 1e-9,
    "coincident_separation": 1e-9,
    "refusable_cond": 1e8,
}

# The constrained two-dimensional scenario of ``scan --mode fig`` and
# ``probe``: Gaussian kernel, two fixed points and the free pair (t, -t).
FIG_THETA = (0.064, 0.00016)
FIG_FIXED = ((0.767117, 0.0), (-0.767117, 0.0))
PROBE_STEPS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0001, 0.00001)


def _tol(cond):
    return ATOL + COND_TOL * np.asarray(cond)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _separation(designs: np.ndarray) -> np.ndarray:
    """Smallest distance between two points of each design in a (batch, n, d) stack."""
    diff = designs[:, :, None, :] - designs[:, None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    n = designs.shape[1]
    dist[:, np.arange(n), np.arange(n)] = np.inf
    return dist.min(axis=(1, 2))


def _fig_designs(t: np.ndarray) -> np.ndarray:
    """Scenario designs for free-point coordinates ``t`` of shape (batch, 2)."""
    fixed = np.broadcast_to(np.array(FIG_FIXED), (t.shape[0], 2, 2))
    return np.concatenate([fixed, t[:, None, :], -t[:, None, :]], axis=1)


def _pair_grid(n: int) -> np.ndarray:
    """Every ordered pair x1 > x2 of an n-point grid on [-1, 1]."""
    axis = np.linspace(-1.0, 1.0, n)
    i, j = np.triu_indices(n, 1)
    return np.stack([axis[j], axis[i]], axis=1)


def _symmetric_grid(n: int) -> np.ndarray:
    """Pairs (a, -a) for n values of a evenly spaced in (0, 1]."""
    half = np.linspace(0.0, 1.0, n + 1)[1:]
    return np.stack([half, -half], axis=1)


@dataclass
class Request:
    args: tuple
    ops: int
    kind: str  # the request's slot in a pass; each pass has one request of each kind


class Workload:
    name = ""

    def make_pass(self, rng: np.random.Generator) -> list[Request]:
        raise NotImplementedError

    def call(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> int:
        """Number of the request's ops whose output is wrong."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def expected_refusals(self, req: Request) -> tuple[int, int]:
        """(fewest, most) ops of the request that may come back as a refusal."""
        return 0, 0

    def output_bytes(self, out) -> int:
        return 0

    def parallel_check(self, calls):
        """(serial/parallel time ratio, Call) for a repeat with --parallel 2, if any."""
        return None


class EvalNd(Workload):
    """One ``build_matrices`` call per request and op, on a random design in [-1, 1]^3.

    Time goes into the O(n^2) scalar assembly and the Matern pair integrals;
    the optimizer and the oracle are not on the path.
    """
    name = "eval-nd"

    def make_pass(self, rng):
        reqs = [
            Request((fam, self._theta(rng), rng.uniform(-1.0, 1.0, (n, 3))), 1, f"{fam} n={n}")
            for fam in FAMILIES
            for n in (20, 50, 100)
        ]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    @staticmethod
    def _theta(rng):
        """Log-uniform decay rates on [1, 10], one per third of the range.

        Each axis still sees a log-uniform rate, but every design gets one
        small, one middle and one large rate, which keeps the per-design
        cost of the Matern pair integrals from swinging with the draw.
        """
        strata = (rng.permutation(3) + rng.uniform(0.0, 1.0, 3)) / 3.0
        return tuple(10.0 ** strata)

    def call(self, req):
        fam, theta, design = req.args
        return imspe_kit.build_matrices(imspe_kit.Kernel(imspe_kit.Family(fam), theta), design)

    def check(self, req, out):
        fam, theta, design = req.args
        ref = reference.criterion(fam, theta, design[None])
        ok = (
            abs(out.imspe - ref["imspe"][0]) <= _tol(ref["cond"][0])
            and np.max(np.abs(out.R - ref["R"][0])) <= TOLERANCES["R_entry_abs"]
            and np.max(np.abs(out.L - ref["L"][0])) <= TOLERANCES["L_entry_abs"]
        )
        return 0 if ok else 1

    def warmup(self):
        for fam in FAMILIES:
            design = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]])
            self.call(Request((fam, (1.0, 2.0, 3.0), design), 1, "warmup"))


class SearchN2(Workload):
    """One ``optimize_n2`` call per request and op.

    Each call makes hundreds to thousands of 3x3 criterion evaluations, plus
    extended-precision refinement above theta = 15, so per-call overhead and
    the evaluation count dominate.
    """
    name = "search-n2"
    # (family, constraint) -> base decay rates, on both sides of theta = 15
    # where the exponential and Gaussian searches switch to extended
    # precision.  A pass costs about 5 s, so a run holds three passes; the
    # multistart Matern-5/2 search runs only at theta = 1 because one call at
    # theta = 100 costs more than the rest of the pass.
    PLAN = {
        ("exp-p1", None): (0.01, 100.0),
        ("matern-3-2", None): (0.1, 100.0),
        ("matern-5-2", None): (1.0,),
        ("gauss-p2", None): (0.1, 30.0),
        ("exp-p1", "symmetric_pair"): (0.01, 1.0, 100.0),
        ("matern-3-2", "symmetric_pair"): (0.01, 1.0, 100.0),
        ("matern-5-2", "symmetric_pair"): (0.01, 1.0, 100.0),
        ("gauss-p2", "symmetric_pair"): (0.01, 1.0),
    }
    GRID_FULL = _pair_grid(25)
    GRID_SYM = _symmetric_grid(48)

    def make_pass(self, rng):
        reqs = [
            Request((fam, con, base * 10.0 ** rng.uniform(-0.05, 0.05)), 1, f"{fam} {con} {base:g}")
            for (fam, con), thetas in self.PLAN.items()
            for base in thetas
        ]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def call(self, req):
        fam, con, theta = req.args
        kernel = imspe_kit.Kernel(imspe_kit.Family(fam), (theta,))
        return imspe_kit.optimize_n2(kernel, theta, constraint=con)

    def check(self, req, out):
        fam, con, theta = req.args
        x1, x2 = out.design[0][0], out.design[1][0]
        in_domain = -1.0 <= x1 <= 1.0 and -1.0 <= x2 <= 1.0 and x1 != x2
        if not (math.isfinite(out.imspe_value) and in_domain):
            return 1
        if con == "symmetric_pair" and x1 != -x2:
            return 1
        grid = self.GRID_SYM if con else self.GRID_FULL
        ref = reference.criterion(fam, (theta,), np.concatenate([[[x1, x2]], grid])[:, :, None])
        value, others = ref["imspe"][0], ref["imspe"][1:]
        best = int(np.argmin(others))
        ok = (
            abs(out.imspe_value - value) <= _tol(ref["cond"][0])
            and value <= others[best] + _tol(max(ref["cond"][0], ref["cond"][1 + best]))
        )
        return 0 if ok else 1

    def warmup(self):
        kernel = imspe_kit.Kernel(imspe_kit.Family.EXP_P1, (1.0,))
        imspe_kit.optimize_n2(kernel, 1.0, constraint="symmetric_pair")


class Raster(Workload):
    """One in-process ``cli.main`` call per request; an op is one grid node or probe point.

    Every node is a separate 2- or 4-point design that pays the full
    ``build_matrices`` call overhead and becomes one output row; coincident
    nodes exercise the refusal path.
    """
    name = "raster"
    SCAN_N = 41
    SLICE_N = 101

    def make_pass(self, rng):
        def grid(n):
            h = round(1.0 - 0.1 * rng.random(), 4)
            return f"--grid={-h!r}:{h!r}:{n}"

        reqs = [
            Request(
                ("scan", "--mode", "n2", "--kernel", fam, "--theta", "1", grid(self.SCAN_N)),
                self.SCAN_N ** 2,
                f"n2 {fam}",
            )
            for fam in FAMILIES
        ]
        reqs.append(Request(("scan", "--mode", "fig", grid(self.SCAN_N)), self.SCAN_N ** 2, "fig"))
        reqs.append(Request(("scan", "--mode", "fig-slice", grid(self.SLICE_N)), self.SLICE_N, "fig-slice"))
        phi = math.pi * rng.random()
        dirs = f"1,0;0,1;{math.cos(phi)!r},{math.sin(phi)!r}"
        reqs.append(Request(("probe", "--directions", dirs), 3 * len(PROBE_STEPS), "probe"))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def call(self, req):
        return _cli(list(req.args))

    @staticmethod
    def grid(req) -> np.ndarray:
        """Grid coordinates of every node of a scan, in the CLI's row-major order."""
        lo, hi, n = req.args[-1].split("=", 1)[1].split(":")
        axis = np.linspace(float(lo), float(hi), int(n))
        axes = [axis] if req.args[2] == "fig-slice" else [axis, axis]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @staticmethod
    def designs(req, coords):
        """(designs, family, theta) a scan evaluates at the given nodes."""
        mode = req.args[2]
        if mode == "n2":
            return coords[:, :, None], req.args[4], (1.0,)
        t = coords if mode == "fig" else np.stack([coords[:, 0], np.zeros(len(coords))], axis=1)
        return _fig_designs(t), "gauss-p2", FIG_THETA

    def expectation(self, req):
        """Grid nodes, which of them are coincident, and the reference for the rest.

        A coincident design must be refused.  Any other node is answered within
        the criterion tolerance, or refused if its cond(L) reaches
        ``refusable_cond``, where a double-precision answer is no longer good
        to 1e-8 and a conditioning guard may reject it.
        """
        coords = self.grid(req)
        designs, fam, theta = self.designs(req, coords)
        coincident = _separation(designs) <= TOLERANCES["coincident_separation"]
        idx = np.flatnonzero(~coincident)
        return coords, coincident, idx, reference.criterion(fam, theta, designs[idx])

    def expected_refusals(self, req) -> tuple[int, int]:
        if req.args[0] == "probe":
            return 0, 0
        _, coincident, _, ref = self.expectation(req)
        must = int(np.sum(coincident))
        return must, must + int(np.sum(ref["cond"] >= TOLERANCES["refusable_cond"]))

    def output_bytes(self, out) -> int:
        return len(out[1].encode())

    def parallel_check(self, calls):
        """Repeat the Gaussian n2 scan with --parallel 2; its output must be byte-identical."""
        serial = next(c for c in calls if c.req.args[:5] == ("scan", "--mode", "n2", "--kernel", "gauss-p2"))
        args = serial.req.args
        req = Request(args[:-1] + ("--parallel", "2", args[-1]), serial.req.ops, "n2 gauss-p2 parallel 2")
        start = time.perf_counter()
        out = self.call(req)
        latency = time.perf_counter() - start
        error = None if out == serial.out else "--parallel 2 output differs from --parallel 1\n"
        return serial.latency / latency, type(serial)(req, out, latency, error)

    def check(self, req, out):
        rc, text, _ = out
        if rc != 0:
            return req.ops
        if req.args[0] == "probe":
            return self._check_probe(req, text)
        lines = text.splitlines()
        coords, coincident, idx, ref = self.expectation(req)
        if lines[0] != cli.SCAN_HEADER or len(lines) != 2 + len(coords):
            return req.ops
        rows = [line.rsplit(",", 1) for line in lines[2:]]
        got = np.array([[float(c) for c in head.split(",")] for head, _ in rows])
        singular = np.array([cell == "singular" for _, cell in rows])
        wrong = np.any(got != coords, axis=1)
        wrong |= coincident & ~singular
        refusable = ref["cond"] >= TOLERANCES["refusable_cond"]
        answered = ~singular[idx]
        values = np.array([float(rows[i][1]) if a else np.nan for i, a in zip(idx, answered)])
        close = np.abs(values - ref["imspe"]) <= _tol(ref["cond"])
        wrong[idx] |= np.where(answered, ~close, ~refusable)
        return int(np.sum(wrong))

    def _check_probe(self, req, text):
        record = json.loads(text)
        dirs = [tuple(float(v) for v in d.split(",")) for d in req.args[2].split(";")]
        wrong = 0
        for d, values in zip(dirs, record["values"]):
            norm = math.hypot(*d)
            if len(values) != len(PROBE_STEPS):
                return req.ops
            for h, value in zip(PROBE_STEPS, values):
                t = (h * d[0] / norm, h * d[1] / norm)
                design = _fig_designs(np.array([t]))
                cond = reference.criterion("gauss-p2", FIG_THETA, design)["cond"][0]
                exact = reference.gauss_criterion_mp(FIG_THETA, design[0])
                if value == "singular":
                    wrong += cond < TOLERANCES["refusable_cond"]
                elif not abs(value - exact) <= _tol(cond):
                    wrong += 1
        return wrong

    def warmup(self):
        _cli(["scan", "--mode", "n2", "--kernel", "gauss-p2", "--theta", "1", "--grid=-1:1:5"])
        _cli(["probe", "--h-sequence", "0.1,0.001"])


class Validate(Workload):
    """One in-process ``validate`` call per request; an op is one closed-form vs quadrature comparison.

    The only workload on the oracle, and the main caller of the scalar
    ``kernels.corr1``.
    """
    name = "validate"
    SAMPLES = tuple(range(9, 18))
    ROWS = 10  # cases the suite compares; ops per sample

    def make_pass(self, rng):
        # validate draws its cases from its own fixed-seed stream, so a request
        # is fixed by its sample count; every pass runs the same counts, in an
        # order set by the seed, so every pass does the same work
        return [
            Request(("validate", "--samples", str(n)), self.ROWS * n, f"samples={n}")
            for n in rng.permutation(self.SAMPLES).tolist()
        ]

    def call(self, req):
        return _cli(list(req.args))

    def check(self, req, out):
        rc, text, _ = out
        lines = text.splitlines()
        samples = req.ops // self.ROWS
        if rc != 0 or len(lines) != self.ROWS + 2 or lines[-1] != "overall,pass,,":
            return req.ops
        wrong = 0
        for line in lines[1:-1]:
            _, worst, _, passed = line.rsplit(",", 3)
            if passed != "1" or not float(worst) <= TOLERANCES["validate_worst_abs"]:
                wrong += samples
        return wrong

    def warmup(self):
        _cli(["validate", "--samples", "1"])

    def output_bytes(self, out) -> int:
        return len(out[1].encode())


WORKLOADS = {w.name: w for w in (EvalNd(), SearchN2(), Raster(), Validate())}

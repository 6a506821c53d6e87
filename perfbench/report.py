"""Run the benchmark over several seeds and print every metric with its spread.

Run from the repository root:

    python3 perfbench/report.py                      # all workloads, seeds 1-10
    python3 perfbench/report.py --workloads raster --seeds 1-5
    python3 perfbench/report.py --trace 1 --seeds 1  # per-module metrics

Each run is a fresh ``perfbench/run.py`` process, one at a time.  For each
workload and metric the table gives the median, the quartiles, and the
spread (interquartile distance over median) next to the bound that
BENCHMARK.json fixes; failed_frac is failed ops over attempted ops.  The
full report, with machine information, goes to .perfbench/report-trace<k>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = next((json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail ")), {})
    return json.loads(lines[-1]), detail


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    seeds = parse_seeds(args.seeds)
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        results = [r for r, _ in runs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        names = set(results[0]["metrics"])
        if names != set(bounds):
            print(f"{workload}: metrics {sorted(names ^ set(bounds))} differ from BENCHMARK.json")
            ok = False
        rows = {}
        print(f"\n== {workload}  ({len(seeds)} runs, {args.seconds} s each)")
        print(f"{'metric':40s} {'unit':>9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            s = summarize([r["metrics"][name]["value"] for r in results])
            rows[name] = dict(s, unit=unit)
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"{name:40s} {unit:>9s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {'' if bound is None else bound:>6}{flag}")
        n_correct = sum(r["correct"] for r in results)
        print(f"{'failed_frac':40s} {'ratio':>9s} {failed / attempted:12.6g}   "
              f"({failed} of {attempted} ops; correct in {n_correct}/{len(results)} runs)")
        ok = ok and failed == 0
        report["workloads"][workload] = {
            "metrics": rows,
            "failed_frac": failed / attempted,
            "attempted": attempted,
            "details": [d for _, d in runs],
        }
    machine = next(iter(report["workloads"].values()))["details"][0].get("machine")
    report["machine"] = machine
    print(f"\nmachine: {json.dumps(machine)}")
    out = ROOT / ".perfbench" / f"report-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"report written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

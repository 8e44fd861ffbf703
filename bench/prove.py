"""Repeat the benchmark over several seeds and summarize its spread.

    python3 bench/prove.py --seeds 1-10 [--workloads logic-point,setscan]
                           [--trace 0] [--out summary.json]

For every workload and metric this prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, which is
the distance between the quartiles as a share of the median.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=300)
            elapsed = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed={seed} exit={proc.returncode} "
                  f"elapsed={elapsed:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            print(f"  {name:45s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.3f}", flush=True)
    if args.out:
        import numpy
        machine = {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "numpy": numpy.__version__,
                   "cpu": platform.processor() or platform.machine()}
        args.out.write_text(json.dumps(
            {"machine": machine, "run_seconds": spec["run_seconds"],
             "seeds": args.seeds, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fmlab benchmark: one seeded, closed-loop job mix per run.

    python3 bench/run.py --workload logic-point --seed 1 --seconds 25 --trace 0

One client runs one job at a time until the time is up; each job parses
its input and decides.  Set-up (importing fmlab, building the job pool
and one untimed warm-up job of each kind) is measured in this process and
in four fresh child processes.  After the timed phase the peak RSS is
read and then every verdict is checked against an independent reference
(`refs.py`).  The last line of output is one JSON object.

With `--trace 1` the run executes a fixed number of jobs with spans
around fmlab's public functions (`spans.py`) and reports per-layer calls,
self time and exact counts instead.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 4


def import_fmlab():
    """Import fmlab from this checkout's src/ and nowhere else."""
    if not (SRC / "fmlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no fmlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fmlab
    if Path(fmlab.__file__).resolve().parent != SRC / "fmlab":
        raise SystemExit(f"error: fmlab imported from {fmlab.__file__}")


def setup(workload: str, seed: int, trace: bool = False):
    """Import fmlab, build the inputs and run the warm-up jobs; returns
    (pool, registry, tracer or None, seconds)."""
    t0 = time.perf_counter()
    import_fmlab()
    import jobs
    if workload not in jobs.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choose from "
                         f"{', '.join(jobs.WORKLOADS)}")
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    reg = jobs.registry()
    if tracer is not None:
        reg = tracer.quantifiers(reg)
    pool, warm = jobs.build(workload, seed)
    for job in warm:
        jobs.execute(job, reg)
    return pool, reg, tracer, time.perf_counter() - t0


def child_setups(workload: str, seed: int) -> list:
    """Set-up seconds measured in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def timed_phase(pool, reg, seconds=None, count=None, tracer=None):
    """Run jobs from the pool in order (wrapping around if it runs out)
    until `seconds` pass or `count` jobs are done.  Returns the wall time
    and per job (pool index, verdict, error, seconds)."""
    import jobs
    done = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while (time.perf_counter() < deadline if count is None else i < count):
        idx = i % len(pool)
        verdict = err = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                verdict = jobs.execute(pool[idx], reg)
            else:
                verdict = tracer.run_job(i, jobs.execute, pool[idx], reg)
        except Exception as exc:  # a job that raises is a failed job
            err = f"{type(exc).__name__}: {exc}"
        done.append((idx, verdict, err, time.perf_counter() - t0))
        i += 1
    return time.perf_counter() - start, done


def verify(pool, done) -> list:
    """Indices into `done` of failed jobs: raised, or verdict != reference."""
    import refs
    failed = []
    for k, (idx, verdict, err, _) in enumerate(done):
        if err is not None:
            failed.append(k)
            continue
        try:
            ok = refs.check(pool[idx], verdict)
        except Exception:  # a verdict the reference cannot read is wrong
            ok = False
        if not ok:
            failed.append(k)
    return failed


def report_failures(pool, done, failed):
    for k in failed[:10]:
        idx, _, err, _ = done[k]
        print(f"FAILED job {k}: {pool[idx].kind} size={pool[idx].size} "
              f"{err or 'verdict differs from reference'}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        print(setup(args.workload, args.seed)[3])
        return 0

    pool, reg, tracer, own_setup = setup(args.workload, args.seed,
                                         bool(args.trace))
    import jobs
    if tracer is None:
        setups = [own_setup] + child_setups(args.workload, args.seed)
        wall, done = timed_phase(pool, reg, seconds=args.seconds)
    else:
        count = jobs.WORKLOADS[args.workload].trace_jobs
        wall, done = timed_phase(pool, reg, count=count, tracer=tracer)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = verify(pool, done)
    report_failures(pool, done, failed)

    times = [t for *_, t in done]
    error_rate = len(failed) / len(done)
    print(f"workload={args.workload} seed={args.seed} jobs={len(done)} "
          f"wall_s={wall:.3f} error_rate={error_rate} fraction")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (len(done) / wall, "1/s"),
            "job_p50_ms": (1e3 * statistics.median(times), "ms"),
            "job_p90_ms": (1e3 * statistics.quantiles(
                times, n=10, method="inclusive")[-1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import spans
        units = {"calls": "count", "count": "count", "self_s": "s",
                 "useful_ratio": "fraction"}
        layer = tracer.layer_metrics()
        metrics = {name: (layer[name], units[kind])
                   for name, _, kind in spans.LAYER_METRICS}
        metrics["trace.jobs_per_s"] = (len(done) / wall, "1/s")
        tracer.write(HERE / "out"
                     / f"spans-{args.workload}-{args.seed}.csv.gz")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(done), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

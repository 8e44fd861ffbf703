"""Tests of the benchmark itself: `python3 -m pytest bench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# jobs per workload: enough to reach every job kind at least once
SHORT = {"logic-point": 20, "logic-sweep": 16, "extension": 10, "setscan": 6}


def _plain(verdict):
    if isinstance(verdict, np.ndarray):
        return sorted(map(tuple, verdict.reshape(-1, 3).tolist()))
    return verdict


def traced_run(workload: str, seed: int):
    pool, reg, tracer, _ = run.setup(workload, seed, trace=True)
    try:
        _, done = run.timed_phase(pool, reg, count=SHORT[workload],
                                  tracer=tracer)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    return ([pool[idx] for idx, *_ in done],
            [_plain(verdict) for _, verdict, _, _ in done],
            {name: layer[name] for name in spans.EXACT},
            run.verify(pool, done))


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_same_seed_same_jobs_verdicts_and_counts(workload):
    first = traced_run(workload, 7)
    second = traced_run(workload, 7)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[3] == second[3] == []
    assert any(first[2].values())
    assert {"syntax.parse.nodes", "quantifiers.decide.calls",
            "arithx.mu_step.calls", "arithx.mu_step.useful",
            "arithx.mu_step.triples_out", "evaluator.define_relation.tuples",
            "sets.occurrence_set.calls"} <= set(first[2])


def test_other_seed_other_jobs():
    a, _, _, _ = run.setup("logic-point", 1)
    b, _, _, _ = run.setup("logic-point", 2)
    assert a != b


def test_planted_wrong_reference_is_counted(monkeypatch):
    pool, reg, _, _ = run.setup("logic-point", 3)
    _, done = run.timed_phase(pool, reg, count=SHORT["logic-point"])
    assert run.verify(pool, done) == []
    right = refs.equicardinal
    monkeypatch.setattr(refs, "equicardinal", lambda m: not right(m))
    assert run.verify(pool, done)


def test_tracing_leaves_fmlab_as_it_was():
    import fmlab.arithx
    import fmlab.sets
    before = (fmlab.sets.occurrence_set, fmlab.arithx.occurrence_set)
    traced_run("setscan", 1)
    assert (fmlab.sets.occurrence_set, fmlab.arithx.occurrence_set) == before


def test_refuses_to_run_without_fmlab_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "setscan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)

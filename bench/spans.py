"""In-memory spans around the public functions of fmlab's modules.

The wrappers are installed from the benchmark's own files: every fmlab
module attribute (and class attribute) that binds a wrapped function is
replaced, so names imported into other modules (`occurrence_set` in
`arithx`, `parse` in `arithx`) are caught too.  Install them before any
input is built, so that references captured at construction time (the
`evaluate` inside a sentence-defined quantifier) are the traced ones.

A span is (job, name, parent, start, end); spans are recorded only while
a job runs.  A layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from array import array
from time import perf_counter

import fmlab

# (module, attribute path, span name)
TARGETS = (
    ("syntax", "parse", "syntax.parse"),
    ("evaluator", "evaluate", "evaluator.evaluate"),
    ("evaluator", "evaluate_fast", "evaluator.evaluate_fast"),
    ("evaluator", "define_relation", "evaluator.define_relation"),
    ("evaluator", "ef_equivalent", "evaluator.ef_equivalent"),
    ("evaluator", "TruthTables.table", "evaluator.TruthTables.table"),
    ("transforms", "relativize_formula", "transforms.relativize_formula"),
    ("transforms", "substitute", "transforms.substitute"),
    ("model", "relativize", "model.relativize"),
    ("model", "PartialArithModel.__init__", "model.PartialArithModel"),
    ("model", "PartialArithModel.gamma", "model.PartialArithModel.gamma"),
    ("model", "PartialArithModel.is_full",
     "model.PartialArithModel.is_full"),
    ("arithx", "mu_step", "arithx.mu_step"),
    ("arithx", "choose_seed", "arithx.choose_seed"),
    ("arithx", "nu_from_set", "arithx.nu_from_set"),
    ("arithx", "synthesize_multiplication",
     "arithx.synthesize_multiplication"),
    ("cli", "main", "cli.main"),
    ("sets", "f_omega", "sets.f_omega"),
    ("sets", "loose_at", "sets.loose_at"),
    ("sets", "pseudoloose_at", "sets.pseudoloose_at"),
    ("sets", "occurrence_set", "sets.occurrence_set"),
    ("sets", "NumericalSet.elements_below", "sets.elements_below"),
)


def _nodes(counts, args, out):
    counts["syntax.parse.nodes"] += sum(
        1 for _ in fmlab.syntax.subformulas(out))


def _tuples(counts, args, out):
    counts["evaluator.define_relation.tuples"] += len(out)


def _round(counts, args, out):
    counts["arithx.mu_step.useful"] += out.mult != args[0].mult
    counts["arithx.mu_step.triples_out"] += len(out.mult)


COUNTERS = {"syntax.parse": _nodes, "evaluator.define_relation": _tuples,
            "arithx.mu_step": _round}

# what the traced run reports: (metric, span name, kind)
LAYER_METRICS = (
    ("syntax.parse.calls", "syntax.parse", "calls"),
    ("syntax.parse.self_s", "syntax.parse", "self_s"),
    ("syntax.parse.nodes", None, "count"),
    ("evaluator.evaluate.calls", "evaluator.evaluate", "calls"),
    ("evaluator.evaluate.self_s", "evaluator.evaluate", "self_s"),
    ("quantifiers.decide.calls", "quantifiers.decide", "calls"),
    ("quantifiers.decide.self_s", "quantifiers.decide", "self_s"),
    ("evaluator.TruthTables.table.calls", "evaluator.TruthTables.table",
     "calls"),
    ("evaluator.TruthTables.table.self_s", "evaluator.TruthTables.table",
     "self_s"),
    ("evaluator.evaluate_fast.calls", "evaluator.evaluate_fast", "calls"),
    ("evaluator.evaluate_fast.self_s", "evaluator.evaluate_fast", "self_s"),
    ("evaluator.define_relation.calls", "evaluator.define_relation", "calls"),
    ("evaluator.define_relation.self_s", "evaluator.define_relation",
     "self_s"),
    ("evaluator.define_relation.tuples", None, "count"),
    ("quantifiers.sizes_decide.calls", "quantifiers.sizes_decide", "calls"),
    ("quantifiers.sizes_decide.self_s", "quantifiers.sizes_decide", "self_s"),
    ("evaluator.ef_equivalent.calls", "evaluator.ef_equivalent", "calls"),
    ("evaluator.ef_equivalent.self_s", "evaluator.ef_equivalent", "self_s"),
    ("transforms.relativize_formula.self_s", "transforms.relativize_formula",
     "self_s"),
    ("transforms.substitute.self_s", "transforms.substitute", "self_s"),
    ("model.relativize.self_s", "model.relativize", "self_s"),
    ("arithx.mu_step.calls", "arithx.mu_step", "calls"),
    ("arithx.mu_step.self_s", "arithx.mu_step", "self_s"),
    ("arithx.mu_step.useful", None, "count"),
    ("arithx.mu_step.useful_ratio", None, "useful_ratio"),
    ("arithx.mu_step.triples_out", None, "count"),
    ("arithx.choose_seed.self_s", "arithx.choose_seed", "self_s"),
    ("arithx.nu_from_set.self_s", "arithx.nu_from_set", "self_s"),
    ("arithx.synthesize_multiplication.self_s",
     "arithx.synthesize_multiplication", "self_s"),
    ("model.PartialArithModel.calls", "model.PartialArithModel", "calls"),
    ("model.PartialArithModel.self_s", "model.PartialArithModel", "self_s"),
    ("model.PartialArithModel.gamma.self_s", "model.PartialArithModel.gamma",
     "self_s"),
    ("model.PartialArithModel.is_full.self_s",
     "model.PartialArithModel.is_full", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("sets.f_omega.calls", "sets.f_omega", "calls"),
    ("sets.f_omega.self_s", "sets.f_omega", "self_s"),
    ("sets.loose_at.self_s", "sets.loose_at", "self_s"),
    ("sets.pseudoloose_at.self_s", "sets.pseudoloose_at", "self_s"),
    ("sets.occurrence_set.calls", "sets.occurrence_set", "calls"),
    ("sets.occurrence_set.self_s", "sets.occurrence_set", "self_s"),
    ("sets.elements_below.calls", "sets.elements_below", "calls"),
    ("sets.elements_below.self_s", "sets.elements_below", "self_s"),
)

EXACT = tuple(name for name, _, kind in LAYER_METRICS
              if kind in ("calls", "count"))


class Tracer:
    def __init__(self):
        self.job = None
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_job = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(
            [name for name, _, kind in LAYER_METRICS if kind == "count"], 0)
        self.restore: list = []

    def _id(self, name) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name):
        nid = self._id(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def _open(self, nid) -> int:
        idx = len(self.span_name)
        self.span_job.append(self.job)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as job `job_id`, under a root span "job"."""
        self.job = job_id
        idx = self._open(self._id("job"))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.job = None

    def install(self):
        """Replace every binding of each target in fmlab's modules."""
        mods = [m for k, m in sys.modules.items()
                if k == "fmlab" or k.startswith("fmlab.")]
        for modname, path, name in TARGETS:
            owner = getattr(fmlab, modname)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                orig = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(orig, name))
                self.restore.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(orig, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        self.restore.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.restore):
            setattr(owner, attr, orig)
        self.restore.clear()

    def quantifiers(self, registry: dict) -> dict:
        """Copies of registry entries whose decision procedures are timed."""
        out = {}
        for key, q in registry.items():
            sizes = q.sizes_decide
            out[key] = dataclasses.replace(
                q, decide=self.wrap(q.decide, "quantifiers.decide"),
                sizes_decide=None if sizes is None
                else self.wrap(sizes, "quantifiers.sizes_decide"))
        return out

    def self_times(self) -> dict:
        """name -> (calls, self seconds), over the spans of jobs."""
        child = [0.0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i, nid in enumerate(self.span_name):
            acc = out[self.names[nid]]
            acc[0] += 1
            acc[1] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def layer_metrics(self) -> dict:
        agg = self.self_times()
        out = {}
        for metric, span, kind in LAYER_METRICS:
            calls, self_s = agg.get(span, (0, 0.0))
            if kind == "calls":
                out[metric] = calls
            elif kind == "self_s":
                out[metric] = self_s
            elif kind == "count":
                out[metric] = self.counts[metric]
        calls = agg.get("arithx.mu_step", (0, 0.0))[0]
        out["arithx.mu_step.useful_ratio"] = (
            self.counts["arithx.mu_step.useful"] / calls if calls else 0.0)
        return out

    def write(self, path):
        """All spans as CSV: job, name, parent, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span,job,name,parent,start,end\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_job[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_parent[i]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f}\n")

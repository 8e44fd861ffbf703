"""Seeded job mixes for the fmlab benchmark.

A workload is a pattern of job kinds repeated over a pool of jobs.  Every
job is built from the seed alone and ends in a verdict: it parses its
input (a formula text, a model file or a command line) and then decides.
The sizes of each kind, and where it matters a second parameter, follow a
two-dimensional low-discrepancy (R2) sequence with a seeded start, so any
prefix of the pool covers the parameter ranges evenly; this keeps a run
that stops at a deadline representative of the whole mix.

The formulas are written out here rather than taken from `fmlab.suites`,
so the inputs stay the same when the suites change.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from fmlab import (arithx, cli, evaluator, model, quantifiers as qm, sets,
                   syntax, transforms)

# steps of the R2 sequence: 1/g and 1/g^2 for the plastic number g
_G = 1.324717957244746
R2 = (1 / _G, 1 / _G ** 2)
UV = {"U": 1, "V": 1}


@dataclass(frozen=True)
class Job:
    kind: str
    size: int
    data: tuple


# ---------------------------------------------------------------------------
# formula texts


def _median_text() -> str:
    """|U| = |V| by splitting both sets at their medians and comparing the
    four halves with one word quantifier (the median-trick construction)."""
    def slots(a, b):
        return f"QL1(x: {a('x')}; y: {b('y')}; w: !(({a('w')}) | ({b('w')})))"

    def median(w, z, low):
        return (f"({w}({z}) & "
                + slots(lambda v: f"{w}({v}) & {low(v, z)}",
                        lambda v: f"{w}({v}) & {z} < {v}") + ")")

    def case(w1, w2, low):
        return (f"E z. E z2. ({median(w1, 'z', low)} & "
                f"{median(w2, 'z2', low)} & "
                + slots(lambda v: f"{w1}({v}) & {low(v, 'z')}",
                        lambda v: f"{w2}({v}) & z2 < {v}") + ")")

    strict = lambda v, z: f"{v} < {z}"
    weak = lambda v, z: f"@le({v}, {z})"
    cases = ["(A x. !U(x)) & (A x. !V(x))",
             case("U", "V", strict), case("V", "U", strict),
             case("U", "V", weak), case("V", "U", weak)]
    return " | ".join(f"({c})" for c in cases)


MEDIAN_TEXT = _median_text()

# first the U-only block, then V-only, then the rest; ambient order inside
_TAILORED_ORDER = (
    "(((U(t) <-> U(u)) & (V(t) <-> V(u))) & @le(t, u))"
    " | (U(t) & !V(t) & !(U(u) & !V(u)))"
    " | (!U(t) & V(t) & (U(u) <-> V(u)))"
    " | (U(t) & V(t) & !U(u) & !V(u))")
LIFT_TEXT = ("Qab_le(x: U(x) & !V(x); y: V(y) & !U(y); z: U(z) <-> V(z); "
             f"t, u: {_TAILORED_ORDER})")

ADDITION_TEXT = "@le(y, z) & I(u: u < x; v: y < v & @le(v, z))"
ORDER_TEXT = "E z. x + z = y"
GUARD_TEXT = "P(v)"
RC_SENTENCE = "E x. (@set:rcS(x) & A y. (U(y) <-> @le(y, x)))"

# relativization: outer sentences over the defined predicate W and V
REL_TEMPLATES = (
    "I(x: W(x); y: V(y))",
    "D_2(x: W(x))",
    "D_3(x: W(x))",
    "C_Sq(x: W(x) | V(x))",
    "E z. (V(z) & D_2(x: W(x) & x < z))",
    "Qrc(x: W(x); p: V(p))",
)
# definitions substituted for W(p)
REL_DEFS = ("U(p) & !V(p)", "U(p) | V(p)", "U(p) <-> V(p)", "U(p)", "!V(p)")

DIVMOD_MS = (2, 3, 5)


def divmod_texts(m: int) -> tuple:
    """Four sentences about |U| mod m: the shifted cardinality quantifier,
    the same through divisibility, divisibility, and divisibility through
    the shifted cardinality quantifier."""
    c, d = f"Cmod{m}", f"Dmod{m}"
    zs = [f"z{i}" for i in range(1, m)]
    distinct = [f"!({a} = {b})" for a, b in itertools.combinations(zs, 2)]
    inner = " & ".join([f"U({z})" for z in zs] + distinct)
    strip = " & ".join(f"!(x = {z})" for z in zs)
    body = f"({inner}) & {c}(x: U(x) & {strip})"
    for z in reversed(zs):
        body = f"E {z}. ({body})"
    return (f"{c}(x: U(x))",
            f"E z. (U(z) & {d}(x: U(x) & !(x = z)))",
            f"{d}(x: U(x))",
            f"(A x. !U(x)) | ({body})")


def registry() -> dict:
    """Every quantifier the logic workloads use, built once in set-up."""
    rc_builtins = model.builtin_registry({"rcS": sets.explicit([2, 5])})
    rc = qm.quantifier_from_sentence(
        "Qrc", [("U", 1)], syntax.parse(RC_SENTENCE, {"U": 1}),
        builtins=rc_builtins)
    reg = {
        "QL1": replace(qm.language_quantifier(qm.neutral_letter_extension(
            qm.lang_anbn(), "e")), name="QL1"),
        "Qab_le": qm.lift_over_order(replace(
            qm.language_quantifier(qm.lang_ambmck()), name="Qab")),
        "I": qm.hartig(),
        "D_2": qm.divisibility_by(2),
        "D_3": qm.divisibility_by(3),
        "C_Sq": qm.cardinality(sets.squares(), "C_Sq"),
        "Qrc": replace(qm.regularize(rc), name="Qrc"),
    }
    for m in DIVMOD_MS:
        reg[f"Cmod{m}"] = qm.cardinality(
            sets.shifted(1, sets.multiples(m)), f"Cmod{m}")
        reg[f"Dmod{m}"] = qm.divisibility_by(m)
    return reg


# ---------------------------------------------------------------------------
# input generation


def _scale(u: float, lo: int, hi: int, log: bool = False) -> int:
    if log:
        return min(hi, int(lo * (hi / lo) ** u))
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _perm(rng, n):
    f = list(range(n))
    rng.shuffle(f)
    return f


def _uv_model(rng, n, extra=()):
    rels = {name: {(a,) for a in range(n) if rng.random() < 0.5}
            for name in ("U", "V") + tuple(extra)}
    return model.BrModel(n, {name: 1 for name in rels}, rels, _perm(rng, n))


def gen_median(rng, u, v):
    n = _scale(u, 3, 9)
    return Job("median", n, (_uv_model(rng, n),))


def gen_lift(rng, u, v):
    n = _scale(u, 2, 8)
    return Job("lift", n, (_uv_model(rng, n),))


def gen_relativize(rng, u, v):
    n = _scale(u, 3, 9)
    m = _uv_model(rng, n, ("P",))
    # the guard is never empty: it always holds one drawn point
    p = m.rels["P"] | {(rng.randrange(n),)}
    m = model.BrModel(n, m.arities, {**m.rels, "P": p}, m.f)
    return Job("relativize", n, (m, rng.randrange(len(REL_TEMPLATES)),
                                 rng.randrange(len(REL_DEFS))))


def _order_model_text(rng, p):
    return (f"model\nn {p}\nf {' '.join(map(str, _perm(rng, p)))}\n"
            f"rel A 1 : {' '.join(map(str, range(p)))}\nend\n")


def gen_ef(rng, u, v):
    # two rounds on orders up to 9 points; three rounds (threshold 7) on
    # 4..8 points, where both verdicts occur
    r = 2 if u < 0.6 else 3
    lo, hi = (1, 9) if r == 2 else (4, 8)
    p, q = _scale(v, lo, hi), rng.randint(lo, hi)
    return Job("ef", max(p, q), (_order_model_text(rng, p),
                                 _order_model_text(rng, q), r, p, q))


def gen_addition(rng, u, v):
    n = _scale(u, 16, 96)
    return Job("addition", n, (model.BrModel(n, {}, {}),))


def gen_order(rng, u, v):
    n = _scale(u, 16, 128)
    return Job("order", n, (model.BrModel(n, {}, {}, _perm(rng, n)),))


def gen_divmod(rng, u, v):
    n = _scale(u, 6, 14)
    mask = rng.randrange(1 << n)
    m = model.BrModel(n, {"U": 1}, {"U": {(a,) for a in range(n)
                                          if mask >> a & 1}}, _perm(rng, n))
    return Job("divmod", n, (rng.choice(DIVMOD_MS), m))


def gen_fastqapp(rng, u, v):
    n = _scale(u, 3, 8)
    return Job("fastqapp", n, (rng.choice(("median", "lift")),
                               _uv_model(rng, n)))


def gen_mulext(rng, u, v):
    n = _scale(u, 150, 400)
    return Job("mulext", n, (["mulext", "--n", str(n)],))


def gen_pipeline(rng, u, v):
    n = _scale(u, 150, 300)
    spec = "sq" if v < 0.5 else "poly:0,1,1"
    return Job("pipeline", n, (["pipeline", "--set", spec, "--n", str(n),
                                "--eps", "1/3"],))


def _partial_mult(rng, n, p):
    picked = {(a, b, a * b) for a in range(n) for b in range(n)
              if a * b < n and rng.random() < p}
    picked |= model.zero_rows(n)
    return model.PartialArithModel(n, picked)


def gen_round(rng, u, v):
    n = _scale(u, 20, 150)
    return Job("round", n, (_partial_mult(rng, n, v),))


def gen_round_small(rng, u, v):
    # small enough for the formula oracle (n <= 7 keeps it under 0.4 s)
    n = _scale(u, 4, 7)
    return Job("round-small", n, (_partial_mult(rng, n, v),))


SET_SPECS = ("sq", "fact", "pow2", "poly:0,1,1", "compl:sq", "shift:+{k}:sq",
             "mult:{m}", "primes")


def gen_setscan(spec, rng, u, v):
    n = _scale(u, 3000, 30000, log=True)
    spec = spec.format(k=rng.randint(1, 9), m=rng.randint(2, 9))
    eps = Fraction(1, _scale(v, 4, 20))
    return Job("setscan", n, (spec, n, eps))


# ---------------------------------------------------------------------------
# execution


def run_median(reg, m):
    phi = syntax.parse(MEDIAN_TEXT, UV, {"QL1": [1, 1, 1]})
    return evaluator.evaluate(m, phi, {}, quantifiers=reg)


def run_lift(reg, m):
    phi = syntax.parse(LIFT_TEXT, UV, {"Qab_le": [1, 1, 1, 2]})
    return evaluator.evaluate(m, phi, {}, quantifiers=reg)


def run_relativize(reg, m, template, definition):
    shapes = qm.registry_shapes(reg)
    phi = syntax.parse(REL_TEMPLATES[template], {"W": 1, "V": 1}, shapes)
    body = syntax.parse(REL_DEFS[definition], UV)
    phi = transforms.substitute(phi, {"W": (("p",), body)})
    guarded = transforms.relativize_formula(
        phi, syntax.parse(GUARD_TEXT, {"P": 1}), "v", registry=reg)
    sub, _ = model.relativize(m, [a for (a,) in m.rels["P"]])
    return (evaluator.evaluate(m, guarded, {}, quantifiers=reg),
            evaluator.evaluate(sub, phi, {}, quantifiers=reg))


def run_ef(reg, text1, text2, r, *sizes):
    # the sizes are for the reference only
    return evaluator.ef_equivalent(model.parse_model(text1),
                                   model.parse_model(text2), r)


def _digest(rel: frozenset) -> tuple:
    return len(rel), hash(rel)


def run_addition(reg, m):
    phi = syntax.parse(ADDITION_TEXT, {}, {"I": [1, 1]})
    return _digest(evaluator.define_relation(m, phi, ("x", "y", "z"),
                                             quantifiers=reg))


def run_order(reg, m):
    return _digest(evaluator.define_relation(m, syntax.parse(ORDER_TEXT),
                                             ("x", "y")))


def run_divmod(reg, mod, m):
    shapes = {f"Cmod{mod}": [1], f"Dmod{mod}": [1]}
    # all four formulas stay alive while the shared tables are in use, as
    # in the divmod-interdef suite: TruthTables memoizes by id(formula)
    phis = [syntax.parse(t, {"U": 1}, shapes) for t in divmod_texts(mod)]
    tables = evaluator.TruthTables(m, quantifiers=reg)
    return tuple(bool(tables.table(phi)[1] & 1) for phi in phis)


def run_fastqapp(reg, which, m):
    if which == "median":
        phi = syntax.parse(MEDIAN_TEXT, UV, {"QL1": [1, 1, 1]})
    else:
        phi = syntax.parse(LIFT_TEXT, UV, {"Qab_le": [1, 1, 1, 2]})
    return evaluator.evaluate_fast(m, phi, {}, quantifiers=reg)


def run_cli(reg, argv):
    """Exit code and the triple count of the last extension round."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    rows = [line.split() for line in out.getvalue().splitlines()]
    counts = [int(r[1]) for r in rows if len(r) >= 2 and r[0].isdigit()]
    return code, counts[-1] if counts else None


def run_round(reg, pm):
    out = arithx.mu_step(pm).mult
    # a flat int32 array keeps the stored verdicts small
    return np.fromiter(itertools.chain.from_iterable(out), dtype=np.int32,
                       count=3 * len(out))


def run_round_small(reg, pm):
    return arithx.mu_step(pm).mult


def run_setscan(reg, spec, n, eps):
    s = sets.parse_set_spec(spec)
    return (sets.f_omega(s, n), sets.loose_at(s, n, eps),
            sets.pseudoloose_at(s, n, eps))


RUN = {
    "median": run_median, "lift": run_lift, "relativize": run_relativize,
    "ef": run_ef, "addition": run_addition, "order": run_order,
    "divmod": run_divmod, "fastqapp": run_fastqapp, "mulext": run_cli,
    "pipeline": run_cli, "round": run_round, "round-small": run_round_small,
    "setscan": run_setscan,
}


def execute(job: Job, reg: dict):
    return RUN[job.kind](reg, *job.data)


# ---------------------------------------------------------------------------
# workloads

GEN = {
    "median": gen_median, "lift": gen_lift, "relativize": gen_relativize,
    "ef": gen_ef, "addition": gen_addition, "order": gen_order,
    "divmod": gen_divmod, "fastqapp": gen_fastqapp, "mulext": gen_mulext,
    "pipeline": gen_pipeline, "round": gen_round,
    "round-small": gen_round_small,
}
# one pattern entry per set family, so every run holds the same mix of
# families and each family has its own size sequence
GEN.update({f"setscan {spec}": functools.partial(gen_setscan, spec)
            for spec in SET_SPECS})


@dataclass(frozen=True)
class Workload:
    pattern: tuple   # generators (job kinds) of one cycle, in order
    cycles: int      # cycles in the pool
    trace_jobs: int  # jobs a traced run executes


WORKLOADS = {
    "logic-point": Workload(
        ("median", "lift", "median", "relativize", "median", "ef",
         "median", "relativize", "median", "lift"), 300, 500),
    "logic-sweep": Workload(
        ("addition", "order", "divmod", "fastqapp", "order", "divmod",
         "fastqapp", "divmod"), 600, 700),
    "extension": Workload(
        ("mulext", "round", "round", "round", "round-small", "pipeline",
         "round", "round", "round", "round"), 50, 70),
    "setscan": Workload(tuple(f"setscan {spec}" for spec in SET_SPECS),
                        125, 80),
}


def build(name: str, seed: int):
    """The job pool and the warm-up jobs (the smallest job of each kind)
    of a workload; both depend on the seed only."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    starts = {entry: (rng.random(), rng.random()) for entry in wl.pattern}
    seen = dict.fromkeys(wl.pattern, 0)
    pool = []
    for entry in wl.pattern * wl.cycles:
        j = seen[entry]
        seen[entry] += 1
        u, v = ((s + j * a) % 1.0 for s, a in zip(starts[entry], R2))
        pool.append(GEN[entry](rng, u, v))
    warm = [GEN[entry](rng, 0.0, 0.5) for entry in dict.fromkeys(wl.pattern)]
    return pool, warm

"""Named verification suites.

Each suite re-checks a family of semantic claims at fixed, recorded
parameters: formula-defined relations against directly computed ones,
transformation contracts on randomized instances, the extension engine on
its recipe seeds, and so on.  Suites are deterministic — randomized parts
draw from a seeded generator and the seed is part of the report, so every
failure comes with a reproduction command.

A claim over many cases is built by `_first_failures` from a stream of
cases (usually drawn from the suite's seeded generator) and a check: it
fails at the first case the check rejects, names that case, and records
the cases checked and the time taken.  Checks that need the same costly
per-case work share one stream.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import arithx, quantifiers as quantmod, sets as setsmod
from .evaluator import TruthTables, define_relation, ef_equivalent, evaluate
from .model import (BrModel, PartialArithModel, builtin_registry,
                    full_multiplication, powerset_structure, relativize,
                    word_model, zero_rows)
from .randform import random_formula
from .syntax import Exists, parse, quantifier_rank
from .transforms import mso_translate, relativize_formula, substitute

DEFAULT_SEED = 271828


@dataclass
class Claim:
    label: str
    ok: bool
    detail: str = ""
    cases: int = 0
    seconds: float = field(default=0.0, compare=False)


@dataclass
class SuiteReport:
    name: str
    seed: int
    claims: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def lines(self) -> list[str]:
        out = [f"suite {self.name} (seed {self.seed})"]
        for c in self.claims:
            mark = "PASS" if c.ok else "FAIL"
            line = f"  {mark}  {c.label}"
            if c.detail:
                line += f"  [{c.detail}]"
            if c.cases:
                line += f"  ({c.cases} cases, {c.seconds:.2f} s)"
            out.append(line)
        if not self.ok:
            out.append(f"  reproduce: fmlab check {self.name} "
                       f"--seed {self.seed}")
        return out


def _first_failures(cases: Iterable[tuple], *checks: tuple) -> list[Claim]:
    """One Claim per `(label, at, check)`, failed with detail `at=where`
    at the first `(where, *args)` of `cases` with `check(*args)` false.

    A failed check is not run again, and no case is drawn once every check
    has failed.  A claim's `cases` counts the cases its check saw, the
    failing one included; its `seconds` run from the first draw to the end
    of its search, so the claims of one stream share its time."""
    start = time.perf_counter()
    claims = [Claim(label, True) for label, _, _ in checks]
    live = [(claim, at, check)
            for claim, (_, at, check) in zip(claims, checks)]
    drawn = 0
    for where, *args in cases:
        drawn += 1
        for claim, at, check in live:  # the list as it was before this case
            if not check(*args):
                claim.ok, claim.detail = False, f"{at}={where}"
                claim.cases, claim.seconds = drawn, time.perf_counter() - start
                live = [entry for entry in live if entry[0].ok]
        if not live:
            break
    for claim, _, _ in live:
        claim.cases, claim.seconds = drawn, time.perf_counter() - start
    return claims


def _decides_as_expected(q, n, rels, f, want) -> bool:
    return q.decide(n, rels, f) == want


def _rejects(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


def _random_fo_model(rng, n, arities, p=0.4) -> BrModel:
    rels = {name: {t for t in itertools.product(range(n), repeat=ar)
                   if rng.random() < p}
            for name, ar in arities.items()}
    f = list(range(n))
    rng.shuffle(f)
    return BrModel(n, arities, rels, f)


def _equicardinality_claims(label, rng, phi, reg, count, max_n) -> list[Claim]:
    """phi decides |U| = |V| on `count` random models with n <= max_n."""
    models = ((i, _random_fo_model(rng, rng.randrange(1, max_n + 1),
                                   {"U": 1, "V": 1}, p=0.5))
              for i in range(count))
    return _first_failures(models, (
        label, "instance",
        lambda m: evaluate(m, phi, {}, quantifiers=reg)
        == (len(m.rels["U"]) == len(m.rels["V"]))))


def _mask_rel(mask: int, n: int) -> frozenset:
    return frozenset((i,) for i in range(n) if mask >> i & 1)


def _mask_bits(n: int) -> np.ndarray:
    """Every subset of n points as a unary slot: row `mask` holds bit i of
    mask at column i."""
    return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)


# ---------------------------------------------------------------------------
# arithmetic from the equicardinality quantifier

ADDITION_NS = range(2, 65)


def _suite_haertig_addition(seed) -> list[Claim]:
    reg = {"I": quantmod.hartig()}
    phi = parse("@le(y, z) & I(u: u < x; v: y < v & @le(v, z))", {},
                quantmod.registry_shapes(reg))

    def defines_addition(n):
        got = define_relation(BrModel(n, {}, {}, list(range(n))), phi,
                              ("x", "y", "z"), quantifiers=reg)
        return got == frozenset((a, b, a + b) for a in range(n)
                                for b in range(n) if a + b < n)

    return _first_failures(((n, n) for n in ADDITION_NS), (
        "equicardinality formula defines restricted addition for every n "
        "in 2..64", "mismatch at n", defines_addition))


ORDER_NS = range(1, 65)
ORDER_TRIALS = 20


def _suite_order_from_plus(seed) -> list[Claim]:
    rng = random.Random(seed)
    phi = parse("E z. x + z = y")

    def defines_order(f):
        n = len(f)
        got = define_relation(BrModel(n, {}, {}, f), phi, ("x", "y"))
        return got == frozenset((a, b) for a in range(n) for b in range(n)
                                if f[a] <= f[b])

    def shuffled():
        for n in ORDER_NS:
            for trial in range(1, ORDER_TRIALS + 1):
                f = list(range(n))
                rng.shuffle(f)
                yield (n, trial), f

    return (_first_failures(((n, list(range(n))) for n in ORDER_NS), (
                "addition witness formula defines the order for the identity "
                "permutation, n <= 64", "mismatch at n", defines_order))
            + _first_failures(shuffled(), (
                f"same for {ORDER_TRIALS} random permutations per n <= 64",
                "mismatch at n,trial", defines_order)))


# ---------------------------------------------------------------------------
# the multiplication extension engine

MULEXT_NS = (10, 20, 40, 60)
MULEXT_SEEDS = 200


def _random_partial_mult(rng, n: int) -> PartialArithModel:
    p = rng.random()
    picked = {t for t in sorted(full_multiplication(n)) if rng.random() < p}
    picked |= zero_rows(n)
    return PartialArithModel(n, picked)


def _suite_mulext_lemma(seed) -> list[Claim]:
    rng = random.Random(seed)

    def rounds():
        for n in MULEXT_NS:
            for i in range(MULEXT_SEEDS):
                pm = _random_partial_mult(rng, n)
                mu = arithx.mu_step(pm)
                g0 = [0] + [pm.gamma(a) for a in range(1, n)]
                g1 = [0] + [mu.gamma(a) for a in range(1, n)]
                yield (n, i), n, mu.mult, g0, g1

    def symmetric_mult(n, mult, g0, g1):
        return (all(a * b == c < n for a, b, c in mult)
                and {(b, a, c) for a, b, c in mult} == mult)

    def spreads(n, mult, g0, g1):
        return all(g1[b] >= min(g0[a] // ((b - 1) // a), (n - 1) // b)
                   for a in range(1, n)
                   for b in range(a + 1, min(a * a + a, n - 1) + 1))

    at = "seed index (n,i)"
    return _first_failures(
        rounds(),
        ("one extension round outputs a symmetric partial multiplication "
         "(200 seeds at n=10,20,40,60)", at, symmetric_mult),
        ("the filled rectangle never shrinks", at,
         lambda n, mult, g0, g1: all(g1[a] >= g0[a] for a in range(1, n))),
        ("rectangle reach is symmetric in its two sides", at,
         lambda n, mult, g0, g1: all((g1[a] >= b) == (g1[b] >= a)
                                     for a in range(1, n)
                                     for b in range(1, n))),
        ("reach spreads from a to each b <= a^2 + a at the guaranteed rate",
         at, spreads))


MULEXT_PROP_NS = (64, 100, 216)


def _suite_mulext_prop(seed) -> list[Claim]:
    def seed(n):
        try:
            return arithx.choose_seed(n, 3)[1]
        except ValueError:
            return None

    return _first_failures(
        ((n, seed(n)) for n in MULEXT_PROP_NS),
        ("a rectangle seed satisfying the k=3 width hypothesis exists at "
         "n=64,100,216", "no witness at n", lambda pm: pm is not None),
        ("at most six extension rounds reach the full restricted "
         "multiplication", "not full at n",
         lambda pm: pm is None or arithx.extension_trace(pm, 3)[-1].is_full()))


# ---------------------------------------------------------------------------
# numerical set diagnostics

SET_E_NS = (18, 36, 72, 144)
SET_SQ_NS = (100, 1000, 10000)
SET_F_NS = (23, 119, 719)


def _suite_set_criteria(seed) -> list[Claim]:
    fact = setsmod.factorials()
    pows = setsmod.powers_of_two()
    squares = setsmod.squares()
    got = setsmod.f_omega(fact, 23)
    c1 = Claim("factorials at n=23: least offset 8, least period 1",
               got == (8, 1), f"got {got}")
    recheck = (setsmod.is_periodic_on(fact, 23, 8, 1)
               and not any(setsmod.is_periodic_on(fact, 23, l, w)
                           for l in range(1, 8) for w in range(1, l + 1)))
    c2 = Claim("offset/period for factorials re-validated by direct "
               "periodicity checks", recheck)
    worst = min((setsmod.f_omega(pows, n)[0] - (-(-n // 9)), n)
                for n in SET_E_NS)
    c3 = Claim("powers of two: least offset at least ceil(n/9) for "
               "n=18,36,72,144", worst[0] >= 0,
               "" if worst[0] >= 0 else f"short by {-worst[0]} at n={worst[1]}")
    sq = setsmod.nonperiodicity_criterion(squares, 5, 0, list(SET_SQ_NS))
    c4 = Claim("non-periodicity criterion (k=5, l=0) holds for squares at "
               "n=100,1000,10000", all(sq.values()), f"{sq}")
    fa = setsmod.nonperiodicity_criterion(fact, 10, 5, list(SET_F_NS))
    # the criterion's quantity k*f*omega^l - n, which holds at 0 and above
    margins = {n: 10 * f * omega ** 5 - n
               for n in SET_F_NS for f, omega in [setsmod.f_omega(fact, n)]}
    c5 = Claim("non-periodicity criterion (k=10, l=5) fails for factorials "
               "at n=23,119,719", not any(fa.values()),
               f"{fa}; k*f*omega^l - n = {margins}")
    return [c1, c2, c3, c4, c5]


LOOSE_NS = (10_000, 100_000)


def _suite_looseness_examples(seed) -> list[Claim]:
    claims = []
    eps10 = Fraction(1, 10)
    for label, s in (("squares", setsmod.squares()),
                     ("range of x^2 + x", setsmod.poly_range([0, 1, 1]))):
        reports = [setsmod.loose_at(s, n, eps10) for n in LOOSE_NS]
        ok = all(r.verdict == "loose-at-n" and setsmod.recheck_report(s, r)
                 for r in reports)
        claims.append(Claim(f"{label} are loose at eps=1/10 for n=1e4,1e5 "
                            "(witnesses re-validated)", ok,
                            "; ".join(f"n={r.n}: {r.verdict}" for r in reports)))
    pows = setsmod.powers_of_two()
    eps4 = Fraction(1, 4)
    rl = setsmod.loose_at(pows, 4096, eps4)
    rp = setsmod.pseudoloose_at(pows, 4096, eps4)
    # t is loose at eps = p/q when q*t*gamma - p*n >= 0; at 0, >= and > part
    p, q = eps4.numerator, eps4.denominator
    margin = ("" if rl.witness_t is None else ", q*t*gamma - p*n = "
              f"{q * rl.witness_t * rl.gamma_value - p * rl.n}")
    claims.append(Claim("powers of two are neither loose nor pseudoloose at "
                        "eps=1/4, n=4096",
                        rl.verdict == "neither" and rp.verdict == "neither",
                        f"loose scan: {rl.verdict} (t={rl.witness_t}, "
                        f"gamma={rl.gamma_value}{margin}); pseudoloose scan: "
                        f"{rp.verdict} (word={rp.witness_word!r})"))
    comp = setsmod.complement(setsmod.squares())
    rc = setsmod.pseudoloose_at(comp, 10_000, Fraction(1, 20))
    claims.append(Claim("complement of the squares is pseudoloose at "
                        "eps=1/20, n=1e4 (witness re-validated)",
                        rc.verdict == "pseudoloose-at-n"
                        and setsmod.recheck_report(comp, rc),
                        f"word={rc.witness_word!r}, t={rc.witness_t}"))
    return claims


# ---------------------------------------------------------------------------
# formula transformations

REL_QUANT_NAMES = ("C_Sq", "C_E", "I", "D", "D_2")
REL_INSTANCES = 500


def _suite_relativization(seed) -> list[Claim]:
    rng = random.Random(seed)
    reg = {name: quantmod.builtin_quantifiers()[name]
           for name in REL_QUANT_NAMES}
    shapes = quantmod.registry_shapes(reg)
    guard = parse("P(v)", {"P": 1})

    def points():
        done = 0
        while done < REL_INSTANCES:
            n = rng.randrange(2, 9)
            m = _random_fo_model(rng, n, {"U": 1, "R": 2, "P": 1})
            u = sorted(a for (a,) in m.rels["P"])
            if not u:
                continue
            phi = random_formula(rng, {"U": 1, "R": 2}, rng.randrange(1, 4),
                                 ("x",), quants=shapes,
                                 builtins=("le", "lt"))
            guarded = relativize_formula(phi, guard, "v", registry=reg)
            sub, idx = relativize(m, u)
            for x in u:
                yield (done, x), m, guarded, x, sub, phi, idx[x]
            done += 1

    def agrees(m, guarded, x, sub, phi, y):
        return (evaluate(m, guarded, {"x": x}, quantifiers=reg)
                == evaluate(sub, phi, {"x": y}, quantifiers=reg))

    claims = _first_failures(points(), (
        f"guarded formula on the full model agrees with the bare formula on "
        f"the induced substructure ({REL_INSTANCES} random instances, "
        f"n <= 8)", "instance,point", agrees))
    rejected = sum(map(_rejects, (
        lambda: relativize_formula(parse("x + y = z"), guard, "v"),
        lambda: relativize_formula(
            parse("Maj(x: U(x))", {"U": 1}, {"Maj": [1]}), guard, "v",
            registry=quantmod.builtin_quantifiers()),
        lambda: relativize_formula(parse("U(x)", {"U": 1}),
                                   parse("R(v, w)", {"R": 2}), "v"))))
    claims.append(Claim("arithmetic built-ins, domain-dependent quantifiers "
                        "and non-unary guards are rejected", rejected == 3,
                        f"{rejected}/3 rejected"))
    return claims


SUBST_INSTANCES = 500


def _suite_substitution(seed) -> list[Claim]:
    rng = random.Random(seed)
    base = {"U": 1, "R": 2}

    def instances():
        for i in range(SUBST_INSTANCES):
            n = rng.randrange(1, 7)
            m = _random_fo_model(rng, n, base)
            body = random_formula(rng, base, rng.randrange(1, 4), ("p", "q"))
            phi = random_formula(rng, {**base, "S": 2}, rng.randrange(1, 4),
                                 ("x",))
            yield i, m, body, phi, {"x": rng.randrange(n)}

    def agrees(m, body, phi, point):
        subbed = substitute(phi, {"S": (("p", "q"), body)})
        m_s = m.with_relations({"S": define_relation(m, body, ("p", "q"))},
                               {"S": 2})
        return evaluate(m, subbed, point) == evaluate(m_s, phi, point)

    claims = _first_failures(instances(), (
        f"substituting a definition agrees with evaluating against the "
        f"defined relation ({SUBST_INSTANCES} random instances, n <= 6)",
        "instance", agrees))
    return claims + [Claim("arity mismatches are rejected", _rejects(
        lambda: substitute(parse("S(x, y)", {"S": 2}),
                           {"S": (("p",), parse("U(p)", {"U": 1}))})))]


# ---------------------------------------------------------------------------
# quantifier constructions

REG_UI_BASES = 10
REG_UI_PADDINGS = 100


def _pad_structure(rng, n0, slots0, f0, n):
    """Embed an n0-point slot structure into n points, preserving the
    relative order of the image; fresh points carry no relation tuples."""
    image = sorted(rng.sample(range(n), n0))
    fbig = list(range(n))
    rng.shuffle(fbig)
    sigma = np.zeros(n0, dtype=np.intp)
    sigma[sorted(range(n0), key=lambda e: f0[e])] = sorted(
        image, key=lambda e: fbig[e])
    return [quantmod.slot_array(n, sigma[np.argwhere(slot)], slot.ndim)
            for slot in slots0], fbig


def _suite_regularization_ui(seed) -> list[Claim]:
    rng = random.Random(seed)
    bases = [quantmod.cardinality(setsmod.squares(), "C_Sq"),
             quantmod.hartig(),
             quantmod.language_quantifier(quantmod.lang_anbn())]

    def paddings():
        for q in bases:
            qreg = quantmod.regularize(q)
            for b in range(REG_UI_BASES):
                n0 = rng.randrange(1, 7)
                f0 = list(range(n0))
                rng.shuffle(f0)
                slots0 = [np.array([rng.random() < 0.5
                                   for _ in range(n0 ** ar)]).reshape(
                                       (n0,) * ar)
                         for ar in qreg.slot_arities]
                want = qreg.decide(n0, slots0, f0)
                for p in range(REG_UI_PADDINGS):
                    n = rng.randrange(n0, 11)
                    mapped, fbig = _pad_structure(rng, n0, slots0, f0, n)
                    yield (q.name, b, p), qreg, n, mapped, fbig, want

    claims = _first_failures(paddings(), (
        f"regularized verdicts are invariant under {REG_UI_PADDINGS} random "
        "paddings per base structure (bases: C_Sq, I, the a^nb^n word "
        "quantifier; n <= 10)", "quantifier,base,padding",
        _decides_as_expected))
    # contrast: the bare word-language quantifier is padding sensitive
    q = quantmod.language_quantifier(quantmod.lang_anbn())
    inside = q.decide(2, [quantmod.slot_array(2, [0]),
                          quantmod.slot_array(2, [1])], np.arange(2))
    padded = q.decide(3, [quantmod.slot_array(3, [0]),
                          quantmod.slot_array(3, [1])], np.arange(3))
    claims.append(Claim("the bare word quantifier is not padding invariant "
                        "(so the extra slot is doing real work)",
                        bool(inside and not padded)))
    return claims


# the tailored order: first slot-only, then second-slot-only, then the rest,
# ambient order within each block
TAILORED_ORDER = (
    "(((U(x) <-> U(y)) & (V(x) <-> V(y))) & @le(x, y))"
    " | (U(x) & !V(x) & !(U(y) & !V(y)))"
    " | (!U(x) & V(x) & (U(y) <-> V(y)))"
    " | (U(x) & V(x) & !U(y) & !V(y))")

LIFT_NS = range(1, 10)
LIFT_CHUNK = 1 << 14  # (U, V) pairs a batch


def _order_lookup() -> tuple[bool, list]:
    """Evaluate the tailored-order formula on a probe structure covering
    every (class of x, class of y, ambient comparison) combination and read
    off its truth table; reports whether the readings are consistent."""
    n = 8
    cls = [x % 4 for x in range(n)]
    m = BrModel(n, {"U": 1, "V": 1},
                {"U": {(x,) for x in range(n) if cls[x] & 1},
                 "V": {(x,) for x in range(n) if cls[x] & 2}},
                list(range(n)))
    rel = define_relation(m, parse(TAILORED_ORDER, {"U": 1, "V": 1}),
                          ("x", "y"))
    table = {}
    consistent = True
    for x in range(n):
        for y in range(n):
            key = (cls[x], cls[y], x <= y)
            val = (x, y) in rel
            if table.setdefault(key, val) != val:
                consistent = False
    lut = [[(table[(a, b, False)], table[(a, b, True)]) for b in range(4)]
           for a in range(4)]
    return consistent, lut


def _suite_lift_hartig(seed) -> list[Claim]:
    rng = random.Random(seed)
    lifted = quantmod.lift_over_order(
        quantmod.language_quantifier(quantmod.lang_ambmck()))
    consistent, lut = _order_lookup()
    lut = np.array(lut)  # [class of x, class of y, x <= y]
    claims = [Claim("the tailored-order formula depends only on membership "
                    "classes and the ambient comparison", consistent)]

    def mismatches():
        # one case per batch of (U, V) pairs, in the order Umask, Vmask;
        # where names the first miss
        for n in LIFT_NS:
            dom = np.arange(n)
            bits = _mask_bits(n).astype(np.int8)
            sizes = bits.sum(axis=1)
            le = (dom[:, None] <= dom).astype(np.int8)
            for start in range(0, 1 << 2 * n, LIFT_CHUNK):
                pair = np.arange(start, min(start + LIFT_CHUNK, 1 << 2 * n))
                um, vm = pair >> n, pair & ((1 << n) - 1)
                cl = bits[um] + 2 * bits[vm]
                order = lut[cl[:, :, None], cl[:, None, :], le]
                got = lifted.decide(n, [cl == 1, cl == 2, (cl == 0) | (cl == 3),
                                        order], dom)
                wrong = np.flatnonzero(got != (sizes[um] == sizes[vm]))
                yield ((n, int(um[wrong[0]]), int(vm[wrong[0]]))
                       if len(wrong) else n), wrong

    claims += _first_failures(mismatches(), (
        "the ordered lift applied along the tailored order decides "
        "equicardinality on all (U, V), n <= 9", "n,Umask,Vmask",
        lambda wrong: not len(wrong)))
    # full-formula route on a sample, against the same verdicts
    reg = {"Qab_le": lifted}
    qtext = ("Qab_le(x: U(x) & !V(x); y: V(y) & !U(y); z: U(z) <-> V(z); "
             f"t, u: {TAILORED_ORDER.replace('x', 't').replace('y', 'u')})")
    phi = parse(qtext, {"U": 1, "V": 1}, quantmod.registry_shapes(reg))
    return claims + _equicardinality_claims(
        "the same construction written as one formula agrees on 60 random "
        "models (random f, n <= 7)", rng, phi, reg, 60, 7)


RC_SET = (2, 5)
RC_NS = range(1, 13)


def _suite_rc_unary(seed) -> list[Claim]:
    rng = random.Random(seed)
    builtins = builtin_registry({"rcS": setsmod.explicit(RC_SET)})
    sentence = parse("E x. (@set:rcS(x) & A y. (U(y) <-> @le(y, x)))",
                     {"U": 1})
    qrc = quantmod.regularize(quantmod.quantifier_from_sentence(
        "Qrc", [("U", 1)], sentence, builtins=builtins))
    splus1 = setsmod.explicit([k + 1 for k in RC_SET])
    card = quantmod.cardinality(splus1, "C_S1")

    def mismatches():
        # one case per n: every U at once; where names its first miss
        for n in RC_NS:
            u, f = _mask_bits(n), np.arange(n)
            wrong = np.flatnonzero(qrc.decide(n, [u, u], f)
                                   != card.decide(n, [u], f))
            yield ((n, int(wrong[0])) if len(wrong) else n), wrong

    claims = _first_failures(mismatches(), (
        "regularized initial-segment quantifier applied to (U, U) agrees "
        "with the shifted cardinality quantifier on every U, n <= 12",
        "n,mask", lambda wrong: not len(wrong)))
    reg = {"QrcReg": qrc}
    phi = parse("QrcReg(x: U(x); y: U(y))", {"U": 1},
                quantmod.registry_shapes(reg))

    def by_formula(n, rel):
        m = BrModel(n, {"U": 1}, {"U": set(rel)}, list(range(n)))
        return evaluate(m, phi, {}, quantifiers=reg) == (len(rel) in splus1)

    subsets = (((n, mask), n, _mask_rel(mask, n))
               for n in range(1, 9) for mask in range(1 << n))
    claims += _first_failures(subsets, (
        "the same check through formula evaluation, exhaustive for n <= 8",
        "n,mask", by_formula))

    def slot_pairs():
        for i in range(200):
            n = rng.randrange(1, 11)
            f = list(range(n))
            rng.shuffle(f)
            v = {x for x in range(n) if rng.random() < 0.6}
            u = {x for x in v if rng.random() < 0.6}
            by_rank = sorted(v, key=lambda e: f[e])
            want = len(u) in splus1 and u == set(by_rank[:len(u)])
            yield (i, qrc, n, [quantmod.slot_array(n, u),
                               quantmod.slot_array(n, v)], f, want)

    return claims + _first_failures(slot_pairs(), (
        "on slot pairs U within V: verdict iff |U| is a shifted member and U "
        "is an initial segment of V (200 random instances, random f)",
        "instance", _decides_as_expected))


DIVMOD_MS = (2, 3, 5)
DIVMOD_NS = range(1, 13)
DIVMOD_FULL_N = 8
DIVMOD_SAMPLES = 20


def _divmod_formulas(m: int):
    cname, dname = f"Cmod{m}", f"Dmod{m}"
    reg = {cname: quantmod.cardinality(
               setsmod.shifted(1, setsmod.multiples(m)), cname),
           dname: quantmod.divisibility_by(m)}
    shapes = quantmod.registry_shapes(reg)
    vocab = {"U": 1}
    direct = parse(f"{cname}(x: U(x))", vocab, shapes)
    via_div = parse(f"E z. (U(z) & {dname}(x: U(x) & !(x = z)))",
                    vocab, shapes)
    zs = [f"z{i}" for i in range(1, m)]
    distinct = [f"!({a} = {b})" for a, b in itertools.combinations(zs, 2)]
    inner = " & ".join([f"U({z})" for z in zs] + distinct) or "z1 = z1"
    strip = " & ".join([f"!(x = {z})" for z in zs])
    body = f"({inner}) & {cname}(x: U(x) & {strip})"
    for z in reversed(zs):
        body = f"E {z}. ({body})"
    div_via_card = parse(f"(A x. !U(x)) | ({body})", vocab, shapes)
    div_direct = parse(f"{dname}(x: U(x))", vocab, shapes)
    return reg, direct, via_div, div_direct, div_via_card


def _suite_divmod_interdef(seed) -> list[Claim]:
    rng = random.Random(seed)
    per_m = {m: _divmod_formulas(m) for m in DIVMOD_MS}

    def verdicts():
        for n in DIVMOD_NS:
            masks = (range(1 << n) if n <= DIVMOD_FULL_N else
                     [rng.randrange(1 << n) for _ in range(DIVMOD_SAMPLES)])
            for mask in masks:
                model = BrModel(n, {"U": 1}, {"U": set(_mask_rel(mask, n))},
                                list(range(n)))
                size = bin(mask).count("1")
                for m, (reg, *formulas) in per_m.items():
                    tt = TruthTables(model, quantifiers=reg)
                    yield ((m, n, mask), m, size,
                           *(bool(tt.table(phi)[1]) for phi in formulas))

    return _first_failures(
        verdicts(),
        ("shifted cardinality application holds iff the witness count is 1 "
         "mod m (m=2,3,5; every U for n <= 8, sampled to n = 12)", "m,n,mask",
         lambda m, size, direct, *_: direct == (size % m == 1)),
        ("each of the two quantifiers defines the other (congruences checked "
         "on the same models)", "m,n,mask",
         lambda m, size, direct, via_div, div_direct, via_card:
         via_div == direct and via_card == div_direct == (size % m == 0)))


# ---------------------------------------------------------------------------
# the split-at-the-median equicardinality construction

MEDIAN_NS = range(1, 11)
MEDIAN_FULL_N = 5
MEDIAN_SAMPLES = 40


def _median_quantifier():
    lang = quantmod.neutral_letter_extension(quantmod.lang_anbn(), "e")
    return replace(quantmod.language_quantifier(lang), name="QL1")


def _median_formula():
    def slotq(a, b):
        return (f"QL1(x: {a('x')}; y: {b('y')}; "
                f"w: !(({a('w')}) | ({b('w')})))")

    def odd(w, z):
        return (f"({w}({z}) & "
                + slotq(lambda v: f"{w}({v}) & {v} < {z}",
                        lambda v: f"{w}({v}) & {z} < {v}") + ")")

    def even(w, z):
        return (f"({w}({z}) & "
                + slotq(lambda v: f"{w}({v}) & @le({v}, {z})",
                        lambda v: f"{w}({v}) & {z} < {v}") + ")")

    def bridge(w1, w2, strict_first):
        cmp1 = (lambda v: f"{w1}({v}) & {v} < z") if strict_first else \
               (lambda v: f"{w1}({v}) & @le({v}, z)")
        return slotq(cmp1, lambda v: f"{w2}({v}) & z2 < {v}")

    d0 = "(A x. !U(x)) & (A x. !V(x))"
    d1 = (f"E z. E z2. ({odd('U', 'z')} & {odd('V', 'z2')} & "
          f"{bridge('U', 'V', True)})")
    d2 = (f"E z. E z2. ({odd('V', 'z')} & {odd('U', 'z2')} & "
          f"{bridge('V', 'U', True)})")
    d3 = (f"E z. E z2. ({even('U', 'z')} & {even('V', 'z2')} & "
          f"{bridge('U', 'V', False)})")
    d4 = (f"E z. E z2. ({even('V', 'z')} & {even('U', 'z2')} & "
          f"{bridge('V', 'U', False)})")
    text = f"({d0}) | ({d1}) | ({d2}) | ({d3}) | ({d4})"
    return parse(text, {"U": 1, "V": 1}, {"QL1": [1, 1, 1]})


def _median_tables(n: int):
    """Per-mask data for the vectorized route: popcount, split points and
    their neighbours for the odd and even median subformulas."""
    size = 1 << n
    pc = np.zeros(size, np.int64)
    mb_odd = np.zeros(size, np.int64)
    ma_odd = np.zeros(size, np.int64)
    ze = np.zeros(size, np.int64)
    ma_even = np.zeros(size, np.int64)
    for w in range(size):
        pos = [i for i in range(n) if w >> i & 1]
        k = len(pos)
        pc[w] = k
        if k % 2 == 1:
            i = (k - 1) // 2
            mb_odd[w] = pos[i - 1] if i else -1
            ma_odd[w] = pos[i + 1] if i + 1 < k else n
        elif k:
            i = k // 2 - 1
            ze[w] = pos[i]
            ma_even[w] = pos[i + 1]
    return pc, mb_odd, ma_odd, ze, ma_even


def _median_verdicts(n: int) -> np.ndarray:
    """The disjunction's verdict for every (U mask, V mask), computed from
    the split-point data (validated against real formula evaluation by the
    sampled claim)."""
    pc, mb_odd, ma_odd, ze, ma_even = _median_tables(n)
    odd = pc % 2 == 1
    even = (pc % 2 == 0) & (pc > 0)
    eq = pc[:, None] == pc[None, :]
    d0 = (pc[:, None] == 0) & (pc[None, :] == 0)
    both_odd = odd[:, None] & odd[None, :]
    both_even = even[:, None] & even[None, :]
    d1 = both_odd & eq & (mb_odd[:, None] < ma_odd[None, :])
    d2 = both_odd & eq & (mb_odd[None, :] < ma_odd[:, None])
    d3 = both_even & eq & (ze[:, None] < ma_even[None, :])
    d4 = both_even & eq & (ze[None, :] < ma_even[:, None])
    return d0 | d1 | d2 | d3 | d4


def _suite_median_trick(seed) -> list[Claim]:
    rng = random.Random(seed)
    phi = _median_formula()
    reg = {"QL1": _median_quantifier()}
    verdicts = {n: _median_verdicts(n) for n in MEDIAN_NS}

    def mismatches():
        # one case per n: every (U, V) at once; where names its first miss
        for n, v in verdicts.items():
            pc = np.array([bin(w).count("1") for w in range(1 << n)])
            wrong = np.argwhere(v != (pc[:, None] == pc[None, :]))
            yield (n, *map(int, wrong[0])) if len(wrong) else n, wrong

    claims = _first_failures(mismatches(), (
        "the case disjunction decides |U| = |V| on all (U, V), n <= 10",
        "n,Umask,Vmask", lambda wrong: not len(wrong)))

    def mask_pairs():
        for n in MEDIAN_NS:
            if n <= MEDIAN_FULL_N:
                pairs = itertools.product(range(1 << n), repeat=2)
            else:
                pairs = [(rng.randrange(1 << n), rng.randrange(1 << n))
                         for _ in range(MEDIAN_SAMPLES)]
            for um, vm in pairs:
                yield (n, um, vm), n, um, vm

    def matches(n, um, vm):
        m = BrModel(n, {"U": 1, "V": 1},
                    {"U": set(_mask_rel(um, n)), "V": set(_mask_rel(vm, n))},
                    list(range(n)))
        return evaluate(m, phi, {}, quantifiers=reg) == bool(verdicts[n][um, vm])

    claims += _first_failures(mask_pairs(), (
        "real formula evaluation matches the vectorized route (exhaustive "
        "n <= 5, sampled to n = 10)", "n,Umask,Vmask", matches))
    return claims + _equicardinality_claims(
        "the formula also decides equicardinality under 40 random "
        "permutations", rng, phi, reg, 40, 8)


# ---------------------------------------------------------------------------
# subset-sort translation and its limits

MSO_KS = (1, 2, 3, 4)
MSO_CORPUS = 30
POWERSET_KS = (1, 2, 3, 4, 5)


def _suite_mso_counterexample(seed) -> list[Claim]:
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < MSO_CORPUS:
        body = random_formula(rng, {"E": 2}, rng.randrange(1, 3), ("x",),
                              builtins=("le", "lt"))
        phi = Exists("x", body)
        if quantifier_rank(phi) <= 3:
            corpus.append(phi)
    models = [(k, powerset_structure(k), word_model("a" * k)) for k in MSO_KS]
    sentences = (((k, i), mk, wk, phi) for k, mk, wk in models
                 for i, phi in enumerate(corpus))

    def transfers(mk, wk, phi):
        return evaluate(mk, phi, {}) == evaluate(wk, mso_translate(phi), {})

    claims = _first_failures(sentences, (
        f"subset-structure truth transfers to the translated sentence on "
        f"unary words, k = 1..4 ({MSO_CORPUS} rank <= 3 sentences)",
        "k,sentence", transfers))
    pq = quantmod.powerset_quantifier()

    def membership(m, pairs):
        return bool(pq.decide(m.n, [quantmod.slot_array(m.n, pairs, 2)],
                              m.f))

    got = {k: membership(m := powerset_structure(k), m.rels["E"])
           for k in POWERSET_KS}
    want = {k: k in (1, 4) for k in POWERSET_KS}
    claims.append(Claim("the subset-membership quantifier accepts the "
                        "canonical structure iff the atom count is a "
                        "square, k <= 5", got == want, f"{got}"))
    m4 = powerset_structure(2)
    broken = set(m4.rels["E"])
    broken.discard(next(iter(broken)))
    claims.append(Claim("dropping one membership pair is detected",
                        not membership(m4, broken)))
    return claims


def _suite_neutral_letter(seed) -> list[Claim]:
    anbn = quantmod.lang_anbn()
    par = quantmod.lang_parity()
    return [
        Claim("'e' is neutral for the extended a^nb^n language "
              "(all words below length 8)",
              quantmod.is_neutral_letter(
                  quantmod.neutral_letter_extension(anbn, "e"), "e", 8)),
        Claim("'e' is neutral for the extended even-a language",
              quantmod.is_neutral_letter(
                  quantmod.neutral_letter_extension(par, "e"), "e", 8)),
        Claim("'a' is not neutral for a^nb^n",
              not quantmod.is_neutral_letter(anbn, "a", 8)),
    ]


EF_PAIRS = 50


def _suite_ef_games(seed) -> list[Claim]:
    rng = random.Random(seed)
    w7 = word_model("a" * 7)
    w9 = word_model("a" * 9)
    claims = [
        Claim("seven and nine points are 3-round equivalent over the order",
              ef_equivalent(w7, w9, 3)),
        Claim("a fourth round separates them",
              not ef_equivalent(w7, w9, 4)),
    ]

    def pairs():
        for i in range(EF_PAIRS):
            n1, n2 = rng.randrange(1, 9), rng.randrange(1, 9)
            yield (i, _random_fo_model(rng, n1, {"P": 1}),
                   _random_fo_model(rng, n2, {"P": 1}))

    return claims + _first_failures(
        pairs(),
        (f"equivalence is reflexive on {EF_PAIRS} random models, n <= 8",
         "pair", lambda m1, m2: ef_equivalent(m1, m1, 3)
         and ef_equivalent(m2, m2, 3)),
        ("and symmetric on the same pairs", "pair",
         lambda m1, m2: ef_equivalent(m1, m2, 3) == ef_equivalent(m2, m1, 3)))


# ---------------------------------------------------------------------------
# registry

SUITES: dict[str, Callable] = {
    "haertig-addition": _suite_haertig_addition,
    "order-from-plus": _suite_order_from_plus,
    "mulext-lemma": _suite_mulext_lemma,
    "mulext-prop": _suite_mulext_prop,
    "set-criteria": _suite_set_criteria,
    "looseness-examples": _suite_looseness_examples,
    "relativization": _suite_relativization,
    "substitution": _suite_substitution,
    "regularization-ui": _suite_regularization_ui,
    "lift-hartig": _suite_lift_hartig,
    "rc-unary": _suite_rc_unary,
    "divmod-interdef": _suite_divmod_interdef,
    "median-trick": _suite_median_trick,
    "mso-counterexample": _suite_mso_counterexample,
    "neutral-letter": _suite_neutral_letter,
    "ef-games": _suite_ef_games,
}


def run_suite(name: str, seed: int = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: "
                       + ", ".join(sorted(SUITES)))
    seed = DEFAULT_SEED if seed is None else seed
    return SuiteReport(name, seed, SUITES[name](seed))

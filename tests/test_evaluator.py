import functools
import gc
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmlab import evaluator, quantifiers as Q, sets, suites, syntax
from fmlab.evaluator import (Batch, BudgetExceeded, TruthTables,
                             define_relation, ef_equivalent, evaluate,
                             evaluate_fast)
from fmlab.model import BrModel, word_model
from fmlab.syntax import And, Atom, Exists, parse


def fo_model(rng, n):
    arities = {"U": 1, "R": 2}
    rels = {"U": {(a,) for a in range(n) if rng.random() < 0.5},
            "R": {(a, b) for a in range(n) for b in range(n)
                  if rng.random() < 0.3}}
    f = list(range(n))
    rng.shuffle(f)
    return BrModel(n, arities, rels, f)


VOCAB = {"U": 1, "R": 2}


def evaluate_planned(m, phi, *args, **kw):
    """`evaluate` with phi's plan built beforehand: a kept plan must not
    skip the checks `evaluate` makes on each entry."""
    evaluator._plan(phi)
    return evaluate(m, phi, *args, **kw)


def test_basic_clauses():
    m = BrModel(4, VOCAB, {"U": {(0,), (2,)}, "R": {(0, 1)}})
    ev = lambda s, **kw: evaluate(m, parse(s, VOCAB), kw)
    assert ev("U(x)", x=0) and not ev("U(x)", x=1)
    assert ev("R(x, y)", x=0, y=1) and not ev("R(x, y)", x=1, y=0)
    assert ev("x = y", x=2, y=2) and not ev("x = y", x=2, y=3)
    assert evaluate(m, parse("E x. U(x) & !U(y)", VOCAB), {"y": 1})
    assert not evaluate(m, parse("A x. (U(x) -> E y. R(x, y))", VOCAB), {})
    assert evaluate(m, parse("A x. (R(x, y) -> U(x))", VOCAB), {"y": 1})


def test_builtins_read_through_f():
    m = BrModel(4, {}, {}, f=[3, 2, 1, 0])
    # element 0 has the largest f-value
    assert evaluate(m, parse("x <= y"), {"x": 3, "y": 0})
    assert not evaluate(m, parse("x <= y"), {"x": 0, "y": 3})
    assert evaluate(m, parse("x + y = z"), {"x": 3, "y": 2, "z": 2})
    assert not evaluate(m, parse("x + y = z"), {"x": 3, "y": 2, "z": 0})
    assert evaluate(m, parse("@set:sq(x)"), {"x": 3})  # f-value 0


def test_count_clause():
    m = BrModel(5, VOCAB, {"U": {(0,), (1,), (3,)}, "R": set()})
    # y's f-value (= y itself here) must equal the number of witnesses
    assert evaluate(m, parse("# x = y. U(x)", VOCAB), {"y": 3})
    assert not evaluate(m, parse("# x = y. U(x)", VOCAB), {"y": 2})


def test_qapp_clause():
    m = BrModel(6, VOCAB, {"U": {(0,), (1,)}, "R": set()})
    phi = parse("I(x: U(x); y: !U(y))", VOCAB, {"I": [1, 1]})
    assert not evaluate(m, phi, {})
    m2 = BrModel(4, VOCAB, {"U": {(0,), (1,)}, "R": set()})
    assert evaluate(m2, phi, {})


def test_mso_clauses():
    m = word_model("aabb")
    vocab = {"P_a": 1, "P_b": 1}
    # some set contains exactly the a-positions
    phi = parse("EX X. A x. (X(x) <-> P_a(x))", vocab)
    assert evaluate(m, phi, {})
    phi2 = parse("AX X. E x. X(x)", vocab)
    assert not evaluate(m, phi2, {})  # the empty set has no member


def test_mso_cap_and_budget():
    m = BrModel(20, {}, {})
    with pytest.raises(BudgetExceeded):
        evaluate(m, parse("EX X. E x. X(x)"), {})
    with pytest.raises(BudgetExceeded):
        evaluate(BrModel(8, {}, {}),
                 parse("E x. E y. E z. (x <= y & y <= z)"), {}, budget=3)


def _and_chain(depth: int):
    p = Atom("U", ("x",))
    for _ in range(depth):
        p = And(p, p)
    return Exists("x", p)


EVERY_CLAUSE = ("((E x. (U(x) <-> Maj2(y, z: R(y, z) | x <= y)))"
                " <-> (A y. # z = y. !(U(z) -> z = y)))"
                " <-> (EX X. AX Y. E x. (X(x) & (Y(x) | @plus(x, x, x))))")


@pytest.mark.parametrize("case, k", [("chain", 82), ("median", 338),
                                     ("every-clause", 211)])
def test_step_count_is_pinned(case, k):
    # every plan call is one step, a memo hit included: the chain's atom
    # is reached along 2**40 paths but costs two steps a level, and the
    # median formula at n = 5 and a false sentence that reaches every
    # clause cost exactly k
    want, quants = True, None
    if case == "chain":
        m = BrModel(4, {"U": 1}, {"U": {(a,) for a in range(4)}})
        phi = _and_chain(40)
    elif case == "median":
        m = BrModel(5, {"U": 1, "V": 1}, {"U": {(0,), (2,), (4,)},
                                          "V": {(1,), (2,), (3,)}})
        phi = suites._median_formula()
        quants = {"QL1": suites._median_quantifier()}
    else:
        m = BrModel(4, VOCAB, {"U": {(0,), (3,)},
                               "R": {(0, 1), (1, 2), (2, 2), (3, 0)}},
                    [2, 0, 3, 1])
        phi, want = parse(EVERY_CLAUSE, VOCAB), False
        assert {type(p) for p in syntax.subformulas(phi)} == set(
            evaluator._CLAUSES)
    assert evaluate(m, phi, {}, quantifiers=quants, budget=k) == want
    with pytest.raises(BudgetExceeded, match=f"budget of {k - 1} "):
        evaluate(m, phi, {}, quantifiers=quants, budget=k - 1)


def test_a_compiled_formula_dies_by_reference_counting():
    # no reference cycle runs through a formula, its plan or an
    # evaluation: with the collector off, a formula that was compiled and
    # evaluated still leaves the node table when its last name goes, so a
    # fresh parse builds fresh nodes
    m = BrModel(5, {"U": 1, "V": 1}, {"U": {(0,), (2,), (4,)},
                                      "V": {(1,), (2,), (3,)}})
    quants = {"QL1": suites._median_quantifier()}
    gc.collect()
    before = len(syntax._TABLE)
    gc.disable()
    try:
        phi = suites._median_formula()
        assert len(syntax._TABLE) > before
        evaluator._plan(phi)
        assert evaluate(m, phi, {}, quantifiers=quants)
        del phi
        assert len(syntax._TABLE) == before
    finally:
        gc.enable()


def test_a_plan_does_not_hold_the_model():
    phi = parse("E x. (U(x) & Maj(y: R(x, y) | x <= y))"
                " | (E y. # z = y. U(z)) & EX X. A x. (X(x) -> U(x))", VOCAB)
    m = fo_model(random.Random(3), 4)
    assert evaluate(m, phi, {}) == evaluate_fast(m, phi, {})
    plan, dead = vars(phi)["plan"], weakref.ref(m)
    del m
    gc.collect()
    assert dead() is None
    for seed in range(6):
        other = fo_model(random.Random(seed), 5)
        assert evaluate(other, phi, {}) == evaluate_fast(other, phi, {})
        assert vars(phi)["plan"] is plan


def test_bound_set_variable_without_vocabulary():
    m = BrModel(3, {}, {})
    for vocab in (None, {}):
        assert evaluate(m, parse("EX X. E x. X(x)", vocab), {})


@pytest.mark.parametrize("engine", [evaluate, evaluate_planned,
                                    evaluate_fast])
def test_bound_set_variable_shadows_relation(engine):
    # inside EX U, U is the set variable; the empty set makes this true
    m = BrModel(3, {"U": 1}, {"U": {(0,)}})
    assert engine(m, parse("EX U. A x. !U(x)", {"U": 1}), {})


def test_table_cap_refuses_before_building():
    # each formula needs a table of 64**5 or 64**6 cells, far over the cap;
    # every engine entry point must refuse it with nothing built
    m = BrModel(64, VOCAB, {"U": set(), "R": set()})
    quants = Q.builtin_quantifiers()
    for text in ("R(x, y) & R(z, w) & R(u, v)",
                 "Maj2(x, y: R(z, w) & U(v))"):
        phi = parse(text, VOCAB, Q.registry_shapes(quants))
        tt = TruthTables(m, quantifiers=quants)
        with pytest.raises(BudgetExceeded):
            tt.table(phi)
        assert not tt.memo
        with pytest.raises(BudgetExceeded):
            evaluate_fast(m, phi, dict.fromkeys("xyzwuv", 0),
                          quantifiers=quants)
    with pytest.raises(BudgetExceeded):
        define_relation(m, parse("x = y"), ("x", "y", "z", "w", "u", "v"))


def test_table_cap_counts_a_slot_over_every_outer_variable(monkeypatch):
    # each slot binds a variable that is free in the application, so its
    # table has two variables; but a decision broadcasts each slot over
    # both outer variables and its own bound one: 8**3 cells
    m = BrModel(8, VOCAB, {"U": set(), "R": {(0, 1), (1, 0)}})
    phi = parse("W(x: R(x, y); y: R(x, y))", VOCAB,
                Q.registry_shapes(QUANTS))
    monkeypatch.setattr(evaluator, "TABLE_CAP", 8 ** 2)
    with pytest.raises(BudgetExceeded, match="over 3 variables"):
        TruthTables(m, quantifiers=QUANTS).table(phi)
    monkeypatch.setattr(evaluator, "TABLE_CAP", 8 ** 3)
    assert TruthTables(m, quantifiers=QUANTS).table(phi)[1].shape == (8, 8)


def test_table_cap_counts_batch_times_cells(monkeypatch):
    # U(x) over 8 structures at n=4 is a table of 8 x 4 cells
    u = np.zeros((8, 4), dtype=bool)
    phi = parse("E x. U(x)", {"U": 1})
    monkeypatch.setattr(evaluator, "TABLE_CAP", 8 * 4 - 1)
    with pytest.raises(BudgetExceeded, match="over 1 variables"):
        TruthTables(Batch(4, {"U": 1}, {"U": u}, np.arange(4))).table(phi)
    monkeypatch.setattr(evaluator, "TABLE_CAP", 8 * 4)
    assert TruthTables(Batch(4, {"U": 1}, {"U": u}, np.arange(4))).table(
        phi)[1].shape == (8,)


def test_batch_over_the_cap_is_refused_before_allocating():
    # 2**20 structures at n=256: each has a table of 256 cells, the batch
    # 2**28; the slot is a broadcast view, so only the engine could
    # allocate, and it must refuse first
    n, q = 256, Q.quantifier_from_sentence(
        "some", [("U", 1)], parse("E x. U(x)", {"U": 1}))
    u = np.broadcast_to(np.zeros(n, dtype=bool), (1 << 20, n))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="268435456 cells"):
            q.decide(n, [u], np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unassigned_free_variable_is_an_error():
    m = BrModel(3, {}, {})
    with pytest.raises(ValueError):
        evaluate(m, parse("x = y"), {"x": 0})


FORMULAS = [
    "E x. A y. R(x, y) -> U(y)",
    "A x. E y. (R(x, y) | x = y) & x <= y",
    "I(x: U(x); y: E z. R(y, z))",
    "D_2(x: U(x) | E y. R(x, y))",
    "Maj(x: x <= y)",
    "# x = y. (U(x) & x <= y)",
    "E x. # z = x. R(x, z)",
    "!(E x. U(x)) <-> A x. !U(x)",
    "Maj2(x,y: R(x, y) | U(x))",
    "E x. (x + y = z | @times(x, y, z))",
    "(E x. U(x)) & (E x. U(x))",
    "E x. (U(x) & E x. R(x, x))",
    "# x = y. U(z)",
    "I(x: U(z); y: R(y, z))",
    "Maj2(x, y: R(x, z) & y <= z)",
    "@le(x, x) & x = x | R(y, y)",
    "# x = z. R(y, x)",
    "D(x: R(x, y); z: U(z))",
    "R(x, y) <-> x = y",
    "Maj2(x, y: R(x, z) | R(w, y))",
    "@bit(x, y)",
    "x < y",
    "@set:sq(x)",
    # word quantifiers and the constructions, over one or two outer
    # variables, which the table engine hands over as batch axes
    "W(x: R(x, y); z: !R(z, w))",
    "W(x: U(x) & x <= y; z: !(U(z) & z <= y))",
    "Wle(x: R(x, z); y: !R(y, z); s, t: t <= s)",
    "Wle(x: U(x); y: !U(y); s, t: R(s, t) | s = t)",
    "Ireg(x: U(x); y: R(y, z); p: R(w, p))",
    "PowSq(x, y: R(x, y) & !(x = z))",
]

# the built-in registry and the word quantifier for a^nb^n, its ordered
# lift and the regularized equicardinality quantifier
QUANTS = {**Q.builtin_quantifiers(),
          "W": Q.language_quantifier(Q.lang_anbn()),
          "Wle": Q.lift_over_order(Q.language_quantifier(Q.lang_anbn())),
          "Ireg": Q.regularize(Q.hartig())}


@given(st.integers(1, 5), st.integers(0, len(FORMULAS) - 1),
       st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_engines_agree(n, which, rng):
    m = fo_model(rng, n)
    quants = QUANTS
    phi = parse(FORMULAS[which], VOCAB, Q.registry_shapes(quants))
    a = {v: rng.randrange(n) for v in phi.free}
    assert (evaluate(m, phi, a, quantifiers=quants)
            == evaluate_fast(m, phi, a, quantifiers=quants))


@pytest.mark.parametrize("text", FORMULAS)
def test_tables_agree_at_every_assignment(text):
    quants = QUANTS
    phi = parse(text, VOCAB, Q.registry_shapes(quants))
    rng = random.Random(text)
    for n in (1, 2, 3, 4, 4):
        m = fo_model(rng, n)
        vs, bits = TruthTables(m, quantifiers=quants).table(phi)
        for vals in itertools.product(range(n), repeat=len(vs)):
            want = evaluate(m, phi, dict(zip(vs, vals)), quantifiers=quants)
            assert bool(bits[vals]) == want


@given(st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_mso(n, rng):
    m = fo_model(rng, n)
    phi = parse("EX X. ((A x. (X(x) -> U(x))) & E x. X(x))", VOCAB)
    assert evaluate(m, phi, {}) == evaluate_fast(m, phi, {})


def test_truth_tables_match_pointwise():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(2, 6)
        m = fo_model(rng, n)
        phi = parse("(U(x) & x <= y) | R(y, x)", VOCAB)
        tt = TruthTables(m)
        vs, bits = tt.table(phi)
        assert vs == ("x", "y")
        for x in range(n):
            for y in range(n):
                want = evaluate(m, phi, {"x": x, "y": y})
                assert bool(bits[x, y]) == want


def test_reused_truth_tables_never_alias():
    # a reused instance meets fresh formulas, often at the addresses of dead
    # ones; each must still get its own table
    texts = ["U(x)", "!U(x)", "E y. U(y) & x = x", "A y. U(y)", "!!U(x)"]
    m = BrModel(4, VOCAB, {"U": {(0,), (2,)}, "R": set()})
    tt = TruthTables(m)
    for _ in range(200):
        for text in texts:
            vs, bits = tt.table(parse(text, VOCAB))
            fresh_vs, fresh_bits = TruthTables(m).table(parse(text, VOCAB))
            assert vs == fresh_vs and np.array_equal(bits, fresh_bits)


@pytest.mark.parametrize("engine", [evaluate, evaluate_planned,
                                    evaluate_fast])
@pytest.mark.parametrize("text", ["Maj(x, y: R(x, y))", "Maj2(x: U(x))"])
def test_slot_arity_checked_by_every_engine(engine, text):
    # parsed without shapes: a unary quantifier given a binary slot, and
    # a binary one given a unary slot
    m = fo_model(random.Random(4), 3)
    with pytest.raises(ValueError, match="slot arities"):
        engine(m, parse(text, VOCAB), {})


@pytest.mark.parametrize("run", [
    lambda m, phi: evaluate(m, phi, {"x": 0, "y": 1}),
    lambda m, phi: evaluate_planned(m, phi, {"x": 0, "y": 1}),
    lambda m, phi: evaluate_fast(m, phi, {"x": 0, "y": 1}),
    lambda m, phi: TruthTables(m).table(phi),
    lambda m, phi: define_relation(m, phi, ("x", "y")),
])
def test_slot_arity_checked_before_evaluating(run):
    # at x != y the left conjunct decides, so the application with the
    # wrong slot arity is never evaluated; it must be refused all the same
    m = fo_model(random.Random(4), 3)
    with pytest.raises(ValueError, match="Maj2 expects slot arities"):
        run(m, parse("x = y & Maj2(x: U(x))", VOCAB))


M3 = BrModel(3, VOCAB, {"U": {(0,)}, "R": {(0, 1)}})

# (formula, assignment, set assignment, message): each input is refused
# with ValueError by every entry point it can reach.  A set assignment of
# None marks a fault in the first-order assignment, which only a point
# evaluation sees: a table or a defined relation lets the free variables
# range over the domain.  define_relation takes no set assignment.
REFUSALS = [
    (parse("X(x)"), {"x": 0}, {}, "unknown relation 'X'"),
    (parse("R(x)"), {"x": 0}, {}, "R expects arity 2, got 1"),
    (parse("@foo(x)"), {"x": 0}, {}, "unknown built-in 'foo'"),
    (parse("@le(x)"), {"x": 0}, {}, "le expects arity 2, got 1"),
    (parse("@bit(x, y, z)"), {"x": 0, "y": 0, "z": 0}, {},
     "bit expects arity 2"),
    (parse("Nope(x: U(x))", VOCAB), {}, {}, "unknown quantifier 'Nope'"),
    (parse("x = x & Maj(x, y: R(x, y))", VOCAB), {"x": 0}, {},
     "Maj expects slot arities"),
    (parse("X(x)", VOCAB), {"x": 0}, {}, "unassigned variable X"),
    (parse("X(x)", VOCAB), {"x": 0}, {"X": {1, 7}}, "X is given a value"),
    (parse("x = y"), {"x": 0}, None, "unassigned variable y"),
    (parse("x <= y"), {"x": 2, "y": -1}, None, "y is given a value"),
    (parse("x <= y"), {"x": 2, "y": 5}, None, "y is given a value"),
    (parse("U(x)", VOCAB), {"x": 7}, None, "x is given a value"),
]

ENTRY_POINTS = {
    "evaluate": lambda phi, a, sa: evaluate(M3, phi, a, set_assignment=sa),
    "evaluate_planned": lambda phi, a, sa: evaluate_planned(
        M3, phi, a, set_assignment=sa),
    "evaluate_fast": lambda phi, a, sa: evaluate_fast(M3, phi, a,
                                                      set_assignment=sa),
    "table": lambda phi, a, sa: TruthTables(M3).table(phi, sa),
    "define_relation": lambda phi, a, sa: define_relation(M3, phi, phi.free),
}


@pytest.mark.parametrize("entry, phi, a, sa, refused", [
    pytest.param(entry, phi, a, sa, refused, id=f"{entry}: {refused}")
    for phi, a, sa, refused in REFUSALS
    for entry in ENTRY_POINTS
    if sa is not None or entry.startswith("evaluate")
    if not (entry == "define_relation" and sa)])
def test_every_entry_point_refuses_what_it_cannot_evaluate(entry, phi, a, sa,
                                                           refused):
    with pytest.raises(ValueError, match=refused):
        ENTRY_POINTS[entry](phi, a, sa or {})


def test_define_relation():
    m = BrModel(5, {}, {})
    rel = define_relation(m, parse("x + y = z"), ("x", "y", "z"))
    assert (2, 2, 4) in rel and (2, 3, 4) not in rel
    assert len(rel) == sum(1 for x in range(5) for y in range(5)
                           if x + y < 5)
    with pytest.raises(ValueError):
        define_relation(m, parse("x <= y"), ("x",))
    with pytest.raises(ValueError):
        define_relation(m, parse("x <= y"), ("x", "y", "y"))


def test_define_relation_permuted_order():
    # positions follow var_order, not the sorted free variables, and the
    # position of w, which is not free, ranges over the whole domain
    rng = random.Random(5)
    for n in (1, 3, 4):
        m = fo_model(rng, n)
        phi = parse("R(x, z)", VOCAB)
        want = frozenset((z, w, x) for z in range(n) for w in range(n)
                         for x in range(n)
                         if evaluate(m, phi, {"x": x, "z": z}))
        assert define_relation(m, phi, ("z", "w", "x")) == want


@pytest.mark.parametrize("holds", [True, False])
def test_nullary_relation(holds):
    m = BrModel(3, {"Z": 0, "U": 1}, {"Z": [()] if holds else [],
                                      "U": [(1,)]})
    z = Atom("Z", ())
    both = And(z, Atom("U", ("x",)))
    for engine in (evaluate, evaluate_fast):
        assert engine(m, z, {}) == holds
        assert [engine(m, both, {"x": x}) for x in range(3)] == [
            False, holds, False]
    assert define_relation(m, z, ()) == ({()} if holds else set())
    assert define_relation(m, both, ("x",)) == ({(1,)} if holds else set())


def test_sentence_defined_quantifier():
    # "the two slots have equal size" via a counting sentence; the count
    # quantifier compares against an f-value, which tops out at n-1, so
    # the both-slots-full case needs its own disjunct
    phi = parse("((A x. S0(x)) & (A x. S1(x)))"
                " | (E y. ((# x = y. S0(x)) & (# x = y. S1(x))))",
                {"S0": 1, "S1": 1})
    q = Q.quantifier_from_sentence("eqsize", [("S0", 1), ("S1", 1)], phi)
    i = Q.hartig()
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(1, 7)
        rels = [Q.slot_array(n, ((a,) for a in range(n)
                                 if rng.random() < 0.5))
                for _ in range(2)]
        f = list(range(n))
        rng.shuffle(f)
        assert q.decide(n, rels, f) == i.decide(n, rels, f)


# -- games -------------------------------------------------------------------

def test_ef_chain_thresholds():
    a7, a9 = word_model("a" * 7), word_model("a" * 9)
    assert ef_equivalent(a7, a9, 3)
    assert not ef_equivalent(a7, a9, 4)
    assert ef_equivalent(word_model("a" * 8), word_model("a" * 9), 3)


def linear_order(rng, p):
    """p points in the order of a random permutation, with unary A
    holding everywhere."""
    return BrModel(p, {"A": 1}, {"A": {(a,) for a in range(p)}},
                   rng.sample(range(p), p))


@pytest.mark.parametrize("rounds", [0, 1, 2, 3, 4])
def test_ef_on_linear_orders_follows_the_threshold(rounds):
    # L_p and L_q are r-equivalent iff p = q or both are >= 2^r - 1: every
    # p, q up to 12 for r <= 3, and a few pairs at the cap corner for r = 4
    rng = random.Random(rounds)
    pairs = (itertools.product(range(1, 13), repeat=2) if rounds < 4
             else [(12, 12), (11, 12), (12, 11), (10, 12), (12, 9)])
    for p, q in pairs:
        want = p == q or min(p, q) >= 2 ** rounds - 1
        assert ef_equivalent(linear_order(rng, p), linear_order(rng, q),
                             rounds) == want, (p, q)


def test_ef_distinguishes_letters():
    # one round only compares single points; the order flip needs two
    assert ef_equivalent(word_model("ab"), word_model("ba"), 1)
    assert not ef_equivalent(word_model("ab"), word_model("ba"), 2)
    assert ef_equivalent(word_model("ab"), word_model("ab"), 4)


def test_ef_caps():
    big = word_model("a" * 13)
    with pytest.raises(ValueError):
        ef_equivalent(big, big, 2)
    small = word_model("aa")
    with pytest.raises(ValueError):
        ef_equivalent(small, small, 5)
    with pytest.raises(ValueError):
        ef_equivalent(small, small, -1)


def brute_ef(m1, m2, rounds) -> bool:
    """The game by its definition, with no shortcut: a position is won with
    no rounds left when its pairs form a partial isomorphism (injective,
    preserving every relation and the order of f-values), and with r left
    when it is one and every pick on either side, repeated or not, has an
    answer that wins with r - 1 left."""

    def iso(pairs) -> bool:
        if len({a for a, _ in pairs}) != len(pairs) or \
                len({b for _, b in pairs}) != len(pairs):
            return False
        for name, ar in m1.arities.items():
            for combo in itertools.product(pairs, repeat=ar):
                if ((tuple(a for a, _ in combo) in m1.rels[name])
                        != (tuple(b for _, b in combo) in m2.rels[name])):
                    return False
        return all((m1.f[a] <= m1.f[c]) == (m2.f[b] <= m2.f[d])
                   for (a, b), (c, d) in itertools.product(pairs, repeat=2))

    @functools.lru_cache(maxsize=None)
    def win(pairs, r) -> bool:
        if not iso(pairs):
            return False
        return r == 0 or (
            all(any(win(pairs | {(a, b)}, r - 1) for b in range(m2.n))
                for a in range(m1.n))
            and all(any(win(pairs | {(a, b)}, r - 1) for a in range(m1.n))
                    for b in range(m2.n)))

    return win(frozenset(), rounds)


EF_VOCAB = {**VOCAB, "Z": 0}


def model_pair(rng, n1, n2):
    """Two models over U, R and the nullary Z at one random density,
    sparse more often than not, so that many pairs are equivalent for a
    few rounds; now and then the second is the first with its elements
    renamed."""
    pu, pr = rng.choice([0, 0.5, 1]), rng.choice([0, 0, 0.2])
    pz = rng.choice([0, 1, 0.5])

    def draw(n):
        f = list(range(n))
        rng.shuffle(f)
        return BrModel(n, EF_VOCAB, {
            "U": {(a,) for a in range(n) if rng.random() < pu},
            "R": {(a, b) for a in range(n) for b in range(n)
                  if rng.random() < pr},
            "Z": {()} if rng.random() < pz else set()}, f)

    m1 = draw(n1)
    if rng.random() < 0.25:
        p = rng.sample(range(n1), n1)
        f = [0] * n1
        for a in range(n1):
            f[p[a]] = m1.f[a]
        return m1, BrModel(n1, EF_VOCAB, {
            name: {tuple(p[a] for a in t) for t in rel}
            for name, rel in m1.rels.items()}, f)
    return m1, draw(n2)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_ef_matches_the_game_by_definition(n1, n2, rounds, rng):
    m1, m2 = model_pair(rng, n1, n2)
    assert ef_equivalent(m1, m2, rounds) == brute_ef(m1, m2, rounds)
    # m1 against itself with Z flipped: they differ at rank 0
    flipped = BrModel(n1, EF_VOCAB, {**m1.rels, "Z": {()} - m1.rels["Z"]},
                      m1.f)
    assert not ef_equivalent(m1, flipped, 0)
    assert not brute_ef(m1, flipped, 0)


def test_ef_reflexive_symmetric():
    rng = random.Random(21)
    for _ in range(25):
        n1, n2 = rng.randrange(1, 7), rng.randrange(1, 7)
        m1, m2 = fo_model(rng, n1), fo_model(rng, n2)
        r = rng.randrange(0, 3)
        assert ef_equivalent(m1, m1, r)
        assert ef_equivalent(m1, m2, r) == ef_equivalent(m2, m1, r)


def test_ef_respects_low_rank_sentences():
    # if duplicator wins r rounds, rank-<=r sentences cannot separate
    rng = random.Random(8)
    sentences = [parse(s, VOCAB) for s in
                 ["E x. U(x)", "A x. E y. R(x, y)",
                  "E x. (U(x) & A y. x <= y)"]]
    for _ in range(30):
        m1, m2 = fo_model(rng, rng.randrange(1, 6)), fo_model(rng, rng.randrange(1, 6))
        for r in (2, 3):
            if ef_equivalent(m1, m2, r):
                for s in sentences:
                    assert evaluate(m1, s, {}) == evaluate(m2, s, {})

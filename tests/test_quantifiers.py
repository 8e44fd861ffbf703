import random

import pytest
from hypothesis import given, settings, strategies as st

from fmlab import model as M, quantifiers as Q, sets
from fmlab.model import BrModel, NumericalRelation, powerset_structure, word_model


Sq = sets.squares()


def unary(elems):
    return frozenset((a,) for a in elems)


def test_cardinality_examples():
    c = Q.cardinality(Sq, "C_Sq")
    assert c.decide(10, [unary(range(4))], list(range(10)))
    assert not c.decide(10, [unary(range(5))], list(range(10)))
    assert c.decide(3, [frozenset()], [0, 1, 2])  # 0 is a square


def test_hartig_and_divisibility():
    i = Q.hartig()
    assert i.decide(6, [unary({0, 1}), unary({4, 5})], list(range(6)))
    assert not i.decide(6, [unary({0}), unary({4, 5})], list(range(6)))
    d = Q.divisibility()
    assert d.decide(9, [unary({1, 2}), unary({3, 4, 5, 6})], list(range(9)))
    assert not d.decide(9, [unary({1, 2}), unary({3, 4, 5})], list(range(9)))
    # zero divides only zero
    assert d.decide(4, [frozenset(), frozenset()], list(range(4)))
    assert not d.decide(4, [frozenset(), unary({2})], list(range(4)))


def test_divisibility_by_and_majorities():
    d2 = Q.divisibility_by(2)
    assert d2.decide(5, [unary({1, 3})], list(range(5)))
    assert not d2.decide(5, [unary({1, 2, 3})], list(range(5)))
    maj = Q.majority()
    assert maj.decide(5, [unary({0, 1, 2})], list(range(5)))
    assert not maj.decide(4, [unary({0, 1})], list(range(4)))
    maj2 = Q.majority_pairs()
    big = frozenset((a, b) for a in range(3) for b in range(3)) - {(0, 0), (1, 1), (2, 2), (0, 1)}
    assert maj2.decide(3, [big], [0, 1, 2])
    assert not maj2.decide(3, [frozenset({(0, 1)})], [0, 1, 2])
    with pytest.raises(ValueError):
        Q.divisibility_by(0)


@given(st.integers(1, 8), st.data())
@settings(max_examples=80)
def test_sizes_decide_agrees_with_decide(n, data):
    regs = [q for q in Q.builtin_quantifiers().values() if q.sizes_decide]
    q = data.draw(st.sampled_from(regs))
    rels = [unary(data.draw(st.sets(st.integers(0, n - 1))))
            for _ in q.slot_arities]
    f = data.draw(st.permutations(list(range(n))))
    assert q.decide(n, rels, f) == q.sizes_decide(n, [len(r) for r in rels])


def permuted_copy(n, rels, f, rng):
    """Rename elements by a random bijection h, compensating in f; the
    result is br-isomorphic input data."""
    h = list(range(n))
    rng.shuffle(h)
    new_rels = [frozenset(tuple(h[x] for x in t) for t in rel) for rel in rels]
    new_f = [0] * n
    for a in range(n):
        new_f[h[a]] = f[a]
    return new_rels, new_f


def test_decides_are_isomorphism_invariant():
    rng = random.Random(4)
    regs = list(Q.builtin_quantifiers().values())
    regs.append(Q.language_quantifier(Q.lang_anbn()))
    for q in regs:
        for _ in range(25):
            n = rng.randrange(1, 8)
            rels = [frozenset(t for t in
                              __import__("itertools").product(range(n), repeat=ar)
                              if rng.random() < 0.4)
                    for ar in q.slot_arities]
            f = list(range(n))
            rng.shuffle(f)
            prels, pf = permuted_copy(n, rels, f, rng)
            assert q.decide(n, rels, f) == q.decide(n, prels, pf), q.name


def test_order_invariant_flag_holds():
    rng = random.Random(9)
    for q in Q.builtin_quantifiers().values():
        if not q.order_invariant:
            continue
        for _ in range(15):
            n = rng.randrange(1, 7)
            rels = [frozenset(t for t in
                              __import__("itertools").product(range(n), repeat=ar)
                              if rng.random() < 0.4)
                    for ar in q.slot_arities]
            f1 = list(range(n))
            f2 = list(range(n))
            rng.shuffle(f2)
            assert q.decide(n, rels, f1) == q.decide(n, rels, f2), q.name


# -- languages ---------------------------------------------------------------

def test_language_membership():
    anbn = Q.lang_anbn()
    assert "" in anbn and "aabb" in anbn
    assert "ab" in anbn and "aab" not in anbn and "ba" not in anbn
    amc = Q.lang_ambmck()
    assert "aabbccc" in amc and "aabb" in amc and "ccc" in amc
    assert "aab" not in amc and "cab" not in amc
    par = Q.lang_parity()
    assert "bb" in par and "ab" not in par and "aa" in par


def test_parse_lang_spec():
    assert Q.parse_lang_spec("anbn").name == "anbn"
    assert Q.parse_lang_spec("parity-a").member("ab") is False
    nl = Q.parse_lang_spec("neutral:e:anbn")
    assert nl.member("aeabeb") and not nl.member("aebea")
    with pytest.raises(ValueError):
        Q.parse_lang_spec("nope")


def test_language_quantifier_partition_and_order():
    q = Q.language_quantifier(Q.lang_anbn())
    # word "ab" in reading order
    assert q.decide(2, [unary({0}), unary({1})], [0, 1])
    # same slots, reversed order: word is "ba"
    assert not q.decide(2, [unary({0}), unary({1})], [1, 0])
    # overlap and gap both fail
    assert not q.decide(2, [unary({0, 1}), unary({1})], [0, 1])
    assert not q.decide(3, [unary({0}), unary({1})], [0, 1, 2])


def test_neutral_letter_checks():
    assert Q.is_neutral_letter(Q.neutral_letter_extension(Q.lang_anbn(), "e"),
                               "e", 6)
    assert not Q.is_neutral_letter(Q.lang_anbn(), "a", 6)
    assert not Q.is_neutral_letter(Q.lang_parity(), "a", 6)
    assert Q.is_neutral_letter(Q.lang_parity(), "b", 6)
    with pytest.raises(ValueError):
        Q.neutral_letter_extension(Q.lang_anbn(), "a")


# -- constructions -----------------------------------------------------------

def test_regularize_relativizes():
    qreg = Q.regularize(Q.cardinality(Sq, "C_Sq"))
    assert qreg.slot_arities == (1, 1)
    # slot has 4 elements inside P, junk outside is ignored
    assert qreg.decide(8, [unary({0, 1, 2, 3, 7}), unary(range(6))],
                       list(range(8)))
    assert not qreg.decide(8, [unary({0, 1, 2, 3, 4, 7}), unary(range(6))],
                           list(range(8)))
    # empty P decides false even when the bare quantifier would accept
    assert Q.cardinality(Sq).decide(3, [frozenset()], [0, 1, 2])
    assert not qreg.decide(3, [frozenset(), frozenset()], [0, 1, 2])


def test_regularize_language_padding():
    qreg = Q.regularize(Q.language_quantifier(Q.lang_anbn()))
    # "ab" carried inside a 5 element structure, order given by f
    pa, pb = unary({2}), unary({4})
    p = unary({2, 4})
    assert qreg.decide(5, [pa, pb, p], list(range(5)))
    # f makes position 4 come before 2: word "ba"
    assert not qreg.decide(5, [pa, pb, p], [0, 1, 4, 3, 2])


def test_lift_over_order():
    lifted = Q.lift_over_order(Q.cardinality(Sq, "C_Sq"))
    n = 5
    le = frozenset((a, b) for a in range(n) for b in range(n) if a <= b)
    # explicit order = ambient order: agree with the bare quantifier
    assert lifted.decide(n, [unary(range(4)), le], list(range(n)))
    assert not lifted.decide(n, [unary(range(3)), le], list(range(n)))
    # the ambient permutation is ignored
    assert lifted.decide(n, [unary(range(4)), le], [4, 3, 2, 1, 0])
    # not an order: reject
    assert not lifted.decide(n, [unary(range(4)), le - {(0, 0)}], list(range(n)))
    assert not lifted.decide(n, [unary(range(4)), le | {(1, 0)}], list(range(n)))


def test_lift_reads_off_the_given_order():
    q = Q.lift_over_order(Q.language_quantifier(Q.lang_anbn()))
    n = 4
    # order 2 < 0 < 3 < 1 spells "ab ab" -> word "abab"? no: single word
    rank = {2: 0, 0: 1, 3: 2, 1: 3}
    order = frozenset((a, b) for a in range(n) for b in range(n)
                      if rank[a] <= rank[b])
    pa, pb = unary({2, 0}), unary({3, 1})
    assert q.decide(n, [pa, pb, order], [3, 2, 1, 0])  # word "aabb"
    assert not q.decide(n, [pb, pa, order], [3, 2, 1, 0])


def test_b_set_quantifier():
    le = NumericalRelation("le", 2, lambda x, y: x <= y)
    b = Q.b_set_quantifier(le)
    assert b.slot_arities == (1, 1)
    # sizes (3,5) -> shifted (2,4), and 2 <= 4
    assert b.decide(6, [unary({0, 1, 2}), unary({0, 1, 2, 3, 4})],
                    list(range(6)))
    assert not b.decide(6, [unary(range(5)), unary(range(3))], list(range(6)))
    # empty slot decides false even for relations accepting the shift
    assert not b.decide(6, [frozenset(), unary(range(3))], list(range(6)))


def test_powerset_quantifier_on_generated_structures():
    q = Q.powerset_quantifier()
    for k in range(1, 6):
        m = powerset_structure(k)
        expected = k in (1, 4)  # squares
        assert q.decide(m.n, [m.rels["E"]], m.f) == expected, k


def test_powerset_quantifier_rejects_perturbations():
    q = Q.powerset_quantifier()
    m = powerset_structure(1)
    e = m.rels["E"]
    assert q.decide(m.n, [e], m.f)
    assert not q.decide(m.n, [frozenset()], m.f)
    m4 = powerset_structure(4)
    e4 = m4.rels["E"]
    # drop one membership pair: neighborhoods collide or counts break
    assert not q.decide(m4.n, [e4 - {next(iter(e4))}], m4.f)
    # self-membership merges domain and range
    assert not q.decide(m4.n, [e4 | {(0, 0)}], m4.f)


def test_registry_shapes():
    regs = Q.builtin_quantifiers()
    shapes = Q.registry_shapes(regs)
    assert shapes["I"] == [1, 1] and shapes["Maj2"] == [2]
    assert shapes["C_Sq"] == [1] and shapes["PowSq"] == [2]


def test_sentence_quantifier_decides_top_down(monkeypatch):
    # one engine: no knob picks another, and every decision is `evaluate`
    from fmlab import evaluator, syntax
    with pytest.raises(TypeError):
        Q.quantifier_from_sentence("q", [("U", 1)],
                                   syntax.parse("E x. U(x)", {"U": 1}),
                                   engine="fast")
    calls = []
    real = evaluator.evaluate
    monkeypatch.setattr(evaluator, "evaluate",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    q = Q.quantifier_from_sentence("q", [("U", 1)],
                                   syntax.parse("E x. U(x)", {"U": 1}))
    assert q.decide(3, [{(1,)}], [0, 1, 2])
    assert not q.decide(3, [set()], [0, 1, 2])
    assert len(calls) == 2

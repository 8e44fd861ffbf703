import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmlab import evaluator, quantifiers as Q, sets, syntax
from fmlab.model import powerset_structure
from fmlab.quantifiers import slot_array


Sq = sets.squares()


def test_slot_array():
    assert slot_array(3, [1, 2]).tolist() == [False, True, True]
    assert slot_array(3, [(1,), (2,)]).tolist() == [False, True, True]
    assert slot_array(2, [(0, 1)], 2).tolist() == [[False, True],
                                                    [False, False]]
    assert not slot_array(2, [], 2).any()
    assert slot_array(3, [()], 0).shape == ()
    assert slot_array(3, [()], 0) and not slot_array(3, [], 0)


def test_cardinality_examples():
    c = Q.cardinality(Sq, "C_Sq")
    assert c.decide(10, [slot_array(10, range(4))], np.arange(10))
    assert not c.decide(10, [slot_array(10, range(5))], np.arange(10))
    assert c.decide(3, [slot_array(3, [])], np.arange(3))  # 0 is a square


def test_hartig_and_divisibility():
    i = Q.hartig()
    assert i.decide(6, [slot_array(6, {0, 1}), slot_array(6, {4, 5})],
                    np.arange(6))
    assert not i.decide(6, [slot_array(6, {0}), slot_array(6, {4, 5})],
                        np.arange(6))
    d = Q.divisibility()
    assert d.decide(9, [slot_array(9, {1, 2}), slot_array(9, {3, 4, 5, 6})],
                    np.arange(9))
    assert not d.decide(9, [slot_array(9, {1, 2}), slot_array(9, {3, 4, 5})],
                        np.arange(9))
    # zero divides only zero
    assert d.decide(4, [slot_array(4, []), slot_array(4, [])], np.arange(4))
    assert not d.decide(4, [slot_array(4, []), slot_array(4, {2})],
                        np.arange(4))


def test_divisibility_by_and_majorities():
    d2 = Q.divisibility_by(2)
    assert d2.decide(5, [slot_array(5, {1, 3})], np.arange(5))
    assert not d2.decide(5, [slot_array(5, {1, 2, 3})], np.arange(5))
    maj = Q.majority()
    assert maj.decide(5, [slot_array(5, {0, 1, 2})], np.arange(5))
    assert not maj.decide(4, [slot_array(4, {0, 1})], np.arange(4))
    maj2 = Q.majority_pairs()
    big = ({(a, b) for a in range(3) for b in range(3)}
           - {(0, 0), (1, 1), (2, 2), (0, 1)})
    assert maj2.decide(3, [slot_array(3, big, 2)], np.arange(3))
    assert not maj2.decide(3, [slot_array(3, [(0, 1)], 2)], np.arange(3))
    with pytest.raises(ValueError):
        Q.divisibility_by(0)


@given(st.integers(1, 8), st.data())
@settings(max_examples=80)
def test_sizes_decide_agrees_with_decide(n, data):
    regs = [q for q in Q.builtin_quantifiers().values() if q.sizes_decide]
    q = data.draw(st.sampled_from(regs))
    sets_ = [data.draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * a)))
             for a in q.slot_arities]
    f = np.array(data.draw(st.permutations(list(range(n)))))
    slots = [slot_array(n, s, a) for s, a in zip(sets_, q.slot_arities)]
    assert q.decide(n, slots, f) == q.sizes_decide(n, tuple(map(len, sets_)))


def random_slots(rng, n, arities, p=0.4) -> list:
    """Slots with each cell drawn true with probability p."""
    return [np.array([rng.random() < p for _ in range(n ** ar)],
                     dtype=bool).reshape((n,) * ar) for ar in arities]


def permuted_copy(n, slots, f, rng):
    """Rename elements by a random bijection h, compensating in f; the
    result is br-isomorphic input data."""
    h = np.array(rng.sample(range(n), n))
    new_slots = []
    for s in slots:
        new = np.zeros_like(s)
        new[np.ix_(*(h,) * s.ndim)] = s
        new_slots.append(new)
    new_f = np.zeros(n, dtype=np.int64)
    new_f[h] = f
    return new_slots, new_f


def test_decides_are_isomorphism_invariant():
    rng = random.Random(4)
    regs = list(Q.builtin_quantifiers().values())
    regs.append(Q.language_quantifier(Q.lang_anbn()))
    for q in regs:
        for _ in range(25):
            n = rng.randrange(1, 8)
            slots = random_slots(rng, n, q.slot_arities)
            f = np.array(rng.sample(range(n), n))
            pslots, pf = permuted_copy(n, slots, f, rng)
            assert q.decide(n, slots, f) == q.decide(n, pslots, pf), q.name


def test_order_invariant_flag_holds():
    rng = random.Random(9)
    for q in Q.builtin_quantifiers().values():
        if not q.order_invariant:
            continue
        for _ in range(15):
            n = rng.randrange(1, 7)
            slots = random_slots(rng, n, q.slot_arities)
            f2 = np.array(rng.sample(range(n), n))
            assert q.decide(n, slots, np.arange(n)) == q.decide(n, slots, f2), q.name


# -- a batch decides as its elements ------------------------------------------

def _sentence_quantifier():
    # the f-least element of U has a loop
    return Q.quantifier_from_sentence(
        "QUR", [("U", 1), ("R", 2)],
        syntax.parse("E x. (U(x) & R(x, x) & A y. (U(y) -> @le(x, y)))",
                     {"U": 1, "R": 2}))


BATCH_QUANTIFIERS = [
    *Q.builtin_quantifiers().values(),
    Q.language_quantifier(Q.parse_lang_spec("neutral:e:anbn")),
    Q.language_quantifier(Q.lang_ambmck()),
    Q.lift_over_order(Q.language_quantifier(Q.lang_anbn())),
    Q.regularize(Q.hartig()),
    Q.regularize(Q.language_quantifier(Q.lang_anbn())),
    _sentence_quantifier(),
]


def random_structure(rng, n, arities) -> tuple:
    """Slots and f for one structure, around one random ranking of the
    domain, biased towards structures the quantifiers accept.  Often the
    unary slots (or all but the last, which then holds every element, as
    a relativization slot would) partition the domain, half of those times
    in blocks along the ranking, so that word quantifiers read words such
    as a^m b^m; half the time each binary slot is the ranking's order, and
    most of the time f is the ranking."""
    rank = rng.permutation(n)
    slots = [rng.random((n,) * a) < 0.5 for a in arities]
    unary = [i for i, a in enumerate(arities) if a == 1]
    if len(unary) > 1 and rng.random() < 0.5:
        slots[unary.pop()] = np.ones(n, dtype=bool)
    if unary and rng.random() < 0.75:
        letter = (len(unary) * rank // n if rng.random() < 0.5
                  else rng.integers(len(unary), size=n))
        for j, i in enumerate(unary):
            slots[i] = letter == j
    for i, a in enumerate(arities):
        if a == 2 and rng.random() < 0.5:
            slots[i] = rank[:, None] <= rank[None, :]
    return slots, rank if rng.random() < 0.75 else rng.permutation(n)


@pytest.mark.parametrize("q", BATCH_QUANTIFIERS, ids=lambda q: q.name)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_a_batch_decides_as_its_elements(q, n, size, seed):
    rng = np.random.default_rng(seed)
    structures = [random_structure(rng, n, q.slot_arities)
                  for _ in range(size)]

    def one(slots, f):
        verdict = q.decide(n, slots, f)
        assert verdict.shape == ()
        return bool(verdict)

    slots = [np.stack(s) for s in zip(*(s for s, _ in structures))]
    fs = np.stack([f for _, f in structures])
    # one f for each structure
    assert q.decide(n, slots, fs).tolist() == [one(*s) for s in structures]
    # one f for all
    first, f0 = structures[0]
    assert q.decide(n, slots, f0).tolist() == [one(s, f0)
                                               for s, _ in structures]
    # a slot shared through a length-1 batch axis
    assert q.decide(n, [slots[0][:1], *slots[1:]], fs).tolist() == [
        one([first[0], *s[1:]], f) for s, f in structures]
    # a (size, size) batch: the slots of structure i with the f of j
    assert q.decide(n, [s[:, None] for s in slots], fs[None]).tolist() == [
        [one(s, f) for _, f in structures] for s, _ in structures]


# -- the size step of a counting quantifier ------------------------------------

COUNTING = [q for q in Q.builtin_quantifiers().values() if q.sizes_decide]


def random_counting_batch(rng, n, arities, batch):
    """Slots and f over `batch`: each batch axis of each slot, and of f
    if f has batch axes at all, is 1 (and broadcasts) half the time."""
    def own():
        return tuple(d if rng.random() < 0.5 else 1 for d in batch)
    slots = [rng.random(own() + (n,) * a) < rng.random() for a in arities]
    f = np.arange(n)
    if rng.random() < 0.5:
        f = rng.permuted(np.broadcast_to(f, own() + (n,)), axis=-1)
    return slots, f


def popcounts(arities, slots, f) -> list:
    """Each slot's popcounts, over the broadcast batch shape."""
    counts = [np.count_nonzero(s, axis=tuple(range(-a, 0)))
              for s, a in zip(slots, arities)]
    shape = np.broadcast_shapes(f.shape[:-1], *map(np.shape, counts))
    return [np.broadcast_to(c, shape) for c in counts]


def popcount_verdicts(q, n, slots, f):
    """`sizes_decide` of each structure's popcounts."""
    counts = popcounts(q.slot_arities, slots, f)
    shape = counts[0].shape
    return np.array([q.sizes_decide(n, tuple(int(c[i]) for c in counts))
                     for i in np.ndindex(shape)], dtype=bool).reshape(shape)


@pytest.mark.parametrize("batch", [(), (0,), (1,), (4,), (3, 0), (2, 3)])
@pytest.mark.parametrize("q", COUNTING, ids=lambda q: q.name)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=6, deadline=None)
def test_counting_decide_is_sizes_decide_of_the_popcounts(q, batch, n, seed):
    slots, f = random_counting_batch(np.random.default_rng(seed), n,
                                     q.slot_arities, batch)
    want = popcount_verdicts(q, n, slots, f)
    got = q.decide(n, slots, f)
    # at batch = () both are 0-d
    assert got.shape == want.shape and got.dtype == bool
    assert (got == want).all()


def recording(arities):
    """A counting quantifier whose size step records its calls."""
    calls = []

    def sizes_decide(n, sizes):
        calls.append(sizes)
        return sum(sizes) % 3 == 0

    return Q._counting("Rec", arities, sizes_decide), calls


def refuse(*args, **kwargs):
    raise AssertionError("the size step sorted its keys")


def test_counting_decide_calls_the_size_step_once_per_size_tuple(
        monkeypatch):
    # nothing may sort the keys
    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, refuse)
    rng = np.random.default_rng(7)
    for arities in [(1,), (2,), (1, 1), (1, 2, 1)]:
        q, calls = recording(arities)
        for batch in [(), (0,), (1,), (5,), (3, 4), (2, 1, 6)]:
            n = int(rng.integers(1, 5))
            slots, f = random_counting_batch(rng, n, arities, batch)
            counts = popcounts(arities, slots, f)
            calls.clear()
            q.decide(n, slots, f)
            assert sorted(calls) == sorted(set(zip(*(
                c.ravel().tolist() for c in counts))))


def test_counting_table_is_capped(monkeypatch):
    i = Q.hartig()
    u = slot_array(4, [0, 2])
    monkeypatch.setattr(evaluator, "TABLE_CAP", 5 ** 2 - 1)
    with pytest.raises(evaluator.BudgetExceeded,
                       match="I at n=4 has 25 size tuples; cap is 24"):
        i.decide(4, [u[None], u], np.arange(4))
    # one structure builds no table
    assert i.decide(4, [u, u], np.arange(4))
    monkeypatch.setattr(evaluator, "TABLE_CAP", 5 ** 2)
    assert i.decide(4, [u[None], u], np.arange(4)).tolist() == [True]


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


@pytest.mark.parametrize("spec, named", [
    ("neutral:ab:anbn", None),  # was accepted, and read 'abab' as a^nb^n
    ("neutral::anbn", None), ("neutral:a:anbn", None), ("neutral:", None),
    ("neutral:e", None), ("parity-z", None),
    ("neutral:e:parity-c", "parity-c")])
def test_bad_language_specs_are_refused(spec, named):
    with pytest.raises(ValueError, match=re.escape(repr(named or spec))):
        Q.parse_lang_spec(spec)


def test_word_quantifier_letters_are_capped():
    # every neutral letter adds one; the code table has 2^k entries
    spec = "anbn"
    for e in "cdefghijklmnop":
        spec = f"neutral:{e}:{spec}"
    assert len(Q.parse_lang_spec(spec).alphabet) == Q.LETTER_CAP
    Q.language_quantifier(Q.parse_lang_spec(spec))
    with pytest.raises(ValueError, match="at most 16"):
        Q.language_quantifier(Q.parse_lang_spec(f"neutral:q:{spec}"))


def test_language_quantifier_partition_and_order():
    q = Q.language_quantifier(Q.lang_anbn())
    a, b = slot_array(2, {0}), slot_array(2, {1})
    # word "ab" in reading order
    assert q.decide(2, [a, b], np.array([0, 1]))
    # same slots, reversed order: word is "ba"
    assert not q.decide(2, [a, b], np.array([1, 0]))
    # overlap and gap both fail
    assert not q.decide(2, [slot_array(2, {0, 1}), b], np.arange(2))
    assert not q.decide(3, [slot_array(3, {0}), slot_array(3, {1})],
                        np.arange(3))


@pytest.mark.parametrize("lang", [
    Q.lang_anbn(), Q.lang_ambmck(), Q.parse_lang_spec("neutral:e:anbn")],
    ids=lambda lang: lang.name)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_word_quantifier_decides_one_structure_as_a_batch(lang, n, seed):
    # each element's slots are the bits of its code: mostly one letter,
    # else any code, a gap (no slot) and an overlap (several) included
    rng = np.random.default_rng(seed)
    k = len(lang.alphabet)
    codes = np.where(rng.random(n) < 0.8, 1 << rng.integers(k, size=n),
                     rng.integers(1 << k, size=n))
    slots = [(codes >> i & 1).astype(bool) for i in range(k)]
    f = rng.permutation(n)
    q = Q.language_quantifier(lang)
    one = q.decide(n, slots, f)
    assert one.shape == ()
    assert q.decide(n, [s[None] for s in slots], f[None]).tolist() == [one]
    # the word in f-order, '?' where an element is not one letter
    word = "".join(lang.alphabet[c.bit_length() - 1] if c and not c & c - 1
                   else "?" for c in codes[np.argsort(f)].tolist())
    assert one == ("?" not in word and word in lang)


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
    assert qreg.decide(8, [slot_array(8, {0, 1, 2, 3, 7}),
                           slot_array(8, range(6))], np.arange(8))
    assert not qreg.decide(8, [slot_array(8, {0, 1, 2, 3, 4, 7}),
                               slot_array(8, range(6))], np.arange(8))
    # empty P decides false even when the bare quantifier would accept
    empty = slot_array(3, [])
    assert Q.cardinality(Sq).decide(3, [empty], np.arange(3))
    assert not qreg.decide(3, [empty, empty], np.arange(3))


def test_regularize_language_padding():
    qreg = Q.regularize(Q.language_quantifier(Q.lang_anbn()))
    # "ab" carried inside a 5 element structure, order given by f
    pa, pb = slot_array(5, {2}), slot_array(5, {4})
    p = slot_array(5, {2, 4})
    assert qreg.decide(5, [pa, pb, p], np.arange(5))
    # f makes position 4 come before 2: word "ba"
    assert not qreg.decide(5, [pa, pb, p], np.array([0, 1, 4, 3, 2]))
    # P = {0, 1, 3, 4} in f-order is 1, 3, 4, 0 (f collapses to the ranks
    # 3, 0, 1, 2, not to their inverse); 2, outside P, is ignored
    f, p = np.array([3, 0, 4, 1, 2]), slot_array(5, {0, 1, 3, 4})
    assert qreg.decide(5, [slot_array(5, {1, 2, 3}), slot_array(5, {0, 4}),
                           p], f)  # "aabb"
    assert not qreg.decide(5, [slot_array(5, {0, 4}), slot_array(5, {1, 3}),
                               p], f)  # "bbaa"


def order_slot(n, pairs):
    return slot_array(n, pairs, 2)


def test_lift_over_order():
    lifted = Q.lift_over_order(Q.cardinality(Sq, "C_Sq"))
    n = 5
    le = {(a, b) for a in range(n) for b in range(n) if a <= b}
    four = slot_array(n, range(4))
    # explicit order = ambient order: agree with the bare quantifier
    assert lifted.decide(n, [four, order_slot(n, le)], np.arange(n))
    assert not lifted.decide(n, [slot_array(n, range(3)), order_slot(n, le)],
                             np.arange(n))
    # the ambient permutation is ignored
    assert lifted.decide(n, [four, order_slot(n, le)], np.arange(n)[::-1])
    # not an order: reject
    assert not lifted.decide(n, [four, order_slot(n, le - {(0, 0)})],
                             np.arange(n))
    assert not lifted.decide(n, [four, order_slot(n, le | {(1, 0)})],
                             np.arange(n))


def test_lift_keeps_the_consistency_pass():
    # the diagonal and 6 more pairs: n(n+1)/2 = 10 pairs, and in-degrees
    # (less the loop) 3, 1, 2, 0, a permutation; but (0, 1) runs from
    # rank 3 down to rank 1, so this is no order
    n = 4
    pairs = {(a, a) for a in range(n)} | {(0, 1), (1, 0), (0, 2), (2, 0),
                                          (3, 0), (3, 2)}
    order = order_slot(n, pairs)
    assert order.sum() == n * (n + 1) // 2
    assert sorted(order.sum(axis=0) - 1) == list(range(n))
    lifted = Q.lift_over_order(Q.cardinality(sets.naturals(), "C_N"))
    assert not lifted.decide(n, [slot_array(n, []), order], np.arange(n))
    # the same test passes a genuine order with those in-degrees
    rank = [3, 1, 2, 0]
    linear = {(a, b) for a in range(n) for b in range(n) if rank[a] <= rank[b]}
    assert lifted.decide(n, [slot_array(n, []), order_slot(n, linear)],
                         np.arange(n))


def test_lift_reads_off_the_given_order():
    q = Q.lift_over_order(Q.language_quantifier(Q.lang_anbn()))
    n = 4
    # the order 2 < 0 < 3 < 1 reads a, a, b, b: the word "aabb"
    rank = {2: 0, 0: 1, 3: 2, 1: 3}
    order = order_slot(n, {(a, b) for a in range(n) for b in range(n)
                           if rank[a] <= rank[b]})
    pa, pb = slot_array(n, {2, 0}), slot_array(n, {3, 1})
    assert q.decide(n, [pa, pb, order], np.array([3, 2, 1, 0]))
    assert not q.decide(n, [pb, pa, order], np.array([3, 2, 1, 0]))


def membership_slot(m, pairs=None):
    return slot_array(m.n, m.rels["E"] if pairs is None else pairs, 2)


def test_powerset_quantifier_on_generated_structures():
    q = Q.powerset_quantifier()
    for k in range(1, 6):
        m = powerset_structure(k)
        expected = k in (1, 4)  # squares
        assert q.decide(m.n, [membership_slot(m)], m.f) == expected, k


def test_powerset_quantifier_rejects_perturbations():
    q = Q.powerset_quantifier()
    m = powerset_structure(1)
    assert q.decide(m.n, [membership_slot(m)], m.f)
    assert not q.decide(m.n, [membership_slot(m, [])], m.f)
    m4 = powerset_structure(4)
    e4 = m4.rels["E"]
    # drop one membership pair: neighborhoods collide or counts break
    assert not q.decide(m4.n, [membership_slot(m4, e4 - {next(iter(e4))})],
                        m4.f)
    # self-membership merges domain and range
    assert not q.decide(m4.n, [membership_slot(m4, e4 | {(0, 0)})], m4.f)


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
    assert q.decide(3, [slot_array(3, {1})], np.arange(3))
    assert not q.decide(3, [slot_array(3, [])], np.arange(3))
    assert len(calls) == 2

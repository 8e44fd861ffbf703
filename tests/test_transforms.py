import random

import pytest
from hypothesis import given, settings, strategies as st

from fmlab import quantifiers as Q
from fmlab.evaluator import define_relation, evaluate
from fmlab.model import BrModel, powerset_structure, relativize, word_model
from fmlab.randform import FormulaGen, random_formula
from fmlab.syntax import (Exists, Forall, Not, parse, pretty)
from fmlab.transforms import (_Names, mso_translate, relativize_formula,
                              rename_free, substitute)


def fo_model(rng, n, arities):
    import itertools
    rels = {name: {t for t in itertools.product(range(n), repeat=ar)
                   if rng.random() < 0.4}
            for name, ar in arities.items()}
    f = list(range(n))
    rng.shuffle(f)
    return BrModel(n, arities, rels, f)


# -- substitution ------------------------------------------------------------

def test_substitute_simple():
    phi = parse("E x. (S(x, y) & U(x))", {"S": 2, "U": 1})
    out = substitute(phi, {"S": (("p", "q"), parse("R(q, p)", {"R": 2}))})
    assert pretty(out) == "E x. (R(y, x) & U(x))"


def test_substitute_avoids_capture():
    # the definition's own binder must not swallow the argument
    phi = parse("A x. S(x)", {"S": 1})
    body = parse("E x. R(p, x)", {"R": 2})
    out = substitute(phi, {"S": (("p",), body)})
    rng = random.Random(0)
    for _ in range(20):
        m = fo_model(rng, 4, {"R": 2, "S": 1})
        want = all(any((a, b) in m.rels["R"] for b in range(4))
                   for a in range(4))
        assert evaluate(m, out, {}) == want


def test_substitute_arity_mismatch():
    phi = parse("S(x, y)", {"S": 2})
    with pytest.raises(ValueError):
        substitute(phi, {"S": (("p",), parse("U(p)", {"U": 1}))})


@given(st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_substitution_matches_defined_relation(n, depth, rng):
    base = {"U": 1, "R": 2}
    m = fo_model(rng, n, base)
    body = random_formula(rng, base, depth, ("p", "q"))
    phi = random_formula(rng, {**base, "S": 2}, depth, ("x",))
    subbed = substitute(phi, {"S": (("p", "q"), body)})
    s_ext = define_relation(m, body, ("p", "q"))
    m_with_s = m.with_relations({"S": s_ext}, {"S": 2})
    a = {v: rng.randrange(n) for v in phi.free}
    assert evaluate(m, subbed, a) == evaluate(m_with_s, phi, a)


@given(st.integers(2, 4), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_substitution_with_primed_binders(n, depth, rng):
    # S(x, y) renames the body's binder x apart; the body also binds the
    # names that renaming draws (s1', s2'), so fresh names must skip them
    base = {"U": 1, "R": 2}
    m = fo_model(rng, n, base)
    gen = FormulaGen(base)
    gen._fresh = lambda: rng.choice(("x", "s1'", "s2'"))
    inner = gen.formula(rng, depth, ("p", "q", "x", "s1'"))
    body = rng.choice([Exists, Forall])(
        "x", rng.choice([Exists, Forall])("s1'", inner))
    phi = parse("S(x, y)", {"S": 2})
    subbed = substitute(phi, {"S": (("p", "q"), body)})
    s_ext = define_relation(m, body, ("p", "q"))
    m_with_s = m.with_relations({"S": s_ext}, {"S": 2})
    a = {"x": rng.randrange(n), "y": rng.randrange(n)}
    assert evaluate(m, subbed, a) == evaluate(m_with_s, phi, a)


# -- relativization ----------------------------------------------------------

REL_QUANTS = {name: Q.builtin_quantifiers()[name]
              for name in ["C_Sq", "C_E", "I", "D", "D_2"]}


def test_relativize_formula_shape():
    phi = parse("E x. (U(x) & x <= y)", {"U": 1})
    out = relativize_formula(phi, parse("P(v)", {"P": 1}), "v")
    assert pretty(out) == "E x. (P(x) & (U(x) & @le(x, y)))"


def test_relativize_formula_rejects():
    with pytest.raises(ValueError):
        relativize_formula(parse("x + y = z"), parse("P(v)", {"P": 1}), "v")
    with pytest.raises(ValueError):
        relativize_formula(parse("Maj(x: U(x))", {"U": 1}, {"Maj": [1]}),
                           parse("P(v)", {"P": 1}), "v",
                           registry=Q.builtin_quantifiers())
    with pytest.raises(ValueError):
        relativize_formula(parse("U(x)", {"U": 1}),
                           parse("R(v, w)", {"R": 2}), "v")


@given(st.integers(2, 8), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_relativization_property(n, depth, rng):
    vocab = {"U": 1, "R": 2, "P": 1}
    m = fo_model(rng, n, vocab)
    u = sorted(a for (a,) in m.rels["P"])
    if not u:
        return
    phi = random_formula(rng, {"U": 1, "R": 2}, depth, ("x",),
                         quants=Q.registry_shapes(REL_QUANTS),
                         builtins=("le", "lt"))
    guarded = relativize_formula(phi, parse("P(v)", vocab), "v",
                                 registry=REL_QUANTS)
    sub, idx = relativize(m, u)
    for x in u:
        big = evaluate(m, guarded, {"x": x}, quantifiers=REL_QUANTS)
        small = evaluate(sub, phi, {"x": idx[x]}, quantifiers=REL_QUANTS)
        assert big == small


# -- word translation --------------------------------------------------------

E_VOCAB = {"E": 2}


def both_sides(phi, k):
    m = powerset_structure(k)
    w = word_model("a" * k)
    lhs = evaluate(m, phi, {})
    rhs = evaluate(w, mso_translate(phi), {})
    return lhs, rhs


def test_mso_translate_examples():
    # some membership pair exists
    phi = parse("E x. E y. E(x, y)", E_VOCAB)
    for k in (1, 2, 3):
        lhs, rhs = both_sides(phi, k)
        assert lhs is True and rhs is True
    # two distinct subset-sort elements exist iff 2^k - 1 >= 2
    phi2 = parse("E x. E y. (!(x = y) & (E z. E(z, x)) & E z. E(z, y))",
                 E_VOCAB)
    for k in (1, 2, 3):
        lhs, rhs = both_sides(phi2, k)
        assert lhs == rhs == (k >= 2)
    # every atom belongs to some subset
    phi3 = parse("A x. ((E y. E(x, y)) | E y. E(y, x))", E_VOCAB)
    for k in (1, 2, 3):
        lhs, rhs = both_sides(phi3, k)
        assert lhs is True and rhs is True


def test_mso_translate_respects_order():
    # there is a least element with an outgoing membership edge
    phi = parse("E x. ((E y. E(x, y)) & A z. x <= z)", E_VOCAB)
    for k in (1, 2, 3):
        lhs, rhs = both_sides(phi, k)
        assert lhs == rhs


@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mso_translation_correspondence(k, depth, rng):
    body = random_formula(rng, E_VOCAB, depth, ("x",), builtins=("le", "lt"))
    phi = Exists("x", body)
    lhs, rhs = both_sides(phi, k)
    assert lhs == rhs


def test_mso_translate_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        mso_translate(parse("x + y = z"))
    with pytest.raises(ValueError):
        mso_translate(parse("R(x, y)", {"R": 2}))


def test_rename_free_shadowing():
    phi = parse("U(x) & E x. U(x)", {"U": 1})
    out = rename_free(phi, {"x": "y"}, _Names())
    assert pretty(out) == "U(y) & E x. U(x)"


# the generator names its binders b1, b2, ...; mapping a free variable onto
# one of them threatens capture
RENAME_TARGETS = ("x", "y", "b1", "b2")


@given(st.integers(1, 4), st.integers(1, 3), st.randoms(use_true_random=False),
       st.dictionaries(st.sampled_from(["x", "y"]),
                       st.sampled_from(RENAME_TARGETS)))
@settings(max_examples=150, deadline=None)
def test_rename_free_avoids_capture(n, depth, rng, mp):
    vocab = {"U": 1, "R": 2}
    m = fo_model(rng, n, vocab)
    phi = random_formula(rng, vocab, depth, ("x", "y"),
                         quants=Q.registry_shapes(REL_QUANTS),
                         allow_count=True)
    out = rename_free(phi, mp, _Names())
    a = {v: rng.randrange(n) for v in RENAME_TARGETS}
    want = evaluate(m, phi, {v: a[mp.get(v, v)] for v in ("x", "y")},
                    quantifiers=REL_QUANTS)
    assert evaluate(m, out, a, quantifiers=REL_QUANTS) == want

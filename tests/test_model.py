import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmlab.model import (BrModel, PartialArithModel, builtin_registry,
                         full_multiplication, parse_model, format_model,
                         powerset_structure, relativize, word_model,
                         zero_rows)


def perms(n):
    return st.permutations(list(range(n)))


def random_model(rng, n, binary=True):
    arities = {"U": 1}
    rels = {"U": {(a,) for a in range(n) if rng.random() < 0.5}}
    if binary:
        arities["R"] = 2
        rels["R"] = {(a, b) for a in range(n) for b in range(n)
                     if rng.random() < 0.3}
    f = list(range(n))
    rng.shuffle(f)
    return BrModel(n, arities, rels, f)


def test_model_validation():
    with pytest.raises(ValueError):
        BrModel(3, {"R": 2}, {"R": {(0, 3)}})
    with pytest.raises(ValueError):
        BrModel(3, {"R": 2}, {"R": {(0, 1, 2)}})
    with pytest.raises(ValueError):
        BrModel(3, {}, {}, f=[0, 0, 2])


def test_builtin_eval_examples():
    reg = builtin_registry()
    ident = BrModel(5, {}, {})
    assert reg["le"].eval_on(ident, (2, 4))
    rev = BrModel(5, {}, {}, f=[4, 3, 2, 1, 0])
    assert not reg["plus"].eval_on(rev, (4, 3, 2))
    assert reg["plus"].eval_on(rev, (4, 3, 3))
    assert reg["times"].eval_on(BrModel(10, {}, {}), (3, 3, 9))
    assert reg["set:sq"].eval_on(BrModel(10, {}, {}), (4,))
    assert not reg["set:sq"].eval_on(BrModel(10, {}, {}), (5,))


def test_builtin_le_is_linear_order():
    reg = builtin_registry()
    rng = random.Random(7)
    for _ in range(10):
        m = random_model(rng, 6)
        le = {(a, b) for a in range(6) for b in range(6)
              if reg["le"].eval_on(m, (a, b))}
        for a in range(6):
            assert (a, a) in le
            for b in range(6):
                assert ((a, b) in le) or ((b, a) in le)
                for c in range(6):
                    if (a, b) in le and (b, c) in le:
                        assert (a, c) in le


def test_relativize_examples():
    m = BrModel(4, {"U": 1}, {"U": {(1,), (3,)}})
    sub, idx = relativize(m, {1, 3})
    assert sub.n == 2 and idx == {1: 0, 3: 1}
    assert sub.f == (0, 1)
    assert sub.rels["U"] == {(0,), (1,)}

    whole, idx2 = relativize(m, range(4))
    assert whole == m and idx2 == {i: i for i in range(4)}

    m2 = BrModel(3, {}, {}, f=[2, 1, 0])
    sub2, _ = relativize(m2, {0, 2})
    assert sub2.f == (1, 0)

    with pytest.raises(ValueError):
        relativize(m, set())


def test_relativize_twice_is_identity():
    rng = random.Random(3)
    for _ in range(20):
        m = random_model(rng, 7)
        u = {a for a in range(7) if rng.random() < 0.6} | {0}
        sub, _ = relativize(m, u)
        again, idx = relativize(sub, range(sub.n))
        assert again == sub and idx == {i: i for i in range(sub.n)}


def test_word_model():
    m = word_model("aab")
    assert m.rels["P_a"] == {(0,), (1,)} and m.rels["P_b"] == {(2,)}
    assert word_model("e").rels["P_e"] == {(0,)}
    m2 = word_model("abab")
    assert m2.rels["P_a"] == {(0,), (2,)} and m2.rels["P_b"] == {(1,), (3,)}


def test_powerset_structure():
    assert powerset_structure(1).rels["E"] == {(0, 1)}
    assert powerset_structure(2).n == 5
    assert len(powerset_structure(2).rels["E"]) == 4
    ps3 = powerset_structure(3)
    assert ps3.n == 10 and len(ps3.rels["E"]) == 12
    with pytest.raises(ValueError):
        powerset_structure(6)


def test_partial_arith_validation():
    assert PartialArithModel(10, {(2, 3, 6)}).mult == {(2, 3, 6)}
    with pytest.raises(ValueError):
        PartialArithModel(10, {(2, 3, 7)})
    full = PartialArithModel(10, full_multiplication(10))
    assert full.is_full()


@pytest.mark.parametrize("bad, shown", [
    ({(2, 3, 7)}, "[(2, 3, 7)]"),
    ({(2, 5, 10), (1, 2, 2)}, "[(2, 5, 10)]"),
    ({(-1, 0, 0), (2, 3)}, "[(-1, 0, 0), (2, 3)]"),
])
def test_bad_triples_name_the_offenders(bad, shown):
    with pytest.raises(ValueError, match=re.escape(
            f"seed tuples violate a*b=c<n: {shown}")):
        PartialArithModel(10, bad)


def test_known_matrix_is_checked():
    known = np.zeros((10, 10), dtype=bool)
    known[3, 3] = True
    assert PartialArithModel(10, known=known).mult == {(3, 3, 9)}
    known[3, 4] = True
    with pytest.raises(ValueError, match=re.escape("a*b < n")):
        PartialArithModel(10, known=known)
    with pytest.raises(ValueError):
        PartialArithModel(9, known=np.zeros((10, 10), dtype=bool))


@given(st.integers(1, 40), st.floats(0, 1), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_mult_view_round_trips(n, p, with_zero, rng):
    picked = {t for t in full_multiplication(n) if rng.random() < p}
    if with_zero:
        picked |= zero_rows(n)
    pm = PartialArithModel(n, picked)
    assert pm.mult == picked
    assert PartialArithModel(n, pm.mult) == pm
    assert PartialArithModel(n, known=pm.known.copy()) == pm
    assert pm.is_full() == (picked == full_multiplication(n))


def gamma_of(n, mult, k):
    return PartialArithModel(n, mult).gamma(k)


def test_gamma_examples():
    full10 = full_multiplication(10)
    assert gamma_of(10, full10, 3) == 3
    assert gamma_of(10, (), 2) == 0
    assert gamma_of(10, full10, 0) == 9
    assert gamma_of(10, full10, 10) == 0


@given(st.integers(2, 20), st.integers(1, 6))
@settings(max_examples=60)
def test_gamma_upper_bound(n, k):
    # gamma(full multiplication, k) <= floor((n-1)/k)
    g = gamma_of(n, full_multiplication(n), k)
    assert g <= (n - 1) // k


@given(st.integers(3, 16), st.integers(0, 4), st.integers(0, 4),
       st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_gamma_monotone(n, k_small, dk, rng):
    # R subset of R', k >= k'  =>  gamma(R,k) <= gamma(R',k')
    base = sorted(full_multiplication(n))
    sub = {t for t in base if rng.random() < 0.7} | zero_rows(n)
    sup = sub | {t for t in base if rng.random() < 0.5}
    k = k_small + dk
    assert gamma_of(n, sub, k) <= gamma_of(n, sup, k_small)


def test_model_file_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        m = random_model(rng, 6)
        assert parse_model(format_model(m)) == m
    ps = powerset_structure(3)
    assert parse_model(format_model(ps)) == ps


def test_model_file_unary_without_parens():
    m = parse_model("model\nn 3\nrel U 1 : 0 2\nend\n")
    assert m.rels["U"] == {(0,), (2,)}


def test_model_file_errors():
    with pytest.raises(ValueError):
        parse_model("n 3\nend\n")
    with pytest.raises(ValueError):
        parse_model("model\nn 3\nrel R 2 : (0 1\nend\n")
    with pytest.raises(ValueError):
        parse_model("model\nrel U 1 : 0\nend\n")


@pytest.mark.parametrize("line", [
    "n abc", "f 1 a", "rel U x : 0", "rel R 2 : (1 x)", "rel R 2 : (0 1",
    "rel R 2 : 0 (0 1)", "rel R 2 (0 1)", "rel R 2 : ((0 1))", "foo 1",
])
def test_model_file_error_names_the_line(line):
    with pytest.raises(ValueError, match=re.escape(f"model line {line!r}")):
        parse_model(f"model\nn 3\n{line}\nend\n")


@pytest.mark.parametrize("body, repeat", [
    ("n 3\nrel R 1 : 0", "rel R 2 : (0 1)"),
    ("n 3\nrel R 2 : (0 1)", "rel R 2 : (1 2)"),
    ("n 3", "n 4"),
    ("n 3\nf 0 1 2", "f 2 1 0"),
])
def test_model_file_refuses_a_repeated_line(body, repeat):
    with pytest.raises(ValueError, match=re.escape(f"model line {repeat!r}")):
        parse_model(f"model\n{body}\n{repeat}\nend\n")


def test_negative_arity_is_refused():
    with pytest.raises(ValueError, match="relation R has negative arity"):
        BrModel(3, {"R": -1}, {})
    with pytest.raises(ValueError, match="relation R has negative arity"):
        parse_model("model\nn 3\nrel R -1 :\nend\n")

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from fmlab import syntax
from fmlab.randform import random_formula
from fmlab.syntax import (MAX_DEPTH, And, Atom, BuiltinAtom, Count, Eq,
                          Exists, Forall, Formula, Iff, Imp, Not, Or,
                          ParseError, QApp, SetAtom, SetExists, SetForall,
                          conj, parse, pretty, quantifier_rank, subformulas)

V = {"P": 1, "R": 2, "S": 3}
QS = {"I": [1, 1], "Maj": [1], "Q3": [1, 2]}


def test_precedence_chain():
    phi = parse("P(x) & P(y) | P(z) -> P(x) <-> P(y)", V)
    assert isinstance(phi, Iff)
    assert isinstance(phi.left, Imp)
    assert isinstance(phi.left.left, Or)
    assert isinstance(phi.left.left.left, And)


def test_negation_binds_tightest():
    phi = parse("!P(x) & P(y)", V)
    assert phi == And(Not(Atom("P", ("x",))), Atom("P", ("y",)))
    assert parse("!!P(x)", V) == Not(Not(Atom("P", ("x",))))


def test_quantifier_body_is_tight():
    # the body stops at the first binary connective
    phi = parse("E x. P(x) & P(y)", V)
    assert phi == And(Exists("x", Atom("P", ("x",))), Atom("P", ("y",)))
    phi2 = parse("E x. (P(x) & P(y))", V)
    assert phi2 == Exists("x", And(Atom("P", ("x",)), Atom("P", ("y",))))


def test_sugar_forms():
    assert parse("x = y") == Eq("x", "y")
    assert parse("x < y") == BuiltinAtom("lt", ("x", "y"))
    assert parse("x <= y") == BuiltinAtom("le", ("x", "y"))
    assert parse("x + y = z") == BuiltinAtom("plus", ("x", "y", "z"))
    assert parse("@bit(x, y)") == BuiltinAtom("bit", ("x", "y"))
    assert parse("@set:Sq(x)") == BuiltinAtom("set:Sq", ("x",))


def test_count_parse_and_print():
    phi = parse("# x = y. P(x)", V)
    assert phi == Count("x", "y", Atom("P", ("x",)))
    assert parse(pretty(phi), V) == phi


def test_qapp_forms():
    explicit = parse("I(x: P(x); y: P(y))", V, QS)
    assert explicit == QApp("I", ((("x",), Atom("P", ("x",))),
                                  (("y",), Atom("P", ("y",)))))
    # one variable per slot, bodies distributed
    sugared = parse("I x, y. (P(x); P(y))", V, QS)
    assert sugared == explicit
    # a single slot binding the whole tuple
    tup = parse("Q3(x: P(x); y, z: R(y, z))", V, QS)
    assert [len(vs) for vs, _ in tup.slots] == [1, 2]


def test_qapp_shape_checked():
    with pytest.raises(ParseError):
        parse("I(x: P(x))", V, QS)
    with pytest.raises(ParseError):
        parse("Maj(x, y: R(x, y))", V, QS)
    with pytest.raises(ValueError):
        QApp("I", ((("x", "x"), Atom("P", ("x",))),))


def test_reserved_names_as_relations():
    # `E(` is an atom (binders take a bare variable), `E x.` is a binder
    phi = parse("E x. E(x, x)", {"E": 2})
    assert phi == Exists("x", Atom("E", ("x", "x")))


def test_set_variables():
    phi = parse("EX X. A y. (X(y) -> P(y))", V)
    assert isinstance(phi, SetExists)
    assert set(phi.free_sets) == set()
    open_phi = parse("X(y)", V)
    assert open_phi == SetAtom("X", "y")
    assert set(open_phi.free_sets) == {"X"}


def test_bound_set_variables_need_no_vocabulary():
    assert parse("EX X. X(y)") == SetExists("X", SetAtom("X", "y"))
    assert parse("(AX X. X(y)) & X(y)") == And(
        SetForall("X", SetAtom("X", "y")), Atom("X", ("y",)))
    with pytest.raises(ParseError):
        parse("EX X. X(x, y)")


def test_bound_set_variable_shadows_relation():
    vocab = {"U": 1}
    assert parse("EX U. A x. !U(x)", vocab) == SetExists(
        "U", Forall("x", Not(SetAtom("U", "x"))))
    assert parse("(EX U. U(x)) & U(x)", vocab) == And(
        SetExists("U", SetAtom("U", "x")), Atom("U", ("x",)))
    with pytest.raises(ParseError):
        parse("AX U. U(x, y)", {"U": 2})


def test_nesting_depth_capped():
    assert parse("!" * (MAX_DEPTH - 1) + "x = x") is not None
    for text in ("!" * 5000 + "x = x", "(" * 5000 + "x = x" + ")" * 5000,
                 "E x. " * 5000 + "x = x"):
        with pytest.raises(ParseError):
            parse(text)


def test_vocab_errors():
    with pytest.raises(ParseError):
        parse("P(x, y)", V)          # arity mismatch
    with pytest.raises(ParseError):
        parse("Unknown2(x, y)", V)   # undeclared non-unary uppercase
    with pytest.raises(ParseError):
        parse("q(x", V)              # unbalanced
    with pytest.raises(ParseError):
        parse("P(x) P(y)", V)        # trailing input


def test_measures():
    phi = parse("E x. A y. (R(x, y) | # z = x. P(z))", V)
    assert quantifier_rank(phi) == 3
    assert phi.free == ()
    assert parse("R(x, y) & E y. P(y)", V).free == ("x", "y")
    assert sum(1 for _ in subformulas(phi)) == 6
    twice = parse("(E x. P(x)) & (E x. P(x))", V)
    assert twice.left is twice.right


def test_conj_helper():
    parts = [Atom("P", (v,)) for v in "xyz"]
    assert pretty(conj(parts)) == "P(x) & P(y) & P(z)"
    with pytest.raises(ValueError):
        conj([])


@pytest.mark.parametrize("vocab, quants", [(V, QS), (V, None), (None, QS),
                                           (None, None)])
@given(st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_pretty_parse_round_trip(vocab, quants, depth, rng):
    phi = random_formula(rng, V, depth, ("x", "y"), quants=QS,
                         builtins=("le", "lt", "plus"), allow_count=True)
    assert parse(pretty(phi), vocab, quants) is phi


@pytest.mark.parametrize("vocab", [{"Z": 0, "P": 1}, None])
def test_nullary_relation_round_trip(vocab):
    phi = And(Atom("Z", ()), Not(Atom("P", ("x",))))
    assert pretty(Atom("Z", ())) == "Z()"
    assert parse(pretty(phi), vocab) is phi
    assert parse("E x. Z ( )", vocab) is Exists("x", Atom("Z", ()))


def test_nullary_relation_keeps_its_arity():
    with pytest.raises(ParseError, match="Z has arity 0, got 1"):
        parse("Z(x)", {"Z": 0})
    with pytest.raises(ParseError, match="P has arity 1, got 0"):
        parse("P()", {"P": 1})


@pytest.mark.parametrize("text, vocab, quants, message", [
    # a bad character after whitespace
    ("x =  $y", None, None, "unexpected character '$' (at position 5)"),
    ("P(x) &\t%", V, QS, "unexpected character '%' (at position 7)"),
    # an unbalanced parenthesis
    ("(x = x", None, None, "expected ')', found '<eof>' (at position 6)"),
    ("(P(x) | P(y)))", V, QS, "trailing input ')' (at position 13)"),
    ("P(x) P(y)", V, QS, "trailing input 'P' (at position 5)"),
    # the end of input
    ("x =", None, None, "expected a name, found '<eof>' (at position 3)"),
    ("E x.", None, None, "expected a name, found '<eof>' (at position 4)"),
    ("P(x, y)", V, QS, "P has arity 1, got 2 (at position 7)"),
    ("Unknown2(x, y)", V, QS,
     "set variable Unknown2 applied to 2 arguments (at position 14)"),
    ("foo(x, y)", V, QS, "unknown relation 'foo' (at position 9)"),
    ("I x, y. (P(x); P(y); P(x))", V, QS,
     "I: 2 bound variables for 3 slot formulas (at position 26)"),
    ("Q x, y. (P(x); P(y); P(x))", V, None,
     "Q: 2 bound variables for 3 slot formulas (at position 26)"),
    ("I(x: P(x))", V, QS,
     "I expects slot arities [1, 1], got [1] (at position 10)"),
    ("!" * (MAX_DEPTH + 1) + "x = x", None, None,
     f"formula nested deeper than {MAX_DEPTH} (at position {MAX_DEPTH})"),
    ("(" * (MAX_DEPTH + 1) + "x = x" + ")" * (MAX_DEPTH + 1), None, None,
     f"formula nested deeper than {MAX_DEPTH} (at position {MAX_DEPTH})"),
    ("Q(x; y: P(y))", None, None, "expected ':', found ';' (at position 3)"),
    ("E(x: P(x))", None, None, "expected ')', found ':' (at position 3)"),
    # with no registry an application is recognised after its first
    # variables, so a stray name there ends an atom
    ("Q(x y: P(x))", V, None, "expected ')', found 'y' (at position 4)"),
])
def test_parse_error_message_and_position(text, vocab, quants, message):
    with pytest.raises(ParseError) as info:
        parse(text, vocab, quants)
    assert str(info.value) == message
    assert info.value.pos == int(message.rsplit(" ", 1)[1][:-1])


OPERATORS = ("<->", "->", "<=", *"().;:,=<+&|!#@")


@given(st.text(alphabet="xyQE_'1 \t\n\u3000\x1c()-<>=.;:,+&|!#@$%",
               max_size=40))
@settings(max_examples=400, deadline=None)
def test_tokenize_drops_whitespace_or_stops_at_a_bad_character(text):
    try:
        toks = syntax.tokenize(text)
    except ParseError as exc:
        p = exc.pos
        # the first character that starts no token
        assert not text[p].isspace() and not text[p].isalpha()
        assert text[p] != "_"
        assert not any(text.startswith(op, p) for op in OPERATORS)
        assert "".join(syntax.tokenize(text[:p])) == "".join(text[:p].split())
    else:
        assert "".join(toks) == "".join(text.split())


def test_pretty_minimal_parens():
    phi = parse("(P(x) | P(y)) & P(z)", V)
    assert pretty(phi) == "(P(x) | P(y)) & P(z)"
    phi2 = parse("P(x) | P(y) & P(z)", V)
    assert pretty(phi2) == "P(x) | P(y) & P(z)"


def test_equal_formulas_are_one_object():
    phi = parse("E x. (P(x) & I(y: P(y); z: R(z, x)))", V, QS)
    assert copy.copy(phi) is phi
    assert copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert hash(phi) == hash(parse(pretty(phi), V, QS))
    assert phi.shapes == {("quantifier", "I", (1, 1)), ("relation", "P", 1),
                          ("relation", "R", 2)}


def test_node_table_empties_when_formulas_die():
    gc.collect()
    before = len(syntax._TABLE)
    phi = parse("A dead1. E dead2. (R(dead1, dead2) | dead1 = dead2)", V)
    assert len(syntax._TABLE) > before
    del phi
    gc.collect()
    assert len(syntax._TABLE) == before


def walk(phi) -> tuple:
    """(free, free set variables, shapes) of phi as sets, from its fields
    alone: the binding rules written out once more."""
    if isinstance(phi, (Atom, BuiltinAtom)):
        kind = "relation" if isinstance(phi, Atom) else "built-in"
        return set(phi.args), set(), {(kind, phi.name, len(phi.args))}
    if isinstance(phi, Eq):
        return {phi.left, phi.right}, set(), set()
    if isinstance(phi, SetAtom):
        return {phi.arg}, {phi.setvar}, set()
    if isinstance(phi, QApp):
        parts = [walk(sub) for _, sub in phi.slots]
        shape = ("quantifier", phi.qname, tuple(len(vs) for vs, _ in phi.slots))
        return (set().union(*[free - set(vs) for (vs, _), (free, _, _)
                              in zip(phi.slots, parts)]),
                set().union(*[sets for _, sets, _ in parts]),
                {shape}.union(*[shapes for _, _, shapes in parts]))
    kids = [v for v in phi._fields() if isinstance(v, Formula)]
    free, sets, shapes = (set().union(*c) for c in zip(*map(walk, kids)))
    if isinstance(phi, (Exists, Forall, Count)):
        free -= {phi.var}
    if isinstance(phi, Count):
        free |= {phi.target}
    if isinstance(phi, (SetExists, SetForall)):
        sets -= {phi.setvar}
    return free, sets, shapes


@given(st.integers(0, 4), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_scope_rules_match_a_walk_over_the_fields(depth, rng):
    # counting, quantifier applications and a nullary relation from the
    # generator, set atoms and set binders around them, with W left free
    vocab = {"P": 1, "R": 2, "Z": 0}
    parts = [random_formula(rng, vocab, depth, ("x", "y"), quants=QS,
                            builtins=("le", "lt", "plus"), allow_count=True)
             for _ in range(2)]
    for setvar in ("X", "Y"):
        body = rng.choice([And, Or, Imp, Iff])(
            rng.choice(parts), SetAtom(rng.choice("XYW"), rng.choice("xy")))
        parts.append(rng.choice([SetExists, SetForall])(setvar, body))
    phi = rng.choice([And, Or])(parts[-1], Not(parts[-2]))
    for sub in subformulas(phi):
        kids = (tuple(k for _, k in sub.slots) if isinstance(sub, QApp)
                else tuple(v for v in sub._fields() if isinstance(v, Formula)))
        free, sets, shapes = walk(sub)
        assert sub.kids == kids
        assert sub.free == tuple(sorted(free))
        assert sub.free_sets == tuple(sorted(sets))
        assert sub.shapes == shapes

"""Formula AST, concrete grammar, parser and printer.

Conventions: first-order variables start with a lowercase letter, set
variables with an uppercase letter; a leading-uppercase name applied to
arguments is a vocabulary relation if it is declared, otherwise a set
variable.  Built-in atoms are written @le(x,y), @plus(x,y,z), @set:sq(x),
with x<y / x<=y / x+y=z as sugar.  After @set: comes one name: a named
set (sq, pow2, fact, primes, nat) or one registered with --config.
"""

from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass
from typing import Optional

# every live formula, keyed by (class, *fields)
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# fields are set once, by Formula.__new__; equality is identity
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Formula:
    """A formula is hash-consed when it is built (Filliatre & Conchon,
    Type-Safe Modular Hash-Consing, 2006): building one structurally equal
    to a live formula returns that formula, so equality and hashing are by
    identity.  On first construction each formula computes, once:

    * `kids`, its child formulas;
    * `free` and `free_sets`, its sorted free first-order and set
      variables;
    * `shapes`, the frozenset of (kind, name, arity) of the relation
      atoms, built-in atoms and quantifier applications inside it, where
      a quantifier's arity is its tuple of slot arities."""

    def __new__(cls, *fields):
        names = cls.__match_args__
        if len(fields) != len(names):
            raise TypeError(f"{cls.__name__} takes fields {names}")
        key = (cls, *fields)
        phi = _TABLE.get(key)
        if phi is None:
            phi = object.__new__(cls)
            d = vars(phi)
            d.update(zip(names, fields))
            d["kids"], d["free"], d["free_sets"], d["shapes"] = \
                phi._scope(fields)
            _TABLE[key] = phi
        return phi

    def __reduce__(self):
        # unpickling and copying build the formula again: the live one
        return type(self), self._fields()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def _scope(self, fields) -> tuple:
        """The binding rules: (kids, free, free_sets, shapes) from the
        children's."""
        if isinstance(self, (Atom, BuiltinAtom)):
            kind = "relation" if isinstance(self, Atom) else "built-in"
            return ((), tuple(sorted(set(self.args))), (),
                    frozenset({(kind, self.name, len(self.args))}))
        if isinstance(self, Eq):
            return (), tuple(sorted({self.left, self.right})), (), frozenset()
        if isinstance(self, SetAtom):
            return (), (self.arg,), (self.setvar,), frozenset()
        if isinstance(self, QApp):
            for vs, _ in self.slots:
                if len(set(vs)) != len(vs):
                    raise ValueError(f"slot variables must be distinct: {vs}")
            kids = tuple([sub for _, sub in self.slots])
            free = _union(*[tuple([v for v in k.free if v not in vs])
                            for (vs, _), k in zip(self.slots, kids)])
            shape = ("quantifier", self.qname,
                     tuple([len(vs) for vs, _ in self.slots]))
            return (kids, free, _union(*[k.free_sets for k in kids]),
                    frozenset({shape}).union(*[k.shapes for k in kids]))
        kids = tuple([v for v in fields if isinstance(v, Formula)])
        free = _union(*[k.free for k in kids])
        free_sets = _union(*[k.free_sets for k in kids])
        if isinstance(self, (Exists, Forall, Count)):
            free = tuple([v for v in free if v != self.var])
        if isinstance(self, Count):
            free = _union(free, (self.target,))
        if isinstance(self, (SetExists, SetForall)):
            free_sets = tuple([v for v in free_sets if v != self.setvar])
        first, *rest = [k.shapes for k in kids]
        return kids, free, free_sets, first.union(*rest)


def _union(*parts) -> tuple:
    """The sorted union of sorted tuples."""
    out = ()
    for part in parts:
        if part and part != out:
            out = tuple(sorted({*out, *part})) if out else part
    return out


@_node
class Atom(Formula):
    name: str
    args: tuple


@_node
class BuiltinAtom(Formula):
    name: str
    args: tuple


@_node
class Eq(Formula):
    left: str
    right: str


@_node
class SetAtom(Formula):
    setvar: str
    arg: str


@_node
class Not(Formula):
    sub: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Exists(Formula):
    var: str
    sub: Formula


@_node
class Forall(Formula):
    var: str
    sub: Formula


@_node
class Count(Formula):
    """#x=y.sub — the number of witnesses for x equals the value of y."""
    var: str
    target: str
    sub: Formula


@_node
class QApp(Formula):
    """Application of a named generalized quantifier; each slot binds a
    tuple of distinct variables in its own subformula."""
    qname: str
    slots: tuple  # of (vars tuple, Formula)


@_node
class SetExists(Formula):
    setvar: str
    sub: Formula


@_node
class SetForall(Formula):
    setvar: str
    sub: Formula


def conj(parts):
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    return functools.reduce(And, parts)


def is_set_var(name: str) -> bool:
    return bool(name) and name[0].isupper()


def _join(phi: Formula, children) -> Formula:
    """phi's class and scalar fields around new child formulas, given in
    `kids` order."""
    if isinstance(phi, QApp):
        return QApp(phi.qname, tuple((vs, sub) for (vs, _), sub
                                     in zip(phi.slots, children)))
    scalars = [v for v in phi._fields() if not isinstance(v, Formula)]
    return type(phi)(*scalars, *children)


_BINDERS = (Exists, Forall, Count, QApp, SetExists, SetForall)


def quantifier_rank(phi: Formula) -> int:
    """Nesting depth; every binder (including a generalized-quantifier
    application, whatever its tuple widths) counts one."""
    inner = max(map(quantifier_rank, phi.kids), default=0)
    return inner + (1 if isinstance(phi, _BINDERS) else 0)


def subformulas(phi: Formula):
    """Every subformula occurrence, in pre-order, repeats included."""
    yield phi
    for sub in phi.kids:
        yield from subformulas(sub)


# ---------------------------------------------------------------------------
# lexer


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

# one token, a name or an operator, after any whitespace
TOKEN_RE = re.compile(rf"\s*({IDENT_RE.pattern}|<->|->|<=|[()\.;:,=<+&|!#@])")


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def tokenize(text: str) -> list[str]:
    """The tokens of `text`, whitespace dropped."""
    toks = TOKEN_RE.findall(text)
    # findall skips a character that starts no token
    if "".join(toks) != "".join(text.split()):
        pos = re.match(rf"(?:{TOKEN_RE.pattern})*\s*", text).end()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return toks


RESERVED = {"E", "A", "EX", "AX"}

# binary connectives, loosest first: token -> (class, precedence level);
# a negation or a binder binds tighter than all of them
_BINARY = {"<->": (Iff, 0), "->": (Imp, 1), "|": (Or, 2), "&": (And, 3)}
_TOKEN = {cls: (tok, level) for tok, (cls, level) in _BINARY.items()}
_LEVEL_NEG = len(_BINARY)

# nesting levels (negations, binders, parentheses) a formula may have
MAX_DEPTH = 100


class Parser:
    """Recursive-descent parser.  `vocab` maps relation names to arities
    (None accepts any name); `quants` maps quantifier names to their slot
    arity lists (None accepts any shape)."""

    def __init__(self, text: str, vocab: Optional[dict] = None,
                 quants: Optional[dict] = None):
        self.text = text
        self.toks = tokenize(text) + ["<eof>"]
        self.i = 0
        self.vocab = vocab
        self.quants = quants
        self.depth = 0
        self.set_scope: list[str] = []  # set variables bound by EX/AX

    def peek(self):
        return self.toks[self.i]

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def error(self, msg: str) -> ParseError:
        """A ParseError at the current token; token positions are found
        only here."""
        starts = [m.start(1) for m in TOKEN_RE.finditer(self.text)]
        return ParseError(msg, [*starts, len(self.text)][self.i])

    def expect(self, tok):
        if self.peek() != tok:
            raise self.error(f"expected {tok!r}, found {self.peek()!r}")
        return self.next()

    def ident(self):
        tok = self.peek()
        if not IDENT_RE.fullmatch(tok):
            raise self.error(f"expected a name, found {tok!r}")
        return self.next()

    def fo_var(self):
        v = self.ident()
        if is_set_var(v):
            raise self.error(f"{v!r} is not a first-order variable")
        return v

    def fo_vars(self) -> tuple:
        """A comma-separated list of first-order variables."""
        out = [self.fo_var()]
        while self.peek() == ",":
            self.next()
            out.append(self.fo_var())
        return tuple(out)

    def formula(self, level: int = 0) -> Formula:
        """Binary connectives of at least `level` (see `_BINARY`), by
        precedence climbing; each associates to the left."""
        out = self.neg()
        while self.peek() in _BINARY and _BINARY[self.peek()][1] >= level:
            cls, own = _BINARY[self.next()]
            out = cls(out, self.formula(own + 1))
        return out

    def neg(self) -> Formula:
        # every nesting level passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        if self.peek() == "!":
            self.next()
            out = Not(self.neg())
        else:
            out = self.quant_or_prim()
        self.depth -= 1
        return out

    def quant_or_prim(self) -> Formula:
        tok = self.peek()
        if tok == "#":
            self.next()
            var = self.fo_var()
            self.expect("=")
            target = self.fo_var()
            self.expect(".")
            return Count(var, target, self.neg())
        # `E(`/`A(` is a relation atom: a binder always takes a bare variable
        if tok in ("E", "A") and self.toks[self.i + 1] != "(":
            self.next()
            var = self.fo_var()
            self.expect(".")
            body = self.neg()
            return Exists(var, body) if tok == "E" else Forall(var, body)
        if tok in ("EX", "AX") and self.toks[self.i + 1] != "(":
            self.next()
            sv = self.ident()
            if not is_set_var(sv):
                raise self.error(f"{sv!r} is not a set variable")
            self.expect(".")
            self.set_scope.append(sv)
            body = self.neg()
            self.set_scope.pop()
            return SetExists(sv, body) if tok == "EX" else SetForall(sv, body)
        if self.quants is not None and tok in self.quants:
            return self.qapp(self.next())
        if (self.quants is None and IDENT_RE.fullmatch(tok)
                and tok not in RESERVED and self._sugar_follows()):
            return self.qapp(self.next())
        return self.prim()

    def _sugar_follows(self) -> bool:
        # with no registry, `Q x, y.` (names and commas, then a dot) is an
        # application; `Q(` is told from `R(` in `prim`
        j = self.i + 1
        while IDENT_RE.fullmatch(self.toks[j]) or self.toks[j] == ",":
            j += 1
        return self.toks[j] == "."

    def qapp(self, qname: str) -> Formula:
        if self.peek() == "(":
            self.next()
            return self.explicit_qapp(qname, self.fo_vars())
        vars_ = self.fo_vars()
        self.expect(".")
        return self.check_qapp(QApp(qname, self.sugared_slots(qname, vars_)))

    def explicit_qapp(self, qname: str, vars_: tuple) -> Formula:
        """The rest of `qname(x, y: phi; z: psi)` once `qname(x, y` is
        read."""
        slots = [self.slot(vars_)]
        while self.peek() == ";":
            self.next()
            slots.append(self.slot(self.fo_vars()))
        self.expect(")")
        return self.check_qapp(QApp(qname, tuple(slots)))

    def slot(self, vars_: tuple):
        self.expect(":")
        return (vars_, self.formula())

    def sugared_slots(self, qname, vars_) -> tuple:
        # `Q x,y. (phi; psi)` distributes one variable per slot;
        # `Q x,y. phi` and `Q x,y. (phi)` are a single slot binding the
        # whole tuple.
        if self.peek() != "(":
            return ((vars_, self.neg()),)
        self.next()
        bodies = [self.formula()]
        while self.peek() == ";":
            self.next()
            bodies.append(self.formula())
        self.expect(")")
        if len(bodies) == 1:
            return ((vars_, bodies[0]),)
        if len(bodies) != len(vars_):
            raise self.error(f"{qname}: {len(vars_)} bound variables for "
                             f"{len(bodies)} slot formulas")
        return tuple(((v,), b) for v, b in zip(vars_, bodies))

    def check_qapp(self, phi: QApp) -> QApp:
        if self.quants is not None:
            shape = self.quants[phi.qname]
            got = [len(vs) for vs, _ in phi.slots]
            if got != list(shape):
                raise self.error(f"{phi.qname} expects slot arities "
                                 f"{list(shape)}, got {got}")
        return phi

    def prim(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if tok == "@":
            self.next()
            name = self.ident()
            if self.peek() == ":":
                self.next()
                name = name + ":" + self.ident()
            self.expect("(")
            args = self.fo_vars()
            self.expect(")")
            return BuiltinAtom(name, args)
        name = self.ident()
        if self.peek() == "(":
            self.next()
            # `Z()` names a nullary relation
            args = () if self.peek() == ")" else self.fo_vars()
            # with no registry, a `:` or `;` after the variables makes
            # this a quantifier application
            if (self.quants is None and name not in RESERVED
                    and self.peek() in (":", ";")):
                return self.explicit_qapp(name, args)
            self.expect(")")
            # a set variable bound by an enclosing EX/AX shadows a
            # relation of the same name
            bound = name in self.set_scope
            if self.vocab is not None and name in self.vocab and not bound:
                if len(args) != self.vocab[name]:
                    raise self.error(f"{name} has arity {self.vocab[name]}, "
                                     f"got {len(args)}")
                return Atom(name, args)
            if bound or (is_set_var(name) and self.vocab is not None):
                if len(args) != 1:
                    raise self.error(f"set variable {name} applied to "
                                     f"{len(args)} arguments")
                return SetAtom(name, args[0])
            if self.vocab is None:
                # without a vocabulary every other application is read as
                # a relation atom
                return Atom(name, args)
            raise self.error(f"unknown relation {name!r}")
        # variable-led sugar: x=y, x<y, x<=y, x+y=z
        if is_set_var(name):
            raise self.error(f"unexpected set variable {name!r}")
        nxt = self.peek()
        if nxt == "=":
            self.next()
            return Eq(name, self.fo_var())
        if nxt == "<":
            self.next()
            return BuiltinAtom("lt", (name, self.fo_var()))
        if nxt == "<=":
            self.next()
            return BuiltinAtom("le", (name, self.fo_var()))
        if nxt == "+":
            self.next()
            second = self.fo_var()
            self.expect("=")
            return BuiltinAtom("plus", (name, second, self.fo_var()))
        raise self.error(f"unexpected token after {name!r}: {nxt!r}")


def parse(text: str, vocab: Optional[dict] = None,
          quants: Optional[dict] = None) -> Formula:
    p = Parser(text, vocab, quants)
    out = p.formula()
    if p.peek() != "<eof>":
        raise p.error(f"trailing input {p.peek()!r}")
    return out


# ---------------------------------------------------------------------------
# printer


def pretty(phi: Formula) -> str:
    """Canonical text; parse(pretty(phi)) is phi."""
    return _pp(phi, 0)


def _paren(text: str, need: bool) -> str:
    return f"({text})" if need else text


def _pp(phi: Formula, level: int) -> str:
    if isinstance(phi, Atom):
        return f"{phi.name}({', '.join(phi.args)})"
    if isinstance(phi, BuiltinAtom):
        return f"@{phi.name}({', '.join(phi.args)})"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, SetAtom):
        return f"{phi.setvar}({phi.arg})"
    if type(phi) in _TOKEN:
        tok, own = _TOKEN[type(phi)]
        return _paren(f"{_pp(phi.left, own)} {tok} {_pp(phi.right, own + 1)}",
                      level > own)
    if isinstance(phi, Not):
        return f"!{_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, Exists):
        return f"E {phi.var}. {_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, Forall):
        return f"A {phi.var}. {_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, Count):
        return f"# {phi.var} = {phi.target}. {_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, SetExists):
        return f"EX {phi.setvar}. {_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, SetForall):
        return f"AX {phi.setvar}. {_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, QApp):
        slots = "; ".join(f"{', '.join(vs)}: {_pp(sub, 0)}"
                          for vs, sub in phi.slots)
        return f"{phi.qname}({slots})"
    raise TypeError(f"not a formula: {phi!r}")

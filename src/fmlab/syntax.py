"""Formula AST, concrete grammar, parser and printer.

Conventions: first-order variables start with a lowercase letter, set
variables with an uppercase letter; a leading-uppercase name applied to
arguments is a vocabulary relation if it is declared, otherwise a set
variable.  Built-in atoms are written @le(x,y), @plus(x,y,z), @set:Sq(x),
with x<y / x<=y / x+y=z as sugar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    args: tuple


@dataclass(frozen=True)
class BuiltinAtom(Formula):
    name: str
    args: tuple


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class SetAtom(Formula):
    setvar: str
    arg: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sub: Formula


@dataclass(frozen=True)
class Count(Formula):
    """#x=y.sub — the number of witnesses for x equals the value of y."""
    var: str
    target: str
    sub: Formula


@dataclass(frozen=True)
class QApp(Formula):
    """Application of a named generalized quantifier; each slot binds a
    tuple of distinct variables in its own subformula."""
    qname: str
    slots: tuple  # of (vars tuple, Formula)

    def __post_init__(self):
        for vs, _ in self.slots:
            if len(set(vs)) != len(vs):
                raise ValueError(f"slot variables must be distinct: {vs}")


@dataclass(frozen=True)
class SetExists(Formula):
    setvar: str
    sub: Formula


@dataclass(frozen=True)
class SetForall(Formula):
    setvar: str
    sub: Formula


def conj(parts):
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts):
    parts = list(parts)
    if not parts:
        raise ValueError("empty disjunction")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def is_set_var(name: str) -> bool:
    return bool(name) and name[0].isupper()


def _split(phi: Formula) -> tuple:
    """(scalar fields, child formulas) of one AST node."""
    if isinstance(phi, (Atom, BuiltinAtom)):
        return (phi.name, phi.args), ()
    if isinstance(phi, Eq):
        return (phi.left, phi.right), ()
    if isinstance(phi, SetAtom):
        return (phi.setvar, phi.arg), ()
    if isinstance(phi, Not):
        return (), (phi.sub,)
    if isinstance(phi, (And, Or, Imp, Iff)):
        return (), (phi.left, phi.right)
    if isinstance(phi, (Exists, Forall)):
        return (phi.var,), (phi.sub,)
    if isinstance(phi, Count):
        return (phi.var, phi.target), (phi.sub,)
    if isinstance(phi, QApp):
        return ((phi.qname, tuple(vs for vs, _ in phi.slots)),
                tuple(sub for _, sub in phi.slots))
    if isinstance(phi, (SetExists, SetForall)):
        return (phi.setvar,), (phi.sub,)
    raise TypeError(f"not a formula: {phi!r}")


def _join(phi: Formula, children) -> Formula:
    """The inverse of `_split`: phi's class and scalar fields around new
    child formulas, given in `_split` order."""
    scalars, _ = _split(phi)
    if isinstance(phi, QApp):
        return QApp(phi.qname, tuple(zip(scalars[1], children)))
    return type(phi)(*scalars, *children)


@dataclass(frozen=True)
class Node:
    """One interned subformula.  `phi` is the first formula interned under
    this node's key; read its class and scalar fields, and reach its
    children through `kids`, the child node ids."""
    phi: Formula
    kids: tuple
    free: tuple       # sorted free first-order variables
    free_sets: tuple  # sorted free set variables


class Interner:
    """Hash-consing (Filliatre & Conchon, Type-Safe Modular Hash-Consing,
    2006): structurally equal subformulas share one node.  A node's key is
    its class, its scalar fields and its child ids, so a lookup costs O(1)
    per node and never depends on object identity.  Given a quantifier
    registry, each application's slot arities are checked against it."""

    def __init__(self, quantifiers: Optional[dict] = None):
        self.quantifiers = quantifiers
        self.nodes: list[Node] = []
        self._ids: dict = {}

    def intern(self, phi: Formula) -> int:
        scalars, children = _split(phi)
        kids = tuple([self.intern(c) for c in children])
        key = (type(phi), scalars, kids)
        i = self._ids.get(key)
        if i is None:
            if isinstance(phi, QApp):
                self._check_slots(phi)
            i = len(self.nodes)
            self.nodes.append(Node(phi, kids, *self._scope(phi, kids)))
            self._ids[key] = i
        return i

    def _check_slots(self, phi: QApp):
        q = self.quantifiers.get(phi.qname) if self.quantifiers else None
        got = [len(vs) for vs, _ in phi.slots]
        if q is not None and got != list(q.slot_arities):
            raise ValueError(f"{phi.qname} expects slot arities "
                             f"{list(q.slot_arities)}, got {got}")

    def _scope(self, phi: Formula, kids: tuple) -> tuple:
        """The binding rules: free first-order and set variables from the
        children's."""
        if isinstance(phi, (Atom, BuiltinAtom)):
            return tuple(sorted(set(phi.args))), ()
        if isinstance(phi, Eq):
            return tuple(sorted({phi.left, phi.right})), ()
        if isinstance(phi, SetAtom):
            return (phi.arg,), (phi.setvar,)
        subs = [self.nodes[k] for k in kids]
        if isinstance(phi, Not):
            return subs[0].free, subs[0].free_sets
        fo, so = set(), set()
        for s in subs:
            fo.update(s.free)
            so.update(s.free_sets)
        if isinstance(phi, (Exists, Forall)):
            fo.discard(phi.var)
        elif isinstance(phi, Count):
            fo.discard(phi.var)
            fo.add(phi.target)
        elif isinstance(phi, QApp):
            fo = set().union(*(set(s.free) - set(vs)
                               for (vs, _), s in zip(phi.slots, subs)))
        elif isinstance(phi, (SetExists, SetForall)):
            so.discard(phi.setvar)
        return tuple(sorted(fo)), tuple(sorted(so))


def _root(phi: Formula) -> Node:
    interner = Interner()
    return interner.nodes[interner.intern(phi)]


def free_variables(phi: Formula) -> set[str]:
    """Free first-order variables."""
    return set(_root(phi).free)


def free_set_variables(phi: Formula) -> set[str]:
    return set(_root(phi).free_sets)


_BINDERS = (Exists, Forall, Count, QApp, SetExists, SetForall)


def quantifier_rank(phi: Formula) -> int:
    """Nesting depth; every binder (including a generalized-quantifier
    application, whatever its tuple widths) counts one."""
    inner = max(map(quantifier_rank, _split(phi)[1]), default=0)
    return inner + (1 if isinstance(phi, _BINDERS) else 0)


def subformulas(phi: Formula):
    yield phi
    for sub in _split(phi)[1]:
        yield from subformulas(sub)


# ---------------------------------------------------------------------------
# lexer


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<ident>{IDENT_RE.pattern})
  | (?P<op><->|->|<=|[()\.;:,=<+&|!#@])
""", re.VERBOSE)


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.group(), pos))
        pos = m.end()
    out.append(("<eof>", len(text)))
    return out


RESERVED = {"E", "A", "EX", "AX"}

# nesting levels (negations, binders, parentheses) a formula may have
MAX_DEPTH = 100


class Parser:
    """Recursive-descent parser.  `vocab` maps relation names to arities
    (None accepts any name); `quants` maps quantifier names to their slot
    arity lists (None accepts any shape)."""

    def __init__(self, text: str, vocab: Optional[dict] = None,
                 quants: Optional[dict] = None):
        self.toks = tokenize(text)
        self.i = 0
        self.vocab = vocab
        self.quants = quants
        self.depth = 0
        self.set_scope: list[str] = []  # set variables bound by EX/AX

    def peek(self):
        return self.toks[self.i][0]

    def pos(self):
        return self.toks[self.i][1]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        return self.next()

    def ident(self):
        tok = self.peek()
        if not IDENT_RE.fullmatch(tok):
            raise ParseError(f"expected a name, found {tok!r}", self.pos())
        return self.next()

    def fo_var(self):
        v = self.ident()
        if is_set_var(v):
            raise ParseError(f"{v!r} is not a first-order variable", self.pos())
        return v

    def fo_vars(self) -> tuple:
        """A comma-separated list of first-order variables."""
        out = [self.fo_var()]
        while self.peek() == ",":
            self.next()
            out.append(self.fo_var())
        return tuple(out)

    # precedence chain ------------------------------------------------------

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        out = self.imp()
        while self.peek() == "<->":
            self.next()
            out = Iff(out, self.imp())
        return out

    def imp(self) -> Formula:
        out = self.or_()
        while self.peek() == "->":
            self.next()
            out = Imp(out, self.or_())
        return out

    def or_(self) -> Formula:
        out = self.and_()
        while self.peek() == "|":
            self.next()
            out = Or(out, self.and_())
        return out

    def and_(self) -> Formula:
        out = self.neg()
        while self.peek() == "&":
            self.next()
            out = And(out, self.neg())
        return out

    def neg(self) -> Formula:
        # every nesting level passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH}",
                             self.pos())
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
        if tok in ("E", "A") and self.toks[self.i + 1][0] != "(":
            self.next()
            var = self.fo_var()
            self.expect(".")
            body = self.neg()
            return Exists(var, body) if tok == "E" else Forall(var, body)
        if tok in ("EX", "AX") and self.toks[self.i + 1][0] != "(":
            self.next()
            sv = self.ident()
            if not is_set_var(sv):
                raise ParseError(f"{sv!r} is not a set variable", self.pos())
            self.expect(".")
            self.set_scope.append(sv)
            body = self.neg()
            self.set_scope.pop()
            return SetExists(sv, body) if tok == "EX" else SetForall(sv, body)
        if self.quants is not None and tok in self.quants:
            return self.qapp(self.next())
        if (self.quants is None and IDENT_RE.fullmatch(tok)
                and tok not in RESERVED and self._looks_like_qapp()):
            return self.qapp(self.next())
        return self.prim()

    def _looks_like_qapp(self) -> bool:
        # with no registry, disambiguate Q(...) from R(...) by the presence
        # of ':' or ';' before the matching close paren, or a varlist+dot
        j = self.i + 1
        if j < len(self.toks) and self.toks[j][0] != "(":
            # `Q x,y. ...` sugar
            while j < len(self.toks):
                t = self.toks[j][0]
                if t == ".":
                    return True
                if IDENT_RE.fullmatch(t) or t == ",":
                    j += 1
                    continue
                return False
            return False
        depth = 0
        while j < len(self.toks):
            t = self.toks[j][0]
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif depth == 1 and t in (":", ";"):
                return True
            j += 1
        return False

    def qapp(self, qname: str) -> Formula:
        if self.peek() == "(":
            self.next()
            slots = [self.slot()]
            while self.peek() == ";":
                self.next()
                slots.append(self.slot())
            self.expect(")")
        else:
            vars_ = self.fo_vars()
            self.expect(".")
            slots = self.sugared_slots(qname, vars_)
        phi = QApp(qname, tuple(slots))
        self.check_qapp(phi)
        return phi

    def slot(self):
        vars_ = self.fo_vars()
        self.expect(":")
        return (vars_, self.formula())

    def sugared_slots(self, qname, vars_):
        # `Q x,y. (phi; psi)` distributes one variable per slot;
        # `Q x,y. phi` is a single slot binding the whole tuple.
        if self.peek() == "(":
            save = self.i
            self.next()
            first = self.formula()
            if self.peek() == ";":
                bodies = [first]
                while self.peek() == ";":
                    self.next()
                    bodies.append(self.formula())
                self.expect(")")
                if len(bodies) != len(vars_):
                    raise ParseError(
                        f"{qname}: {len(vars_)} bound variables for "
                        f"{len(bodies)} slot formulas", self.pos())
                return [((v,), b) for v, b in zip(vars_, bodies)]
            self.i = save
        return [(vars_, self.neg())]

    def check_qapp(self, phi: QApp):
        if self.quants is None:
            return
        shape = self.quants[phi.qname]
        got = [len(vs) for vs, _ in phi.slots]
        if got != list(shape):
            raise ParseError(
                f"{phi.qname} expects slot arities {list(shape)}, got {got}",
                self.pos())

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
            args = self.fo_vars()
            self.expect(")")
            # a set variable bound by an enclosing EX/AX shadows a
            # relation of the same name
            bound = name in self.set_scope
            if self.vocab is not None and name in self.vocab and not bound:
                if len(args) != self.vocab[name]:
                    raise ParseError(
                        f"{name} has arity {self.vocab[name]}, got {len(args)}",
                        self.pos())
                return Atom(name, args)
            if bound or (is_set_var(name) and self.vocab is not None):
                if len(args) != 1:
                    raise ParseError(f"set variable {name} applied to "
                                     f"{len(args)} arguments", self.pos())
                return SetAtom(name, args[0])
            if self.vocab is None:
                # without a vocabulary every other application is read as
                # a relation atom
                return Atom(name, args)
            raise ParseError(f"unknown relation {name!r}", self.pos())
        # variable-led sugar: x=y, x<y, x<=y, x+y=z
        if is_set_var(name):
            raise ParseError(f"unexpected set variable {name!r}", self.pos())
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
        raise ParseError(f"unexpected token after {name!r}: {nxt!r}", self.pos())


def parse(text: str, vocab: Optional[dict] = None,
          quants: Optional[dict] = None) -> Formula:
    p = Parser(text, vocab, quants)
    out = p.formula()
    if p.peek() != "<eof>":
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return out


# ---------------------------------------------------------------------------
# printer

_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_NEG = range(5)


def pretty(phi: Formula) -> str:
    """Canonical text; parse(pretty(phi)) is structurally phi."""
    return _pp(phi, _LEVEL_IFF)


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
    if isinstance(phi, Iff):
        return _paren(f"{_pp(phi.left, _LEVEL_IFF)} <-> {_pp(phi.right, _LEVEL_IMP)}",
                      level > _LEVEL_IFF)
    if isinstance(phi, Imp):
        return _paren(f"{_pp(phi.left, _LEVEL_IMP)} -> {_pp(phi.right, _LEVEL_OR)}",
                      level > _LEVEL_IMP)
    if isinstance(phi, Or):
        return _paren(f"{_pp(phi.left, _LEVEL_OR)} | {_pp(phi.right, _LEVEL_AND)}",
                      level > _LEVEL_OR)
    if isinstance(phi, And):
        return _paren(f"{_pp(phi.left, _LEVEL_AND)} & {_pp(phi.right, _LEVEL_NEG)}",
                      level > _LEVEL_AND)
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
        slots = "; ".join(f"{', '.join(vs)}: {_pp(sub, _LEVEL_IFF)}"
                          for vs, sub in phi.slots)
        return f"{phi.qname}({slots})"
    raise TypeError(f"not a formula: {phi!r}")

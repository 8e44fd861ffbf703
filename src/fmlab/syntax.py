"""Formula AST, concrete grammar, parser and printer.

Conventions: first-order variables start with a lowercase letter, set
variables with an uppercase letter; a leading-uppercase name applied to
arguments is a vocabulary relation if it is declared, otherwise a set
variable.  Built-in atoms are written @le(x,y), @plus(x,y,z), @set:sq(x),
with x<y / x<=y / x+y=z as sugar.  After @set: comes one name: a named
set (sq, pow2, fact, primes, nat) or one registered with --config.

Formulas are interned as they are built (see `Formula`); each node class
has its own scope rule, `_scope`, shared by siblings such as And and Or.
"""

from __future__ import annotations

import functools
import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Optional

# every live formula by (class, fields), as one `_Entry`, a weak reference
# that carries its key and drops it, by one shared callback, when the
# formula dies; fields are set once, by `_new`, and equality is identity
_TABLE: dict = {}
_node = dataclass(frozen=True, eq=False, init=False)


class _Entry(weakref.ref):
    __slots__ = ("key",)

    def forget(self):
        _remove_dead_weakref(_TABLE, self.key)


@_node
class Formula:
    """A formula is hash-consed when it is built (Filliatre & Conchon,
    Type-Safe Modular Hash-Consing, 2006): building one structurally equal
    to a live formula returns that formula, so equality and hashing are by
    identity.  On first construction each formula computes, once, by its
    class's scope rule `_scope` over its fields:

    * `kids`, its child formulas;
    * `free` and `free_sets`, its sorted free first-order and set
      variables;
    * `shapes`, the frozenset of (kind, name, arity) of the relation
      atoms, built-in atoms and quantifier applications inside it, where
      a quantifier's arity is its tuple of slot arities.

    A node with one kid shares each of its kid's tuples and sets that its
    rule leaves as they are, and a binary node unions only what differs."""

    def __new__(cls, *fields):
        if len(fields) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__match_args__}")
        return _new(cls, *fields)

    def __reduce__(self):
        # unpickling and copying build the formula again: the live one
        return type(self), self._fields()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)


def _new(cls, *fields):
    """cls(*fields) without the field count: the parser's constructor."""
    key = (cls, fields)
    entry = _TABLE.get(key)
    phi = None if entry is None else entry()
    if phi is None:
        phi = object.__new__(cls)
        d = phi.__dict__
        d.update(zip(cls.__match_args__, fields))
        d["kids"], d["free"], d["free_sets"], d["shapes"] = cls._scope(*fields)
        entry = _TABLE[key] = _Entry(phi, _Entry.forget)
        entry.key = key
    return phi


def _union(x: tuple, y: tuple) -> tuple:
    """The sorted union of sorted tuples x and y: x or y where it is one."""
    if x == y or not y:
        return x
    out = {*x, *y}
    return (x if len(out) == len(x) else y if len(out) == len(y)
            else tuple(sorted(out)))


def _drop(names: tuple, name: str) -> tuple:
    return tuple([v for v in names if v != name]) if name in names else names


def _kinds(base: type, *names: str) -> list:
    """Node classes, one per name, that share base's fields and scope."""
    return [type(name, (base,), {"__module__": __name__}) for name in names]


def _applied(kind: str):
    """The scope rule of an atom applying a name to variables."""
    return staticmethod(lambda name, args: (
        (), args if len(args) < 2 else tuple(sorted(set(args))), (),
        frozenset({(kind, name, len(args))})))


@_node
class Atom(Formula):
    name: str
    args: tuple
    _scope = _applied("relation")


@_node
class BuiltinAtom(Formula):
    name: str
    args: tuple
    _scope = _applied("built-in")


@_node
class Eq(Formula):
    left: str
    right: str

    _scope = staticmethod(lambda left, right: (
        (), tuple(sorted({left, right})), (), frozenset()))


@_node
class SetAtom(Formula):
    setvar: str
    arg: str

    _scope = staticmethod(lambda setvar, arg: (
        (), (arg,), (setvar,), frozenset()))


@_node
class Not(Formula):
    sub: Formula

    _scope = staticmethod(lambda sub: (
        (sub,), sub.free, sub.free_sets, sub.shapes))


@_node
class _Binary(Formula):
    left: Formula
    right: Formula

    @staticmethod
    def _scope(left, right):
        shapes, more = left.shapes, right.shapes
        if not more <= shapes:
            shapes = more if shapes <= more else shapes | more
        return ((left, right), _union(left.free, right.free),
                _union(left.free_sets, right.free_sets), shapes)


And, Or, Imp, Iff = _kinds(_Binary, "And", "Or", "Imp", "Iff")


@_node
class _Binder(Formula):
    var: str
    sub: Formula

    _scope = staticmethod(lambda var, sub: (
        (sub,), _drop(sub.free, var), sub.free_sets, sub.shapes))


Exists, Forall = _kinds(_Binder, "Exists", "Forall")


@_node
class Count(Formula):
    """#x=y.sub — the number of witnesses for x equals the value of y."""
    var: str
    target: str
    sub: Formula

    _scope = staticmethod(lambda var, target, sub: (
        (sub,), _union(_drop(sub.free, var), (target,)), sub.free_sets,
        sub.shapes))


@_node
class QApp(Formula):
    """Application of a named generalized quantifier; each slot binds a
    tuple of distinct variables in its own subformula."""
    qname: str
    slots: tuple  # of (vars tuple, Formula)

    @staticmethod
    def _scope(qname, slots):
        for vs, _ in slots:
            if len(set(vs)) != len(vs):
                raise ValueError(f"slot variables must be distinct: {vs}")
        kids = tuple([sub for _, sub in slots])
        free = functools.reduce(_union, [
            tuple([v for v in k.free if v not in vs]) for vs, k in slots], ())
        shape = ("quantifier", qname, tuple([len(vs) for vs, _ in slots]))
        return (kids, free,
                functools.reduce(_union, [k.free_sets for k in kids], ()),
                frozenset({shape}).union(*[k.shapes for k in kids]))


@_node
class _SetBinder(Formula):
    setvar: str
    sub: Formula

    _scope = staticmethod(lambda setvar, sub: (
        (sub,), sub.free, _drop(sub.free_sets, setvar), sub.shapes))


SetExists, SetForall = _kinds(_SetBinder, "SetExists", "SetForall")


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

# one token: a name, an operator, or any other character but whitespace,
# which `tokenize` refuses
TOKEN_RE = re.compile(rf"{IDENT_RE.pattern}|<->|->|<=|\S")
OPERATORS = frozenset(["<->", "->", "<=", *"().;:,=<+&|!#@"])


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def tokenize(text: str) -> list[str]:
    """The tokens of `text`, whitespace dropped."""
    toks = TOKEN_RE.findall(text)
    kinds = set(toks)
    if bad := {t for t in kinds - OPERATORS if not IDENT_RE.fullmatch(t)}:
        pos = next(m.start() for m in TOKEN_RE.finditer(text)
                   if m.group() in bad)
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return toks


# the reserved names, the binders: token -> class
RESERVED = {"E": Exists, "A": Forall, "EX": SetExists, "AX": SetForall}
_BINDER_TOKEN = {cls: tok for tok, cls in RESERVED.items()}

# binary connectives, loosest first: token -> (class, precedence level);
# a negation or a binder binds tighter than all of them
_BINARY = {"<->": (Iff, 0), "->": (Imp, 1), "|": (Or, 2), "&": (And, 3)}
_TOKEN = {cls: (tok, level) for tok, (cls, level) in _BINARY.items()}
_LEVEL_NEG = len(_BINARY)
# comparison sugar: x<y and x<=y
_SUGAR = {"<": "lt", "<=": "le"}

# nesting levels (negations, binders, parentheses) a formula may have
MAX_DEPTH = 100


class Parser:
    """Recursive-descent parser.  `vocab` maps relation names to arities
    (None accepts any name); `quants` maps quantifier names to their slot
    arity lists (None accepts any shape).  It reads the token `toks[i]`
    and advances `i`."""

    def __init__(self, text: str, vocab: Optional[dict] = None,
                 quants: Optional[dict] = None):
        self.text = text
        self.toks = tokenize(text) + ["<eof>"]
        self.names = set(filter(IDENT_RE.fullmatch, set(self.toks)))
        self.fo_names = {v for v in self.names if not is_set_var(v)}
        self.i = self.depth = 0  # the current token; the nesting depth
        self.vocab, self.quants = vocab, quants
        self.set_scope: list = []  # variables bound by EX/AX; None by E/A

    def error(self, msg: str) -> ParseError:
        """A ParseError at the current token; token positions are found
        only here."""
        starts = [m.start() for m in TOKEN_RE.finditer(self.text)]
        return ParseError(msg, [*starts, len(self.text)][self.i])

    def expect(self, tok):
        found = self.toks[self.i]
        if found != tok:
            raise self.error(f"expected {tok!r}, found {found!r}")
        self.i += 1

    def ident(self):
        tok = self.toks[self.i]
        if tok not in self.names:
            raise self.error(f"expected a name, found {tok!r}")
        self.i += 1
        return tok

    def fo_var(self):
        v = self.toks[self.i]
        if v in self.fo_names:
            self.i += 1
            return v
        v = self.ident()
        raise self.error(f"{v!r} is not a first-order variable")

    def fo_vars(self) -> tuple:
        """A comma-separated list of first-order variables."""
        out = [self.fo_var()]
        while self.toks[self.i] == ",":
            self.i += 1
            out.append(self.fo_var())
        return tuple(out)

    def formula(self, level: int = 0) -> Formula:
        """Binary connectives of at least `level` (see `_BINARY`), by
        precedence climbing; each associates to the left."""
        out = self.neg()
        op = _BINARY.get(self.toks[self.i])
        while op is not None and op[1] >= level:
            self.i += 1
            out = _new(op[0], out, self.formula(op[1] + 1))
            op = _BINARY.get(self.toks[self.i])
        return out

    def neg(self) -> Formula:
        """A negation, a binder or a quantifier application, or else a
        primary formula; every nesting level passes through here."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        tok = self.toks[self.i]
        if tok == "!":
            self.i += 1
            out = _new(Not, self.neg())
        elif tok == "#":
            self.i += 1
            var = self.fo_var()
            self.expect("=")
            target = self.fo_var()
            self.expect(".")
            out = _new(Count, var, target, self.neg())
        # `E(`/`A(` is a relation atom: a binder always takes a bare variable
        elif tok in RESERVED and self.toks[self.i + 1] != "(":
            self.i += 1
            sets = len(tok) == 2  # EX, AX
            var = self.ident() if sets else self.fo_var()
            if sets and not is_set_var(var):
                raise self.error(f"{var!r} is not a set variable")
            self.expect(".")
            self.set_scope.append(var if sets else None)
            out = _new(RESERVED[tok], var, self.neg())
            self.set_scope.pop()
        elif (tok in self.quants if self.quants is not None else
              tok in self.names and tok not in RESERVED
              and self._sugar_follows()):
            self.i += 1
            out = self.qapp(tok)
        else:
            out = self.prim()
        self.depth -= 1
        return out

    def _sugar_follows(self) -> bool:
        # with no registry, `Q x, y.` (names and commas, then a dot) is an
        # application; `Q(` is told from `R(` in `prim`
        j = self.i + 1
        while self.toks[j] in self.names or self.toks[j] == ",":
            j += 1
        return self.toks[j] == "."

    def qapp(self, qname: str) -> Formula:
        if self.toks[self.i] == "(":
            self.i += 1
            return self.explicit_qapp(qname, self.fo_vars())
        vars_ = self.fo_vars()
        self.expect(".")
        return self.check_qapp(_new(QApp, qname,
                                    self.sugared_slots(qname, vars_)))

    def explicit_qapp(self, qname: str, vars_: tuple) -> Formula:
        """The rest of `qname(x, y: phi; z: psi)` once `qname(x, y` is
        read."""
        slots = [self.slot(vars_)]
        while self.toks[self.i] == ";":
            self.i += 1
            slots.append(self.slot(self.fo_vars()))
        self.expect(")")
        return self.check_qapp(_new(QApp, qname, tuple(slots)))

    def slot(self, vars_: tuple):
        self.expect(":")
        return (vars_, self.formula())

    def sugared_slots(self, qname, vars_) -> tuple:
        # `Q x,y. (phi; psi)` distributes one variable per slot; `Q x,y.
        # phi` and `Q x,y. (phi)` are one slot binding the whole tuple.
        if self.toks[self.i] != "(":
            return ((vars_, self.neg()),)
        self.i += 1
        bodies = [self.formula()]
        while self.toks[self.i] == ";":
            self.i += 1
            bodies.append(self.formula())
        self.expect(")")
        if len(bodies) == 1:
            return ((vars_, bodies[0]),)
        if len(bodies) != len(vars_):
            raise self.error(f"{qname}: {len(vars_)} bound variables for "
                             f"{len(bodies)} slot formulas")
        return tuple(((v,), b) for v, b in zip(vars_, bodies))

    def check_qapp(self, phi: QApp) -> QApp:
        got = [len(vs) for vs, _ in phi.slots]
        if self.quants is not None and got != list(self.quants[phi.qname]):
            raise self.error(f"{phi.qname} expects slot arities "
                             f"{list(self.quants[phi.qname])}, got {got}")
        return phi

    def prim(self) -> Formula:
        tok = self.toks[self.i]
        if tok == "(":
            self.i += 1
            out = self.formula()
            self.expect(")")
            return out
        if tok == "@":
            self.i += 1
            name = self.ident()
            if self.toks[self.i] == ":":
                self.i += 1
                name = name + ":" + self.ident()
            self.expect("(")
            args = self.fo_vars()
            self.expect(")")
            return _new(BuiltinAtom, name, args)
        name = self.ident()
        if self.toks[self.i] == "(":
            self.i += 1
            # `Z()` names a nullary relation
            args = () if self.toks[self.i] == ")" else self.fo_vars()
            # with no registry, a `:` or `;` after the variables makes
            # this a quantifier application
            if (self.quants is None and name not in RESERVED
                    and self.toks[self.i] in (":", ";")):
                return self.explicit_qapp(name, args)
            self.expect(")")
            # a set variable bound by an enclosing EX/AX shadows a
            # relation of the same name
            bound = name in self.set_scope
            if self.vocab is not None and name in self.vocab and not bound:
                if len(args) != self.vocab[name]:
                    raise self.error(f"{name} has arity {self.vocab[name]}, "
                                     f"got {len(args)}")
                return _new(Atom, name, args)
            if bound or (is_set_var(name) and self.vocab is not None):
                if len(args) != 1:
                    raise self.error(f"set variable {name} applied to "
                                     f"{len(args)} arguments")
                return _new(SetAtom, name, args[0])
            if self.vocab is None:
                # without a vocabulary every other application is read as
                # a relation atom
                return _new(Atom, name, args)
            raise self.error(f"unknown relation {name!r}")
        # variable-led sugar: x=y, x<y, x<=y, x+y=z
        if is_set_var(name):
            raise self.error(f"unexpected set variable {name!r}")
        nxt = self.toks[self.i]
        if nxt == "=":
            self.i += 1
            return _new(Eq, name, self.fo_var())
        if nxt in _SUGAR:
            self.i += 1
            return _new(BuiltinAtom, _SUGAR[nxt], (name, self.fo_var()))
        if nxt == "+":
            self.i += 1
            second = self.fo_var()
            self.expect("=")
            return _new(BuiltinAtom, "plus", (name, second, self.fo_var()))
        raise self.error(f"unexpected token after {name!r}: {nxt!r}")


def parse(text: str, vocab: Optional[dict] = None,
          quants: Optional[dict] = None) -> Formula:
    p = Parser(text, vocab, quants)
    out = p.formula()
    if p.toks[p.i] != "<eof>":
        raise p.error(f"trailing input {p.toks[p.i]!r}")
    return out


# ---------------------------------------------------------------------------
# printer


def pretty(phi: Formula) -> str:
    """Canonical text; parse(pretty(phi)) is phi."""
    return _pp(phi, 0)


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
        out = f"{_pp(phi.left, own)} {tok} {_pp(phi.right, own + 1)}"
        return f"({out})" if level > own else out
    if isinstance(phi, Not):
        return f"!{_pp(phi.sub, _LEVEL_NEG)}"
    if type(phi) in _BINDER_TOKEN:
        return (f"{_BINDER_TOKEN[type(phi)]} {phi._fields()[0]}. "
                f"{_pp(phi.sub, _LEVEL_NEG)}")
    if isinstance(phi, Count):
        return f"# {phi.var} = {phi.target}. {_pp(phi.sub, _LEVEL_NEG)}"
    if isinstance(phi, QApp):
        slots = "; ".join(f"{', '.join(vs)}: {_pp(sub, 0)}"
                          for vs, sub in phi.slots)
        return f"{phi.qname}({slots})"
    raise TypeError(f"not a formula: {phi!r}")

"""Syntactic transformations: capture-avoiding substitution, guard
relativization, and the translation from first-order logic over a
powerset-membership structure into monadic second-order logic on words.

Each transformation rewrites only atoms, binders and quantifier
applications; every other node is rebuilt around its rewritten `kids`
through `syntax._join`.  Renaming is one walk, `rename_free`, which
renames free variables and, in the same pass, gives a fresh name to every
binder that would capture one of the new names.  A fresh name never
equals a variable written in the call's input formulas."""

from __future__ import annotations

from typing import Optional

from .syntax import (And, Atom, BuiltinAtom, Count, Eq, Exists, Forall,
                     Formula, Iff, Imp, Not, Or, QApp, SetAtom, SetExists,
                     SetForall, _join, conj)


class _Names:
    """Deterministic fresh-name supply.  A name never equals a variable
    written in `inputs`, the call's input formulas; those are collected
    once, when the first name is drawn."""

    def __init__(self, prefix: str = "v", inputs=()):
        self.prefix = prefix
        self.inputs = inputs
        self.taken = None
        self.k = 0

    def fresh(self) -> str:
        if self.taken is None:
            self.taken = set().union(*map(_written, self.inputs))
        while True:
            self.k += 1
            name = f"{self.prefix}{self.k}'"
            if name not in self.taken:
                return name


def _written(phi: Formula) -> set:
    """Every first-order variable written in phi, free or bound."""
    out = set(phi.free)
    if isinstance(phi, (Exists, Forall, Count)):
        out.add(phi.var)
    elif isinstance(phi, QApp):
        out.update(v for vs, _ in phi.slots for v in vs)
    for sub in phi.kids:
        out |= _written(sub)
    return out


def rename_free(phi: Formula, mapping: dict, names: _Names) -> Formula:
    """Rename free first-order variables through `mapping`, capture-avoiding:
    a binder whose variable is a target of `mapping` gets a fresh name from
    `names` (drawn in pre-order); any other binder shadows its variable."""
    targets = set(mapping.values())

    def bind(vs, mp):
        inner = dict(mp)
        for v in vs:
            if v in targets:
                inner[v] = names.fresh()
            else:
                inner.pop(v, None)
        return tuple(inner.get(v, v) for v in vs), inner

    def go(phi, mp):
        if isinstance(phi, (Atom, BuiltinAtom)):
            return type(phi)(phi.name, tuple(mp.get(v, v) for v in phi.args))
        if isinstance(phi, Eq):
            return Eq(mp.get(phi.left, phi.left), mp.get(phi.right, phi.right))
        if isinstance(phi, SetAtom):
            return SetAtom(phi.setvar, mp.get(phi.arg, phi.arg))
        if isinstance(phi, (Exists, Forall)):
            (v,), inner = bind((phi.var,), mp)
            return type(phi)(v, go(phi.sub, inner))
        if isinstance(phi, Count):
            (v,), inner = bind((phi.var,), mp)
            return Count(v, mp.get(phi.target, phi.target), go(phi.sub, inner))
        if isinstance(phi, QApp):
            slots = []
            for vs, sub in phi.slots:
                new_vs, inner = bind(vs, mp)
                slots.append((new_vs, go(sub, inner)))
            return QApp(phi.qname, tuple(slots))
        return _join(phi, [go(c, mp) for c in phi.kids])

    return go(phi, dict(mapping))


def substitute(phi: Formula, defs: dict) -> Formula:
    """Replace relation atoms by defining formulas.

    `defs` maps relation names to (parameter tuple, body); each occurrence
    R(t1,...,tk) becomes body[parameters := arguments], with the body's
    binders that would capture an argument renamed apart.  Built-in atoms
    are never substituted.
    """
    for name, (params, _) in defs.items():
        if len(set(params)) != len(params):
            raise ValueError(f"cannot substitute {name}: repeated parameter "
                             f"in {', '.join(params)}")
    names = _Names("s", [phi, *(body for _, body in defs.values())])

    def go(phi):
        if isinstance(phi, Atom) and phi.name in defs:
            params, body = defs[phi.name]
            if len(params) != len(phi.args):
                raise ValueError(
                    f"{phi.name}: definition takes {len(params)} arguments, "
                    f"atom has {len(phi.args)}")
            return rename_free(body, dict(zip(params, phi.args)), names)
        return _join(phi, [go(c) for c in phi.kids])

    return go(phi)


ORDER_BUILTINS = {"le", "lt"}


def relativize_formula(phi: Formula, guard: Formula, var: str,
                       registry: Optional[dict] = None) -> Formula:
    """The guarded version of phi: quantifiers range over the elements
    satisfying `guard` (a formula with the single free variable `var`),
    order atoms pass through unchanged.

    Sound for vocabularies whose only built-ins are order atoms and whose
    generalized quantifiers are universe independent; a registry with
    flags turns violations into errors.
    """
    if set(guard.free) - {var}:
        raise ValueError("guard may use only the designated variable")
    names = _Names("r", [phi, guard])

    def guard_at(t: str) -> Formula:
        return rename_free(guard, {var: t}, names)

    def go(phi):
        if isinstance(phi, BuiltinAtom) and phi.name not in ORDER_BUILTINS:
            raise ValueError(
                f"built-in {phi.name!r} does not survive relativization")
        if isinstance(phi, (Count, SetExists, SetForall)):
            raise ValueError(f"cannot relativize {type(phi).__name__}")
        if isinstance(phi, Exists):
            return Exists(phi.var, And(guard_at(phi.var), go(phi.sub)))
        if isinstance(phi, Forall):
            return Forall(phi.var, Imp(guard_at(phi.var), go(phi.sub)))
        if isinstance(phi, QApp):
            if registry is not None:
                q = registry[phi.qname]
                if not q.universe_independent:
                    raise ValueError(
                        f"quantifier {phi.qname!r} is not universe "
                        f"independent; relativization is unsound")
            slots = []
            for vs, sub in phi.slots:
                guarded = conj([guard_at(v) for v in vs] + [go(sub)])
                slots.append((vs, guarded))
            return QApp(phi.qname, tuple(slots))
        return _join(phi, [go(c) for c in phi.kids])

    return go(phi)


# ---------------------------------------------------------------------------
# first-order logic on the membership structure -> MSO on words


def _falsum() -> Formula:
    return Exists("z0'", Not(Eq("z0'", "z0'")))


def _verum() -> Formula:
    return Forall("z0'", Eq("z0'", "z0'"))


def _setvar(v: str) -> str:
    return "X_" + v


def _agree_below(x_set: str, y_set: str, z: str, w: str) -> Formula:
    return Forall(w, Imp(BuiltinAtom("lt", (w, z)),
                         Iff(SetAtom(x_set, w), SetAtom(y_set, w))))


def _lex_le(x_set: str, y_set: str, names: _Names) -> Formula:
    """Subset order: equal, or at the first (f-least) difference the left
    side lacks the point.  Matches the generated membership structures,
    where earlier-absent sorts first."""
    z, w = names.fresh(), names.fresh()
    equal = Forall(z, Iff(SetAtom(x_set, z), SetAtom(y_set, z)))
    first_diff = Exists(z, conj([Not(SetAtom(x_set, z)), SetAtom(y_set, z),
                                 _agree_below(x_set, y_set, z, w)]))
    return Or(equal, first_diff)


def mso_translate(phi: Formula) -> Formula:
    """Translate a first-order formula over the membership vocabulary
    {E/2} into monadic second-order logic over the bare word.

    Each quantified variable ranges over atoms and over subset-sort
    elements; as a subset-sort element it becomes the set variable X_v,
    and set quantification ranges over nonempty sets only, mirroring the
    subset sort.
    """
    names = _Names("m")

    def nonempty(x_set: str) -> Formula:
        z = names.fresh()
        return Exists(z, SetAtom(x_set, z))

    def go(phi, s):
        if isinstance(phi, (Count, QApp, SetAtom, SetExists, SetForall)):
            raise ValueError(f"cannot translate {type(phi).__name__}")
        if isinstance(phi, Eq):
            x, y = phi.left, phi.right
            if x not in s and y not in s:
                return phi
            if x in s and y in s:
                z = names.fresh()
                return Forall(z, Iff(SetAtom(_setvar(x), z),
                                     SetAtom(_setvar(y), z)))
            return _falsum()
        if isinstance(phi, BuiltinAtom):
            if phi.name == "lt":
                x, y = phi.args
                return Not(go(BuiltinAtom("le", (y, x)), s))
            if phi.name != "le":
                raise ValueError(f"cannot translate built-in {phi.name!r}")
            x, y = phi.args
            if x not in s and y not in s:
                return phi
            if x not in s:
                return _verum()
            if y not in s:
                return _falsum()
            return _lex_le(_setvar(x), _setvar(y), names)
        if isinstance(phi, Atom):
            if phi.name != "E":
                raise ValueError(f"unexpected relation {phi.name!r}")
            x, y = phi.args
            if x not in s and y in s:
                return SetAtom(_setvar(y), x)
            return _falsum()
        if isinstance(phi, Exists):
            x = phi.var
            point = Exists(x, go(phi.sub, s - {x}))
            as_set = SetExists(_setvar(x),
                               And(nonempty(_setvar(x)), go(phi.sub, s | {x})))
            return Or(point, as_set)
        if isinstance(phi, Forall):
            x = phi.var
            point = Forall(x, go(phi.sub, s - {x}))
            as_set = SetForall(_setvar(x),
                               Imp(nonempty(_setvar(x)), go(phi.sub, s | {x})))
            return And(point, as_set)
        return _join(phi, [go(c, s) for c in phi.kids])

    return go(phi, frozenset())

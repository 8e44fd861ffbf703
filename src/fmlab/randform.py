"""Seeded random formula generation for stress suites."""

from __future__ import annotations

from .model import builtin_registry
from .syntax import (And, Atom, BuiltinAtom, Count, Eq, Exists, Forall,
                     Formula, Iff, Imp, Not, Or, QApp)


class FormulaGen:
    """Draws formulas over a fixed vocabulary; depth bounds quantifier
    rank, every binder uses a fresh variable."""

    def __init__(self, vocab: dict, quants=None, builtins=("le", "lt"),
                 allow_count: bool = False):
        self.vocab = dict(vocab)
        self.quants = dict(quants or {})
        reg = builtin_registry()
        self.builtins = [(name, reg[name].arity) for name in builtins]
        self.allow_count = allow_count
        self.k = 0

    def _fresh(self) -> str:
        self.k += 1
        return f"b{self.k}"

    def _atom(self, rng, pool) -> Formula:
        choices = ["rel"] * (3 if self.vocab else 0) + ["eq"] + \
                  ["builtin"] * (2 if self.builtins else 0)
        kind = rng.choice(choices)
        if kind == "rel":
            name = rng.choice(sorted(self.vocab))
            args = tuple(rng.choice(pool) for _ in range(self.vocab[name]))
            return Atom(name, args)
        if kind == "builtin":
            name, ar = rng.choice(self.builtins)
            args = tuple(rng.choice(pool) for _ in range(ar))
            return BuiltinAtom(name, args)
        return Eq(rng.choice(pool), rng.choice(pool))

    def formula(self, rng, depth: int, pool) -> Formula:
        pool = tuple(pool)
        if not pool:
            raise ValueError("need at least one variable in scope")
        if depth <= 0 or rng.random() < 0.25:
            return self._atom(rng, pool)
        kinds = ["not", "bin", "bin", "quant", "quant"]
        if self.quants:
            kinds.append("qapp")
        if self.allow_count:
            kinds.append("count")
        kind = rng.choice(kinds)
        if kind == "not":
            return Not(self.formula(rng, depth - 1, pool))
        if kind == "bin":
            op = rng.choice([And, Or, Imp, Iff])
            return op(self.formula(rng, depth - 1, pool),
                      self.formula(rng, depth - 1, pool))
        if kind == "quant":
            v = self._fresh()
            op = rng.choice([Exists, Forall])
            return op(v, self.formula(rng, depth - 1, pool + (v,)))
        if kind == "count":
            v = self._fresh()
            return Count(v, rng.choice(pool),
                         self.formula(rng, depth - 1, pool + (v,)))
        qname = rng.choice(sorted(self.quants))
        slots = []
        for ar in self.quants[qname]:
            vs = tuple(self._fresh() for _ in range(ar))
            slots.append((vs, self.formula(rng, depth - 1, pool + vs)))
        return QApp(qname, tuple(slots))


def random_formula(rng, vocab: dict, depth: int, pool, quants=None,
                   builtins=("le", "lt"), allow_count: bool = False) -> Formula:
    gen = FormulaGen(vocab, quants, builtins, allow_count)
    return gen.formula(rng, depth, pool)


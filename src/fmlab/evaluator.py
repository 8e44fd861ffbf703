"""Formula evaluation on br-structures: two engines with one semantics,
and `ef_equivalent`, the r-round back-and-forth game, decided by types.

* `evaluate` — top-down, through each formula's plan: one function per
  node, compiled from its class's entry in `_CLAUSES` with the node's
  constants as default arguments, built on first use and kept on the
  formula, with no model, registry or memo in it.  Each plan call is one
  step against `budget`, in one Python frame.  A leaf (an atom or an
  equation) runs directly; any other node is memoized on one flat tuple,
  its tag (a bare object that stands for the node), then the values of
  its free variables and free set variables.
* `TruthTables` / `evaluate_fast` — bottom-up numpy bool tables over a
  `Batch` of structures; the fast path for exhaustive sweeps, and the
  independent second route.  Each table is capped at `TABLE_CAP` cells.

Every entry point makes one admission check, `_Engine.admit`, and the
clauses trust what it admitted.  A built-in's `holds` is its only
definition: the top-down engine calls it on f-values, the table engine
on each f-value or on grids of them.  A quantifier application is one
`decide` call in either engine: on one structure top-down, and on the
batch of all structures and assignments to its free variables in tables.
"""

from __future__ import annotations

import collections
import functools
import itertools
from math import prod
from typing import Optional

import numpy as np

from . import model as modelmod, quantifiers as quantmod
from .model import BrModel
from .syntax import (And, Atom, BuiltinAtom, Count, Eq, Exists, Forall,
                     Formula, Iff, Imp, Not, Or, QApp, SetAtom, SetExists,
                     SetForall)

MSO_CAP = 16
DEFAULT_BUDGET = 50_000_000
# cells of one truth table, batch x n**variables; the largest in use is
# 8**9, in the extension formula (`arithx.mu_formula`) at n=8
TABLE_CAP = 2 ** 27


class BudgetExceeded(RuntimeError):
    pass


@functools.lru_cache(maxsize=None)
def default_quantifiers() -> dict:
    return quantmod.builtin_quantifiers()


def _subsets(n: int):
    """Every subset of the domain, by size and then lexicographically."""
    if n > MSO_CAP:
        raise BudgetExceeded(f"set quantification needs 2^{n} subsets; cap "
                             f"is 2^{MSO_CAP}")
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            yield frozenset(s)


class _Engine:
    """The model, registries and memo of one evaluation, and the admission
    check every entry point makes; `evaluate` adds the step budget."""

    def __init__(self, m: BrModel, builtins=None, quantifiers=None):
        self.m, self.n = m, m.n
        self.builtins = (builtins if builtins is not None
                         else modelmod.default_builtins())
        self.quantifiers = (quantifiers if quantifiers is not None
                            else default_quantifiers())
        self.fvals = np.asarray(m.f, dtype=np.int64)
        self.memo: dict = {}

    def admit(self, phi: Formula, set_assignment, assignment=None) -> dict:
        """Refuse, with ValueError, a relation, built-in or quantifier that
        the model or the registries do not know or that phi applies with
        other arities, an unassigned free (set) variable, and a value or a
        set member outside the domain.  Without an `assignment` (a table)
        the free first-order variables range over the domain.  Returns the
        set assignment, each set a frozenset."""
        for kind, name, got in sorted(phi.shapes):
            if kind == "relation":
                want = self.m.arities.get(name)
            elif kind == "built-in":
                want = self.builtins[name].arity  # an unknown name: ValueError
            else:
                q = self.quantifiers.get(name)
                want = None if q is None else tuple(q.slot_arities)
            if want is None:
                raise ValueError(f"unknown {kind} {name!r}")
            if got != want:
                what = "slot arities" if kind == "quantifier" else "arity"
                raise ValueError(f"{name} expects {what} {want}, got {got}")
        sa = {k: frozenset(v) for k, v in (set_assignment or {}).items()}
        given = {v: sa.get(v) for v in phi.free_sets}
        if assignment is not None:
            given.update({v: {assignment[v]} if v in assignment else None
                          for v in phi.free})
        for v, values in given.items():
            if values is None:
                raise ValueError(f"unassigned variable {v}")
            if not all(0 <= x < self.n for x in values):
                raise ValueError(f"{v} is given a value outside the domain "
                                 f"0..{self.n - 1}")
        return sa


def _plan(phi: Formula):
    """phi's plan, a function (engine, assignment, set assignment) -> bool;
    built on first use, from the kids' plans, and kept on phi."""
    plan = phi.__dict__.get("plan")
    if plan is not None:
        return plan
    memo = bool(phi.kids)  # a leaf has no memo and no key
    # the variables `plan` reads by position: the free variables that key
    # a node, or an atom's arguments
    xs = phi.free if memo else getattr(phi, "args", ())
    plan = _maker(type(phi), memo, len(xs),
                  len(phi.free_sets) if memo else 0)(
        phi, xs, [_plan(k) for k in phi.kids])
    return phi.__dict__.setdefault("plan", plan)


# A plan is one function, so that a step is one Python frame (Feeley &
# Lapalme 1987), with its node's constants as default arguments: one
# tuple a plan, no closure cells, and each read is a local.  `make` fills
# them once per node from phi, the variables `xs` and the kids' plans
# `ks`; `plan` counts the step, looks the node up in the memo unless it is
# a leaf, and runs the clause, which sets `out` from `eng`, `a` and `sa`.
# A memo key is `(tag, a[x0], ..., sa[X0], ...)`: `tag`, a bare
# `object()`, then the values of the node's free variables and free set
# variables, so its length is fixed per node and no two nodes' keys
# alias.  No key holds a plan or a formula, and no plan holds itself.
_STEP = """\
def make(phi, xs, ks):
    def plan(eng, a, sa, {consts}):
        eng.ops += 1
        if eng.ops > eng.budget:
            raise BudgetExceeded(
                f"evaluation budget of {{eng.budget}} exhausted")
        {clause}
        return out
    return plan
"""
_MEMO = """
        key = (tag, {values})
        out = eng.memo.get(key)
        if out is not None:
            return out
        {clause}
        eng.memo[key] = out"""


@functools.cache
def _maker(cls, memo: bool, nxs: int, nsets: int):
    """The `make` of class cls's plans that read `nxs` variables `x0, ...`
    and `nsets` free set variables `X0, ...`, compiled from `_STEP`."""
    consts, clause = _CLAUSES[cls]
    names = [(f"x{i}", f"xs[{i}]", f"a[x{i}]") for i in range(nxs)] + [
        (f"X{i}", f"phi.free_sets[{i}]", f"sa[X{i}]") for i in range(nsets)]
    consts = ", ".join([f"{x}={at}" for x, at, _ in names] + [consts])
    values = "".join(f"{value}, " for *_, value in names)
    if memo:
        consts = "tag=object(), " + consts
        clause = _MEMO.format(clause=clause, values=values)
    else:  # an atom's clause reads its arguments' values
        clause = clause.format(values=values, f_values="".join(
            f"f[{value}], " for *_, value in names))
    src = _STEP.format(consts=consts, clause=clause)
    scope: dict = {}
    exec(compile(src, f"<plan of {cls.__name__}>", "exec"), globals(), scope)
    return scope["make"]


# per class: (constants, clause), the sources `_maker` compiles: default
# arguments of `plan`, and a body that starts on a new line, indented as
# in `_STEP`, if it has more than one line.  A leaf's clause is a format
# string over its arguments' `values` and `f_values`.  The domain is never
# empty, so a binder's loop sets `out`; it stops where `any` or `all`
# would.  No clause has a comprehension: it would give `plan` cells.
_CLAUSES = {
    Atom: ("r=phi.name", "out = ({values}) in eng.m.rels[r]"),
    BuiltinAtom: ("r=phi.name", """
        f = eng.m.f
        out = bool(eng.builtins[r].holds({f_values}))"""),
    Eq: ("x=phi.left, y=phi.right", "out = a[x] == a[y]"),
    SetAtom: ("x=phi.arg, s=phi.setvar", "out = a[x] in sa[s]"),
    Not: ("k=ks[0]", "out = not k(eng, a, sa)"),
    And: ("l=ks[0], r=ks[1]", "out = l(eng, a, sa) and r(eng, a, sa)"),
    Or: ("l=ks[0], r=ks[1]", "out = l(eng, a, sa) or r(eng, a, sa)"),
    Imp: ("l=ks[0], r=ks[1]", "out = not l(eng, a, sa) or r(eng, a, sa)"),
    Iff: ("l=ks[0], r=ks[1]", "out = l(eng, a, sa) == r(eng, a, sa)"),
    Exists: ("k=ks[0], v=phi.var", """
        b = dict(a)
        for b[v] in range(eng.n):
            if out := k(eng, b, sa):
                break"""),
    Forall: ("k=ks[0], v=phi.var", """
        b = dict(a)
        for b[v] in range(eng.n):
            if not (out := k(eng, b, sa)):
                break"""),
    Count: ("k=ks[0], v=phi.var, y=phi.target", """
        b, c = dict(a), 0
        for b[v] in range(eng.n):
            c += k(eng, b, sa)
        out = eng.m.f[a[y]] == c"""),
    # a unary slot's points by a loop in place, a wider one's by product
    QApp: ("q=phi.qname, slots=[(vs, len(vs), k) for (vs, _), k"
           " in zip(phi.slots, ks)]", """
        n, cols = eng.n, []
        for vs, r, k in slots:
            b, col = dict(a), []
            if r == 1:
                v, = vs
                for b[v] in range(n):
                    col.append(k(eng, b, sa))
                cols.append(np.array(col, dtype=bool))
            else:
                for point in itertools.product(range(n), repeat=r):
                    b.update(zip(vs, point))
                    col.append(k(eng, b, sa))
                cols.append(np.array(col, dtype=bool).reshape((n,) * r))
        out = bool(eng.quantifiers[q].decide(n, cols, eng.fvals))"""),
    SetExists: ("k=ks[0], s=phi.setvar", """
        for x in _subsets(eng.n):
            if out := k(eng, a, {**sa, s: x}):
                break"""),
    SetForall: ("k=ks[0], s=phi.setvar", """
        for x in _subsets(eng.n):
            if not (out := k(eng, a, {**sa, s: x})):
                break"""),
}


def evaluate(m: BrModel, phi: Formula, assignment: Optional[dict] = None, *,
             builtins=None, quantifiers=None, set_assignment=None,
             budget: Optional[int] = DEFAULT_BUDGET) -> bool:
    eng = _Engine(m, builtins, quantifiers)
    eng.ops, eng.budget = 0, float("inf") if budget is None else budget
    a = dict(assignment or {})
    return _plan(phi)(eng, a, eng.admit(phi, set_assignment, a))


# ---------------------------------------------------------------------------
# bottom-up truth tables


# structures in `decide`'s form: relations as bool arrays of shape
# batch + (n,) * arity, f of shape (n,) or batch + (n,)
Batch = collections.namedtuple("Batch", "n arities rels f")


def _align(table: tuple, target: tuple) -> np.ndarray:
    """View a table (vars, array) over the variables `target`, a superset
    of vars in any order: axes transposed into target order, and a
    length-1 axis, which broadcasts, for each variable the table lacks."""
    vs, arr = table
    k = arr.ndim - len(vs)
    arr = arr.transpose(*range(k), *[k + vs.index(v) for v in target
                                     if v in vs])
    return arr[(..., *[slice(None) if v in vs else None for v in target])]


class TruthTables(_Engine):
    """Bottom-up evaluation on a `Batch`, or on a `BrModel`, the batch ():
    for each subformula a pair (vars, array), vars the sorted tuple of its
    free first-order variables and the bool array's last axes one of
    length n a variable, after the batch axes, which a table lacks where
    it does not depend on them (numpy aligns shapes from the end); `table`
    gives the full shape.  Tables are memoized per (subformula, values of
    its free set variables), keyed by the formula: equal ones are one."""

    def __init__(self, m, builtins=None, quantifiers=None):
        if isinstance(m, BrModel):
            m = Batch(m.n, m.arities, {r: quantmod.slot_array(
                m.n, ts, m.arities[r]) for r, ts in m.rels.items()}, m.f)
        super().__init__(m, builtins, quantifiers)
        self.batch = np.broadcast_shapes(self.fvals.shape[:-1], *(
            s.shape[:s.ndim - m.arities[r]] for r, s in m.rels.items()))

    def table(self, phi: Formula, set_assignment=None) -> tuple:
        vs, arr = self._table(phi, self.admit(phi, set_assignment))
        return vs, quantmod._full(arr, self.batch + (self.n,) * len(vs))

    def _check_cells(self, k: int):
        """Refuse a k-variable table over TABLE_CAP before building it."""
        if (cells := prod(self.batch) * self.n ** k) > TABLE_CAP:
            raise BudgetExceeded(f"a table over {k} variables at n={self.n}, "
                                 f"batch {self.batch}: {cells} cells; cap is "
                                 f"{TABLE_CAP}")

    def _table(self, phi, sa) -> tuple:
        key = (phi, tuple([sa[v] for v in phi.free_sets]))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self._check_cells(len(phi.free))
        out = phi.free, self._build(phi, sa)
        self.memo[key] = out
        return out

    def _build(self, phi, sa) -> np.ndarray:
        n, fvals = self.n, self.fvals
        kids, vs = phi.kids, phi.free
        if isinstance(phi, (Atom, BuiltinAtom)):
            # argument i read at the grid of its variable's axis in vs, so
            # repeated and permuted arguments need no special case
            grid = tuple(np.arange(n).reshape([n if w == v else 1 for w in vs])
                         for v in phi.args)
            if isinstance(phi, Atom):
                return self.m.rels[phi.name][(..., *grid)]
            rel = self.builtins[phi.name]
            if rel.arity == 1:
                return np.array([rel.holds(x) for x in range(n)],
                                dtype=bool)[fvals]
            return rel.holds(*(fvals[(..., g)] for g in grid))
        if isinstance(phi, Eq):
            return np.eye(n, dtype=bool) if len(vs) == 2 else np.ones(n, bool)
        if isinstance(phi, SetAtom):
            arr = np.zeros(n, dtype=bool)
            arr[list(sa[phi.setvar])] = True
            return arr
        if isinstance(phi, Not):
            return ~self._table(kids[0], sa)[1]
        if isinstance(phi, (And, Or, Imp, Iff)):
            a = _align(self._table(kids[0], sa), vs)
            b = _align(self._table(kids[1], sa), vs)
            if isinstance(phi, And):
                return a & b
            if isinstance(phi, Or):
                return a | b
            if isinstance(phi, Imp):
                return ~a | b
            return a == b
        if isinstance(phi, (Exists, Forall)):
            svs, arr = self._table(kids[0], sa)
            if phi.var not in svs:
                return arr  # vacuous: the domain is nonempty
            reduce = np.any if isinstance(phi, Exists) else np.all
            return reduce(arr, axis=svs.index(phi.var) - len(svs))
        if isinstance(phi, Count):
            # witnesses for phi.var at each assignment of the others
            svs, arr = self._table(kids[0], sa)
            arr = (arr.sum(axis=svs.index(phi.var) - len(svs))
                   if phi.var in svs else arr * n)
            counts = tuple(v for v in svs if v != phi.var), arr
            return _align(counts, vs) == fvals.reshape(fvals.shape[:-1] + tuple(
                n if v == phi.target else 1 for v in vs))
        if isinstance(phi, QApp):
            # one decision for the whole batch: each slot's table with the
            # structures' and vs's axes as batch axes (length 1 where it
            # does not depend on one, as on a variable it binds itself),
            # then its bound variables as slot axes; decide broadcasts
            slots = []
            for (vb, _), k in zip(phi.slots, kids):
                self._check_cells(len(vs) + len(vb))
                outer = tuple(None if v in vb else v for v in vs)
                arr = _align(self._table(k, sa), outer + vb)
                slots.append(quantmod._full(arr, arr.shape[:arr.ndim - len(vb)]
                                            + (n,) * len(vb)))
            return self.quantifiers[phi.qname].decide(n, slots, fvals.reshape(
                fvals.shape[:-1] + (1,) * len(vs) + (n,)))
        if isinstance(phi, (SetExists, SetForall)):
            tables = (self._table(kids[0], {**sa, phi.setvar: s})[1]
                      for s in _subsets(n))
            either = isinstance(phi, SetExists)
            return functools.reduce(
                np.logical_or if either else np.logical_and, tables)
        raise TypeError(f"not a formula: {phi!r}")


def evaluate_fast(m: BrModel, phi: Formula, assignment=None, *,
                  builtins=None, quantifiers=None, set_assignment=None) -> bool:
    """Bottom-up evaluation; best when the formula is to be decided on the
    whole model (it computes full tables regardless of the assignment)."""
    a = dict(assignment or {})
    tt = TruthTables(m, builtins, quantifiers)
    vs, arr = tt._table(phi, tt.admit(phi, set_assignment, a))
    return bool(arr[tuple(a[v] for v in vs)])


def define_relation(m: BrModel, phi: Formula, var_order, *, builtins=None,
                    quantifiers=None) -> frozenset:
    """The relation {tuple : phi holds} with argument positions taken in
    `var_order`; positions whose variable is not free range freely."""
    var_order = tuple(var_order)
    tt = TruthTables(m, builtins, quantifiers)
    sa = tt.admit(phi, None)
    if not set(phi.free) <= set(var_order):
        raise ValueError("var_order must cover the free variables")
    if len(set(var_order)) != len(var_order):
        raise ValueError("var_order repeats a variable")
    tt._check_cells(len(var_order))
    arr = _align(tt._table(phi, sa), var_order)
    arr = np.broadcast_to(arr, (m.n,) * len(var_order))
    if not var_order:  # a sentence: `np.nonzero` refuses a 0-d array
        return frozenset({()} if arr else ())
    return frozenset(zip(*[c.tolist() for c in np.nonzero(arr)]))


# ---------------------------------------------------------------------------
# back-and-forth games


EF_MAX_N = 12
EF_MAX_ROUNDS = 4


def ef_equivalent(m1: BrModel, m2: BrModel, rounds: int) -> bool:
    """Whether the duplicator wins the r-round game: whether the two models
    give the empty tuple one rank-r type (Libkin, *Elements of Finite Model
    Theory*, 2004, §3.4).  A tuple's rank-r type is its atomic type and,
    for r > 0, the set of the rank-(r-1) types of its extensions by one
    element; types are interned to ints in one table for both models.  The
    order built-in `le` takes part as an ordinary relation, read through
    each model's permutation.  A repeated pick is answered by its partner,
    and an answer that reuses a matched element is not injective, so only
    tuples of distinct elements matter, and each adds to its prefix's
    atomic type only what goes through its newest element."""
    if m1.arities != m2.arities:
        raise ValueError("models must share a vocabulary")
    if max(m1.n, m2.n) > EF_MAX_N:
        raise ValueError(f"game solver capped at n <= {EF_MAX_N}")
    if not 0 <= rounds <= EF_MAX_ROUNDS:
        raise ValueError(f"game solver takes 0 to {EF_MAX_ROUNDS} rounds")
    # per tuple length k: the (relation, positions) whose tuples go through
    # position k - 1; for k = 0, the nullary relations
    through = [[(name, c) for name, ar in sorted(m1.arities.items())
                for c in itertools.product(range(k), repeat=ar)
                if k == 0 or k - 1 in c] for k in range(rounds + 1)]
    table: dict = {}

    def rank_type(m: BrModel, t: tuple, r: int) -> int:
        f = m.f  # t[-1] is read only when t has a prefix to order it in
        atoms = (tuple(f[y] < f[t[-1]] for y in t[:-1]),
                 tuple(tuple(t[i] for i in c) in m.rels[name]
                       for name, c in through[len(t)]))
        key = atoms if r == 0 else (atoms, frozenset(
            rank_type(m, t + (y,), r - 1) for y in range(m.n) if y not in t))
        return table.setdefault(key, len(table))

    return rank_type(m1, (), rounds) == rank_type(m2, (), rounds)

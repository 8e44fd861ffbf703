"""Formula evaluation on br-structures: two engines with one semantics,
and `ef_equivalent`, the r-round back-and-forth game.

* `evaluate` — top-down, through each formula's plan: one closure per
  node, built on first use from its class's entry in `_CLAUSES` and kept
  on the formula, with no model, registry or memo in it.  Each plan call
  is one step against `budget`.  A leaf (an atom or an equation) runs
  directly; any other node is memoized on (its clause, values of its free
  variables and free set variables): the clause stands for the node.
* `TruthTables` / `evaluate_fast` — bottom-up tables as numpy bool
  arrays with one axis per free variable; the fast path for exhaustive
  sweeps, and the independent second route.  A table of more than
  `TABLE_CAP` cells is refused before it is built.

Every entry point makes one admission check, `_Engine.admit`, and the
clauses trust what it admitted.  A built-in's `holds` is its only
definition: the top-down engine calls it on f-values, the table engine
on each f-value or on grids of them.  A quantifier application is one
`decide` call in either engine: on one structure top-down, and on the
batch of all assignments to its free variables in the table engine.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Optional

import numpy as np

from . import model as modelmod, quantifiers as quantmod
from .model import BrModel
from .syntax import (And, Atom, BuiltinAtom, Count, Eq, Exists, Forall,
                     Formula, Iff, Imp, Not, Or, QApp, SetAtom, SetExists,
                     SetForall)

MSO_CAP = 16
DEFAULT_BUDGET = 50_000_000
# cells of one truth table; the largest in use is 8**9, in the extension
# formula (`arithx.mu_formula`) at n=8
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
    """The model, the registries, the memo and the step budget of one
    evaluation, and the one admission check that every entry point makes."""

    def __init__(self, m: BrModel, builtins=None, quantifiers=None,
                 budget=None):
        self.m, self.n = m, m.n
        self.builtins = (builtins if builtins is not None
                         else modelmod.default_builtins())
        self.quantifiers = (quantifiers if quantifiers is not None
                            else default_quantifiers())
        self.fvals = np.asarray(m.f, dtype=np.int64)
        self.memo: dict = {}
        self.ops, self.budget = 0, float("inf") if budget is None else budget

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


def _no_values(d) -> tuple:
    return ()


def _tuple_of(names: tuple):
    """A function from a dict to the tuple of its values at `names`."""
    if len(names) == 1:
        return lambda d, v=names[0]: (d[v],)
    return operator.itemgetter(*names) if names else _no_values


def _plan(phi: Formula):
    """phi's plan, a function (engine, assignment, set assignment) -> bool;
    built on first use, from the kids' plans, and kept on phi."""
    if "plan" in phi.__dict__:
        return phi.plan
    clause = _CLAUSES[type(phi)](phi, *[_plan(k) for k in phi.kids])
    values = _tuple_of(phi.free) if phi.kids else None  # None: a leaf
    sets = _tuple_of(phi.free_sets) if phi.free_sets else None

    def plan(eng, a, sa):
        eng.ops += 1
        if eng.ops > eng.budget:
            raise BudgetExceeded(f"evaluation budget of {eng.budget} exhausted")
        if values is None:
            return clause(eng, a, sa)
        key = (clause, values(a), () if sets is None else sets(sa))
        out = eng.memo.get(key)
        if out is None:
            out = eng.memo[key] = clause(eng, a, sa)
        return out
    return phi.__dict__.setdefault("plan", plan)


def _points(n: int, a: dict, vs: tuple):
    """`a` extended by each assignment to `vs`: one dict, updated in place."""
    b = dict(a)
    if len(vs) == 1:
        for b[vs[0]] in range(n):
            yield b
    else:
        for values in itertools.product(range(n), repeat=len(vs)):
            b.update(zip(vs, values))
            yield b


def _qapp(phi: QApp, *kids):
    qname = phi.qname
    slots = [(vs, len(vs), k) for (vs, _), k in zip(phi.slots, kids)]

    def decide(eng, a, sa):
        n = eng.n
        arrays = [np.array([k(eng, b, sa) for b in _points(n, a, vs)],
                           dtype=bool).reshape((n,) * r) for vs, r, k in slots]
        return bool(eng.quantifiers[qname].decide(n, arrays, eng.fvals))
    return decide


# per class: phi's clause, from phi and its kids' plans, with phi's
# constants bound as defaults
_CLAUSES = {
    Atom: lambda phi: lambda eng, a, sa, r=phi.name, xs=_tuple_of(phi.args):
        xs(a) in eng.m.rels[r],
    BuiltinAtom: lambda phi: lambda eng, a, sa, r=phi.name,
        xs=_tuple_of(phi.args): eng.builtins[r].eval_on(eng.m, xs(a)),
    Eq: lambda phi: lambda eng, a, sa, x=phi.left, y=phi.right: a[x] == a[y],
    SetAtom: lambda phi: lambda eng, a, sa, x=phi.arg, s=phi.setvar:
        a[x] in sa[s],
    Not: lambda phi, sub: lambda eng, a, sa: not sub(eng, a, sa),
    And: lambda phi, l, r: lambda eng, a, sa: l(eng, a, sa) and r(eng, a, sa),
    Or: lambda phi, l, r: lambda eng, a, sa: l(eng, a, sa) or r(eng, a, sa),
    Imp: lambda phi, l, r: lambda eng, a, sa:
        not l(eng, a, sa) or r(eng, a, sa),
    Iff: lambda phi, l, r: lambda eng, a, sa: l(eng, a, sa) == r(eng, a, sa),
    Exists: lambda phi, sub: lambda eng, a, sa, vs=(phi.var,): any(
        sub(eng, b, sa) for b in _points(eng.n, a, vs)),
    Forall: lambda phi, sub: lambda eng, a, sa, vs=(phi.var,): all(
        sub(eng, b, sa) for b in _points(eng.n, a, vs)),
    Count: lambda phi, sub: lambda eng, a, sa, vs=(phi.var,), y=phi.target:
        eng.m.f[a[y]] == sum(sub(eng, b, sa) for b in _points(eng.n, a, vs)),
    QApp: _qapp,
    SetExists: lambda phi, sub: lambda eng, a, sa, s=phi.setvar: any(
        sub(eng, a, {**sa, s: x}) for x in _subsets(eng.n)),
    SetForall: lambda phi, sub: lambda eng, a, sa, s=phi.setvar: all(
        sub(eng, a, {**sa, s: x}) for x in _subsets(eng.n)),
}


def evaluate(m: BrModel, phi: Formula, assignment: Optional[dict] = None, *,
             builtins=None, quantifiers=None, set_assignment=None,
             budget: Optional[int] = DEFAULT_BUDGET) -> bool:
    eng = _Engine(m, builtins, quantifiers, budget)
    a = dict(assignment or {})
    return _plan(phi)(eng, a, eng.admit(phi, set_assignment, a))


# ---------------------------------------------------------------------------
# bottom-up truth tables


def _check_cells(n: int, k: int):
    """Refuse a table of n**k cells beyond TABLE_CAP, before building it."""
    if n ** k > TABLE_CAP:
        raise BudgetExceeded(f"a table over {k} variables at n={n} has "
                             f"{n ** k} cells; cap is {TABLE_CAP}")


def _align(table: tuple, target: tuple) -> np.ndarray:
    """View a table (vars, array) over the variables `target`, a superset
    of vars in any order: axes transposed into target order, and a
    length-1 axis, which broadcasts, for each variable the table lacks."""
    vs, arr = table
    arr = np.transpose(arr, [vs.index(v) for v in target if v in vs])
    return arr[tuple(slice(None) if v in vs else None for v in target)]


class TruthTables(_Engine):
    """Bottom-up evaluation: for each subformula a pair (vars, array) where
    vars is the sorted tuple of free first-order variables and the bool
    array has one axis of length n per variable, axis i for vars[i]; a
    sentence's array is 0-d.  Tables are memoized per (subformula, values
    of its free set variables); the key holds the formula itself, and
    equal formulas are one object, so a reused instance never mistakes one
    formula for another."""

    def table(self, phi: Formula, set_assignment=None) -> tuple:
        return self._table(phi, self.admit(phi, set_assignment))

    def _table(self, phi, sa) -> tuple:
        key = (phi, tuple([sa[v] for v in phi.free_sets]))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        _check_cells(self.n, len(phi.free))
        out = phi.free, self._build(phi, sa)
        self.memo[key] = out
        return out

    def _counts(self, table: tuple, var) -> tuple:
        """Witnesses for `var` at each assignment of the table's other
        variables: (those variables, int array)."""
        vs, arr = table
        if var not in vs:
            return vs, arr.astype(np.int64) * self.n
        return (tuple(v for v in vs if v != var),
                arr.sum(axis=vs.index(var), dtype=np.int64))

    def _build(self, phi, sa) -> np.ndarray:
        n = self.n
        kids, vs = phi.kids, phi.free
        if isinstance(phi, (Atom, BuiltinAtom)):
            # argument i read at the grid of its variable's axis in vs, so
            # repeated and permuted arguments need no special case
            grid = tuple(np.arange(n).reshape([n if w == v else 1 for w in vs])
                         for v in phi.args)
            if isinstance(phi, Atom):
                return quantmod.slot_array(n, self.m.rels[phi.name],
                                           len(grid))[grid]
            rel = self.builtins[phi.name]
            if rel.arity == 1:
                return np.array([rel.holds(x) for x in self.m.f], dtype=bool)
            return rel.holds(*(self.fvals[g] for g in grid))
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
            return reduce(arr, axis=svs.index(phi.var))
        if isinstance(phi, Count):
            counts = self._counts(self._table(kids[0], sa), phi.var)
            f = self.fvals.reshape([n if v == phi.target else 1 for v in vs])
            return _align(counts, vs) == f
        if isinstance(phi, QApp):
            # one decision for the whole batch of assignments to vs: each
            # slot's table with vs as batch axes (length 1 where the slot
            # does not depend on one, as on a variable it binds itself),
            # then its bound variables as slot axes of length n; a decision
            # may broadcast a slot over all those axes
            slots = []
            for (vb, _), k in zip(phi.slots, kids):
                _check_cells(n, len(vs) + len(vb))
                outer = tuple(None if v in vb else v for v in vs)
                arr = _align(self._table(k, sa), outer + vb)
                full = arr.shape[:len(vs)] + (n,) * len(vb)
                slots.append(arr if arr.shape == full
                             else np.broadcast_to(arr, full))
            return self.quantifiers[phi.qname].decide(n, slots, self.fvals)
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
    _check_cells(m.n, len(var_order))
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
    """Whether the duplicator wins the r-round game.  The order built-in
    `le` takes part as an ordinary relation, read through each model's
    permutation.  A repeated pick is answered by its partner, and an
    answer that reuses a matched element is not injective, so only moves
    that add a pair of fresh elements matter: a position (a set of pairs)
    reached by them is a partial isomorphism, and a fresh pair keeps it
    one exactly when `extends` holds."""
    if m1.arities != m2.arities:
        raise ValueError("models must share a vocabulary")
    if max(m1.n, m2.n) > EF_MAX_N:
        raise ValueError(f"game solver capped at n <= {EF_MAX_N}")
    if not 0 <= rounds <= EF_MAX_ROUNDS:
        raise ValueError(f"game solver takes 0 to {EF_MAX_ROUNDS} rounds")
    memo: dict = {}

    def extends(pairs, a, b) -> bool:
        """Whether the order and every relation agree on each tuple that
        goes through the fresh pair (a, b)."""
        if any((m1.f[a] < m1.f[c]) != (m2.f[b] < m2.f[d]) for c, d in pairs):
            return False
        grown = [*pairs, (a, b)]
        for name, ar in m1.arities.items():
            r1, r2 = m1.rels[name], m2.rels[name]
            for combo in itertools.product(grown, repeat=ar):
                if (a, b) in combo and ((tuple(c for c, _ in combo) in r1)
                                        != (tuple(d for _, d in combo) in r2)):
                    return False
        return True

    def win(pairs: frozenset, r: int) -> bool:
        key = (pairs, r)
        if key not in memo:
            fresh1 = sorted(set(range(m1.n)) - {c for c, _ in pairs})
            fresh2 = sorted(set(range(m2.n)) - {d for _, d in pairs})

            def answer(a, b) -> bool:
                return extends(pairs, a, b) and win(pairs | {(a, b)}, r - 1)

            memo[key] = r == 0 or (
                all(any(answer(a, b) for b in fresh2) for a in fresh1)
                and all(any(answer(a, b) for a in fresh1) for b in fresh2))
        return memo[key]

    # a nullary relation's one tuple goes through no pair
    return (all(m1.rels[k] == m2.rels[k] for k, ar in m1.arities.items()
                if ar == 0) and win(frozenset(), rounds))

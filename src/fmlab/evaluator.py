"""Formula evaluation on br-structures.

Three engines with one semantics:

* `evaluate` — top-down with memoization on (interned subformula,
  values of its free variables); the workhorse.
* `evaluate_naive` — the same top-down clauses with the memo off; a check
  on the memo keys.
* `TruthTables` / `evaluate_fast` — bottom-up tables packed into Python
  big ints, one bit per assignment; the fast path for exhaustive sweeps,
  and the independent second route.

Both engines run on `syntax.Interner` nodes, which carry each
subformula's free variables.

Plus `ef_equivalent`, the r-round back-and-forth game.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from . import model as modelmod, quantifiers as quantmod
from .model import BrModel
from .syntax import (And, Atom, BuiltinAtom, Count, Eq, Exists, Forall,
                     Formula, Iff, Imp, Interner, Node, Not, Or, QApp, SetAtom,
                     SetExists, SetForall)

MSO_CAP = 16
DEFAULT_BUDGET = 50_000_000


class BudgetExceeded(RuntimeError):
    pass


_default_quants = None


def default_quantifiers() -> dict:
    global _default_quants
    if _default_quants is None:
        _default_quants = quantmod.builtin_quantifiers()
    return _default_quants


def _check_closed(node: Node, assignment, set_assignment):
    missing = set(node.free) - set(assignment)
    if missing:
        raise ValueError(f"unassigned variables: {sorted(missing)}")
    missing = set(node.free_sets) - set(set_assignment)
    if missing:
        raise ValueError(f"unassigned set variables: {sorted(missing)}")


class _TopDown:
    def __init__(self, m: BrModel, builtins, quantifiers, budget, mso_cap):
        self.m = m
        self.builtins = (builtins if builtins is not None
                         else modelmod.builtin_registry())
        self.quantifiers = (quantifiers if quantifiers is not None
                            else default_quantifiers())
        self.budget = budget
        self.mso_cap = mso_cap
        self.ops = 0
        self.memo: dict = {}
        self.interner = Interner(self.quantifiers)
        self.nodes = self.interner.nodes

    def decide(self, phi, assignment, set_assignment) -> bool:
        a = dict(assignment or {})
        sa = {k: frozenset(v) for k, v in (set_assignment or {}).items()}
        root = self.interner.intern(phi)
        _check_closed(self.nodes[root], a, sa)
        return self.run(root, a, sa)

    def run(self, i, assignment, set_assignment) -> bool:
        self.ops += 1
        if self.budget is not None and self.ops > self.budget:
            raise BudgetExceeded(f"evaluation budget of {self.budget} exhausted")
        node = self.nodes[i]
        key = (i, tuple([assignment[v] for v in node.free]),
               tuple([set_assignment[v] for v in node.free_sets]))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(node, assignment, set_assignment)
        self.memo[key] = out
        return out

    def _eval(self, node, a, sa) -> bool:
        m = self.m
        phi, kids = node.phi, node.kids
        if isinstance(phi, Atom):
            return tuple(a[v] for v in phi.args) in m.rels[phi.name]
        if isinstance(phi, BuiltinAtom):
            return self.builtins[phi.name].eval_on(m, tuple(a[v] for v in phi.args))
        if isinstance(phi, Eq):
            return a[phi.left] == a[phi.right]
        if isinstance(phi, SetAtom):
            return a[phi.arg] in sa[phi.setvar]
        if isinstance(phi, Not):
            return not self.run(kids[0], a, sa)
        if isinstance(phi, And):
            return self.run(kids[0], a, sa) and self.run(kids[1], a, sa)
        if isinstance(phi, Or):
            return self.run(kids[0], a, sa) or self.run(kids[1], a, sa)
        if isinstance(phi, Imp):
            return (not self.run(kids[0], a, sa)) or self.run(kids[1], a, sa)
        if isinstance(phi, Iff):
            return self.run(kids[0], a, sa) == self.run(kids[1], a, sa)
        if isinstance(phi, Exists):
            return any(self.run(kids[0], {**a, phi.var: e}, sa)
                       for e in range(m.n))
        if isinstance(phi, Forall):
            return all(self.run(kids[0], {**a, phi.var: e}, sa)
                       for e in range(m.n))
        if isinstance(phi, Count):
            hits = sum(1 for e in range(m.n)
                       if self.run(kids[0], {**a, phi.var: e}, sa))
            return hits == m.f[a[phi.target]]
        if isinstance(phi, QApp):
            q = self.quantifiers[phi.qname]
            rels = []
            for (vs, _), k in zip(phi.slots, kids):
                rel = frozenset(
                    t for t in itertools.product(range(m.n), repeat=len(vs))
                    if self.run(k, {**a, **dict(zip(vs, t))}, sa))
                rels.append(rel)
            return bool(q.decide(m.n, rels, m.f))
        if isinstance(phi, (SetExists, SetForall)):
            if m.n > self.mso_cap:
                raise BudgetExceeded(
                    f"set quantification needs 2^{m.n} subsets; cap is "
                    f"2^{self.mso_cap}")
            universe = range(m.n)
            subsets = (frozenset(s) for r in range(m.n + 1)
                       for s in itertools.combinations(universe, r))
            runs = (self.run(kids[0], a, {**sa, phi.setvar: s})
                    for s in subsets)
            return any(runs) if isinstance(phi, SetExists) else all(runs)
        raise TypeError(f"not a formula: {phi!r}")


class _Naive(_TopDown):
    """The same clauses with the memo off: every subformula is evaluated
    afresh, so a wrong memo key shows as a disagreement."""

    def run(self, i, assignment, set_assignment) -> bool:
        return self._eval(self.nodes[i], assignment, set_assignment)


def evaluate(m: BrModel, phi: Formula, assignment: Optional[dict] = None, *,
             builtins=None, quantifiers=None, set_assignment=None,
             budget: Optional[int] = DEFAULT_BUDGET,
             mso_cap: int = MSO_CAP) -> bool:
    eng = _TopDown(m, builtins, quantifiers, budget, mso_cap)
    return eng.decide(phi, assignment, set_assignment)


def evaluate_naive(m: BrModel, phi: Formula, assignment: Optional[dict] = None,
                   *, builtins=None, quantifiers=None, set_assignment=None,
                   mso_cap: int = MSO_CAP) -> bool:
    """Reference evaluation: the top-down clauses with no memo."""
    eng = _Naive(m, builtins, quantifiers, None, mso_cap)
    return eng.decide(phi, assignment, set_assignment)


# ---------------------------------------------------------------------------
# bottom-up bitmask tables


def _unpack(table: int, total: int) -> np.ndarray:
    """Big int -> bool array of `total` bits, bit 0 first."""
    raw = np.frombuffer(table.to_bytes((total + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:total]


def _bits_to_int(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8).ravel(), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _insert_axis(table: int, n: int, low: int, total: int) -> int:
    """Duplicate the `total`-bit table n times along a fresh variable axis
    of stride `low`."""
    bits = _unpack(table, total).reshape(-1, low)
    return _bits_to_int(np.repeat(bits[:, None, :], n, axis=1))


def _collapse_axis(table: int, n: int, low: int, mode: str,
                   total: int) -> int:
    """OR (`mode='any'`) or AND (`'all'`) the n slices along the axis of
    stride `low` of a `total`-bit table."""
    bits = _unpack(table, total).reshape(-1, n, low)
    red = bits.any(axis=1) if mode == "any" else bits.all(axis=1)
    return _bits_to_int(red)


def _count_axis(table: int, n: int, low: int, total: int) -> np.ndarray:
    """Witness counts along the given axis; the result is indexed like
    the collapsed table."""
    bits = _unpack(table, total).reshape(-1, n, low)
    return bits.sum(axis=1, dtype=np.int64).ravel()


class TruthTables:
    """Bottom-up evaluation: for each subformula a pair (vars, bits) where
    vars is the sorted tuple of free first-order variables and bit number
    sum(a(vars[i]) * n**i) records the truth value under assignment a.
    Tables are memoized per interned node, and each instance has its own
    interner, so a reused instance never mistakes one formula for another."""

    def __init__(self, m: BrModel, builtins=None, quantifiers=None,
                 mso_cap: int = MSO_CAP):
        self.m = m
        self.n = m.n
        self.builtins = (builtins if builtins is not None
                         else modelmod.builtin_registry())
        self.quantifiers = (quantifiers if quantifiers is not None
                            else default_quantifiers())
        self.mso_cap = mso_cap
        self.memo: dict = {}
        self.interner = Interner(self.quantifiers)
        self.nodes = self.interner.nodes
        self.full1 = (1 << self.n) - 1

    def full(self, k: int) -> int:
        return (1 << self.n ** k) - 1

    def table(self, phi: Formula, set_assignment=None) -> tuple:
        sa = {k: frozenset(v) for k, v in (set_assignment or {}).items()}
        return self._table(self.interner.intern(phi), sa)

    def _table(self, i, sa) -> tuple:
        node = self.nodes[i]
        key = (i, tuple([sa[v] for v in node.free_sets]))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._build(node, sa)
        self.memo[key] = out
        return out

    def _expand(self, have, bits, target_vs):
        n = self.n
        size = n ** len(have)
        for i, v in enumerate(target_vs):
            if v not in have:
                bits = _insert_axis(bits, n, n ** i, size)
                size *= n
        return bits

    def _expand_counts(self, arr, have, target_vs):
        """Counterpart of _expand for integer count arrays."""
        n = self.n
        for i, v in enumerate(target_vs):
            if v not in have:
                arr = np.repeat(arr.reshape(-1, 1, n ** i), n, axis=1).ravel()
        return arr

    def _atom_bits(self, vs, args, holds_tuples) -> tuple:
        """Sparse build over the sorted distinct arguments `vs`: set bits
        for listed tuples, honoring repeated argument variables."""
        pos = {v: i for i, v in enumerate(vs)}
        n = self.n
        bits = 0
        for t in holds_tuples:
            vals = {}
            ok = True
            for v, x in zip(args, t):
                if vals.setdefault(v, x) != x:
                    ok = False
                    break
            if ok:
                bits |= 1 << sum(vals[v] * n ** pos[v] for v in vs)
        return vs, bits

    def _builtin_bits(self, phi: BuiltinAtom, vs) -> tuple:
        n = self.n
        rel = self.builtins[phi.name]
        k = len(vs)
        fvals = np.asarray(self.m.f, dtype=np.int64)
        # arrays indexed [v_{k-1}, ..., v_0]; C-ravel puts v_0 on stride 1
        grids = []
        for v in phi.args:
            axis = k - 1 - vs.index(v)
            shape = [1] * k
            shape[axis] = n
            grids.append(fvals.reshape(shape))
        name = phi.name
        if name == "le":
            arr = grids[0] <= grids[1]
        elif name == "lt":
            arr = grids[0] < grids[1]
        elif name == "plus":
            arr = grids[0] + grids[1] == grids[2]
        elif name == "times":
            arr = grids[0] * grids[1] == grids[2]
        elif rel.arity == 1:
            arr = np.vectorize(rel.holds, otypes=[bool])(grids[0])
        else:
            arr = np.vectorize(rel.holds, otypes=[bool])(*grids)
        arr = np.broadcast_to(arr, (n,) * k)
        return vs, _bits_to_int(arr)

    def _build(self, node, sa) -> tuple:
        n = self.n
        phi, kids = node.phi, node.kids
        if isinstance(phi, Atom):
            return self._atom_bits(node.free, phi.args, self.m.rels[phi.name])
        if isinstance(phi, BuiltinAtom):
            return self._builtin_bits(phi, node.free)
        if isinstance(phi, Eq):
            if phi.left == phi.right:
                return (phi.left,), self.full1
            return self._atom_bits(node.free, (phi.left, phi.right),
                                   ((e, e) for e in range(n)))
        if isinstance(phi, SetAtom):
            s = sa[phi.setvar]
            return (phi.arg,), sum(1 << e for e in s)
        if isinstance(phi, Not):
            vs, b = self._table(kids[0], sa)
            return vs, b ^ self.full(len(vs))
        if isinstance(phi, (And, Or, Imp, Iff)):
            vs = node.free
            b1 = self._expand(*self._table(kids[0], sa), vs)
            b2 = self._expand(*self._table(kids[1], sa), vs)
            full = self.full(len(vs))
            if isinstance(phi, And):
                return vs, b1 & b2
            if isinstance(phi, Or):
                return vs, b1 | b2
            if isinstance(phi, Imp):
                return vs, (b1 ^ full) | b2
            return vs, (b1 ^ b2) ^ full
        if isinstance(phi, (Exists, Forall)):
            vs, b = self._table(kids[0], sa)
            if phi.var not in vs:
                return vs, b  # vacuous: the domain is nonempty
            i = vs.index(phi.var)
            mode = "any" if isinstance(phi, Exists) else "all"
            return node.free, _collapse_axis(b, n, n ** i, mode, n ** len(vs))
        if isinstance(phi, Count):
            vs, b = self._table(kids[0], sa)
            if phi.var in vs:
                i = vs.index(phi.var)
                counts = _count_axis(b, n, n ** i, n ** len(vs))
                rest = tuple(v for v in vs if v != phi.var)
            else:
                rest = vs
                counts = _unpack(b, n ** len(vs)).astype(np.int64) * n
            f = self.m.f
            out_vs = node.free
            rest_pos = [out_vs.index(v) for v in rest]
            tpos = out_vs.index(phi.target)
            out = 0
            for assign in itertools.product(range(n), repeat=len(rest)):
                idx_sub = sum(a * n ** j for j, a in enumerate(assign))
                cnt = int(counts[idx_sub])
                if phi.target in rest:
                    e = assign[rest.index(phi.target)]
                    if f[e] == cnt:
                        out |= 1 << sum(a * n ** p
                                        for a, p in zip(assign, rest_pos))
                else:
                    base = sum(a * n ** p for a, p in zip(assign, rest_pos))
                    for e in range(n):
                        if f[e] == cnt:
                            out |= 1 << (base + e * n ** tpos)
            return out_vs, out
        if isinstance(phi, QApp):
            q = self.quantifiers[phi.qname]
            outer = node.free
            if q.sizes_decide is not None:
                # unary slots (the interner checked the arities) with a
                # cardinality-only verdict: count witnesses along each
                # bound axis and decide once per distinct size combination
                counts = []
                for ((vb,), _), k in zip(phi.slots, kids):
                    svs, sb = self._table(k, sa)
                    if vb in svs:
                        i = svs.index(vb)
                        arr = _count_axis(sb, n, n ** i, n ** len(svs))
                        have = tuple(v for v in svs if v != vb)
                    else:
                        arr = _unpack(sb, n ** len(svs)).astype(np.int64) * n
                        have = svs
                    counts.append(self._expand_counts(arr, have, outer))
                radix = n + 1
                key = np.zeros_like(counts[0])
                for c in counts:
                    key = key * radix + c
                uniq, inv = np.unique(key, return_inverse=True)

                def decode(v):
                    sizes = []
                    for _ in counts:
                        sizes.append(int(v % radix))
                        v //= radix
                    return tuple(reversed(sizes))

                verdict = np.fromiter(
                    (bool(q.sizes_decide(n, decode(int(v)))) for v in uniq),
                    dtype=bool, count=len(uniq))
                return outer, _bits_to_int(verdict[inv.ravel()])
            slot_data = []
            for (vs_bound, _), k in zip(phi.slots, kids):
                svs, sb = self._table(k, sa)
                slot_data.append((vs_bound, svs, sb))
            out = 0
            for assign in itertools.product(range(n), repeat=len(outer)):
                env = dict(zip(outer, assign))
                rels = []
                for vs_bound, svs, sb in slot_data:
                    rel = set()
                    for t in itertools.product(range(n), repeat=len(vs_bound)):
                        local = {**env, **dict(zip(vs_bound, t))}
                        idx = sum(local[v] * n ** i for i, v in enumerate(svs))
                        if (sb >> idx) & 1:
                            rel.add(t)
                    rels.append(frozenset(rel))
                if q.decide(n, rels, self.m.f):
                    out |= 1 << sum(a * n ** i for i, a in enumerate(assign))
            return outer, out
        if isinstance(phi, (SetExists, SetForall)):
            if n > self.mso_cap:
                raise BudgetExceeded(f"set quantification cap is 2^{self.mso_cap}")
            acc = None
            for mask in range(1 << n):
                s = frozenset(e for e in range(n) if mask >> e & 1)
                _, sb = self._table(kids[0], {**sa, phi.setvar: s})
                if acc is None:
                    acc = sb
                else:
                    acc = acc | sb if isinstance(phi, SetExists) else acc & sb
            return node.free, acc
        raise TypeError(f"not a formula: {phi!r}")


def evaluate_fast(m: BrModel, phi: Formula, assignment=None, *,
                  builtins=None, quantifiers=None, set_assignment=None,
                  mso_cap: int = MSO_CAP) -> bool:
    """Bottom-up evaluation; best when the formula is to be decided on the
    whole model (it computes full tables regardless of the assignment)."""
    assignment = dict(assignment or {})
    sa = {k: frozenset(v) for k, v in (set_assignment or {}).items()}
    tt = TruthTables(m, builtins, quantifiers, mso_cap)
    root = tt.interner.intern(phi)
    _check_closed(tt.nodes[root], assignment, sa)
    vs, bits = tt._table(root, sa)
    idx = sum(assignment[v] * m.n ** i for i, v in enumerate(vs))
    return bool(bits >> idx & 1)


def define_relation(m: BrModel, phi: Formula, var_order, *, builtins=None,
                    quantifiers=None) -> frozenset:
    """The relation {tuple : phi holds} with argument positions taken in
    `var_order`; positions whose variable is not free range freely."""
    var_order = tuple(var_order)
    tt = TruthTables(m, builtins, quantifiers)
    root = tt.interner.intern(phi)
    if not set(tt.nodes[root].free) <= set(var_order):
        raise ValueError("var_order must cover the free variables")
    vs, bits = tt._table(root, {})
    n = m.n
    unused = [v for v in var_order if v not in vs]
    out = set()
    for idx in np.nonzero(_unpack(bits, n ** len(vs)))[0]:
        env = {}
        rest = int(idx)
        for v in vs:
            env[v] = rest % n
            rest //= n
        for vals in itertools.product(range(n), repeat=len(unused)):
            env.update(zip(unused, vals))
            out.add(tuple(env[v] for v in var_order))
    return frozenset(out)


# ---------------------------------------------------------------------------
# back-and-forth games


EF_MAX_N = 12
EF_MAX_ROUNDS = 4


def ef_equivalent(m1: BrModel, m2: BrModel, rounds: int, *,
                  builtins=None, builtin_names=("le",),
                  max_n: int = EF_MAX_N,
                  max_rounds: int = EF_MAX_ROUNDS) -> bool:
    """Whether the duplicator wins the r-round game.  Built-ins named in
    `builtin_names` take part as ordinary relations (read through each
    model's permutation)."""
    if m1.arities != m2.arities:
        raise ValueError("models must share a vocabulary")
    if max(m1.n, m2.n) > max_n:
        raise ValueError(f"game solver capped at n <= {max_n}")
    if rounds > max_rounds:
        raise ValueError(f"game solver capped at {max_rounds} rounds")
    builtins = builtins if builtins is not None else modelmod.builtin_registry()
    named = [(builtins[nm], builtins[nm].arity) for nm in builtin_names]
    memo: dict = {}

    def partial_iso(pairs) -> bool:
        left = {}
        right = {}
        for a, b in pairs:
            if left.setdefault(a, b) != b or right.setdefault(b, a) != a:
                return False
        pl = list(pairs)
        for name, ar in m1.arities.items():
            r1, r2 = m1.rels[name], m2.rels[name]
            for combo in itertools.product(pl, repeat=ar):
                t1 = tuple(a for a, _ in combo)
                t2 = tuple(b for _, b in combo)
                if (t1 in r1) != (t2 in r2):
                    return False
        for rel, ar in named:
            for combo in itertools.product(pl, repeat=ar):
                t1 = tuple(a for a, _ in combo)
                t2 = tuple(b for _, b in combo)
                if rel.eval_on(m1, t1) != rel.eval_on(m2, t2):
                    return False
        return True

    def win(pairs: frozenset, r: int) -> bool:
        key = (pairs, r)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = partial_iso(pairs)
        if out and r > 0:
            used1 = {a for a, _ in pairs}
            used2 = {b for _, b in pairs}
            fresh1 = [a for a in range(m1.n) if a not in used1]
            fresh2 = [b for b in range(m2.n) if b not in used2]
            # a repeated pick is answered by the existing partner, so only
            # fresh spoiler moves matter; a response reusing a matched
            # element breaks injectivity, so only fresh responses matter
            for a in fresh1:
                if not fresh2 or not any(
                        win(pairs | {(a, b)}, r - 1) for b in fresh2):
                    out = False
                    break
            if out:
                for b in fresh2:
                    if not fresh1 or not any(
                            win(pairs | {(a, b)}, r - 1) for a in fresh1):
                        out = False
                        break
        memo[key] = out
        return out

    return win(frozenset(), rounds)

"""Finite relational structures over {0,..,n-1} carrying a permutation f
that interprets built-in numerical relations, plus the special model
families used by the verification suites (word models, powerset membership
structures, partial arithmetic)."""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import sets as setsmod
from .sets import NumericalSet


class BrModel:
    """A structure with domain {0,..,n-1}, named relations, and a
    permutation f (the bijection onto an initial segment of the naturals
    through which built-ins are read)."""

    def __init__(self, n: int, arities: dict[str, int],
                 relations: dict[str, Iterable[tuple]], f=None):
        if n < 1:
            raise ValueError("domain must be nonempty")
        self.n = n
        self.arities = dict(arities)
        if f is None:
            f = tuple(range(n))
        else:
            f = tuple(f)
        if sorted(f) != list(range(n)):
            raise ValueError("f must be a permutation of the domain")
        self.f = f
        rels = {}
        for name, ar in self.arities.items():
            if ar < 0:
                raise ValueError(f"relation {name} has negative arity {ar}")
            tuples = frozenset(tuple(t) for t in relations.get(name, ()))
            for t in tuples:
                if len(t) != ar:
                    raise ValueError(f"tuple {t} does not match arity {ar} of {name}")
                if any(not (0 <= x < n) for x in t):
                    raise ValueError(f"tuple {t} outside domain of size {n}")
            rels[name] = tuples
        extra = set(relations) - set(self.arities)
        if extra:
            raise ValueError(f"relations without declared arity: {sorted(extra)}")
        self.rels = rels

    def __eq__(self, other):
        return (isinstance(other, BrModel) and self.n == other.n
                and self.f == other.f and self.arities == other.arities
                and self.rels == other.rels)

    def __hash__(self):
        return hash((self.n, self.f, tuple(sorted(self.rels.items()))))

    def __repr__(self):
        return f"BrModel(n={self.n}, rels={sorted(self.rels)})"

    def with_relations(self, extra: dict[str, Iterable[tuple]],
                       arities: dict[str, int]) -> "BrModel":
        ar = dict(self.arities)
        ar.update(arities)
        rels = {k: v for k, v in self.rels.items()}
        rels.update(extra)
        return BrModel(self.n, ar, rels, self.f)


@dataclass(frozen=True)
class NumericalRelation:
    """A fixed relation on the naturals usable as a built-in; `holds` is
    its only definition, and both engines call it on f-values: the
    top-down engine on the ints of one tuple, the table engine at arity 2
    or more on int64 arrays of them, broadcast, for the bool array of its
    verdicts.  A unary holds is called on ints only."""
    name: str
    arity: int
    holds: Callable[..., bool]


def _bit(x: int, y: int) -> bool:
    # bit y of x; numpy shifts of 64 or more give 0, as they must here
    return (x >> y) & 1 == 1


def builtin_registry(set_registry: Optional[dict[str, NumericalSet]] = None
                     ) -> dict[str, NumericalRelation]:
    """The standard built-ins; `set:<id>` names resolve through the given
    set registry (or the set-spec grammar as a fallback)."""
    regs = {
        "le": NumericalRelation("le", 2, lambda x, y: x <= y),
        "lt": NumericalRelation("lt", 2, lambda x, y: x < y),
        "plus": NumericalRelation("plus", 3, lambda x, y, z: x + y == z),
        "times": NumericalRelation("times", 3, lambda x, y, z: x * y == z),
        "bit": NumericalRelation("bit", 2, _bit),
    }
    set_registry = dict(set_registry or {})

    class _Registry(dict):
        def __missing__(self, key):
            if key.startswith("set:"):
                ident = key[4:]
                s = set_registry.get(ident)
                if s is None:
                    s = setsmod.parse_set_spec(ident)
                rel = NumericalRelation(key, 1, s.contains)
                self[key] = rel
                return rel
            raise ValueError(f"unknown built-in {key!r}")

    out = _Registry()
    out.update(regs)
    return out


@functools.lru_cache(maxsize=None)
def default_builtins() -> dict[str, NumericalRelation]:
    return builtin_registry()


def relativize(m: BrModel, universe) -> tuple[BrModel, dict[int, int]]:
    """Substructure on `universe` with the order-collapsed permutation:
    f_U(a) <= f_U(b) iff f(a) <= f(b).  Returns the model and the
    old-element -> new-element mapping."""
    u = sorted(set(universe))
    if not u:
        raise ValueError("cannot relativize to the empty set")
    if any(not (0 <= a < m.n) for a in u):
        raise ValueError("universe not within the domain")
    idx = {a: i for i, a in enumerate(u)}
    by_f = sorted(u, key=lambda a: m.f[a])
    new_f = [0] * len(u)
    for rank, a in enumerate(by_f):
        new_f[idx[a]] = rank
    rels = {}
    for name, tuples in m.rels.items():
        rels[name] = {tuple(idx[x] for x in t) for t in tuples
                      if all(x in idx for x in t)}
    return BrModel(len(u), m.arities, rels, new_f), idx


def word_model(w: str, alphabet=None) -> BrModel:
    """The word as a structure: position i carries the unary letter
    predicate P_<letter>; f is the identity (reading order)."""
    if not w:
        raise ValueError("empty word")
    letters = list(alphabet) if alphabet is not None else sorted(set(w))
    if set(w) - set(letters):
        raise ValueError("word uses letters outside the alphabet")
    arities = {f"P_{a}": 1 for a in letters}
    rels = {f"P_{a}": {(i,) for i, c in enumerate(w) if c == a} for a in letters}
    return BrModel(len(w), arities, rels)


POWERSET_CAP = 5


def powerset_structure(k: int) -> BrModel:
    """k atom points followed by the 2^k-1 nonempty subsets in lexicographic
    order (atom 0 most significant); E relates each atom to the subsets
    containing it."""
    if not 1 <= k <= POWERSET_CAP:
        raise ValueError(f"k must be in 1..{POWERSET_CAP}")
    subsets = sorted((tuple(1 if i in s else 0 for i in range(k))
                      for r in range(1, k + 1)
                      for s in map(frozenset, itertools.combinations(range(k), r))),
                     )
    edges = set()
    for j, bits in enumerate(subsets):
        for i, b in enumerate(bits):
            if b:
                edges.add((i, k + j))
    return BrModel(k + 2 ** k - 1, {"E": 2}, {"E": edges})


# ---------------------------------------------------------------------------
# partial arithmetic


class PartialArithModel:
    """Domain size n with full restricted addition (derived) and a partial
    multiplication, stored as the n x n bool matrix `known`: known[a, b]
    says that a*b is known, so a*b < n.  Give the triples (a, b, a*b) or
    the matrix."""

    def __init__(self, n: int, mult: Iterable[tuple] = (), known=None):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        if known is None:
            m = frozenset(tuple(t) for t in mult)
            bad = [t for t in m
                   if len(t) != 3 or any(not 0 <= x < n for x in t) or t[0] * t[1] != t[2]]
            if bad:
                raise ValueError(f"seed tuples violate a*b=c<n: {sorted(bad)[:10]}")
            known = np.zeros((n, n), dtype=bool)
            known[[a for a, _, _ in m], [b for _, b, _ in m]] = True
        elif known.shape != (n, n) or not _products_fit(known):
            raise ValueError("known products need a*b < n")
        self.known = known

    @property
    def mult(self) -> frozenset:
        """The triples (a, b, a*b), built from `known` on each access."""
        a, b = np.nonzero(self.known)
        return frozenset(zip(a.tolist(), b.tolist(), (a * b).tolist()))

    def __eq__(self, other):
        return (isinstance(other, PartialArithModel) and self.n == other.n
                and np.array_equal(self.known, other.known))

    def __repr__(self):
        return f"PartialArithModel(n={self.n}, |M|={np.count_nonzero(self.known)})"

    def addition_triples(self):
        for a in range(self.n):
            for b in range(self.n - a):
                yield (a, b, a + b)

    def gamma(self, k: int) -> int:
        """Biggest r with r=0 or a*b known for every a<=k, b<=r.  Zero
        products count: the b=0 column (and a=0 row) must be known for
        r >= 1."""
        if k >= self.n:
            return 0
        full = self.known[:k + 1].all(axis=0)
        first = int(full.argmin())   # the first column not known up to k
        return self.n - 1 if full[first] else max(first - 1, 0)

    def is_full(self) -> bool:
        # known holds only products below n, so counting them suffices
        n = self.n
        return np.count_nonzero(self.known) == n + sum((n - 1) // a + 1 for a in range(1, n))

    def as_br_model(self) -> BrModel:
        return BrModel(self.n, {"A": 3, "M": 3},
                       {"A": set(self.addition_triples()), "M": self.mult})


def _products_fit(known: np.ndarray) -> bool:
    """Every known (a, b) has a*b < n: test the last known b of each row."""
    n = len(known)
    last = n - 1 - known[:, ::-1].argmax(axis=1)
    return not (known.any(axis=1) & (np.arange(n) * last >= n)).any()


def full_multiplication(n: int) -> set[tuple]:
    return {(a, b, a * b) for a in range(n) for b in range(n) if a * b < n}


def zero_rows(n: int) -> set[tuple]:
    return {(a, 0, 0) for a in range(n)} | {(0, b, 0) for b in range(n)}


# ---------------------------------------------------------------------------
# model file format


def parse_model(text: str) -> BrModel:
    """Line format: `model` / `n <int>` / optional `f <images>` /
    `rel <name> <arity> : (t) (t) ...` / `end`.  Unary tuples may omit
    parentheses.  An error in a line names the line."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != "model" or lines[-1] != "end":
        raise ValueError("model file must be bracketed by 'model' and 'end'")
    n = None
    f = None
    arities: dict[str, int] = {}
    rels: dict[str, set] = {}
    seen = set()   # `n`, `f` and `rel <name>` each at most once
    for ln in lines[1:-1]:
        parts = ln.split()
        try:
            if parts[0] not in ("n", "f", "rel"):
                raise ValueError("unknown kind of line")
            # `n` takes a size, `rel` a name and an arity
            if len(parts) < {"n": 2, "rel": 3}.get(parts[0], 1):
                raise ValueError("too few fields")
            key = " ".join(parts[:2]) if parts[0] == "rel" else parts[0]
            if key in seen:
                raise ValueError(f"repeats {key!r}")
            seen.add(key)
            if parts[0] == "n":
                n = int(parts[1])
            elif parts[0] == "f":
                f = [int(x) for x in parts[1:]]
            else:
                name, ar = parts[1], int(parts[2])
                if ":" not in ln:
                    raise ValueError("missing ':'")
                body = ln.split(":", 1)[1]
                if ar == 1 and "(" not in body:
                    tuples = {(int(tok),) for tok in body.split()}
                else:
                    # text outside the groups, then each group's contents
                    pieces = re.split(r"\(([^()]*)\)", body)
                    stray = " ".join(pieces[::2]).split()
                    if stray:
                        raise ValueError(f"stray {stray[0]!r} in tuple list")
                    tuples = {tuple(int(tok) for tok in
                                    group.replace(",", " ").split())
                              for group in pieces[1::2]}
                arities[name] = ar
                rels[name] = tuples
        except ValueError as exc:
            raise ValueError(f"model line {ln!r}: {exc}") from None
    if n is None:
        raise ValueError("model file missing size line 'n <int>'")
    return BrModel(n, arities, rels, f)


def format_model(m: BrModel) -> str:
    out = ["model", f"n {m.n}"]
    if m.f != tuple(range(m.n)):
        out.append("f " + " ".join(map(str, m.f)))
    for name in sorted(m.rels):
        tuples = " ".join("(" + " ".join(map(str, t)) + ")"
                          for t in sorted(m.rels[name]))
        out.append(f"rel {name} {m.arities[name]} : {tuples}".rstrip())
    out.append("end")
    return "\n".join(out) + "\n"

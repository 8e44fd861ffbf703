"""Generalized quantifiers over br-structures: the concrete cardinality
family, language quantifiers, sentence-defined quantifiers, and the
regularize / lift-over-order / powerset constructions."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional, Sequence

from . import model as modelmod
from .model import BrModel, NumericalRelation
from .sets import NumericalSet, factorials, powers_of_two, squares


@dataclass
class Quantifier:
    """A named quantifier: slot arities plus a decision procedure on
    (domain size, per-slot relations, permutation f).  The declared flags
    are promises checked by tests, not trusted by the code."""
    name: str
    slot_arities: tuple
    decide: Callable
    universe_independent: bool = False
    order_invariant: bool = False
    # For unary-slot quantifiers whose verdict depends only on the slot
    # cardinalities: a faster decide taking (n, sizes).
    sizes_decide: Optional[Callable] = None

    def __post_init__(self):
        if self.sizes_decide is not None and any(a != 1 for a in self.slot_arities):
            raise ValueError("sizes_decide requires all-unary slots")


def _counting(name: str, arities: tuple, sizes_decide: Callable,
              **flags) -> Quantifier:
    """A quantifier whose verdict depends only on its unary slots' sizes:
    `decide` applies `sizes_decide` to them."""
    return Quantifier(
        name, arities, lambda n, rels, f: sizes_decide(n, tuple(map(len, rels))),
        sizes_decide=sizes_decide, **flags)


def cardinality(s: NumericalSet, name: Optional[str] = None) -> Quantifier:
    return _counting(name or f"C_{s.spec}", (1,),
                     lambda n, sizes: sizes[0] in s,
                     universe_independent=True, order_invariant=True)


def hartig() -> Quantifier:
    return _counting("I", (1, 1), lambda n, sizes: sizes[0] == sizes[1],
                     universe_independent=True, order_invariant=True)


def _divides(a: int, b: int) -> bool:
    # 0 divides only 0
    return b == 0 if a == 0 else b % a == 0


def divisibility() -> Quantifier:
    return _counting("D", (1, 1), lambda n, sizes: _divides(*sizes),
                     universe_independent=True, order_invariant=True)


def divisibility_by(m: int) -> Quantifier:
    if m < 1:
        raise ValueError("modulus must be positive")
    return _counting(f"D_{m}", (1,), lambda n, sizes: sizes[0] % m == 0,
                     universe_independent=True, order_invariant=True)


def majority() -> Quantifier:
    return _counting("Maj", (1,), lambda n, sizes: 2 * sizes[0] > n,
                     order_invariant=True)


def majority_pairs() -> Quantifier:
    return Quantifier("Maj2", (2,),
                      lambda n, rels, f: 2 * len(rels[0]) > n * n,
                      order_invariant=True)


def exists_nonempty() -> Quantifier:
    return _counting("Some", (1,), lambda n, sizes: sizes[0] > 0,
                     universe_independent=True, order_invariant=True)


# ---------------------------------------------------------------------------
# languages and language quantifiers


@dataclass(frozen=True)
class Language:
    name: str
    alphabet: tuple
    member: Callable[[str], bool]

    def __contains__(self, w: str) -> bool:
        if any(c not in self.alphabet for c in w):
            return False
        return bool(self.member(w))


def lang_anbn() -> Language:
    def member(w):
        k = len(w) // 2
        return len(w) % 2 == 0 and w == "a" * k + "b" * k
    return Language("anbn", ("a", "b"), member)


def lang_ambmck() -> Language:
    def member(w):
        na = len(w) - len(w.lstrip("a"))
        rest = w[na:]
        nb = len(rest) - len(rest.lstrip("b"))
        tail = rest[nb:]
        return na == nb and set(tail) <= {"c"}
    return Language("ambmck", ("a", "b", "c"), member)


def lang_parity(letter: str = "a") -> Language:
    return Language(f"parity-{letter}", ("a", "b"),
                    lambda w: w.count(letter) % 2 == 0)


def neutral_letter_extension(lang: Language, e: str) -> Language:
    """The language over the extended alphabet whose membership ignores
    every occurrence of the fresh letter e."""
    if e in lang.alphabet:
        raise ValueError(f"{e!r} already belongs to the alphabet")
    return Language(f"neutral:{e}:{lang.name}", lang.alphabet + (e,),
                    lambda w: lang.member(w.replace(e, "")))


def is_neutral_letter(lang: Language, e: str, max_len: int) -> bool:
    """Exhaustive check of uv in L <-> uev in L for |uv| < max_len."""
    sigma = lang.alphabet
    words = [""]
    all_words = [""]
    for _ in range(max_len - 1):
        words = [w + c for w in words for c in sigma]
        all_words.extend(words)
    for w in all_words:
        for cut in range(len(w) + 1):
            u, v = w[:cut], w[cut:]
            if (lang.member(u + v)) != (lang.member(u + e + v)):
                return False
    return True


def parse_lang_spec(text: str) -> Language:
    text = text.strip()
    if text == "anbn":
        return lang_anbn()
    if text == "ambmck":
        return lang_ambmck()
    if text.startswith("parity-") and len(text) == 8:
        return lang_parity(text[-1])
    if text.startswith("neutral:"):
        _, e, rest = text.split(":", 2)
        return neutral_letter_extension(parse_lang_spec(rest), e)
    raise ValueError(f"unknown language spec {text!r}")


def language_quantifier(lang: Language) -> Quantifier:
    """One unary slot per letter; true iff the slots partition the domain
    and the word read off in f-order belongs to the language."""
    letters = lang.alphabet

    def decide(n, rels, f):
        w = modelmod.slot_word(n, rels, letters, f)
        return w is not None and lang.member(w)

    return Quantifier(f"Q_{lang.name}", tuple(1 for _ in letters), decide)


# ---------------------------------------------------------------------------
# quantifiers from sentences


def quantifier_from_sentence(name: str, vocab: Sequence[tuple], sentence,
                             builtins=None) -> Quantifier:
    """`vocab` is an ordered list of (relation name, arity); the decision
    procedure evaluates the sentence top-down on the assembled
    br-structure."""
    from . import evaluator  # deferred: evaluator is a higher layer

    vocab = list(vocab)
    builtins = builtins if builtins is not None else modelmod.default_builtins()

    def decide(n, rels, f):
        m = BrModel(n, {nm: ar for nm, ar in vocab},
                    {nm: rel for (nm, _), rel in zip(vocab, rels)}, f)
        return evaluator.evaluate(m, sentence, {}, builtins=builtins)

    return Quantifier(name, tuple(ar for _, ar in vocab), decide)


# ---------------------------------------------------------------------------
# constructions


def regularize(q: Quantifier) -> Quantifier:
    """Add a unary relativization slot P: relativize the slot structure to
    P's extension, then decide with q.  An empty P decides false (domains
    are nonempty by convention)."""
    arities = q.slot_arities + (1,)

    def decide(n, rels, f):
        p = sorted(a for (a,) in rels[-1])
        if not p:
            return False
        names = [f"S{i}" for i in range(len(q.slot_arities))]
        scratch = BrModel(n, {nm: ar for nm, ar in zip(names, q.slot_arities)},
                          {nm: rel for nm, rel in zip(names, rels)}, f)
        sub, _ = modelmod.relativize(scratch, p)
        return q.decide(sub.n, [sub.rels[nm] for nm in names], sub.f)

    return Quantifier(f"{q.name}^reg", arities, decide,
                      universe_independent=True,
                      order_invariant=q.order_invariant)


def _order_permutation(n: int, order) -> Optional[tuple]:
    """If `order` is the reflexive closure of a strict total order on the
    whole domain, the permutation mapping each element to its rank;
    otherwise None."""
    if len(order) != n * (n + 1) // 2:
        return None
    ranks = [0] * n
    diag = 0
    for a, b in order:
        if not (0 <= a < n and 0 <= b < n):
            return None
        if a == b:
            diag += 1
        else:
            ranks[b] += 1
    if diag != n or sorted(ranks) != list(range(n)):
        return None
    for a, b in order:
        if ranks[a] > ranks[b]:
            return None
    return tuple(ranks)


def lift_over_order(q: Quantifier) -> Quantifier:
    """The ordered lift: one extra binary slot carrying an explicit order.
    If that slot is a linear (reflexive total) order of the domain, decide
    with the permutation recovered from it, ignoring the ambient one."""
    arities = q.slot_arities + (2,)

    def decide(n, rels, f):
        recovered = _order_permutation(n, rels[-1])
        if recovered is None:
            return False
        return q.decide(n, rels[:-1], recovered)

    return Quantifier(f"{q.name}^le", arities, decide)


def b_set_quantifier(rel: NumericalRelation) -> Quantifier:
    """k unary slots; true iff the slot sizes, each shifted down by one,
    form a tuple in the relation.  Any empty slot decides false."""
    k = rel.arity

    def sizes_decide(n, sizes):
        if any(s == 0 for s in sizes):
            return False
        return bool(rel.holds(*(s - 1 for s in sizes)))

    return _counting(f"B_{rel.name}", (1,) * k, sizes_decide,
                     universe_independent=True, order_invariant=True)


def powerset_quantifier() -> Quantifier:
    """One binary slot E; true iff E is the membership relation between a
    nonempty set D of square size and all nonempty subsets of D, checked
    structurally: D and R = range(E) disjoint, the neighborhood map on R
    injective, and |R| = 2^|D| - 1."""

    def decide(n, rels, f):
        e = rels[0]
        dom = {a for a, _ in e}
        rng = {b for _, b in e}
        if not dom or dom & rng:
            return False
        if len(rng) != 2 ** len(dom) - 1:
            return False
        neighborhoods = {}
        for a, b in e:
            neighborhoods.setdefault(b, set()).add(a)
        distinct = {frozenset(s) for s in neighborhoods.values()}
        if len(distinct) != len(rng):
            return False
        d = len(dom)
        return isqrt(d) ** 2 == d

    return Quantifier("PowSq", (2,), decide,
                      universe_independent=True, order_invariant=True)


# ---------------------------------------------------------------------------
# registry


def builtin_quantifiers() -> dict:
    """The default registry, with cardinality quantifiers for a few stock
    sets."""
    return {q.name: q for q in [
        hartig(), divisibility(), divisibility_by(2), divisibility_by(3),
        divisibility_by(5), majority(), majority_pairs(), exists_nonempty(),
        powerset_quantifier(), cardinality(squares(), "C_Sq"),
        cardinality(powers_of_two(), "C_E"), cardinality(factorials(), "C_F")]}


def registry_shapes(registry: dict) -> dict:
    """Name -> slot arity list, the form the parser wants."""
    return {name: list(q.slot_arities) for name, q in registry.items()}

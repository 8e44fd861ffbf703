"""Generalized quantifiers over br-structures: the concrete cardinality
family, language quantifiers, sentence-defined quantifiers, and the
regularize / lift-over-order / powerset constructions."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isqrt, prod
from typing import Callable, Optional, Sequence

import numpy as np

from .sets import NumericalSet, factorials, powers_of_two, squares


@dataclass
class Quantifier:
    """A named quantifier: slot arities plus a decision procedure on
    (domain size, slots, permutation f) that decides a whole batch of
    structures at once.  The declared flag is a promise checked by tests;
    `relativize_formula` trusts `universe_independent`.

    A slot is a bool array of shape `batch + (n,) * arity`: its slot axes
    always have length n, and its batch axes may have length 1, or be
    missing in front, and broadcast (numpy aligns shapes from the end).
    `f` is an int array of shape `(n,)` or `batch + (n,)`, so that each
    structure may carry its own permutation.  `decide` returns a bool
    array of the broadcast batch shape; one structure has `batch = ()`
    and a 0-d verdict."""
    name: str
    slot_arities: tuple
    decide: Callable
    universe_independent: bool = False
    # For quantifiers whose verdict depends only on the slot sizes: the
    # decision on (n, sizes), a tuple of ints.
    sizes_decide: Optional[Callable] = None


def slot_array(n: int, tuples, arity: int = 1) -> np.ndarray:
    """The slot of shape (n,) * arity whose true cells are `tuples`."""
    out = np.zeros((n,) * arity, dtype=bool)
    rows = np.array(list(tuples), dtype=np.intp)
    rows = rows.reshape(len(rows), arity)
    if len(rows):  # at arity 0 an empty index would set the one cell
        out[tuple(rows.T)] = True
    return out


def _full(arr: np.ndarray, shape: tuple) -> np.ndarray:
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _rows(n: int, arities: tuple, slots, f) -> tuple:
    """The batch shape, and the slots and f broadcast over it, each with
    the batch flattened to one leading axis of rows."""
    f = np.asarray(f)
    batch = np.broadcast_shapes(f.shape[:-1], *(
        np.shape(s)[:np.ndim(s) - a] for s, a in zip(slots, arities)))
    return (batch, [_full(s, batch + (n,) * a).reshape((-1,) + (n,) * a)
                    for s, a in zip(slots, arities)],
            _full(f, batch + (n,)).reshape(-1, n))


def _counting(name: str, arities: tuple, sizes_decide: Callable,
              **flags) -> Quantifier:
    """A quantifier whose verdict depends only on its slots' sizes:
    `decide` sums each slot over its slot axes and applies `sizes_decide`
    once per distinct size tuple: one plain call for one structure.  A
    batch marks its size tuples in a bool table of every size tuple, the
    product of n^arity + 1 over the slots, decides each marked cell there
    and reads the verdicts back at its keys: O(cells + keys), with no
    sort.  A table beyond `TABLE_CAP` cells is refused before it is built."""

    def decide(n, slots, f):
        if np.ndim(f) == 1 and tuple(map(np.ndim, slots)) == arities:
            sizes = tuple(map(np.count_nonzero, slots))
            return np.bool_(sizes_decide(n, sizes))
        # the sizes as one key, slot by slot in base n^arity + 1, over the
        # batch axes of the slots and of f
        dims = tuple(n ** a + 1 for a in arities)
        key = np.zeros(np.shape(f)[:-1], dtype=np.int64)
        for s, a, d in zip(slots, arities, dims):
            key = key * d + np.sum(s, axis=tuple(range(-a, 0)))
        from .evaluator import TABLE_CAP, BudgetExceeded  # a higher layer
        if prod(dims) > TABLE_CAP:
            raise BudgetExceeded(f"{name} at n={n} has {prod(dims)} size "
                                 f"tuples; cap is {TABLE_CAP}")
        table = np.zeros(prod(dims), dtype=bool)
        table[key] = True
        seen = np.flatnonzero(table)
        sizes = zip(*(d.tolist() for d in np.unravel_index(seen, dims)))
        table[seen] = [bool(sizes_decide(n, s)) for s in sizes]
        return table[key]

    return Quantifier(name, arities, decide, sizes_decide=sizes_decide,
                      **flags)


def cardinality(s: NumericalSet, name: Optional[str] = None) -> Quantifier:
    return _counting(name or f"C_{s.spec}", (1,),
                     lambda n, sizes: sizes[0] in s,
                     universe_independent=True)


def hartig() -> Quantifier:
    return _counting("I", (1, 1), lambda n, sizes: sizes[0] == sizes[1],
                     universe_independent=True)


def _divides(a: int, b: int) -> bool:
    # 0 divides only 0
    return b == 0 if a == 0 else b % a == 0


def divisibility() -> Quantifier:
    return _counting("D", (1, 1), lambda n, sizes: _divides(*sizes),
                     universe_independent=True)


def divisibility_by(m: int) -> Quantifier:
    if m < 1:
        raise ValueError("modulus must be positive")
    return _counting(f"D_{m}", (1,), lambda n, sizes: sizes[0] % m == 0,
                     universe_independent=True)


def majority() -> Quantifier:
    return _counting("Maj", (1,), lambda n, sizes: 2 * sizes[0] > n)


def majority_pairs() -> Quantifier:
    return _counting("Maj2", (2,), lambda n, sizes: 2 * sizes[0] > n * n)


def exists_nonempty() -> Quantifier:
    return _counting("Some", (1,), lambda n, sizes: sizes[0] > 0,
                     universe_independent=True)


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
    if letter not in ("a", "b"):
        raise ValueError(f"language spec 'parity-{letter}': the letter must "
                         "be in the alphabet ('a', 'b')")
    return Language(f"parity-{letter}", ("a", "b"),
                    lambda w: w.count(letter) % 2 == 0)


def neutral_letter_extension(lang: Language, e: str) -> Language:
    """The language over the extended alphabet whose membership ignores
    every occurrence of the fresh letter e."""
    if len(e) != 1 or e in lang.alphabet:
        raise ValueError(f"language spec 'neutral:{e}:{lang.name}': the "
                         "neutral letter must be one character outside the "
                         f"alphabet {lang.alphabet}")
    return Language(f"neutral:{e}:{lang.name}", lang.alphabet + (e,),
                    lambda w: lang.member(w.replace(e, "")))


def is_neutral_letter(lang: Language, e: str, max_len: int) -> bool:
    """Exhaustive check of uv in L <-> uev in L for |uv| < max_len."""
    words = ("".join(t) for k in range(max_len)
             for t in product(lang.alphabet, repeat=k))
    return all(lang.member(w) == lang.member(w[:cut] + e + w[cut:])
               for w in words for cut in range(len(w) + 1))


def parse_lang_spec(text: str) -> Language:
    text = text.strip()
    if text == "anbn":
        return lang_anbn()
    if text == "ambmck":
        return lang_ambmck()
    if text.startswith("parity-") and len(text) == 8:
        return lang_parity(text[-1])
    if text.startswith("neutral:"):
        parts = text.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"language spec {text!r}: want "
                             "neutral:<letter>:<spec>")
        return neutral_letter_extension(parse_lang_spec(parts[2]), parts[1])
    raise ValueError(f"unknown language spec {text!r}")


# letters of a word quantifier; its code table has 2^k entries
LETTER_CAP = 16


def language_quantifier(lang: Language) -> Quantifier:
    """One unary slot per letter; true iff the slots partition the domain
    and the word read off in f-order belongs to the language."""
    k = len(lang.alphabet)
    if k > LETTER_CAP:
        raise ValueError(f"language {lang.name} has {k} letters; a word "
                         f"quantifier takes at most {LETTER_CAP}")
    # an element's slots as the bits of a code, 0 to 2^k - 1: the code of
    # letter i is 2^i, and every other code, a gap or an overlap, reads as
    # a character outside the alphabet (not NUL, which ends a numpy string)
    bad = chr(max(map(ord, lang.alphabet)) + 1)
    char = np.full(1 << k, bad)
    char[1 << np.arange(k)] = lang.alphabet
    # one structure's letters by its slot bits, as Python bools
    letter = {tuple(j == i for j in range(k)): c
              for i, c in enumerate(lang.alphabet)}

    def decide(n, slots, f):
        f = np.asarray(f)
        if f.ndim == 1 and all(s.ndim == 1 for s in slots):
            # one structure: the word spelled in Python, one member call
            word = [bad] * n
            for x, bits in zip(f.tolist(),
                               zip(*[s.tolist() for s in slots])):
                word[x] = letter.get(bits, bad)
            w = "".join(word)
            return np.bool_(bad not in w and lang.member(w))
        # each element's key: its f-value, then its code in the low k bits;
        # f is a permutation, so the sorted keys hold the codes in f-order
        key = f << k
        for i, s in enumerate(slots):
            key = key | s << i
        code = np.sort(key) & (1 << k) - 1
        # one string a structure
        spelled = np.ascontiguousarray(char[code]).view(f"<U{n}")[..., 0]
        words = spelled.ravel().tolist()
        member = {w: bad not in w and bool(lang.member(w)) for w in set(words)}
        return np.array([member[w] for w in words],
                        dtype=bool).reshape(spelled.shape)

    return Quantifier(f"Q_{lang.name}", (1,) * k, decide)


# ---------------------------------------------------------------------------
# quantifiers from sentences


def quantifier_from_sentence(name: str, vocab: Sequence[tuple], sentence,
                             builtins=None) -> Quantifier:
    """`vocab` is an ordered list of (relation name, arity), one a slot;
    one table evaluation of the sentence decides the whole batch."""
    from . import evaluator  # deferred: evaluator is a higher layer

    if sentence.free:
        raise ValueError(f"{name}: not a sentence, {sentence.free} free")
    vocab = dict(vocab)

    def decide(n, slots, f):
        batch = evaluator.Batch(n, vocab, dict(zip(vocab, slots)), f)
        return evaluator.TruthTables(batch, builtins).table(sentence)[1]

    return Quantifier(name, tuple(vocab.values()), decide)


# ---------------------------------------------------------------------------
# constructions


def regularize(q: Quantifier) -> Quantifier:
    """Add a unary relativization slot P: cut each slot to P's extension
    and collapse f to ranks within P, then decide with q, once for all
    the structures whose P has the same size.  An empty P decides false
    (domains are nonempty by convention)."""
    arities = q.slot_arities + (1,)

    def decide(n, slots, f):
        batch, (*slots, p), f = _rows(n, arities, slots, f)
        sizes = p.sum(axis=-1)
        out = np.zeros(len(p), dtype=bool)
        for m in set(sizes.tolist()) - {0}:
            # the rows whose P has m elements, and those elements in order
            at = np.flatnonzero(sizes == m)
            elems = np.nonzero(p[at])[1].reshape(-1, m)

            def cut(s, a):
                return s[(at.reshape((-1,) + (1,) * a),) + tuple(
                    elems.reshape((-1,) + (1,) * j + (m,) + (1,) * (a - 1 - j))
                    for j in range(a))]

            ranks = np.argsort(np.argsort(f[at[:, None], elems]))
            out[at] = q.decide(m, [cut(s, a) for s, a
                                   in zip(slots, q.slot_arities)], ranks)
        return out.reshape(batch)

    return Quantifier(f"{q.name}^reg", arities, decide,
                      universe_independent=True)


def lift_over_order(q: Quantifier) -> Quantifier:
    """The ordered lift: one extra binary slot carrying an explicit order.
    Where that slot is a linear (reflexive total) order of the domain,
    decide with the permutation recovered from it, each element's rank
    its in-degree, ignoring the ambient f; elsewhere decide false."""
    arities = q.slot_arities + (2,)

    def decide(n, slots, f):
        order = slots[-1]
        ranks = np.sum(order, axis=-2) - 1  # in-degree, less the loop
        linear = (np.diagonal(order, axis1=-2, axis2=-1).all(axis=-1)
                  & (np.sum(order, axis=(-2, -1)) == n * (n + 1) // 2)
                  # the ranks are a permutation ...
                  & (ranks[..., None] == np.arange(n)).any(axis=-2).all(axis=-1)
                  # ... and every pair of the order agrees with them
                  & ~(order & (ranks[..., :, None] > ranks[..., None, :]))
                  .any(axis=(-2, -1)))
        # elsewhere the ambient f, which keeps f's batch axes
        ranks = np.where(linear[..., None], ranks, f)
        return linear & q.decide(n, slots[:-1], ranks)

    return Quantifier(f"{q.name}^le", arities, decide)


def powerset_quantifier() -> Quantifier:
    """One binary slot E; true iff E is the membership relation between a
    nonempty set D of square size and all nonempty subsets of D, checked
    structurally: D and R = range(E) disjoint, the neighborhood map on R
    injective, and |R| = 2^|D| - 1."""

    def decide(n, slots, f):
        batch, (es,), _ = _rows(n, (2,), slots, f)
        out = np.zeros(len(es), dtype=bool)
        for i, e in enumerate(es):
            dom, rng = e.any(axis=1), e.any(axis=0)
            d, r = int(dom.sum()), int(rng.sum())
            if d and not (dom & rng).any() and r == 2 ** d - 1:
                neighborhoods = {e[:, b].tobytes() for b in np.flatnonzero(rng)}
                out[i] = len(neighborhoods) == r and isqrt(d) ** 2 == d
        return out.reshape(batch)

    return Quantifier("PowSq", (2,), decide, universe_independent=True)


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

"""Independent references for the benchmark's verdicts.

They run after the timed phase.  Most are closed forms computed from the
job's input without fmlab; the rest are the checks the workbench itself
keeps as oracles (`mu_relation_oracle`, `recheck_report`,
`is_periodic_on`).  The looseness sweeps below are written from the
definitions, with their own set generators, so they share no code with
`fmlab.sets`.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

from fmlab import arithx, sets

from jobs import REL_DEFS, REL_TEMPLATES, Job


def equicardinal(m) -> bool:
    return len(m.rels["U"]) == len(m.rels["V"])


_DEFS = {  # the bodies of REL_DEFS as predicates on (in U, in V)
    "U(p) & !V(p)": lambda u, v: u and not v,
    "U(p) | V(p)": lambda u, v: u or v,
    "U(p) <-> V(p)": lambda u, v: u == v,
    "U(p)": lambda u, v: u,
    "!V(p)": lambda u, v: not v,
}


def _is_square(k: int) -> bool:
    return isqrt(k) ** 2 == k


def _least_3_or_6(w, v, f) -> bool:
    """Qrc, a sentence-defined quantifier regularized by its second slot:
    the first slot cut to the second is the f-least 3 or 6 points of it."""
    inside = w & v
    by_f = sorted(v, key=lambda a: f[a])
    return len(inside) in (3, 6) and inside == set(by_f[:len(inside)])


_TEMPLATES = {  # REL_TEMPLATES as predicates on (W, V, f)
    "I(x: W(x); y: V(y))": lambda w, v, f: len(w) == len(v),
    "D_2(x: W(x))": lambda w, v, f: len(w) % 2 == 0,
    "D_3(x: W(x))": lambda w, v, f: len(w) % 3 == 0,
    "C_Sq(x: W(x) | V(x))": lambda w, v, f: _is_square(len(w | v)),
    "E z. (V(z) & D_2(x: W(x) & x < z))": lambda w, v, f: any(
        sum(1 for a in w if f[a] < f[z]) % 2 == 0 for z in v),
    "Qrc(x: W(x); p: V(p))": _least_3_or_6,
}


def relativized(m, template: int, definition: int) -> bool:
    """The truth of REL_TEMPLATES[template] on the substructure induced by
    P, with W read through REL_DEFS[definition]."""
    g = {a for (a,) in m.rels["P"]}
    us = {a for (a,) in m.rels["U"]}
    vs = {a for (a,) in m.rels["V"]}
    holds = _DEFS[REL_DEFS[definition]]
    w = {a for a in g if holds(a in us, a in vs)}
    return _TEMPLATES[REL_TEMPLATES[template]](w, vs & g, m.f)


def ef_rule(r: int, p: int, q: int) -> bool:
    """Linear orders of p and q points agree on r rounds iff p = q or both
    have at least 2^r - 1 points."""
    return p == q or min(p, q) >= 2 ** r - 1


def mult_pairs(n: int) -> int:
    """|{(a, b) : a * b < n}| for a, b < n."""
    return n + sum((n - 1) // a + 1 for a in range(1, n))


def is_partial_mult(triples, n: int) -> bool:
    """Every triple is a * b = c < n, and the relation is symmetric."""
    got = {tuple(t) for t in triples}
    return (all(0 <= a and 0 <= b and a * b == c < n for a, b, c in got)
            and all((b, a, c) in got for a, b, c in got))


# ---------------------------------------------------------------------------
# looseness from the definitions


def _set_mask(spec: str, bound: int) -> np.ndarray:
    """Characteristic vector of a set spec on [0, bound)."""
    chi = np.zeros(bound, dtype=bool)
    idx = np.arange(bound)
    if spec == "sq" or spec == "compl:sq":
        chi[idx[: isqrt(bound - 1) + 1] ** 2] = True
        return ~chi if spec == "compl:sq" else chi
    if spec.startswith("shift:+"):
        k = int(spec.split(":")[1])
        chi[k:] = _set_mask(spec.split(":", 2)[2], bound - k)
        return chi
    if spec == "poly:0,1,1":
        x = idx[: isqrt(bound) + 1]
        vals = x + x * x
        chi[vals[vals < bound]] = True
        return chi
    if spec.startswith("mult:"):
        chi[:: int(spec[5:])] = True
        return chi
    if spec == "pow2":
        k = 1
        while k < bound:
            chi[k] = True
            k *= 2
        return chi
    if spec == "fact":
        k, i = 1, 1
        while k < bound:
            chi[k] = True
            i += 1
            k *= i
        return chi
    if spec == "primes":
        chi[2:] = True
        for p in range(2, isqrt(bound - 1) + 1):
            if chi[p]:
                chi[p * p:: p] = False
        return chi
    raise ValueError(f"no reference generator for {spec!r}")


def _root_floor(x: int, q: int) -> int:
    """floor(x^(1/q)) by integer bisection."""
    lo, hi = 0, 1
    while hi ** q <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** q <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _t_range(n: int, eps: Fraction) -> tuple:
    """[ceil(n^eps), floor(n^(1-eps))], with t >= 1."""
    p, q = eps.numerator, eps.denominator
    lo = _root_floor(n ** p, q)
    if lo ** q < n ** p:
        lo += 1
    return max(1, lo), _root_floor(n ** (q - p), q)


def first_loose_t(members: np.ndarray, n: int, eps: Fraction):
    """The least t in the t-range with q * t * gamma(t) >= p * n, where
    gamma(t) counts members m < n whose next member is at least t away
    and m + t < n; None if there is none.

    A member counts for t iff t <= min(gap, n - 1 - m); the last member
    below n always has gap >= n - m.  So gamma is a suffix count of a
    histogram of these caps.
    """
    lo, hi = _t_range(n, eps)
    elems = np.nonzero(members[:n])[0]
    if lo > hi or elems.size == 0:
        return None
    caps = n - 1 - elems
    caps[:-1] = np.minimum(np.diff(elems), caps[:-1])
    hist = np.bincount(caps, minlength=n + 1)
    gamma = hist[::-1].cumsum()[::-1]
    p, q = eps.numerator, eps.denominator
    for t in range(lo, hi + 1):
        if q * t * int(gamma[t]) >= p * n:
            return t
    return None


def policy_words(max_len: int = 4) -> list:
    """The pseudolooseness word policy: "1", then per length the all-zero
    word and the words with a single 1."""
    words = ["1"]
    for k in range(1, max_len + 1):
        words.append("0" * k)
        words.extend("0" * i + "1" + "0" * (k - 1 - i) for i in range(k)
                     if k > 1)
    return words


def occurrences(chi: np.ndarray, word: str, n: int) -> np.ndarray:
    hit = np.ones(n, dtype=bool)
    for i, c in enumerate(word):
        hit &= chi[i:i + n] == (c == "1")
    return hit


def first_pseudoloose(chi: np.ndarray, n: int, eps: Fraction):
    """(word, t) of the first policy word whose occurrence set is loose."""
    p, q = eps.numerator, eps.denominator
    for w in policy_words():
        if len(w) ** q > n ** (q - p):
            continue
        t = first_loose_t(occurrences(chi, w, n), n, eps)
        if t is not None:
            return w, t
    return None


def setscan_ok(spec: str, n: int, eps: Fraction, verdict) -> bool:
    (f, omega), loose, pseudo = verdict
    s = sets.parse_set_spec(spec)
    if not sets.is_periodic_on(s, n, f, omega):
        return False
    chi = _set_mask(spec, n + 8)
    t = first_loose_t(chi, n, eps)
    want = ("neither", None) if t is None else ("loose-at-n", t)
    if (loose.verdict, loose.witness_t) != want:
        return False
    hit = first_pseudoloose(chi, n, eps)
    want = (("neither", None, None) if hit is None
            else ("pseudoloose-at-n", hit[0], hit[1]))
    if (pseudo.verdict, pseudo.witness_word, pseudo.witness_t) != want:
        return False
    return all(sets.recheck_report(s, rep) for rep in (loose, pseudo))


# ---------------------------------------------------------------------------


def check(job: Job, verdict) -> bool:
    """Whether the verdict of one job matches its reference."""
    k, d = job.kind, job.data
    if k in ("median", "lift"):
        return verdict == equicardinal(d[0])
    if k == "fastqapp":
        return verdict == equicardinal(d[1])
    if k == "relativize":
        want = relativized(*d)
        return verdict == (want, want)
    if k == "ef":
        return verdict == ef_rule(*d[2:])
    if k == "addition":
        n = d[0].n
        want = frozenset((a, b, a + b) for a in range(n) for b in range(n)
                         if a + b < n)
        return verdict == (len(want), hash(want))
    if k == "order":
        f = d[0].f
        want = frozenset((a, b) for a in range(len(f)) for b in range(len(f))
                         if f[a] <= f[b])
        return verdict == (len(want), hash(want))
    if k == "divmod":
        mod, m = d
        r = len(m.rels["U"]) % mod
        return verdict == (r == 1, r == 1, r == 0, r == 0)
    if k in ("mulext", "pipeline"):
        n = int(d[0][d[0].index("--n") + 1])
        return verdict == (0, mult_pairs(n))
    if k == "round":
        return is_partial_mult(verdict.reshape(-1, 3).tolist(), job.size)
    if k == "round-small":
        return (is_partial_mult(verdict, job.size)
                and verdict == arithx.mu_relation_oracle(d[0]))
    if k == "setscan":
        return setscan_ok(*d, verdict)
    raise ValueError(f"unknown job kind {k!r}")

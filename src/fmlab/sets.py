"""Exact subsets of the naturals: generators, gap statistics, periodicity
measures and the looseness diagnostics built on top of them.

All membership decisions use exact integer arithmetic; rational exponent
bounds like t >= n^(p/q) are decided by comparing t^q with n^p.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator, Optional

import numpy as np

VALUE_HORIZON = 2 ** 62
STEP_HORIZON = 10 ** 7

INFINITY = float("inf")


class HorizonExceeded(Exception):
    """Raised when an element search runs past the configured horizon."""


def floor_nth_root(x: int, q: int) -> int:
    """Largest m with m**q <= x, exact."""
    if x < 0 or q < 1:
        raise ValueError("need x >= 0, q >= 1")
    if x in (0, 1) or q == 1:
        return x
    # integer Newton steps from 2^ceil(bits/q) > root fall to the floor root
    m = 1 << -(-x.bit_length() // q)
    while True:
        nxt = ((q - 1) * m + x // m ** (q - 1)) // q
        if nxt >= m:
            return m
        m = nxt


def floor_power(x: int, p: int, q: int) -> int:
    """floor(x^(p/q)) = largest m with m**q <= x**p."""
    return floor_nth_root(x ** p, q)


def ceil_power(x: int, p: int, q: int) -> int:
    """ceil(x^(p/q)) = least t with t**q >= x**p."""
    f = floor_power(x, p, q)
    return f if f ** q == x ** p else f + 1


def _prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class NumericalSet:
    """A subset of the naturals given by a generator descriptor.

    `contains` is an exact decision procedure; `iter_elements` yields the
    elements in increasing order (possibly forever).  `elements_below` and
    `next_above` share one enumeration: the set keeps the increasing prefix
    pulled so far and the live generator behind it, so no element is
    generated twice.
    """
    # the naturals not in this set, when known without a scan; set by
    # complement() and carried through shifted()
    complement_of: Optional["NumericalSet"] = None

    def __init__(self, spec: str, contains: Callable[[int], bool],
                 iterate: Callable[[], Iterator[int]], finite: bool = False):
        self.spec = spec
        self._contains = contains
        self._iterate = iterate
        self.finite = finite
        self._prefix: list[int] = []
        self._rest: Optional[Iterator[int]] = iterate()  # None once exhausted
        self._stuck: Optional[HorizonExceeded] = None  # how the generator died

    def __repr__(self) -> str:
        return f"NumericalSet({self.spec!r})"

    def contains(self, k: int) -> bool:
        if k < 0:
            return False
        return self._contains(k)

    __contains__ = contains

    def iter_elements(self) -> Iterator[int]:
        return self._iterate()

    def _cover(self, v: int) -> list[int]:
        """The enumerated prefix, pulled until it holds an element > v or the
        generator ends.  At most STEP_HORIZON + 1 elements are ever pulled."""
        prefix = self._prefix
        while self._rest is not None and (not prefix or prefix[-1] <= v):
            if self._stuck is not None:
                raise self._stuck
            if len(prefix) > STEP_HORIZON:
                raise HorizonExceeded(
                    f"more than {STEP_HORIZON} elements of {self.spec} up to {v}")
            try:
                prefix.append(next(self._rest))
            except StopIteration:
                self._rest = None
            except HorizonExceeded as exc:
                self._stuck = exc  # a generator that raised has ended
                raise
        return prefix

    def elements_below(self, bound: int) -> list[int]:
        prefix = self._cover(bound - 1)
        return prefix[:bisect_left(prefix, bound)]

    def char_word(self, bound: int) -> list[int]:
        """Characteristic 0/1 word of the set on [0, bound)."""
        word = [0] * bound
        for m in self.elements_below(bound):
            word[m] = 1
        return word

    def next_above(self, m: int):
        """Least element > m, or None when the set is finite and exhausted."""
        prefix = self._cover(m)
        i = bisect_right(prefix, m)
        if i < len(prefix):
            if prefix[i] > VALUE_HORIZON:
                raise HorizonExceeded(f"next element above {m} exceeds value horizon")
            return prefix[i]
        if self.finite:
            return None
        raise HorizonExceeded(f"generator {self.spec} exhausted unexpectedly")


def _scan_iterator(contains: Callable[[int], bool]) -> Callable[[], Iterator[int]]:
    """Members in increasing order by testing every natural; a run of more
    than STEP_HORIZON non-members raises HorizonExceeded (an empty set would
    otherwise be scanned forever)."""
    def it() -> Iterator[int]:
        last = -1
        for k in itertools.count():
            if contains(k):
                last = k
                yield k
            elif k - last > STEP_HORIZON:
                raise HorizonExceeded(
                    f"no member in {STEP_HORIZON} consecutive naturals after {last}")
    return it


def multiples(m: int) -> NumericalSet:
    if m < 1:
        raise ValueError("mult:m needs m >= 1")
    return NumericalSet(f"mult:{m}", lambda k: k % m == 0,
                        lambda: (m * i for i in itertools.count()))


def naturals() -> NumericalSet:
    return multiples(1)


def squares() -> NumericalSet:
    return NumericalSet("sq", lambda k: isqrt(k) ** 2 == k,
                        lambda: (i * i for i in itertools.count()))


def _range_of(spec: str, value: Callable[[int], int]) -> NumericalSet:
    """{value(x) : x in N} for a nondecreasing, unbounded value function."""
    def contains(k: int) -> bool:
        # binary search an x with value(x) == k
        lo, hi = 0, 1
        while value(hi) < k:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if value(mid) < k:
                lo = mid + 1
            else:
                hi = mid
        return value(lo) == k

    def iterate() -> Iterator[int]:
        prev = None
        for x in itertools.count():
            v = value(x)
            if v != prev:
                yield v
            prev = v

    return NumericalSet(spec, contains, iterate)


def poly_range(coeffs: list[int]) -> NumericalSet:
    """{p(x) : x in N} for p with nonnegative integer coefficients,
    lowest degree first."""
    if not coeffs or any(c < 0 for c in coeffs):
        raise ValueError("poly needs nonnegative coefficients, at least one")
    cs = list(coeffs)
    spec = "poly:" + ",".join(map(str, cs))
    if not any(cs[1:]):  # a constant: the one-element set {c0}
        return NumericalSet(spec, lambda k: k == cs[0], lambda: iter(cs[:1]),
                            finite=True)

    def p(x: int) -> int:
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return _range_of(spec, p)


def floor_power_range(p: int, q: int) -> NumericalSet:
    """{floor(x^(p/q)) : x in N} for a rational exponent p/q > 1."""
    if q < 1 or Fraction(p, q) <= 1:
        raise ValueError("floorpow needs exponent p/q > 1")
    return _range_of(f"floorpow:{p}/{q}", lambda x: floor_power(x, p, q))


def powers_of_two() -> NumericalSet:
    return NumericalSet("pow2", lambda k: k > 0 and k & (k - 1) == 0,
                        lambda: (2 ** i for i in itertools.count()))


def factorials() -> NumericalSet:
    def contains(k: int) -> bool:
        if k < 1:
            return False
        f, i = 1, 1
        while f < k:
            i += 1
            f *= i
        return f == k

    def iterate() -> Iterator[int]:
        f, i = 1, 1
        yield 1
        while True:
            i += 1
            f *= i
            yield f

    return NumericalSet("fact", contains, iterate)


def primes() -> NumericalSet:
    return NumericalSet("primes", _prime, _scan_iterator(_prime))


def explicit(values) -> NumericalSet:
    vals = sorted(set(values))
    if any(v < 0 for v in vals):
        raise ValueError("explicit sets live in the naturals")
    members = frozenset(vals)
    return NumericalSet("list:" + ",".join(map(str, vals)),
                        lambda k: k in members, lambda: iter(vals), finite=True)


def shifted(c: int, inner: NumericalSet) -> NumericalSet:
    if c < 0:
        raise ValueError("shift amount must be nonnegative")
    out = NumericalSet(f"shift:+{c}:{inner.spec}",
                       lambda k: k >= c and inner.contains(k - c),
                       lambda: (x + c for x in inner.iter_elements()),
                       finite=inner.finite)
    rest = inner.complement_of
    if rest is not None:
        # the naturals below c, then inner's complement shifted by c
        out.complement_of = NumericalSet(
            f"compl:{out.spec}", lambda k: k < c or rest.contains(k - c),
            lambda: itertools.chain(range(c),
                                    (x + c for x in rest.iter_elements())),
            finite=rest.finite)
    return out


def complement(inner: NumericalSet) -> NumericalSet:
    """The naturals not in inner.  When inner knows its complement as a set
    (inner is itself a complement, or a shift of a set that knows its
    complement), that set is enumerated, finite or not, with no scan."""
    known = inner.complement_of
    if known is not None:
        out = NumericalSet(f"compl:{inner.spec}", known.contains,
                           known.iter_elements, known.finite)
    else:
        contains = lambda k: not inner.contains(k)
        out = NumericalSet(f"compl:{inner.spec}", contains,
                           _scan_iterator(contains))
    out.complement_of = inner
    return out


SPEC_DEPTH = 100


def parse_set_spec(text: str) -> NumericalSet:
    """Parse a set-spec string: mult:m, sq, poly:c0,c1,..., floorpow:p/q,
    pow2, fact, primes, list:a,b,c, shift:+c:<spec>, compl:<spec>.  At
    most SPEC_DEPTH shift:/compl: wrappers may nest."""
    if text.count("compl:") + text.count("shift:+") > SPEC_DEPTH:
        raise ValueError(f"set spec nested deeper than {SPEC_DEPTH}")
    text = text.strip()
    if text == "sq":
        return squares()
    if text == "pow2":
        return powers_of_two()
    if text == "fact":
        return factorials()
    if text == "primes":
        return primes()
    if text == "nat":
        return naturals()
    if text.startswith("compl:"):
        return complement(parse_set_spec(text[6:]))
    # a malformed field names the spec; the spec inside shift: names itself
    try:
        if text.startswith("mult:"):
            return multiples(int(text[5:]))
        if text.startswith("poly:"):
            return poly_range([int(c) for c in text[5:].split(",")])
        if text.startswith("floorpow:"):
            p, q = text[9:].split("/")
            return floor_power_range(int(p), int(q))
        if text.startswith("list:"):
            body = text[5:]
            return explicit([int(v) for v in body.split(",")] if body else [])
        if text.startswith("shift:+"):
            amount, rest = text[7:].split(":", 1)
            amount = int(amount)
    except ValueError as exc:
        raise ValueError(f"bad set spec {text!r}: {exc}") from None
    if text.startswith("shift:+"):
        return shifted(amount, parse_set_spec(rest))
    raise ValueError(f"unknown set spec {text!r}")


# ---------------------------------------------------------------------------
# gap statistics


def delta(s: NumericalSet, m: int):
    """Gap from m to the next element of s above it; INFINITY when the set is
    finite and m is its maximum."""
    if not s.contains(m):
        raise ValueError(f"{m} is not in {s.spec}")
    nxt = s.next_above(m)
    return INFINITY if nxt is None else nxt - m


def _elements_and_gaps(s: NumericalSet, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Elements of s below n together with each element's gap to its
    successor, capped at n (only comparisons with t < n are ever made), as
    int64 arrays."""
    elems = np.array(s.elements_below(n), dtype=np.int64)
    if not elems.size:
        return elems, elems
    last = int(elems[-1])
    try:
        nxt = s.next_above(last)
    except HorizonExceeded:
        nxt = None
    tail = n if nxt is None else min(nxt - last, n)
    return elems, np.minimum(np.append(np.diff(elems), tail), n)


def _chi(s: NumericalSet, bound: int) -> np.ndarray:
    """Characteristic vector of s on [0, bound) as a bool array."""
    chi = np.zeros(bound, dtype=bool)
    chi[s.elements_below(bound)] = True
    return chi


def gamma_s(s: NumericalSet, n: int, t: int) -> int:
    """|{m in s : gap to next element >= t and m + t < n}|."""
    if n < 1 or t < 1:
        raise ValueError("need n, t >= 1")
    elems, gaps = _elements_and_gaps(s, n)
    return int(np.count_nonzero((gaps >= t) & (elems + t < n)))


def f_omega(s: NumericalSet, n: int) -> tuple[int, int]:
    """Least l such that for some omega with 0 < omega <= l the set is
    periodic with period omega on {i : l-omega <= i <= n-(l-omega)}, together
    with the least such omega at that l.

    For period omega, the constraint pairs are (i, i+omega) with both ends in
    [0, n]; a violation at i is harmless once a = l - omega exceeds
    min(i, n - omega - i).  So the least workable l for a given omega is
    omega + A(omega) with A(omega) = max over violations of that minimum + 1
    (0 without violations), and f is the minimum of this over omega.

    chi[i] != chi[i+omega] is unchanged by complementing chi, so the scan
    works on T, the sparser of s and its complement within [0, n].  Every
    violation has one end t in T and the other, t + omega or t - omega,
    outside it.  For each sign the pairs' value min(i, n - omega - i) falls
    as t moves away from the t whose pair is centred on (n - omega)/2, so
    A(omega) comes from four walks over the sorted T, outward from that t
    in both directions; each stops at its first violation, or as soon as
    its value can no longer beat the largest found for this omega (a
    negative value means the pair leaves [0, n]).  No walk starts once
    omega + A(omega) is known to reach the best l so far, and only
    omega < f can improve f, so the scan stops there.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    member = _chi(s, n + 1)
    if 2 * np.count_nonzero(member) > n + 1:
        member = ~member
    tset = np.flatnonzero(member).tolist()
    in_t = member.tobytes()
    best, best_omega = n + 2, None  # omega = 1 always gives less than n + 2
    for omega in range(1, n + 2):
        if omega >= best:
            break
        a = 0
        for step in (omega, -omega):
            centre = n - step  # twice the t of the centred pair (t, t + step)
            mid = bisect_left(tset, (centre + 1) // 2)
            for walk in (range(mid, len(tset)), range(mid - 1, -1, -1)):
                if omega + a >= best:
                    break  # A(omega) >= a already rules this omega out
                for j in walk:
                    t = tset[j]
                    value = (n - omega - abs(2 * t - centre)) // 2
                    if value < a:
                        break
                    if not in_t[t + step]:
                        a = value + 1
                        break
        if omega + a < best:
            best, best_omega = omega + a, omega
    return best, best_omega


def is_periodic_on(s: NumericalSet, n: int, l: int, omega: int) -> bool:
    """Direct re-check: is s periodic with period omega on the interval
    {i : l-omega <= i <= n-(l-omega)}?  (Used as an oracle for f_omega.)"""
    if not 0 < omega <= l:
        return False
    a = l - omega
    chi = s.char_word(n + 1)
    for i in range(a, n - a - omega + 1):
        if i < 0 or i + omega > n:
            continue
        if chi[i] != chi[i + omega]:
            return False
    return True


def nonperiodicity_criterion(s: NumericalSet, k: int, l: int,
                             ns: list[int]) -> dict[int, bool]:
    """For each n: whether k * f(n) * omega(n)**l >= n."""
    out = {}
    for n in ns:
        f, omega = f_omega(s, n)
        out[n] = k * f * omega ** l >= n
    return out


def _occurrences(chi: np.ndarray, w: str, bound: int) -> np.ndarray:
    """Positions m < bound where w occurs in the bool word chi, which must
    reach bound + len(w) - 1: one AND of shifted windows per letter."""
    hit = np.ones(bound, dtype=bool)
    for i, c in enumerate(w):
        window = chi[i:i + bound]
        hit &= window if c == "1" else ~window
    return np.flatnonzero(hit)


def occurrence_set(s: NumericalSet, w: str, bound: int) -> NumericalSet:
    """Positions m < bound where the word w occurs in the characteristic
    sequence of s."""
    if not w or any(c not in "01" for c in w):
        raise ValueError("w must be a nonempty binary word")
    return explicit(_occurrences(_chi(s, bound + len(w)), w, bound).tolist())


# ---------------------------------------------------------------------------
# looseness


@dataclass
class LoosenessReport:
    n: int
    epsilon: Fraction
    verdict: str  # "loose-at-n" | "pseudoloose-at-n" | "neither"
    witness_t: Optional[int] = None
    witness_word: Optional[str] = None
    gamma_value: Optional[int] = None
    note: str = ""


def _t_range(n: int, epsilon: Fraction) -> tuple[int, int]:
    p, q = epsilon.numerator, epsilon.denominator
    lo = max(1, ceil_power(n, p, q))
    hi = floor_power(n, q - p, q)
    return lo, hi


def _loose_scan(elems: np.ndarray, gaps: np.ndarray, n: int,
                epsilon: Fraction):
    """First t in [ceil(n^eps), floor(n^(1-eps))] with t*gamma(n,t) >= eps*n,
    together with the gamma value; None if there is none.  elems and gaps
    are as _elements_and_gaps returns them.

    gamma(n,t) = #{m : cap_m >= t} with cap_m = min(gap_m, n-1-m), so with
    the caps sorted downward, c_1 >= ... >= c_N and c_{N+1} = 0, gamma is k
    on the run c_{k+1} < t <= c_k.  There t*k grows with t, so the run's
    least workable t is max(c_{k+1} + 1, lo, ceil(need/k)), need =
    ceil(p*n/q), when that is at most min(c_k, hi); a larger k is an
    earlier run.  All values are at most n, so int64 is exact."""
    lo, hi = _t_range(n, epsilon)
    if lo > hi or not elems.size:
        return None
    p, q = epsilon.numerator, epsilon.denominator
    need = -(-p * n // q)
    caps = np.sort(np.minimum(gaps, n - 1 - elems))[::-1]
    k = np.arange(1, caps.size + 1)
    t = np.maximum(np.append(caps[1:], 0) + 1, np.maximum(lo, -(-need // k)))
    ok = np.flatnonzero(t <= np.minimum(caps, hi))
    if not ok.size:
        return None
    return int(t[ok[-1]]), int(k[ok[-1]])


def loose_at(s: NumericalSet, n: int, epsilon: Fraction) -> LoosenessReport:
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    lo, hi = _t_range(n, epsilon)
    if lo > hi:
        return LoosenessReport(n, epsilon, "neither", note="empty t-range")
    hit = _loose_scan(*_elements_and_gaps(s, n), n, epsilon)
    if hit is None:
        return LoosenessReport(n, epsilon, "neither")
    t, gamma = hit
    return LoosenessReport(n, epsilon, "loose-at-n", witness_t=t,
                           gamma_value=gamma)


def candidate_words(max_len: int) -> list[str]:
    """The word policy for the pseudolooseness scan: "1", all-zero words and
    words with exactly one 1, up to the length cap."""
    words = ["1"]
    for s_len in range(1, max_len + 1):
        words.append("0" * s_len)
        for i in range(s_len):
            w = ["0"] * s_len
            w[i] = "1"
            if "".join(w) != "1":
                words.append("".join(w))
    return words


def pseudoloose_at(s: NumericalSet, n: int, epsilon: Fraction,
                   max_word_len: int = 4) -> LoosenessReport:
    """Scan occurrence sets of candidate words for looseness.  The word
    policy is a deliberate restriction of the all-words condition, so the
    report is flagged policy-limited."""
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    p, q = epsilon.numerator, epsilon.denominator
    chi = _chi(s, n + max(1, max_word_len))
    for w in candidate_words(max_word_len):
        if len(w) ** q > n ** (q - p):  # require |w| <= n^(1-eps)
            continue
        hits = _occurrences(chi, w, n)
        # as for the finite occurrence set, the last hit's gap is n
        hit = _loose_scan(hits, np.append(np.diff(hits), n), n, epsilon)
        if hit is not None:
            t, gamma = hit
            return LoosenessReport(n, epsilon, "pseudoloose-at-n",
                                   witness_t=t, witness_word=w,
                                   gamma_value=gamma, note="policy-limited")
    return LoosenessReport(n, epsilon, "neither", note="policy-limited")


def recheck_report(s: NumericalSet, report: LoosenessReport) -> bool:
    """Re-validate a loose/pseudoloose verdict from its stored witnesses."""
    if report.verdict == "neither":
        return True
    n, eps = report.n, report.epsilon
    p, q = eps.numerator, eps.denominator
    t, w = report.witness_t, report.witness_word
    lo, hi = _t_range(n, eps)
    if not lo <= t <= hi:
        return False
    base = s if report.verdict == "loose-at-n" else occurrence_set(s, w, n)
    gamma = gamma_s(base, n, t)
    return gamma == report.gamma_value and q * t * gamma >= p * n

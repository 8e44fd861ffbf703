"""Exact subsets of the naturals: generators, gap statistics, periodicity
measures and the looseness diagnostics built on top of them.

All membership decisions use exact integer arithmetic; rational exponent
bounds like t >= n^(p/q) are decided by comparing t^q with n^p.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, isqrt
from typing import Callable, Iterator, Optional

import numpy as np

VALUE_HORIZON = 2 ** 62
STEP_HORIZON = 10 ** 7
_CHUNK = 1 << 15  # naturals a scanned set reads at once
_CELLS = 1 << 13  # cells f_omega's walks read at once
_ROOT_DEGREE = 64  # the largest q of floorpow:p/q, in lowest terms


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


def _prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _prime_window(lo: int, hi: int) -> np.ndarray:
    """Primality of lo, ..., hi - 1 as a bool array: a segmented sieve (Bays
    & Hudson 1977) crossing off the multiples of the primes up to sqrt(hi)."""
    chi = np.ones(hi - lo, dtype=bool)
    chi[:max(0, 2 - lo)] = False
    root = isqrt(hi - 1)
    if root >= 2:
        for p in np.flatnonzero(_prime_window(0, root + 1)).tolist():
            chi[max(p * p, -(-lo // p) * p) - lo::p] = False
    return chi


class NumericalSet:
    """A subset of the naturals given by a generator descriptor.

    `contains` is an exact decision procedure.  The members come in order
    from `iterate`, a generator, or for a scanned set (no `iterate`) from
    `window(lo, hi)`, the characteristic vector on [lo, hi), _CHUNK naturals
    at a time.  `elements_below` and `next_above` share one enumeration: the
    set keeps the prefix pulled so far as int64, so none is pulled twice.
    """
    # the naturals not in this set, when known without a scan; set by
    # complement() and carried through shifted()
    complement_of: Optional["NumericalSet"] = None
    _origin = 0  # a scanned set has no member below; runs count from here

    def __init__(self, spec: str, contains: Callable[[int], bool],
                 iterate: Optional[Callable[[], Iterator[int]]] = None,
                 finite: bool = False, window: Optional[Callable] = None):
        self.spec, self.finite = spec, finite
        self._contains, self._iterate, self._window = contains, iterate, window
        self._prefix = np.empty(0, dtype=np.int64)
        self._rest = iterate and iterate()  # the generator; None once ended
        self._scanned = 0  # a scanned set has read its window on [0, _scanned)
        self._stuck: Optional[HorizonExceeded] = None  # raised on asking more

    def __repr__(self) -> str:
        return f"NumericalSet({self.spec!r})"

    def contains(self, k: int) -> bool:
        return k >= 0 and self._contains(k)

    __contains__ = contains

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Characteristic vector of the set on [lo, hi) as a bool array; read
        off the prefix uncapped, as the scan that asks bounds how far."""
        if self._window is not None:
            return self._window(lo, hi)
        return _chi(self, hi, lo, capped=False)

    def _cover(self, v: int, capped: bool = True) -> np.ndarray:
        """The enumerated prefix, pulled until it holds an element > v or the
        enumeration ends; when capped, to at most STEP_HORIZON + 1 elements."""
        if self._prefix.size and self._prefix[-1] > v:
            return self._prefix
        parts, size = [self._prefix], self._prefix.size
        last = int(self._prefix[-1]) if size else self._origin - 1
        try:
            while not size or last <= v:
                if self._stuck is not None:
                    raise self._stuck
                if capped and size > STEP_HORIZON:
                    raise HorizonExceeded(
                        f"more than {STEP_HORIZON} elements of {self.spec} up to {v}")
                room = STEP_HORIZON + 1 - size if capped else VALUE_HORIZON
                got = self._pull(v, room) if self._iterate else self._scan(last, room)
                if got is None:
                    break
                parts.append(got)
                size, last = size + got.size, int(got[-1]) if got.size else last
        finally:
            if len(parts) > 1:
                self._prefix = np.concatenate(parts)
        return self._prefix

    def _pull(self, v: int, room: int) -> Optional[np.ndarray]:
        """At most `room` more elements from the generator, up to the first
        above v; None once it has ended.  An element beyond VALUE_HORIZON is
        kept as VALUE_HORIZON + 1, and none after it is pulled."""
        if self._rest is None:
            return None
        got = []
        for x in self._rest:
            if x > VALUE_HORIZON:
                x, self._stuck = VALUE_HORIZON + 1, HorizonExceeded(
                    f"elements of {self.spec} exceed the value horizon")
            got.append(x)
            if x > v or len(got) == room or self._stuck:
                break
        else:
            self._rest = None
        return np.array(got, dtype=np.int64)

    def _scan(self, last: int, room: int) -> np.ndarray:
        """At most `room` members among the next _CHUNK naturals of a scanned
        set.  More than STEP_HORIZON non-members in a row after `last` or a
        member end the scan there."""
        lo = self._scanned
        got = np.flatnonzero(self._window(lo, lo + _CHUNK)) + lo
        hi = self._scanned = lo + _CHUNK
        run = np.flatnonzero(np.diff(np.concatenate(([last], got, [hi])))
                             > STEP_HORIZON + 1)
        if run.size and run[0] < room:
            got = got[:run[0]]
            self._stuck = HorizonExceeded(
                f"no member in {STEP_HORIZON} consecutive naturals after "
                f"{got[-1] if got.size else last}")
        return got[:room]

    def elements_below(self, bound: int) -> list[int]:
        prefix = self._cover(bound - 1)
        return prefix[:np.searchsorted(prefix, bound)].tolist()

    def next_above(self, m: int):
        """Least element > m, or None when the set is finite and exhausted."""
        prefix = self._cover(m)
        i = np.searchsorted(prefix, m, side="right")
        if i < prefix.size:
            if prefix[i] > VALUE_HORIZON:
                raise HorizonExceeded(f"next element above {m} exceeds value horizon")
            return int(prefix[i])
        if self.finite:
            return None
        raise HorizonExceeded(f"generator {self.spec} exhausted unexpectedly")


def multiples(m: int) -> NumericalSet:
    if not 1 <= m <= VALUE_HORIZON:
        raise ValueError(f"mult:m needs 1 <= m <= {VALUE_HORIZON}")
    return NumericalSet(f"mult:{m}", lambda k: k % m == 0,
                        lambda: (m * i for i in itertools.count()),
                        window=lambda lo, hi: np.arange(lo, hi) % m == 0)


def naturals() -> NumericalSet:
    return multiples(1)


def squares() -> NumericalSet:
    return NumericalSet("sq", lambda k: isqrt(k) ** 2 == k,
                        lambda: (i * i for i in itertools.count()))


def _range_of(spec: str, value: Callable[[int], int]) -> NumericalSet:
    """{value(x) : x in N} for a nondecreasing, unbounded value function,
    decided up to VALUE_HORIZON: where value(x) passes it, value may return
    any number past it instead."""
    def contains(k: int) -> bool:
        if k > VALUE_HORIZON:
            raise HorizonExceeded(f"{k} is beyond the value horizon of {spec}")
        # the least x with value(x) >= k is below the first such power of 2
        hi = 1
        while value(hi) < k:
            hi *= 2
        return value(bisect_left(range(hi), k, key=value)) == k

    return NumericalSet(spec, contains, lambda: (
        v for v, _ in itertools.groupby(map(value, itertools.count()))))


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
    return _range_of(spec, lambda x: sum(c * x ** i for i, c in enumerate(cs)))


def floor_power_range(p: int, q: int) -> NumericalSet:
    """{floor(x^(p/q)) : x in N} for a rational exponent p/q > 1 with q at
    most _ROOT_DEGREE in lowest terms."""
    if q < 1 or Fraction(p, q) <= 1:
        raise ValueError("floorpow needs exponent p/q > 1")
    spec, (p, q) = f"floorpow:{p}/{q}", Fraction(p, q).as_integer_ratio()
    if q > _ROOT_DEGREE:
        raise ValueError(f"floorpow needs q <= {_ROOT_DEGREE} in lowest terms")
    # x >= 2^(b-1) for b its bit length, so x^(p/q) >= 2^63 once (b-1)p >=
    # 63q: that x is past the horizon, told without forming x^p
    return _range_of(spec, lambda x: VALUE_HORIZON + 1 if (
        x.bit_length() - 1) * p >= 63 * q else floor_power(x, p, q))


def powers_of_two() -> NumericalSet:
    return NumericalSet("pow2", lambda k: k > 0 and k & (k - 1) == 0,
                        lambda: (2 ** i for i in itertools.count()))


def factorials() -> NumericalSet:
    return _range_of("fact", factorial)


def primes() -> NumericalSet:
    return NumericalSet("primes", _prime, window=_prime_window)


def explicit(values) -> NumericalSet:
    vals = sorted(set(values))
    if any(v < 0 for v in vals):
        raise ValueError("explicit sets live in the naturals")
    members = frozenset(vals)
    return NumericalSet("list:" + ",".join(map(str, vals)),
                        lambda k: k in members, lambda: iter(vals), finite=True)


def shifted(c: int, inner: NumericalSet) -> NumericalSet:
    room = VALUE_HORIZON - inner._origin  # keeps the origin within the horizon
    if not 0 <= c <= room:
        raise ValueError(f"shift amount must be in [0, {room}]")

    def window(lo: int, hi: int) -> np.ndarray:
        chi = np.zeros(hi - lo, dtype=bool)
        if hi > c:
            start = max(lo, c)
            chi[start - lo:] = inner.window(start - c, hi - c)
        return chi

    base = inner._iterate  # a scanned inner makes a scanned shift
    out = NumericalSet(f"shift:+{c}:{inner.spec}",
                       lambda k: k >= c and inner.contains(k - c),
                       None if base is None else lambda: (x + c for x in base()),
                       inner.finite, window)
    out._origin = out._scanned = inner._origin + c
    rest = inner.complement_of
    if rest is not None and rest._iterate is not None:
        # the naturals below c, then inner's complement shifted by c; a
        # scanned complement is scanned just as well by complement()
        out.complement_of = NumericalSet(
            f"compl:{out.spec}", lambda k: k < c or rest.contains(k - c),
            lambda: itertools.chain(range(c),
                                    (x + c for x in rest._iterate())),
            rest.finite)
    return out


def complement(inner: NumericalSet) -> NumericalSet:
    """The naturals not in inner.  When inner knows its complement as a set
    (inner is itself a complement, or a shift of a set that knows its
    complement), that set is enumerated, finite or not, with no scan."""
    known = inner.complement_of
    if known is not None:
        out = NumericalSet(f"compl:{inner.spec}", known.contains,
                           known._iterate, known.finite, known._window)
        out._origin = out._scanned = known._origin
    else:
        out = NumericalSet(f"compl:{inner.spec}",
                           lambda k: not inner.contains(k),
                           window=lambda lo, hi: ~inner.window(lo, hi))
    out.complement_of = inner
    return out


SPEC_DEPTH = 100
_NAMED = {"sq": squares, "pow2": powers_of_two, "fact": factorials,
          "primes": primes, "nat": naturals}


def parse_set_spec(text: str) -> NumericalSet:
    """Parse a set-spec string: mult:m, sq, poly:c0,c1,..., floorpow:p/q,
    pow2, fact, primes, list:a,b,c, shift:+c:<spec>, compl:<spec>.  At
    most SPEC_DEPTH shift:/compl: wrappers may nest."""
    if text.count("compl:") + text.count("shift:+") > SPEC_DEPTH:
        raise ValueError(f"set spec nested deeper than {SPEC_DEPTH}")
    text = text.strip()
    if text in _NAMED:
        return _NAMED[text]()
    if text.startswith("compl:"):
        return complement(parse_set_spec(text[6:]))
    amount, colon, rest = text[7:].partition(":")
    # the spec inside shift: names itself; a malformed field names the spec
    inner = parse_set_spec(rest) if text.startswith("shift:+") and colon else None
    try:
        if inner is not None:
            return shifted(int(amount), inner)
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
            raise ValueError("want shift:+c:<spec>")
    except ValueError as exc:
        raise ValueError(f"bad set spec {text!r}: {exc}") from None
    raise ValueError(f"unknown set spec {text!r}")


# ---------------------------------------------------------------------------
# gap statistics


def _chi(s: NumericalSet, hi: int, lo: int = 0, capped: bool = True
         ) -> np.ndarray:
    """Characteristic vector of s on [lo, hi) as a bool array, read off the
    enumerated prefix."""
    prefix = s._cover(hi - 1, capped)
    chi = np.zeros(hi - lo, dtype=bool)
    chi[prefix[np.searchsorted(prefix, lo):np.searchsorted(prefix, hi)] - lo] = True
    return chi


def _caps(elems: np.ndarray, n: int) -> np.ndarray:
    """The cap min(gap to the next member, n - 1 - m) of each m < n in the
    sorted int64 elems: m counts in gamma(n, t) for the t up to its cap.  A
    gap passes n - 1 - m only for the last m, so what follows is not read."""
    elems = elems[:np.searchsorted(elems, n)]
    return np.minimum(np.diff(elems, append=n), n - 1 - elems)


def gamma_s(s: NumericalSet, n: int, t: int) -> int:
    """|{m in s : gap to next element >= t and m + t < n}|."""
    if n < 1 or t < 1:
        raise ValueError("need n, t >= 1")
    return int(np.count_nonzero(_caps(s._cover(n - 1), n) >= t))


def _offsets(tset: np.ndarray, in_t: np.ndarray, n: int, omega: np.ndarray,
             best: int) -> np.ndarray:
    """A(omega) for a block of periods, exact where omega + A(omega) < best
    (elsewhere at least best - omega).  tset is the sorted T between two
    sentinels whose pairs leave [0, n].  The four walks of every omega run
    side by side: each step reads the next `width` cells of every walk
    still running, at most _CELLS cells in all, and the walks that end
    nowhere in them go on with twice the width."""
    k = omega.size
    om = np.tile(omega, 4)
    sign = np.repeat([1, 1, -1, -1], k)  # up or down the sorted T
    step = om * np.repeat([1, -1, 1, -1], k)
    centre = n - step  # twice the t of the centred pair (t, t + step)
    pos = np.searchsorted(tset, (centre + 1) // 2) - (sign < 0)  # next cell
    a = np.zeros(k, dtype=np.int64)
    live, width = np.arange(4 * k), 1
    while live.size:
        width = min(width, _CELLS // live.size)
        t = np.take(tset, pos[live, None] + sign[live, None] * np.arange(width),
                    mode="clip")
        value = (n - om[live, None] - np.abs(2 * t - centre[live, None])) // 2
        going = value >= a[live % k, None]
        stop = ~going | ~np.take(in_t, t + step[live, None], mode="clip")
        rows, first = np.arange(live.size), stop.argmax(axis=1)
        ended = stop[rows, first]
        hit = ended & going[rows, first]  # ended at a violation
        np.maximum.at(a, live[hit] % k, value[rows[hit], first[hit]] + 1)
        pos[live] += sign[live] * width
        live = live[~ended & (om[live] + a[live % k] < best)]
        width *= 2
    return a


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
    negative value means the pair leaves [0, n]).  The periods go in
    blocks of doubling size; only omega < f can improve f, so the scan
    stops at the first block that starts at or above the best l so far.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    member = _chi(s, n + 1)
    if 2 * np.count_nonzero(member) > n + 1:
        member = ~member
    tset = np.concatenate(([-2 * n - 4], np.flatnonzero(member), [2 * n + 4]))
    best, best_omega = n + 2, None  # omega = 1 always gives less than n + 2
    lo, size = 1, 1
    while lo < best:
        omega = np.arange(lo, min(lo + size, best))
        l = omega + _offsets(tset, member, n, omega, best)
        i = int(np.argmin(l))  # the least omega at the least l
        if l[i] < best:
            best, best_omega = int(l[i]), int(omega[i])
        lo, size = lo + omega.size, min(2 * size, _CELLS // 4)
    return best, best_omega


def is_periodic_on(s: NumericalSet, n: int, l: int, omega: int) -> bool:
    """Direct re-check: is s periodic with period omega on the interval
    {i : l-omega <= i <= n-(l-omega)}?  (Used as an oracle for f_omega.)"""
    if not 0 < omega <= l:
        return False
    a = l - omega
    chi = _chi(s, n + 1)
    i = np.arange(a, n - a - omega + 1)  # every pair (i, i + omega) in range
    return not np.any(chi[i] != chi[i + omega])


def nonperiodicity_criterion(s: NumericalSet, k: int, l: int,
                             ns: list[int]) -> dict[int, bool]:
    """For each n: whether k * f(n) * omega(n)**l >= n."""
    return {n: k * f * omega ** l >= n
            for n in ns for f, omega in [f_omega(s, n)]}


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


@dataclass(slots=True)
class LoosenessReport:
    n: int
    epsilon: Fraction
    verdict: str  # "loose-at-n" | "pseudoloose-at-n" | "neither"
    witness_t: Optional[int] = None
    witness_word: Optional[str] = None
    gamma_value: Optional[int] = None
    note: str = ""


def _t_range(n: int, epsilon: Fraction) -> tuple[int, int]:
    """[ceil(n^eps), floor(n^(1-eps))], with t >= 1."""
    p, q = epsilon.numerator, epsilon.denominator
    lo = floor_power(n, p, q)
    return max(1, lo + (lo ** q < n ** p)), floor_power(n, q - p, q)


def _loose_scan(caps: np.ndarray, n: int, epsilon: Fraction):
    """First t in [ceil(n^eps), floor(n^(1-eps))] with t*gamma(n,t) >= eps*n,
    together with the gamma value; None if there is none.  caps are as
    _caps returns them; a cap below the t-range counts for no t in it, so
    only the others are sorted.

    gamma(n,t) = #{m : cap_m >= t} with cap_m = min(gap_m, n-1-m), so with
    the caps sorted downward, c_1 >= ... >= c_N and c_{N+1} = 0, gamma is k
    on the run c_{k+1} < t <= c_k.  There t*k grows with t, so the run's
    least workable t is max(c_{k+1} + 1, lo, ceil(need/k)), need =
    ceil(p*n/q), when that is at most min(c_k, hi); a larger k is an
    earlier run.  All values are at most n, so int64 is exact."""
    lo, hi = _t_range(n, epsilon)
    caps = np.sort(caps[caps >= lo])[::-1]
    if lo > hi or not caps.size:
        return None
    need = ceil(epsilon * n)
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
    hit = _loose_scan(_caps(s._cover(n - 1), n), n, epsilon)
    if hit is None:
        return LoosenessReport(n, epsilon, "neither")
    return LoosenessReport(n, epsilon, "loose-at-n", witness_t=hit[0],
                           gamma_value=hit[1])


def candidate_words(max_len: int) -> list[str]:
    """The word policy for the pseudolooseness scan: "1", all-zero words and
    words with exactly one 1, up to the length cap."""
    words = ["1"]
    for s_len in range(1, max_len + 1):
        words.append("0" * s_len)
        if s_len > 1:  # the one word of length 1 with one 1 is "1"
            words += ["0" * i + "1" + "0" * (s_len - 1 - i) for i in range(s_len)]
    return words


def pseudoloose_at(s: NumericalSet, n: int, epsilon: Fraction,
                   max_word_len: int = 4) -> LoosenessReport:
    """Scan occurrence sets of candidate words for looseness.  The word
    policy is a deliberate restriction of the all-words condition, so the
    report is flagged policy-limited."""
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    chi = _chi(s, n + max(1, max_word_len))
    hi = _t_range(n, epsilon)[1]
    for w in candidate_words(max_word_len):
        if len(w) > hi:  # require |w| <= n^(1-eps)
            continue
        hit = _loose_scan(_caps(_occurrences(chi, w, n), n), n, epsilon)
        if hit is not None:
            return LoosenessReport(n, epsilon, "pseudoloose-at-n",
                                   witness_t=hit[0], witness_word=w,
                                   gamma_value=hit[1], note="policy-limited")
    return LoosenessReport(n, epsilon, "neither", note="policy-limited")


def recheck_report(s: NumericalSet, report: LoosenessReport) -> bool:
    """Re-validate a loose/pseudoloose verdict from its stored witnesses."""
    if report.verdict == "neither":
        return True
    n, eps, t = report.n, report.epsilon, report.witness_t
    lo, hi = _t_range(n, eps)
    if not lo <= t <= hi:
        return False
    base = (s if report.verdict == "loose-at-n"
            else occurrence_set(s, report.witness_word, n))
    gamma = gamma_s(base, n, t)
    return gamma == report.gamma_value and t * gamma >= eps * n

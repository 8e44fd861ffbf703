import itertools
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from fmlab import sets
from fmlab.sets import (f_omega, gamma_s, is_periodic_on,
                        loose_at, nonperiodicity_criterion, occurrence_set,
                        parse_set_spec, pseudoloose_at, recheck_report)


Sq = sets.squares()
E = sets.powers_of_two()
F = sets.factorials()
Nat = sets.naturals()


def some_sets():
    return [Sq, E, F, Nat, sets.multiples(3), sets.primes(),
            sets.poly_range([0, 1, 1]), sets.floor_power_range(3, 2)]


def test_gamma_examples():
    assert gamma_s(Sq, 30, 3) == 5
    assert gamma_s(Nat, 50, 2) == 0
    assert gamma_s(E, 100, 10) == 3


def gamma_oracle(s, n, t):
    # direct definition, element by element
    count = 0
    for m in s.elements_below(n):
        if m + t < n and s.next_above(m) - m >= t:
            count += 1
    return count


@given(st.integers(0, 7), st.integers(2, 80), st.integers(1, 12))
def test_gamma_matches_oracle(which, n, t):
    s = some_sets()[which]
    assert gamma_s(s, n, t) == gamma_oracle(s, n, t)


@given(st.integers(0, 7), st.integers(2, 80), st.integers(1, 12), st.integers(0, 5))
def test_gamma_nonincreasing_in_t(which, n, t, dt):
    s = some_sets()[which]
    assert gamma_s(s, n, t + dt) <= gamma_s(s, n, t)


def test_f_omega_examples():
    assert f_omega(F, 23) == (8, 1)
    assert f_omega(Nat, 10) == (1, 1)
    f18, _ = f_omega(E, 18)
    assert f18 >= 2


@given(st.integers(0, 7), st.integers(2, 40))
@settings(max_examples=60)
def test_f_omega_against_definition(which, n):
    s = some_sets()[which]
    f, omega = f_omega(s, n)
    assert 0 < omega <= f
    assert is_periodic_on(s, n, f, omega)
    # no smaller l works with any omega
    for l in range(1, f):
        assert not any(is_periodic_on(s, n, l, w) for w in range(1, l + 1))
    # omega is least at l = f
    for w in range(1, omega):
        assert not is_periodic_on(s, n, f, w)


@st.composite
def list_set_and_n(draw, complemented=st.booleans()):
    """n <= 80 and a random list: set on [0, n+5], sparse or dense, possibly
    under compl:."""
    n = draw(st.integers(1, 80))
    few = draw(st.sets(st.integers(0, n + 5), max_size=n // 4 + 1))
    members = few if draw(st.booleans()) else set(range(n + 6)) - few
    spec = "list:" + ",".join(map(str, sorted(members)))
    if draw(complemented):
        spec = "compl:" + spec
    return parse_set_spec(spec), n


def f_omega_brute(s, n):
    # the least l with a period omega <= l, then the least such omega
    for l in itertools.count(1):
        for w in range(1, l + 1):
            if is_periodic_on(s, n, l, w):
                return l, w


@given(list_set_and_n())
def test_f_omega_is_least_by_brute_force(sn):
    s, n = sn
    assert f_omega(s, n) == f_omega_brute(s, n)


@given(list_set_and_n(complemented=st.just(False)))
def test_f_omega_complement_invariant(sn):
    s, n = sn
    assert f_omega(sets.complement(s), n) == f_omega(s, n)


def test_nonperiodicity_criterion_examples():
    assert nonperiodicity_criterion(Sq, 5, 0, [100])[100] is True
    assert nonperiodicity_criterion(F, 1, 5, [23])[23] is False
    assert nonperiodicity_criterion(Nat, 1, 0, [1])[1] is True


def test_occurrence_set_examples():
    assert occurrence_set(Sq, "1", 20).elements_below(20) == [0, 1, 4, 9, 16]
    assert occurrence_set(Sq, "10", 10).elements_below(10) == [1, 4, 9]
    assert occurrence_set(sets.explicit([]), "0", 3).elements_below(3) == [0, 1, 2]


@given(st.integers(0, 7), st.integers(1, 40))
def test_next_above_is_the_next_element(which, bound):
    s = some_sets()[which]
    for m in s.elements_below(bound):
        nxt = s.next_above(m)
        assert nxt is not None  # every set here is infinite
        assert nxt > m and s.contains(nxt)
        assert not any(s.contains(k) for k in range(m + 1, nxt))


# -- estimates tying gamma to the periodicity measures ----------------------

@given(st.integers(0, 7), st.integers(4, 60), st.integers(1, 10))
@settings(max_examples=80)
def test_gap_count_periodicity_estimate(which, n, t):
    # t*(gamma(n,t)-1) <= 2*f(n) or t <= omega(n)
    s = some_sets()[which]
    f, omega = f_omega(s, n)
    assert t * (gamma_s(s, n, t) - 1) <= 2 * f or t <= omega


@given(st.integers(0, 7), st.integers(4, 60),
       st.lists(st.integers(0, 1), min_size=1, max_size=3))
@settings(max_examples=80)
def test_occurrence_set_periodicity_estimate(which, n, wbits):
    # f_T(n) <= f_S(n)+|w|, and omega_T(n) <= omega_S(n) when 3f+3|w| <= n
    s = some_sets()[which]
    w = "".join(map(str, wbits))
    t_set = occurrence_set(s, w, n + len(w) + 2)
    f_s, om_s = f_omega(s, n)
    f_t, om_t = f_omega(t_set, n)
    assert f_t <= f_s + len(w)
    if 3 * f_s + 3 * len(w) <= n:
        assert om_t <= om_s


# -- looseness --------------------------------------------------------------

def test_loose_examples():
    r = loose_at(Sq, 10 ** 4, Fraction(1, 10))
    assert r.verdict == "loose-at-n"
    assert recheck_report(Sq, r)
    assert loose_at(Nat, 100, Fraction(1, 2)).verdict == "neither"


def test_powers_of_two_loose_at_4096_boundary():
    # Literal reading of the definition: t=256 gives gamma=4 and
    # t*gamma = 1024 = eps*n exactly, so the verdict is loose.  The
    # "sufficiently large n" bound that would rule this out only kicks in
    # far above n=4096.
    r = loose_at(E, 4096, Fraction(1, 4))
    assert r.verdict == "loose-at-n"
    assert r.witness_t == 256 and r.gamma_value == 4
    assert recheck_report(E, r)


def test_pseudoloose_examples():
    r = pseudoloose_at(Sq, 10 ** 4, Fraction(1, 10))
    assert r.verdict == "pseudoloose-at-n" and r.witness_word == "1"
    r2 = pseudoloose_at(sets.complement(Sq), 10 ** 4, Fraction(1, 20))
    assert r2.verdict == "pseudoloose-at-n"
    assert r2.note == "policy-limited"
    assert recheck_report(sets.complement(Sq), r2)


small_eps = st.integers(2, 12).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))


def least_loose_t(s, n, eps):
    # the first t of the t-range with q*t*gamma >= p*n, one gamma_s per t
    lo, hi = sets._t_range(n, eps)
    return next((t for t in range(lo, hi + 1)
                 if eps.denominator * t * gamma_s(s, n, t)
                 >= eps.numerator * n), None)


@given(list_set_and_n(), small_eps)
def test_loose_at_witness_is_least_t(sn, eps):
    s, n = sn
    t = least_loose_t(s, n, eps)
    r = loose_at(s, n, eps)
    if t is None:
        assert (r.verdict, r.witness_t) == ("neither", None)
    else:
        assert (r.verdict, r.witness_t, r.gamma_value) == (
            "loose-at-n", t, gamma_s(s, n, t))


@given(list_set_and_n(), small_eps, st.integers(0, 4))
def test_pseudoloose_at_witness_from_occurrence_sets(sn, eps, max_len):
    s, n = sn
    p, q = eps.numerator, eps.denominator
    want = ("neither", None, None, None)
    for w in sets.candidate_words(max_len):
        if len(w) ** q > n ** (q - p):
            continue
        occ = occurrence_set(s, w, n)
        t = least_loose_t(occ, n, eps)
        if t is not None:
            want = ("pseudoloose-at-n", w, t, gamma_s(occ, n, t))
            break
    r = pseudoloose_at(s, n, eps, max_word_len=max_len)
    assert (r.verdict, r.witness_word, r.witness_t, r.gamma_value) == want


@given(st.integers(0, 7), st.integers(10, 200), small_eps)
@settings(max_examples=60)
def test_loose_reports_revalidate(which, n, eps):
    s = some_sets()[which]
    assert recheck_report(s, loose_at(s, n, eps))
    assert recheck_report(s, pseudoloose_at(s, n, eps, max_word_len=2))


# -- specs and membership ---------------------------------------------------

@given(st.integers(0, 7), st.integers(1, 60))
def test_membership_agrees_with_enumeration(which, bound):
    s = some_sets()[which]
    listed = s.elements_below(bound)
    assert listed == [k for k in range(bound) if s.contains(k)]
    assert listed == sorted(set(listed))


def test_one_enumeration_per_set():
    counts = {"generators": 0, "pulls": 0}

    def iterate():
        counts["generators"] += 1
        for i in itertools.count():
            counts["pulls"] += 1
            yield i * i

    s = sets.NumericalSet("counted:sq", lambda k: isqrt(k) ** 2 == k, iterate)
    below = s.elements_below(1000)
    assert below == [i * i for i in range(32)]
    for m in below:
        assert s.next_above(m) == (isqrt(m) + 1) ** 2
    s.elements_below(500).clear()  # a copy, not the set's own prefix
    assert s.elements_below(500) == below[:23]
    assert counts["generators"] == 1
    assert counts["pulls"] <= len(below) + 1


def test_scan_stops_after_a_long_run_of_non_members(monkeypatch):
    monkeypatch.setattr(sets, "STEP_HORIZON", 10)
    # ten non-members before 10 is a run the horizon allows
    assert parse_set_spec("compl:list:" + ",".join(map(str, range(10)))
                          ).elements_below(12) == [10, 11]
    for spec in ("compl:nat", "compl:list:" + ",".join(map(str, range(11)))):
        s = parse_set_spec(spec)
        for _ in range(2):  # the second call must not read an ended scan
            with pytest.raises(sets.HorizonExceeded):
                s.elements_below(12)
    with pytest.raises(sets.HorizonExceeded):
        sets.naturals().elements_below(100)


def test_spec_round_trip():
    for text in ["sq", "pow2", "fact", "primes", "mult:4", "poly:0,1,1",
                 "floorpow:3/2", "list:1,2,6", "shift:+2:sq", "compl:sq"]:
        s = parse_set_spec(text)
        assert s.spec == text
        s2 = parse_set_spec(s.spec)
        assert s2.elements_below(50) == s.elements_below(50)


def test_floor_nth_root_is_exact_beyond_floats():
    assert sets.floor_nth_root(10 ** 399, 3) == 10 ** 133
    for x in (10 ** 400, 10 ** 400 - 1, 2 ** 3000 + 1):
        for q in (2, 3, 7):
            m = sets.floor_nth_root(x, q)
            assert m ** q <= x < (m + 1) ** q


def test_nested_spec_depth_capped():
    spec = "compl:" * sets.SPEC_DEPTH + "sq"
    assert parse_set_spec(spec).contains(4)
    with pytest.raises(ValueError):
        parse_set_spec("compl:" + spec)


def test_floor_power_range():
    s = parse_set_spec("floorpow:3/2")
    # floor(x^1.5) for x = 0..5: 0,1,2,5,8,11
    for v in [0, 1, 2, 5, 8, 11]:
        assert s.contains(v)
    assert not s.contains(3) and not s.contains(4)
    assert s.elements_below(12) == [0, 1, 2, 5, 8, 11]
    assert parse_set_spec("floorpow:6/4").elements_below(12) == [0, 1, 2, 5, 8, 11]


def test_range_sets_are_decided_up_to_the_value_horizon():
    # past the horizon a value may stand for any larger one, so membership
    # there is not decided
    s = parse_set_spec("floorpow:3/2")
    assert s.contains(sets.floor_power(2 ** 41, 3, 2))
    with pytest.raises(sets.HorizonExceeded):
        s.contains(sets.VALUE_HORIZON + 1)


# (f, omega), then the loose_at and pseudoloose_at reports at eps = 1/10 as
# (verdict, t, word, gamma), at n = 2*10^5 for the eight benchmark families;
# pinned from the per-omega walk and the per-natural scans
PINNED_2E5 = {
    "sq": ((99858, 1), ("loose-at-n", 48, None, 424),
           ("pseudoloose-at-n", 48, "1", 424)),
    "fact": ((40322, 1), ("loose-at-n", 10000, None, 2),
             ("pseudoloose-at-n", 10000, "1", 2)),
    "pow2": ((68930, 1), ("loose-at-n", 3334, None, 6),
             ("pseudoloose-at-n", 3334, "1", 6)),
    "poly:0,1,1": ((99829, 632), ("loose-at-n", 48, None, 424),
                   ("pseudoloose-at-n", 48, "1", 424)),
    "compl:sq": ((99858, 1), ("neither", None, None, None),
                 ("pseudoloose-at-n", 48, "0", 424)),
    "shift:+3:sq": ((99861, 1), ("loose-at-n", 48, None, 424),
                    ("pseudoloose-at-n", 48, "1", 424)),
    "mult:6": ((6, 6), ("loose-at-n", 4, None, 33333),
               ("pseudoloose-at-n", 4, "1", 33333)),
    "primes": ((99999, 1), ("loose-at-n", 4, None, 15822),
               ("pseudoloose-at-n", 4, "1", 15822)),
}


def test_loose_at_peak_memory_at_1e6():
    # one int64 cap array, and only the caps in the t-range sorted: about
    # 24 MB for compl:sq, whose caps are nearly all 1, below lo = 4
    s, n = parse_set_spec("compl:sq"), 10 ** 6
    s.elements_below(n + 1)  # the enumerated prefix is not counted
    tracemalloc.start()
    try:
        r = loose_at(s, n, Fraction(1, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.verdict == "neither"
    assert peak <= 30 * 10 ** 6


@pytest.mark.parametrize("spec", sorted(PINNED_2E5))
def test_set_families_pinned_at_2e5(spec):
    s, n, eps = parse_set_spec(spec), 200_000, Fraction(1, 10)
    reports = (loose_at(s, n, eps), pseudoloose_at(s, n, eps))
    assert (f_omega(s, n),) + tuple(
        (r.verdict, r.witness_t, r.witness_word, r.gamma_value)
        for r in reports) == PINNED_2E5[spec]
    assert [r.note for r in reports] == ["", "policy-limited"]


@pytest.mark.parametrize("spec", ["primes", "compl:sq", "compl:shift:+2:sq",
                                  "shift:+5:primes"])
def test_enumeration_across_chunk_edges(spec):
    edges = [k * sets._CHUNK for k in (1, 2, 3)]
    top = edges[-1] + 1000
    member = parse_set_spec(spec).contains
    listed = [k for k in range(top) if member(k)]
    bounds = [e + d for e in edges for d in (-2, -1, 0, 1, 2)]
    growing = parse_set_spec(spec)  # one set pulled further at each bound
    for bound in bounds:
        below = listed[:bisect_left(listed, bound)]
        for s in (parse_set_spec(spec), growing):
            assert s.elements_below(bound) == below
            assert s.next_above(bound - 1) == listed[len(below)]
    assert growing.elements_below(top) == listed


def test_shifted_scan_counts_runs_from_the_shift(monkeypatch):
    # the naturals below the shift are not a run of non-members
    monkeypatch.setattr(sets, "STEP_HORIZON", 10)
    ten = ",".join(map(str, range(10)))
    assert parse_set_spec(f"shift:+3:compl:list:{ten}").elements_below(16) == [
        13, 14, 15]
    with pytest.raises(sets.HorizonExceeded):
        parse_set_spec(f"shift:+3:compl:list:{ten},10").elements_below(16)
    for spec in ("shift:+20000000:primes", "compl:compl:shift:+20000000:primes",
                 "shift:+10000000:shift:+10000000:primes"):
        assert parse_set_spec(spec).next_above(0) == 20000002

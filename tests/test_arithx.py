import random

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fmlab import arithx, sets
from fmlab.arithx import (check_extension_hypothesis, choose_seed,
                          default_rounds, extension_trace, mu_relation_oracle,
                          mu_step, nu_from_set, seed_multiplication,
                          synthesize_multiplication)
from fmlab.evaluator import BudgetExceeded
from fmlab.model import PartialArithModel, full_multiplication, zero_rows


def random_pm(rng, n, p=0.5, with_zero=True):
    base = sorted(full_multiplication(n))
    picked = {t for t in base if rng.random() < p}
    if with_zero:
        picked |= zero_rows(n)
    return PartialArithModel(n, picked)


def test_mu_formula_parses():
    phi = arithx.mu_formula()
    from fmlab.syntax import quantifier_rank
    assert phi.free == ("x", "y", "z")
    assert quantifier_rank(phi) == 8


@given(st.integers(2, 8), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_mu_fast_path_matches_formula(n, rng):
    pm = random_pm(rng, n, p=rng.random(), with_zero=rng.random() < 0.8)
    assert mu_step(pm).mult == mu_relation_oracle(pm)


@pytest.mark.parametrize("n", [9, 14])
def test_oracle_refuses_past_the_table_cap(n):
    with pytest.raises(BudgetExceeded):
        mu_relation_oracle(seed_multiplication(n, 2))


def reference_half_round(n: int, mult: frozenset) -> set:
    """The extension round on triple sets: tuples (x, y, xy) with
    x = tu + t'u' over the products tu usable at y."""
    out = set()
    limit = (1 << n) - 1
    for y in range(n):
        vals = set()
        for t, u, tu in mult:
            uy = u * y
            if uy < n and (u, y, uy) in mult and tu * y < n \
                    and (t, uy, tu * y) in mult:
                vals.add(tu)
        if not vals:
            continue
        mask = 0
        for v in vals:
            mask |= 1 << v
        sums = 0
        for v in vals:
            sums |= mask << v
        sums &= limit
        x = 0
        while sums:
            if sums & 1 and x * y < n:
                out.add((x, y, x * y))
            sums >>= 1
            x += 1
    return out


def reference_mu_relation(pm: PartialArithModel) -> frozenset:
    half = reference_half_round(pm.n, pm.mult)
    return frozenset(half | {(y, x, z) for x, y, z in half})


def reference_rectangle(n: int, a_max: int, b_max: int) -> PartialArithModel:
    """The start relations on triple sets: zero rows plus every product of
    [1..a_max] x [1..b_max] below n, closed under commutativity."""
    triples = set(zero_rows(n))
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            if a * b >= n:
                break
            triples.add((a, b, a * b))
    triples |= {(b, a, c) for a, b, c in triples}
    return PartialArithModel(n, triples)


def reference_seed(n, a_star, height=None):
    if not 1 <= a_star < n:
        raise ValueError("a_star out of range")
    if height is None:
        height = -(-n // (3 * a_star))
    if height < 0:
        raise ValueError(f"height must be nonnegative, got {height}")
    if a_star * height >= n:
        raise ValueError("rectangle does not fit below n")
    return reference_rectangle(n, a_star, height)


def reference_nu(s, n, t, word="1"):
    """nu_from_set with its width counted position by position."""
    if t < 1:
        raise ValueError("t must be positive")
    occ = sets.occurrence_set(s, word, n)
    width = 0
    for m in occ.elements_below(max(n - len(word) - t + 1, 0)):
        nxt = occ.next_above(m)
        if (nxt is None or nxt - m >= t) and m + t < n:
            width += 1
    return reference_rectangle(n, t, width)


def outcome(build, *args):
    """The known matrix a start-relation builder returns, or its error."""
    try:
        return build(*args).known.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@given(st.integers(0, 160), st.integers(-1, 40),
       st.one_of(st.none(), st.integers(-2, 60)))
@settings(max_examples=300, deadline=None)
def test_seed_matches_reference_rectangle(n, a_star, height):
    assert (outcome(seed_multiplication, n, a_star, height)
            == outcome(reference_seed, n, a_star, height))


NU_SPECS = ("sq", "pow2", "fact", "primes", "nat", "mult:3", "poly:0,1,1",
            "floorpow:3/2", "compl:sq", "shift:+2:sq", "list:", "list:0,5,9")
NU_WORDS = ("1", "0", "10", "01", "101", "", "2")


@given(st.sampled_from(NU_SPECS), st.sampled_from(NU_WORDS),
       st.integers(0, 200), st.data())
@settings(max_examples=300, deadline=None)
def test_nu_from_set_matches_reference_rectangle(spec, word, n, data):
    t = data.draw(st.integers(-1, n + 3), label="t")
    s = sets.parse_set_spec(spec)
    assert (outcome(nu_from_set, s, n, t, word)
            == outcome(reference_nu, s, n, t, word))


@pytest.mark.parametrize("n", [216, 512, 1000])
def test_round_matches_reference_on_rectangle_seeds(n):
    _, pm = choose_seed(n, 3)
    assert mu_step(pm).mult == reference_mu_relation(pm)


@given(st.integers(1, 150), st.floats(0, 1), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_round_matches_reference_on_random_models(n, p, with_zero, rng):
    pm = random_pm(rng, n, p=p * p, with_zero=with_zero)
    assert mu_step(pm).mult == reference_mu_relation(pm)


@pytest.mark.parametrize("n, mult", [
    (1, ()), (1, {(0, 0, 0)}), (7, ()), (7, {(2, 3, 6)}),
    (7, {(0, 3, 0), (2, 3, 6)}),   # 0*3 known, but no t*0
])
def test_round_matches_reference_at_the_edges(n, mult):
    pm = PartialArithModel(n, mult)
    assert mu_step(pm).mult == reference_mu_relation(pm)


def test_mu_output_is_partial_multiplication():
    rng = random.Random(3)
    for _ in range(20):
        pm = random_pm(rng, rng.randrange(2, 12))
        out = mu_step(pm)
        assert all(a * b == c < out.n for a, b, c in out.mult)
        assert {(b, a, c) for a, b, c in out.mult} == out.mult


@given(st.integers(3, 14), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_extension_round_growth_properties(n, rng):
    pm = random_pm(rng, n, p=rng.random())
    mu = mu_step(pm)
    for a in range(1, n):
        # never shrinks
        assert mu.gamma(a) >= pm.gamma(a)
    for a in range(1, n):
        for b in range(1, n):
            # symmetric reach
            assert (mu.gamma(a) >= b) == (mu.gamma(b) >= a)
    for a in range(1, n):
        for b in range(a + 1, min(a * a + a, n - 1) + 1):
            bound = min(pm.gamma(a) // ((b - 1) // a), (n - 1) // b)
            assert mu.gamma(b) >= bound


@given(st.integers(3, 12), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_extension_round_doubling(n, rng):
    pm = random_pm(rng, n, p=rng.random())
    trace = extension_trace(pm, 2)
    for prev, cur in zip(trace[1:], trace[2:]):
        for a in range(1, n):
            assert cur.gamma(a) >= min(2 * prev.gamma(a), (n - 1) // a)


def test_default_rounds():
    assert default_rounds(2) == 4
    assert default_rounds(3) == 6
    assert default_rounds(4) == 6
    assert default_rounds(5) == 8
    with pytest.raises(ValueError):
        default_rounds(1)


def test_seed_multiplication_shape():
    pm = seed_multiplication(64, 4)
    assert (4, 6, 24) in pm.mult and (6, 4, 24) in pm.mult
    assert pm.gamma(4) >= 6
    with pytest.raises(ValueError):
        seed_multiplication(10, 12)
    with pytest.raises(ValueError):
        seed_multiplication(10, 5, height=3)
    with pytest.raises(ValueError, match="height must be nonnegative, got -2"):
        seed_multiplication(100, 5, height=-2)
    # height 0 keeps its degenerate rectangle: the zero rows alone
    assert seed_multiplication(100, 5, height=0).gamma(5) == 0


def test_hypothesis_check():
    pm = seed_multiplication(64, 4)
    assert check_extension_hypothesis(pm, 3, 4)
    assert not check_extension_hypothesis(pm, 3, 2)   # below n^(1/3)
    assert not check_extension_hypothesis(pm, 3, 60)  # above n^(2/3)/3
    small = PartialArithModel(8, zero_rows(8))
    assert not check_extension_hypothesis(small, 3, 2)  # n < k^2


def test_rectangle_seed_extends_to_full():
    for n in (27, 64):
        a_star, pm = choose_seed(n, 3)
        assert check_extension_hypothesis(pm, 3, a_star)
        assert extension_trace(pm, 3)[-1].is_full()


@pytest.mark.parametrize("pm, k, fixed", [
    (choose_seed(64, 3)[1], 3, True),               # repeats at round 3 of 6
    (seed_multiplication(100, 2, 2), 3, True),      # repeats at the cap
    (seed_multiplication(200, 2, 2), 3, False),     # still growing at 6
    (seed_multiplication(150, 2, 2), 2, False),     # still growing at 4
])
def test_extension_trace_stops_at_first_repeat(pm, k, fixed):
    trace = extension_trace(pm, k)
    rounds = len(trace) - 1
    assert rounds <= default_rounds(k)
    assert all(a.mult != b.mult for a, b in zip(trace, trace[1:-1]))
    assert (trace[-1].mult == trace[-2].mult) == fixed
    if not fixed:
        assert rounds == default_rounds(k)
    m = pm
    for _ in range(rounds):
        m = mu_step(m)
    assert trace[-1] == m


def test_nu_from_set_square_gaps():
    nu = nu_from_set(sets.squares(), 100, 4)
    # positions 4,9,...,81 have following gaps >= 4
    assert nu.gamma(4) >= 8
    assert (3, 5, 15) in nu.mult
    assert all(a * b == c for a, b, c in nu.mult)


def test_synthesize_multiplication_from_squares():
    res = synthesize_multiplication(sets.squares(), 100, Fraction(1, 3))
    assert res.ok and res.k == 4 and res.trace[-1].is_full()
    assert res.t is not None and res.rounds == default_rounds(res.k)
    assert res.trace == extension_trace(res.trace[0], res.k)


def test_synthesize_needs_wide_enough_scale():
    with pytest.raises(ValueError):
        synthesize_multiplication(sets.squares(), 50, Fraction(1, 3), k=2)

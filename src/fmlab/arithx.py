"""Growing a partial multiplication into the full one.

The engine of the arithmetic side of the workbench: a single extension
round (`mu_step`) combines known products through addition; iterating it
up to its fixed point (`extension_trace`) recovers multiplication on the
whole domain whenever the start relation is wide enough
(`check_extension_hypothesis`).  Sparse sets with large gaps supply such
start relations (`nu_from_set`), and `synthesize_multiplication` chains
the pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .evaluator import define_relation
from .model import PartialArithModel
from .sets import NumericalSet, floor_nth_root, gamma_s, occurrence_set
from .syntax import Formula, parse

ARITH_VOCAB = {"A": 3, "M": 3}

MU_TEXT = """
E t. E t1'. E u. E u1'. E v. E v1'. (
  M(u, {y}, v) & M(u1', {y}, v1')
  & (E s. E s1'. (M(t, u, s) & M(t1', u1', s1') & A(s, s1', {x})))
  & (E s. E s1'. (M(t, v, s) & M(t1', v1', s1') & A(s, s1', {z}))))
"""


def mu_formula() -> Formula:
    """The one-round extension formula: z is a known product of x and y
    combined through the two-term decompositions x = tu + t'u' and
    z = t(uy) + t'(u'y)."""
    half = lambda x, y, z: MU_TEXT.format(x=x, y=y, z=z)
    return parse(f"({half('x', 'y', 'z')}) | ({half('y', 'x', 'z')})",
                 ARITH_VOCAB)


def mu_relation_oracle(pm: PartialArithModel) -> frozenset:
    """Direct evaluation of the extension formula by the table engine.
    Its widest table spans 9 variables, so it answers for n <= 8 and
    raises `BudgetExceeded` beyond, where its tables pass `TABLE_CAP`."""
    return define_relation(pm.as_br_model(), mu_formula(), ("x", "y", "z"))


def _half_round(known: np.ndarray) -> np.ndarray:
    """out[y, x]: x = tu + t'u' over products v = tu usable at y (t*u,
    u*y and t*(uy) all known), and x*y < n."""
    n = len(known)
    usable = np.zeros((n, n), dtype=bool)   # usable[y, v]
    # u = 0 gives v = 0 at each y with 0*y known, once some t*0 is known
    usable[:, 0] = known[0] & known[:, 0].any()
    for u in range(1, n):
        ys, ts = known[u].nonzero()[0], known[:, u].nonzero()[0]
        if ys.size and ts.size:
            # every t*u at every y in one gather of known[t, u*y]
            usable[ys[:, None], ts * u] |= known[ts, ys[:, None] * u]
    out = np.zeros((n, n), dtype=bool)
    for y in usable.any(axis=1).nonzero()[0].tolist():
        width = (n - 1) // y + 1 if y else n   # x < ceil(n/y)
        row, sums = usable[y, :width], out[y, :width]
        for v in row.nonzero()[0].tolist():
            sums[v:] |= row[:width - v]
    return out


def mu_step(pm: PartialArithModel) -> PartialArithModel:
    half = _half_round(pm.known)
    return PartialArithModel(pm.n, known=half | half.T)


def default_rounds(k: int) -> int:
    if k < 2:
        raise ValueError("k must be at least 2")
    return 2 * math.ceil(math.log2(k)) + 2


def extension_trace(pm: PartialArithModel, k: int) -> list:
    """The iterates [pm, mu(pm), mu^2(pm), ...]: at most default_rounds(k)
    rounds, which suffice under the width hypothesis, and no round past the
    first that returns its input (mu depends on the relation alone, so
    every later round would return it too)."""
    trace = [pm]
    for _ in range(default_rounds(k)):
        trace.append(mu_step(trace[-1]))
        if trace[-1] == trace[-2]:
            break
    return trace


def check_extension_hypothesis(pm: PartialArithModel, k: int,
                               a_star: int) -> bool:
    """Exact check of the width hypothesis: n >= k^2,
    n^(1/k) <= a* <= n^(1-1/k)/k and k * a* * gamma(M, a*) >= n."""
    n = pm.n
    if k < 2 or n < k * k or not 0 < a_star < n:
        return False
    if a_star ** k < n:
        return False
    if (k * a_star) ** k > n ** (k - 1):
        return False
    return k * a_star * pm.gamma(a_star) >= n


def _width_witness(n: int, k: int, start):
    """The least width t >= n^(1/k) with (k t)^k <= n^(k-1) whose start
    relation `start(t)` meets the width hypothesis, as (t, start(t));
    None when no such t exists."""
    if n < 1:
        return None
    t = floor_nth_root(n - 1, k) + 1
    while (k * t) ** k <= n ** (k - 1):
        pm = start(t)
        if check_extension_hypothesis(pm, k, t):
            return t, pm
        t += 1
    return None


# ---------------------------------------------------------------------------
# start relations


def _rectangle(n: int, a: int, b: int) -> PartialArithModel:
    """Zero rows plus every product of [1..a] x [1..b] below n, closed
    under commutativity."""
    known = np.zeros((n, n), dtype=bool)
    known[:1] = known[:, :1] = True
    rows = np.arange(1, min(a, n - 1) + 1)[:, None]
    cols = np.arange(1, min(b, n - 1) + 1)
    known[rows, cols] = rows * cols < n
    return PartialArithModel(n, known=known | known.T)


def seed_multiplication(n: int, a_star: int, height: Optional[int] = None
                        ) -> PartialArithModel:
    """Zero rows plus the complete product rectangle [0..a*] x [0..height],
    closed under commutativity; the default height makes the k=3 width
    hypothesis hold."""
    if not 1 <= a_star < n:
        raise ValueError("a_star out of range")
    if height is None:
        height = -(-n // (3 * a_star))
    if height < 0:
        raise ValueError(f"height must be nonnegative, got {height}")
    if a_star * height >= n:
        raise ValueError("rectangle does not fit below n")
    return _rectangle(n, a_star, height)


def choose_seed(n: int, k: int = 3):
    """A start relation and witness satisfying the width hypothesis, if
    one of the rectangle seeds does; returns (a_star, model)."""
    default_rounds(k)  # refuses k < 2 before any seed is tried
    found = _width_witness(n, k, lambda a_star: seed_multiplication(n, a_star))
    if found is None:
        raise ValueError(f"no rectangle seed fits n={n}, k={k}")
    return found


def nu_from_set(s: NumericalSet, n: int, t: int,
                word: str = "1") -> PartialArithModel:
    """Products read off the gap structure of a sparse set: positions of
    `word` in the characteristic sequence whose following gap is at least
    t carry disjoint length-a intervals, so counting their union
    multiplies a <= t by b <= (number of such positions)."""
    if t < 1:
        raise ValueError("t must be positive")
    occ = occurrence_set(s, word, n)
    # the width: occurrences m with gap >= t and m + t + len(word) <= n
    bound = n - len(word) + 1
    return _rectangle(n, t, gamma_s(occ, bound, t) if bound >= 1 else 0)


@dataclass
class SynthesisResult:
    ok: bool
    n: int
    k: int
    t: Optional[int]
    word: str
    rounds: int
    trace: list   # extension_trace of the start relation; [] without one
    note: str = ""


def synthesize_multiplication(s: NumericalSet, n: int, eps: Fraction,
                              k: Optional[int] = None,
                              word: str = "1") -> SynthesisResult:
    """From a set loose at scale eps to full multiplication on n points:
    pick k with k * eps > 1, find a workable t, build the start relation
    and iterate the extension rounds."""
    if n < 1:
        raise ValueError("need n >= 1")
    if eps <= 0:
        raise ValueError("need eps > 0")
    if k is None:
        k = int(1 / eps) + 1
    if k * eps <= 1:
        raise ValueError("need k * eps > 1")
    rounds = default_rounds(k)
    found = _width_witness(n, k, lambda t: nu_from_set(s, n, t, word))
    if found is None:
        return SynthesisResult(False, n, k, None, word, rounds, [],
                               "no admissible width witness")
    t, start = found
    trace = extension_trace(start, k)
    ok = trace[-1].is_full()
    return SynthesisResult(ok, n, k, t, word, rounds, trace,
                           "" if ok else "extension fell short")

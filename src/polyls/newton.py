"""Exact parametric line search: discrete Newton, bisection, ladder utilities.

The intersection lambda* = min{f(S)/d(S) : d(S) > 0} is found exactly in
rational arithmetic.  Every Newton step, envelope evaluation and bisection
decision at lambda = p/q is one exact pass of the kernel
(`sfm.minimizers_minus_modular`), the exact minimum of the integral function
q*f - p*d, so the decision stays in integers no matter how ugly the rational
iterate is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadStart, InvariantViolation
from .oracles import Direction, SubmodularOracle
from .sfm import level_set, minimizers_minus_modular
from .subsets import SubsetMask

if TYPE_CHECKING:
    from .dualcut import CutEngineState

# perfbench/tracer.py wraps these names in this module, so they stay bound
# here although the solvers no longer call them
from .oracles import newton_scale  # noqa: F401
from .sfm import membership, minimize  # noqa: F401


@dataclass
class LineSearchResult:
    lambda_star: Fraction
    tight_set: SubsetMask
    dual_optimum: tuple[Fraction, ...]
    method: str
    newton_iterations: int = 0
    engine_iterations: int = 0
    oracle_calls: int = 0
    sfm_calls: int = 0
    # the dual route's engine state; None on every other route
    trace: CutEngineState | None = None


@dataclass
class BinarySearchResult:
    value: Fraction
    membership_calls: int


def dual_point(tight_set: SubsetMask, d: Direction) -> tuple[Fraction, ...]:
    """Scaled indicator 1_S / d(S): a hyperplane-feasible point whose
    extension value equals f(S)/d(S)."""
    den = d.of(tight_set)
    if den == 0:
        raise InvariantViolation("tight set with d(S) = 0 has no dual witness")
    # two shared immutable entries, not n: a held result stays small
    inside, outside = Fraction(1, den), Fraction(0)
    return tuple(inside if i in tight_set else outside for i in range(d.n))


def _result(f, d, lam: Fraction, tight, method, **kw) -> LineSearchResult:
    if f.eval(tight) * lam.denominator != lam.numerator * d.of(tight):
        raise InvariantViolation("tight set does not satisfy f(S) = lambda d(S)")
    return LineSearchResult(lam, tight, dual_point(tight, d), method, **kw)


def _singleton_bound(f: SubmodularOracle, d: Direction) -> tuple[Fraction, int]:
    """(u, mask): u = min over singletons e with d_e > 0 of f({e})/d_e, and
    the mask 1 << e of the first singleton attaining it; one read per such e.
    Direction guarantees some d_e > 0.  The ratios are compared by integer
    cross-multiplication; only u is built as a Fraction."""
    num = den = mask = None
    for e, de in enumerate(d.d):
        if de > 0:
            v = f.eval(1 << e)
            if den is None or v * den < num * de:
                num, den, mask = v, de, 1 << e
    return Fraction(num, den), mask


def upper_bound(f: SubmodularOracle, d: Direction) -> Fraction:
    """min over singletons e with d_e > 0 of f({e})/d_e; always >= lambda*."""
    return _singleton_bound(f, d)[0]


def ladder_spacing(d: Direction) -> Fraction:
    """Minimum gap between distinct finite ratios f(S)/d(S): 1/||d||_1^2."""
    return Fraction(1, d.norm1 ** 2)


def envelope(f: SubmodularOracle, d: Direction,
             lam: Fraction) -> tuple[Fraction, SubsetMask]:
    """g(lambda) = min_S f(S) - lambda d(S), with its minimal minimizer."""
    lam = Fraction(lam)
    q = lam.denominator
    value, minimal, *_ = minimizers_minus_modular(f, q, lam.numerator, d)
    return Fraction(value, q), SubsetMask(minimal, f.n)


def bruteforce_linesearch(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Reference solver: enumerate all ratios f(S)/d(S) with d(S) > 0."""
    before = f.calls
    table = f.dense_table().tolist()
    dsums = d.sums.tolist()
    best_num = best_den = None
    best_mask = 0
    for m in range(1, 1 << f.n):
        den = dsums[m]
        if den <= 0:
            continue
        num = table[m]
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den, best_mask = num, den, m
    lam = Fraction(best_num, best_den)
    return _result(f, d, lam, SubsetMask(best_mask, f.n), "bruteforce",
                   oracle_calls=f.calls - before)


def tight_zero_set(f: SubmodularOracle, d: Direction, p: int, q: int,
                   zeros: np.ndarray) -> int:
    """The tight set at a feasible lambda = p/q, given the zero sets of its
    kernel pass (`minimizers_minus_modular` returned minimum 0): the minimal
    one among the zero sets of largest d(S).  Just right of a breakpoint the
    minimizers are the breakpoint's minimizers with the largest d(S)
    (Radzik 1992), so that set is the minimal minimizer at
    lambda + 1/||d||_1^2, the set a Newton step from above lands on too.
    When no zero set has d(S) > 0, every set with d(S) > 0 reads
    f(S) > lambda d(S), so lambda < lambda*: BadStart.
    """
    dz = d.sums[zeros]
    top = dz.max()
    if not top > 0:
        raise BadStart(f"lambda0={Fraction(p, q)} is feasible but no set with "
                       "d(S) > 0 is tight there: started below lambda*")
    tight = int(np.bitwise_and.reduce(zeros[dz == top]))
    # the Newton ratio of the tight set stays at lambda
    if f.eval(tight) * q != p * d.of(tight):
        raise InvariantViolation("minimal zero set of largest d(S) is not tight")
    return tight


def discrete_newton(f: SubmodularOracle, d: Direction,
                    lambda0: Fraction | None = None) -> LineSearchResult:
    """Exact intersection by Newton steps lambda <- f(S)/d(S) on the envelope.

    Requires lambda0 >= lambda* (defaults to the singleton upper bound).  A
    start below the intersection raises BadStart; f >= 0 gives lambda* >= 0,
    so a negative start is rejected before any kernel pass.  Each step is
    one kernel pass (`minimizers_minus_modular`) at lambda = p/q, kept as a
    reduced pair of ints: the iterates are compared by cross-multiplication
    and reduced by one gcd, and a Fraction is built only for the result.  A
    solve of k steps makes k + 1 kernel calls (`sfm_calls`).  Lambda falls
    at every step, so each pass after the first reads only the level set
    the pass before handed back (`minimizers_minus_modular`), while
    lambda >= 0.

    A start already on lambda* is confirmed by its own pass, with no second
    call at lambda + 1/||d||_1^2: when the minimum at lambda0 is 0, the
    tight set is `tight_zero_set`'s, and a feasible start with no zero set
    of d(S) > 0 lies below lambda*: BadStart.
    """
    before = f.calls
    if lambda0 is None:
        lambda0 = upper_bound(f, d)
    lam = Fraction(lambda0)
    p, q = lam.numerator, lam.denominator
    if p < 0:
        raise BadStart(f"lambda0={lam} is negative: lambda* >= 0 since f >= 0")

    # S = empty reads 0, so the minimum is never positive
    value, s, _, zeros, level = minimizers_minus_modular(f, q, p, d)
    cap = (1 << f.n) + 50
    steps = 0
    while value != 0:
        den = d.of(s)
        if den <= 0:
            raise InvariantViolation("negative envelope with d(S) <= 0: f >= 0 broken")
        num = f.eval(s)
        if not num * q < p * den:
            raise InvariantViolation("Newton iterate failed to decrease")
        g = math.gcd(num, den)
        p, q = num // g, den // g
        tight = s
        # lambda fell, so the last level set holds this one while lambda >= 0
        value, s, _, zeros, level = minimizers_minus_modular(
            f, q, p, d, level if p >= 0 else None)
        steps += 1
        if steps > cap:
            raise InvariantViolation("Newton exceeded the ladder size: oracle broken")

    if steps == 0:
        tight = tight_zero_set(f, d, p, q, zeros)
    return _result(f, d, Fraction(p, q), SubsetMask(tight, f.n), "newton",
                   newton_iterations=steps,
                   oracle_calls=f.calls - before,
                   sfm_calls=steps + 1)


def binary_search(f: SubmodularOracle, d: Direction,
                  lo: Fraction | None = None, hi: Fraction | None = None,
                  eps: Fraction = Fraction(1, 100)) -> BinarySearchResult:
    """Feasibility bisection: returns lam with lam <= lambda* <= lam + eps.

    Runs exactly ceil(log2((hi - lo)/eps)) membership tests: mid d lies in
    P(f) iff min_S q f(S) - p d(S) >= 0 for mid = p/q.  The right end is
    closed: when lambda* sits exactly on the initial upper bound and the
    range is a power-of-two multiple of eps, lambda* = lam + eps is attained.

    The bracket is a pair of integer numerators a, b over one denominator D
    that doubles at each step, so mid = (a + b)/(2D); each test reduces mid
    by one gcd, and a Fraction is built only for the result.  Every test
    lies below the current upper end, so at mid >= 0 the kernel reads only
    the level set of hi (`minimizers_minus_modular`): C(hi) is found once on
    entry and replaced by C(mid) each time hi moves down to mid.  A test at
    mid < 0 reads every set, since there C(mid) need not lie inside C(hi).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo = Fraction(0) if lo is None else Fraction(lo)
    hi = upper_bound(f, d) if hi is None else Fraction(hi)
    if hi < lo:
        raise ValueError("empty bracket")

    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    # the fewest halvings with (b - a) / (2^steps den) <= eps
    ratio = -(-(b - a) * eps.denominator // (den * eps.numerator))
    steps = max(ratio - 1, 0).bit_length()

    level = level_set(f, hi.denominator, hi.numerator, d) if steps else None
    for _ in range(steps):
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        g = math.gcd(mid, den)
        value, _, _, _, mid_level = minimizers_minus_modular(
            f, den // g, mid // g, d, level if mid >= 0 else None)
        if value >= 0:
            a = mid
        else:
            b, level = mid, mid_level
    return BinarySearchResult(Fraction(a, den), steps)

"""Acceptance suite: one test per criterion, exact tolerances pinned.

The cross-method suite (500 random instances per family, ground sets 1..12)
is computed once in a session fixture and shared by the criteria that read
it.  Every equality on lambda* is exact rational equality, zero tolerance.
"""

import csv
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from polyls import (Direction, IntervalGeometric, binary_search,
                    bruteforce_linesearch, discrete_newton, envelope, evaluate,
                    infinity_norm, ladder_spacing, lift, make_family,
                    minimize, minimize_mnp, newton_scale,
                    solve_dual, solve_dual_base, subgradient,
                    submodularity_witness, upper_bound, verify_lifting)
from polyls.instances import FAMILIES, random_instance
from polyls.subsets import SubsetMask

SUITE_SEED = 20260810
SUITE_PER_FAMILY = 500


@dataclass
class SuiteRecord:
    family: str
    n: int
    seed: int
    lambda_brute: Fraction
    lambda_newton: Fraction
    lambda_dual: Fraction
    newton_iters_cold: int
    newton_iters_dual: int
    engine_iterations: int
    sfm_min_brute: int
    sfm_min_mnp: int
    sfm_certified: bool
    sfm_method: str


@pytest.fixture(scope="session")
def cross_suite():
    records = []
    t0 = time.perf_counter()
    for fam in FAMILIES:
        for i in range(SUITE_PER_FAMILY):
            n = 1 + i % 12
            seed = SUITE_SEED + i
            inst = random_instance(fam, n, seed)
            f, d = inst.build()
            brute = bruteforce_linesearch(f, d)
            cold = discrete_newton(f, d)
            warm = solve_dual(f, d)
            # submodular minimization stress at the singleton upper bound
            h = newton_scale(f, d, upper_bound(f, d))
            ref = minimize(h)
            mnp = minimize_mnp(h)
            records.append(SuiteRecord(
                fam, n, seed, brute.lambda_star, cold.lambda_star,
                warm.lambda_star, cold.newton_iterations,
                warm.newton_iterations, warm.engine_iterations,
                ref.min_value, mnp.min_value, mnp.certified, mnp.method))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_01_two_element_base_example(two_elem, d34):
    t0 = time.perf_counter()
    res = solve_dual_base(two_elem, d34)
    elapsed = time.perf_counter() - t0
    assert res.lambda_star == Fraction(3, 7)
    assert res.dual_optimum == (Fraction(1, 7), Fraction(1, 7))
    assert evaluate(two_elem, res.dual_optimum) == Fraction(3, 7)
    assert elapsed < 1.0
    print("ACCEPTANCE 1 (base-polytope worked example): PASS")


def test_criterion_02_two_element_polymatroid_example(two_elem, d_mixed):
    t0 = time.perf_counter()
    res = solve_dual(two_elem, d_mixed)
    elapsed = time.perf_counter() - t0
    assert res.lambda_star == 2
    assert res.dual_optimum == (Fraction(1), Fraction(0))
    assert evaluate(two_elem, res.dual_optimum) == 2
    assert elapsed < 1.0
    print("ACCEPTANCE 2 (polymatroid worked example): PASS")


def test_criterion_03_cross_method_exactness(cross_suite):
    records, elapsed = cross_suite
    assert len(records) == SUITE_PER_FAMILY * len(FAMILIES)
    for rec in records:
        assert rec.lambda_brute == rec.lambda_newton == rec.lambda_dual, rec
    assert elapsed < 600.0, f"suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 (cross-method exactness, {len(records)} instances, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_04_ladder_property():
    checked = 0
    for i in range(200):
        fam = FAMILIES[i % len(FAMILIES)]
        n = 1 + i % 10
        inst = random_instance(fam, n, SUITE_SEED + 31_000 + i)
        f, d = inst.build()
        eps = ladder_spacing(d)
        table = f.dense_table()
        ratios = sorted({Fraction(table[m], d.of(m))
                         for m in range(1, 1 << n) if d.of(m) > 0})
        for a, b in zip(ratios, ratios[1:]):
            assert b - a >= eps, (fam, n, i, a, b)
        checked += 1
    assert checked == 200
    print("ACCEPTANCE 4 (ladder spacing, 200 instances): PASS")


def test_criterion_05_warm_start_bound():
    for i in range(200):
        fam = FAMILIES[i % len(FAMILIES)]
        n = 1 + i % 10
        inst = random_instance(fam, n, SUITE_SEED + 47_000 + i)
        f, d = inst.build()
        star = bruteforce_linesearch(f, d).lambda_star
        eps = ladder_spacing(d)
        for k in (1, 2, 3):
            res = discrete_newton(f, d, star + k * eps - eps / 2)
            assert res.lambda_star == star
            assert res.newton_iterations <= k, (fam, n, i, k)
    print("ACCEPTANCE 5 (warm-start iteration bound, 200 instances): PASS")


def test_criterion_06_worst_case_family():
    f = make_family(IntervalGeometric(2))
    one = SubsetMask.from_indices(2, (0,))
    both = SubsetMask.full(2)
    for big in (10, 100, 1000):
        d = Direction((big, 3 * big - 1))
        star = Fraction(4, big)
        for solver in (discrete_newton, solve_dual):
            assert solver(f, d).lambda_star == star
        bp = Fraction(12, 3 * big - 1)
        # the two active segments meet exactly at the breakpoint
        assert f.eval(one) - bp * d.of(one) == f.eval(both) - bp * d.of(both)
        assert envelope(f, d, (star + bp) / 2)[1] == one
        assert envelope(f, d, bp + (bp - star) / 2)[1] == both
    print("ACCEPTANCE 6 (geometric interval worst case, D in {10,100,1000}): PASS")


def test_criterion_07_lifting_equivalence():
    count = 0
    i = 0
    while count < 100:
        fam = FAMILIES[i % len(FAMILIES)]
        n = 1 + i % 8
        inst = random_instance(fam, n, SUITE_SEED + 59_000 + i)
        i += 1
        f, d = inst.build()
        c = infinity_norm(f) * d.norm1 + 1
        assert verify_lifting(f, d, c), (fam, n, i)
        hat = lift(f, c)
        assert submodularity_witness(hat.dense_table(), hat.n) is None
        count += 1
    print("ACCEPTANCE 7 (lifting equivalence, 100 instances): PASS")


def test_criterion_08_lovasz_extension_suite():
    # corner agreement, all subsets, up to n = 12
    for fam in FAMILIES:
        for n in (1, 4, 8, 12):
            f, _ = random_instance(fam, n, SUITE_SEED + 71_000 + n).build()
            for mask in range(1 << n):
                x = [(mask >> i) & 1 for i in range(n)]
                assert evaluate(f, x) == f.eval(mask)

    # exact positive homogeneity
    import random as _random
    rng = _random.Random(8)
    for fam in FAMILIES:
        f, _ = random_instance(fam, 7, SUITE_SEED + 72_000).build()
        for _ in range(20):
            t = Fraction(rng.randint(0, 60), rng.randint(1, 20))
            x = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                 for _ in range(7)]
            assert evaluate(f, [t * v for v in x]) == t * evaluate(f, x)

    # subgradients live in the base polytope (all constraints, n <= 10)
    for fam in FAMILIES:
        for n in (2, 6, 10):
            f, _ = random_instance(fam, n, SUITE_SEED + 73_000 + n).build()
            x = [Fraction(rng.randint(-30, 30), 7) for _ in range(n)]
            v = subgradient(f, x)
            assert sum(v) == f.eval((1 << n) - 1)
            for mask in range(1 << n):
                assert sum(v[i] for i in range(n) if mask >> i & 1) <= f.eval(mask)

    # finite differences match the subgradient at 100 tie-free points;
    # the probe is float arithmetic, so function values must stay small
    # enough that h * slope is resolvable (rules out the geometric family,
    # whose 4^O(n^2) values wipe out an h = 1e-7 step in float64)
    fd_families = [fam for fam in FAMILIES if fam != "interval-geometric"]
    nprng = np.random.default_rng(13)
    h = 1e-7
    checked = 0
    while checked < 100:
        fam = fd_families[checked % len(fd_families)]
        n = 2 + checked % 9
        f, _ = random_instance(fam, n, SUITE_SEED + 74_000 + checked).build()
        x = nprng.uniform(-1.0, 1.0, size=n)
        if np.diff(np.sort(x)).min() < 1e-3:
            checked += 1
            continue
        v = subgradient(f, list(x))
        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (evaluate(f, list(xp)) - evaluate(f, list(xm))) / (2 * h)
            assert abs(fd - v[i]) <= 1e-6 * max(1.0, abs(v[i])), (fam, n, i)
        checked += 1
    print("ACCEPTANCE 8 (extension suite: corners, homogeneity, "
          "base-polytope membership, finite differences): PASS")


def test_criterion_09_sfm_equivalence(cross_suite):
    records, _ = cross_suite
    for rec in records:
        assert rec.sfm_min_mnp == rec.sfm_min_brute, rec
        assert rec.sfm_certified, rec
    methods = Counter(rec.sfm_method for rec in records)
    print(f"ACCEPTANCE 9 (minimum-norm-point equivalence, "
          f"{len(records)} minimizations, {methods['mnp']} mnp / "
          f"{methods['mnp+bruteforce']} mnp+bruteforce): PASS")


def _ceil_log2(ratio: Fraction) -> int:
    k = 0
    while (1 << k) * ratio.denominator < ratio.numerator:
        k += 1
    return k


def test_criterion_10_binary_search_baseline():
    for i in range(150):
        fam = FAMILIES[i % len(FAMILIES)]
        n = 1 + i % 10
        inst = random_instance(fam, n, SUITE_SEED + 83_000 + i)
        f, d = inst.build()
        star = bruteforce_linesearch(f, d).lambda_star
        lo, hi = Fraction(0), upper_bound(f, d)
        if hi == 0:
            assert star == 0
            continue
        # accuracy at most half the ladder spacing, with (hi - lo)/eps kept
        # off powers of two so the final bracket is strictly inside eps and
        # the half-open guarantee is attainable at the exact call count
        steps = hi / (ladder_spacing(d) / 2)
        k = -(-steps.numerator // steps.denominator)
        while k & (k - 1) == 0:
            k += 1
        eps = hi / k
        assert eps <= ladder_spacing(d) / 2
        res = binary_search(f, d, lo, hi, eps)
        assert res.membership_calls == _ceil_log2((hi - lo) / eps), (fam, n, i)
        assert res.value <= star < res.value + eps, (fam, n, i)
    print("ACCEPTANCE 10 (bisection baseline, 150 instances): PASS")


def test_criterion_11_dual_warm_start_payoff(cross_suite, tmp_path_factory):
    records, _ = cross_suite
    total = len(records)
    fast = sum(rec.newton_iters_dual <= 5 for rec in records)
    out = tmp_path_factory.mktemp("bench") / "dual_warmstart_distribution.csv"
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "n", "seed", "newton_iters_cold",
                    "newton_iters_dual", "engine_iterations"])
        for rec in records:
            w.writerow([rec.family, rec.n, rec.seed, rec.newton_iters_cold,
                        rec.newton_iters_dual, rec.engine_iterations])
    share = fast / total
    assert share >= 0.95, f"only {share:.1%} within 5 Newton steps"
    dist = {}
    for rec in records:
        dist[rec.newton_iters_dual] = dist.get(rec.newton_iters_dual, 0) + 1
    print(f"ACCEPTANCE 11 (dual warm start: {share:.1%} <= 5 iterations; "
          f"distribution {dict(sorted(dist.items()))}; csv at {out}): PASS")

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Stated runtime budgets are asserted;
the sub-millisecond ones are measured as best-of-five steady-state runs.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from splitbeam import (
    Decision,
    PhysicalParams,
    SplitInstance,
    SubsetSumInstance,
    blocked_moments_full,
    blocked_moments_literal,
    build_set_splitting_device,
    complement,
    decode_moment,
    max_n_for_cable,
    max_n_for_total_time,
    min_cable_length,
    published_figure_checks,
    report,
    simulate,
    solve_optical,
    solve_oracle,
    solve_subset_sum,
    splits_family,
    subset_sum_oracle,
)

DEMO = SplitInstance(4, (0b0011, 0b0101))


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def best_runtime(fn, repeats=5):
    fn()  # steady state: exclude first-call setup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def mask_splits(family, mask, n):
    other = ((1 << n) - 1) ^ mask
    for f in family:
        if f & mask == f or f & other == f:
            return False
    return True


def random_family(rng, n, max_sets):
    return tuple(
        rng.randrange(1, 1 << n) for _ in range(rng.randint(0, max_sets))
    )


def test_criterion_1_golden_example_reproduction():
    with criterion(1, "golden four-element example"):

        def work():
            return (
                blocked_moments_literal(SplitInstance(4, (0b0011,))),
                blocked_moments_literal(SplitInstance(4, (0b0101,))),
                blocked_moments_literal(DEMO),
                solve_optical(DEMO),
            )

        m1, m2, literal, answer = work()
        assert list(m1) == [3, 7, 11, 15]
        assert list(m2) == [5, 7, 13, 15]
        assert list(literal) == [3, 5, 7, 11, 13, 15]
        assert answer.decision is Decision.SOLVABLE
        assert answer.solution_moment == 1
        assert answer.partition.a1 == 0b0001
        assert answer.partition.a2 == 0b1110
        assert best_runtime(work) < 1e-3


def test_criterion_2_two_sided_discrepancy():
    with criterion(2, "two-sided blocked set vs one-sided"):

        def work():
            return blocked_moments_full(DEMO)

        expected = [0, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 15]
        # independent brute force over all 16 partitions
        brute = [
            k
            for k in range(16)
            if any(f & side == f for f in DEMO.family for side in (k, 15 ^ k))
        ]
        assert brute == expected
        blocked = work()
        assert list(blocked) == expected
        solutions = sorted(set(range(16)) - set(expected))
        assert solutions == [1, 6, 9, 14]
        # moment 2 lies outside the one-sided set yet is not a solution
        assert 2 not in set(blocked_moments_literal(DEMO))
        assert 2 in set(blocked)
        assert not splits_family(DEMO.family, decode_moment(2, DEMO.n))
        assert best_runtime(work) < 1e-3


def test_criterion_3_set_splitting_oracle_equivalence():
    with criterion(3, "set-splitting oracle equivalence"):
        start = time.perf_counter()
        # (a) exhaustively: every single-set family with n <= 8
        for n in range(1, 9):
            for f in range(1, 1 << n):
                inst = SplitInstance(n, (f,))
                optical = solve_optical(inst)
                oracle = solve_oracle(inst)
                assert optical.decision == oracle.decision
                assert optical.solution_moment == oracle.solution_moment
                assert optical.validate_against(inst)
                assert oracle.validate_against(inst)
        # (b) 10,000 seeded random instances with n <= 20, m <= 6
        rng = random.Random(20260809)
        for _ in range(10_000):
            n = rng.randint(1, 20)
            family = []
            for _ in range(rng.randint(0, 6)):
                size = rng.randint(1, n)
                family.append(
                    sum(1 << (i - 1) for i in rng.sample(range(1, n + 1), size))
                )
            inst = SplitInstance(n, tuple(family))
            optical = solve_optical(inst)
            oracle = solve_oracle(inst)
            assert optical.decision == oracle.decision
            assert optical.solution_moment == oracle.solution_moment
            if optical.solvable:
                assert mask_splits(inst.family, optical.partition.a1, n)
                assert optical.partition.a1 == optical.solution_moment
        assert time.perf_counter() - start < 60


def test_criterion_4_subset_sum_oracle_equivalence():
    with criterion(4, "subset-sum oracle equivalence"):
        start = time.perf_counter()
        rng = random.Random(424242)
        for _ in range(1000):
            n = rng.randint(1, 16)
            values = tuple(rng.randint(1, 10**6) for _ in range(n))
            if rng.random() < 0.5:
                mask = rng.randrange(1, 1 << n)
                target = sum(v for i, v in enumerate(values) if (mask >> i) & 1)
            else:
                target = rng.randint(1, sum(values) + 3)
            inst = SubsetSumInstance(values, target)
            piped = solve_subset_sum(inst)
            direct = subset_sum_oracle(inst)
            assert piped.found == direct.found
            assert piped.witness == direct.witness
            if piped.found:
                assert inst.subset_sum(piped.witness) == target
        assert time.perf_counter() - start < 10


def test_criterion_5_simulation_invariants():
    with criterion(5, "simulation invariants"):
        start = time.perf_counter()
        for n in range(1, 17):
            device = build_set_splitting_device(n)
            timeline = simulate(device)
            assert not timeline.is_analytic
            assert timeline.event_count == 1 << n
            assert np.array_equal(timeline.cores, np.arange(1 << n))
            assert np.all(timeline.counts == 1)
            per_event = Fraction(1, 1 << n)
            total = Fraction(0)
            for event in timeline.iter_events():
                assert event.intensity == per_event
                total += event.intensity
            assert total == 1
        assert time.perf_counter() - start < 30


def test_criterion_6_feasibility_goldens():
    with criterion(6, "feasibility golden values"):
        params = PhysicalParams()
        assert min_cable_length(params) == 3e-4
        assert max_n_for_total_time(1.0, params) == 39
        # figures that do not reproduce under the stated formulas: assert
        # the computed values and that the calculator flags the mismatch
        assert abs(report(39, params).longest_cable_m - 8.25e7) <= 0.005 * 8.25e7
        assert max_n_for_cable(3e5, params) == 30
        assert abs(report(26, params).solve_time_s - 6.7e-5) <= 0.005 * 6.7e-5
        checks = {c.label: c for c in published_figure_checks(params)}
        assert checks["minimum cable length (m)"].agrees
        assert checks["instance size solvable in one second"].agrees
        assert not checks["longest cable for a 39-element device (m)"].agrees
        assert not checks["instance size with 300 km cables"].agrees
        assert not checks["solve time for a 26-element device (s)"].agrees
        for check in checks.values():
            line = check.describe()
            assert repr(check.computed) in line and repr(check.published) in line


def test_criterion_7_property_suite():
    with criterion(7, "property suite"):
        start = time.perf_counter()
        rng = random.Random(7777)

        # decode roundtrip and complement involution
        for n in range(1, 13):
            full = (1 << n) - 1
            for k in range(1 << n):
                assert decode_moment(k, n) == k
                assert complement(complement(k, n), n) == k
        for _ in range(2000):
            n = rng.randint(13, 63)
            k = rng.randrange(1 << n)
            assert decode_moment(k, n) == k
            assert complement(complement(k, n), n) == k

        # reflection symmetry of the solution predicate
        for n in range(1, 13):
            top = (1 << n) - 1
            for _ in range(3):
                inst = SplitInstance(n, random_family(rng, n, 4))
                for k in range(1 << n):
                    assert splits_family(inst.family, k) == splits_family(inst.family, top - k)
        for _ in range(50):
            n = rng.randint(13, 18)
            inst = SplitInstance(n, random_family(rng, n, 4))
            for _ in range(100):
                k = rng.randrange(1 << n)
                assert splits_family(inst.family, k) == splits_family(inst.family, (1 << n) - 1 - k)

        # superset cardinality formula
        for n in range(1, 13):
            for f in range(1, 1 << n):
                assert len(blocked_moments_literal(SplitInstance(n, (f,)))) == 1 << (n - f.bit_count())
        for _ in range(200):
            n = rng.randint(13, 20)
            f = rng.randrange(1, 1 << n)
            assert len(blocked_moments_literal(SplitInstance(n, (f,)))) == 1 << (n - f.bit_count())

        # monotonicity: adding a family set never creates a solution
        for _ in range(300):
            n = rng.randint(1, 12)
            inst = SplitInstance(n, random_family(rng, n, 4))
            grown = SplitInstance(n, inst.family + (rng.randrange(1, 1 << n),))
            if not solve_oracle(inst).solvable:
                assert not solve_oracle(grown).solvable
        for _ in range(50):
            n = rng.randint(13, 18)
            inst = SplitInstance(n, random_family(rng, n, 4))
            grown = SplitInstance(n, inst.family + (rng.randrange(1, 1 << n),))
            if not solve_oracle(inst).solvable:
                assert not solve_oracle(grown).solvable

        # no-solution criterion: full blocked set covers everything
        # exactly when the independent oracle says unsolvable
        for n in range(1, 13):
            for _ in range(25):
                inst = SplitInstance(n, random_family(rng, n, 4))
                covers = blocked_moments_full(inst).first_absent() is None
                assert covers == (solve_oracle(inst).decision is Decision.UNSOLVABLE)
        for _ in range(60):
            n = rng.randint(13, 18)
            inst = SplitInstance(n, random_family(rng, n, 4))
            covers = blocked_moments_full(inst).first_absent() is None
            assert covers == (solve_oracle(inst).decision is Decision.UNSOLVABLE)

        assert time.perf_counter() - start < 60

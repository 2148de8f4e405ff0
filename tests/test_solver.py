"""Decision procedures: optical pipeline vs brute-force oracles."""

import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitbeam.oracle
import splitbeam.solver
from splitbeam import (
    ArrivalTimeline,
    Decision,
    EnumerationLimitError,
    SplitInstance,
    SubsetSumInstance,
    build_subset_sum_device,
    detect_subset_sum,
    simulate,
    solve_optical,
    solve_oracle,
    solve_subset_sum,
    subset_sum_oracle,
)


def mask_splits(family, mask, n):
    """Test-local statement of the problem predicate, shared with nothing."""
    other = ((1 << n) - 1) ^ mask
    for f in family:
        if f & mask == f or f & other == f:
            return False
    return True


def first_split_mask(inst):
    for mask in range(1 << inst.n):
        if mask_splits(inst.family, mask, inst.n):
            return mask
    return None


def split_masks(inst):
    """Every split mask, ascending, by plain Python over range(2**n)."""
    return [mask for mask in range(1 << inst.n) if mask_splits(inst.family, mask, inst.n)]


def free_masks(inst):
    """Every mask the oracle's full scan leaves free, ascending."""
    return list(splitbeam.oracle._free_masks(inst, splitbeam.oracle.DEFAULT_ORACLE_CAP))


def masked_sum(values, mask):
    return sum(v for i, v in enumerate(values) if (mask >> i) & 1)


def smallest_witness(values, target):
    """The smallest mask whose values sum to the target, by plain Python."""
    return min((m for m in range(1 << len(values)) if masked_sum(values, m) == target), default=None)


def one_array_scan(values, target):
    """The smallest witness by filling one int64 array of all 2**n subset
    sums, entry mask holding the sum mask selects, doubled value by value;
    each doubling compares only the half it writes."""
    if target > sum(values):
        return None
    sums = np.empty(1 << len(values), dtype=np.int64)
    sums[0] = 0
    for i, v in enumerate(values):
        half = sums[1 << i : 2 << i]
        np.add(sums[: 1 << i], v, out=half)
        hit = half == target
        k = int(np.argmax(hit))
        if hit[k]:
            return (1 << i) + k
    return None


def random_instance(rng, max_n=12, max_sets=4):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_sets)
    family = tuple(rng.randrange(1, 1 << n) for _ in range(m))
    return SplitInstance(n, family)


class TestSolveOptical:
    def test_worked_example(self, demo4):
        answer = solve_optical(demo4)
        assert answer.decision is Decision.SOLVABLE
        assert answer.solution_moment == 1
        assert answer.partition.a1 == 0b0001
        assert answer.partition.a2 == 0b1110
        assert answer.validate_against(demo4)

    def test_singleton_family_unsolvable(self):
        answer = solve_optical(SplitInstance(3, (0b001,)))
        assert answer.decision is Decision.UNSOLVABLE
        assert answer.partition is None
        assert answer.solution_moment is None
        assert answer.validate_against(SplitInstance(3, (0b001,)))

    def test_empty_family_takes_empty_side(self):
        answer = solve_optical(SplitInstance(4))
        assert answer.solvable
        assert answer.solution_moment == 0
        assert answer.partition.a1 == 0

    def test_cap(self):
        with pytest.raises(EnumerationLimitError, match="simulation cap"):
            solve_optical(SplitInstance(29, (0b11,)))

    @pytest.mark.parametrize("witness", [0, None])
    def test_refuses_a_witness_that_does_not_split(self, demo4, witness):
        # the timeline's mask at moment 1 is re-checked against the family:
        # the empty side splits nothing, and no arrival gives no mask
        with mock.patch.object(ArrivalTimeline, "witness_for", return_value=witness):
            with pytest.raises(AssertionError, match="invalid witness for moment 1$"):
                solve_optical(demo4)


class TestSolveOracle:
    def test_worked_example(self, demo4):
        answer = solve_oracle(demo4)
        assert answer.solvable
        assert answer.solution_moment == 1

    def test_solution_mask_set(self, demo4):
        assert free_masks(demo4) == split_masks(demo4) == [1, 6, 9, 14]

    def test_two_element_set_split(self):
        answer = solve_oracle(SplitInstance(2, (0b11,)))
        assert answer.solvable
        assert answer.solution_moment == 1
        assert answer.partition.a1 == 0b01 and answer.partition.a2 == 0b10

    def test_cap(self):
        with pytest.raises(EnumerationLimitError, match="oracle cap 28"):
            solve_oracle(SplitInstance(29, (0b11,)))

    def test_first_solution_past_the_first_blocks(self):
        # pairs {b, j} for every b < j force element j apart from all lower
        # ones, so the smallest split is 2**j - 1; adding the set of all
        # lower elements leaves none, and the scan runs to the end
        for j in range(9, 18):
            pairs = tuple((1 << b) | (1 << j) for b in range(j))
            inst = SplitInstance(j + 1, pairs)
            assert solve_oracle(inst).solution_moment == (1 << j) - 1
            assert not solve_oracle(SplitInstance(inst.n, inst.family + ((1 << j) - 1,))).solvable

    def test_solution_masks_match_brute_force_across_blocks(self):
        # n = 3 and 11 fit below one unit of the scan, n = 17 spans 32 units
        rng = random.Random(13)
        for n in (3, 11, 17):
            for m in (1, 3, 6):
                family = tuple(sum(1 << p for p in rng.sample(range(n), rng.randint(1, n))) for _ in range(m))
                inst = SplitInstance(n, family)
                assert free_masks(inst) == split_masks(inst)

    def test_solution_masks_scan_in_blocks(self):
        # {a_i, a_(i+1)} for every i forces the elements to alternate, so
        # the only solutions are 0101... and its complement; the 2**20
        # masks themselves would take 8 MiB
        n = 20
        inst = SplitInstance(n, tuple(0b11 << i for i in range(n - 1)))
        tracemalloc.start()
        try:
            masks = free_masks(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        odd = sum(1 << i for i in range(0, n, 2))  # a1, a3, a5, ...
        assert masks == [odd, odd ^ ((1 << n) - 1)]
        assert all(mask_splits(inst.family, k, n) for k in masks)
        assert peak < 2 << 20

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_solution_masks_with_the_full_universe(self, n):
        # n = 8 and 9 fit inside one unit's start flags, n = 16 and 17 end
        # on the last of 16 and 32 units; the full universe is a set too
        rng = random.Random(n)
        family = tuple(sum(1 << p for p in rng.sample(range(n), rng.randint(2, 3))) for _ in range(3))
        inst = SplitInstance(n, family + ((1 << n) - 1,))
        expected = split_masks(inst)
        masks = free_masks(inst)
        assert masks == expected and masks[-1] > (1 << n) - 1024
        answer = solve_oracle(inst)
        assert answer.solution_moment == expected[0] and type(answer.solution_moment) is int

    @pytest.mark.parametrize("n", [8, 16, 17])
    def test_singletons_and_the_full_universe(self, n):
        # f = 1 is a singleton of the low part; a top-bit-only set has an
        # empty low part past one unit, so its tables clear every flag; the
        # full universe cuts every unit but the first and the last
        top, full = 1 << (n - 1), (1 << n) - 1
        families = [(1,), (top,), (full,), (1, full), (top, full), (full, top | 1), (full, 0b11, top | 1)]
        for family in families:
            inst = SplitInstance(n, family)
            expected = split_masks(inst)
            assert free_masks(inst) == expected
            answer = solve_oracle(inst)
            assert answer.solution_moment == (expected[0] if expected else None)
            assert answer.solvable == bool(expected)

    def test_blocks_blocked_before_the_last_set(self):
        # a singleton or an odd cycle of pairs sorts before the larger sets
        # and blocks every mask of every block; the ladder of pairs
        # {b, n - 1} leaves only 2**(n-1) - 1 and 2**(n-1), so every other
        # block is blocked before its larger sets are reached
        rng = random.Random(12)
        for n in (12, 13, 14):
            larger = tuple(sum(1 << p for p in rng.sample(range(n), rng.randint(3, n))) for _ in range(4))
            ladder = tuple((1 << b) | (1 << (n - 1)) for b in range(n - 1))
            for front in ((1 << rng.randrange(n),), (0b11, 0b110, 0b101), (0b11 << 9, 0b110 << 9, 0b101 << 9), ladder):
                for family in (front + larger, larger[:1] + front + larger[1:]):
                    inst = SplitInstance(n, family)
                    expected = split_masks(inst)
                    assert free_masks(inst) == expected
                    assert solve_oracle(inst).solution_moment == (expected[0] if expected else None)
            inst = SplitInstance(n, ladder)
            assert free_masks(inst) == split_masks(inst) == [(1 << (n - 1)) - 1, 1 << (n - 1)]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_family_order_and_duplicates_do_not_matter(self, data):
        n = data.draw(st.integers(1, 12))
        family = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
        duplicates = data.draw(st.lists(st.sampled_from(family), max_size=3)) if family else []
        shuffled = data.draw(st.permutations(family + duplicates))
        inst = SplitInstance(n, tuple(family))
        for other in (shuffled, sorted(family, key=int.bit_count, reverse=True)):
            again = SplitInstance(n, tuple(other))
            assert free_masks(again) == free_masks(inst)
            assert solve_oracle(again) == solve_oracle(inst)

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_family_order_and_duplicates_do_not_matter_past_the_direct_masks(self, data):
        # n = 16 and 17 reach past the first 2**15 masks, across 16 and 32 units
        n = data.draw(st.integers(16, 17))
        family = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
        duplicates = data.draw(st.lists(st.sampled_from(family), max_size=2)) if family else []
        shuffled = data.draw(st.permutations(family + duplicates))
        inst = SplitInstance(n, tuple(family))
        for other in (shuffled, sorted(family, key=int.bit_count, reverse=True)):
            again = SplitInstance(n, tuple(other))
            assert free_masks(again) == free_masks(inst)
            assert solve_oracle(again) == solve_oracle(inst)

    def test_unsolvable_full_scan_memory(self):
        # an odd cycle of pairs cannot be two-coloured, so all 2**22 masks
        # are decided; their flags are 512 B per unit of 2**12
        rng = random.Random(22)
        n = 22
        cycle = (0b11, 0b110, 0b101)
        family = cycle + tuple(sum(1 << p for p in rng.sample(range(n), 4)) for _ in range(3))
        inst = SplitInstance(n, family)
        tracemalloc.start()
        try:
            answer = solve_oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer.decision is Decision.UNSOLVABLE
        assert peak < 1 << 20


UNIT = splitbeam.oracle._ORACLE_UNIT_BITS


def table_path_families(n):
    """Families whose sets meet the oracle's units of 2**UNIT masks in
    every way: a set's high part (bits UNIT and up) is empty, wholly inside
    a unit's high bits, wholly outside them, or cut by them. The sets at
    bits 14 and 15 start inside the high part, above the unit's edge."""
    top, full = 1 << (n - 1), (1 << n) - 1
    above = full >> UNIT << UNIT
    return {
        "below and above bit 15": (0b1011 << 2, full >> 15 << 15),
        "below and above the unit": (0b1011 << 2, above),
        "below and above, with a pair": (0b1011 << 2, above, 0b11 << (UNIT - 2)),
        "straddling": ((1 << (UNIT - 1)) | (1 << UNIT) | top, 0b111 << (UNIT - 2), 0b11 | (1 << UNIT) | top, 0b101 | top),
        "shared low part": (0b10110 | (1 << UNIT), 0b10110 | top, 0b10110 | (1 << UNIT) | top, 0b10110),
        "singleton at bit 14": (1 << 14,),
        "singleton at bit 15": (1 << 15,),
        "singleton at the last low bit": (1 << (UNIT - 1),),
        "singleton at the first high bit": (1 << UNIT,),
        "singleton at bit n-1": (top,),
        "singletons among sets": (0b11 << (UNIT - 2), 1 << (UNIT - 1), 0b101 | top),
        "full universe": (full,),
        "full universe and straddling sets": (full, 0b1001 | (1 << UNIT), 0b110 | top),
    }


def run_group_families(n):
    """Families meeting the runs of units [c, 2c) in every way: a set's
    high part (bits UNIT and up, unit bit k being mask bit UNIT + k) is
    only a run's fixed top bit c, only its varying bits below c, or both,
    and a set brings a new varying bit after some groups have emptied."""
    top = 1 << (n - 1)
    mid = 1 << min(n - 2, UNIT + 2)
    return {
        # each high part is one bit: the fixed top bit of the last run
        # (top) or of an earlier one (mid)
        "fixed top bit only": (top | 0b1011, top | (0b110 << 3), top | (1 << (UNIT - 1)), mid | 0b101, 0b11 << 5),
        # unit bits 0 and 1, both varying in the runs from c = 4 on, which
        # every n from UNIT + 3 reaches
        "varying bits only": ((0b11 << UNIT) | 0b101, (2 << UNIT) | 0b1100, (1 << UNIT) | 0b11, 0b11 << UNIT),
        "fixed and varying bits": (top | (1 << UNIT) | 0b110, top | (0b11 << UNIT) | 1, top | (2 << UNIT) | 0b1010, top | (1 << UNIT)),
        # the pair {UNIT, n - 1} empties the group with unit bit 0 set in
        # the last run (its low part is empty); from n = UNIT + 3 the larger
        # set then brings unit bit 1, which that run varies
        "new bit after a group emptied": ((1 << UNIT) | top, (2 << UNIT) | 0b11, (0b11 << UNIT) | 0b1100 | top),
    }


# the Fano plane's seven lines, which no two sides split
FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def random_triples(rng, n, m):
    return tuple(sum(1 << p for p in rng.sample(range(n), 3)) for _ in range(m))


class TestOracleTablePath:
    @pytest.mark.parametrize("n", [16, 17, 18])
    @pytest.mark.parametrize("name", list(table_path_families(16)))
    def test_free_masks_match_brute_force(self, n, name):
        inst = SplitInstance(n, table_path_families(n)[name])
        expected = split_masks(inst)
        assert free_masks(inst) == expected
        answer = solve_oracle(inst)
        assert answer.solution_moment == (expected[0] if expected else None)

    def test_free_masks_of_the_empty_family_are_every_mask_as_an_int(self):
        # the empty family leaves every mask free: just below one unit,
        # exactly one, and two units, each mask once, in order, as an int
        for n in (UNIT - 1, UNIT, UNIT + 1):
            masks = free_masks(SplitInstance(n))
            assert masks == list(range(1 << n))
            assert {type(m) for m in masks} == {int}

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    @pytest.mark.parametrize("name", list(run_group_families(17)))
    def test_run_groups_match_brute_force(self, n, name):
        inst = SplitInstance(n, run_group_families(n)[name])
        expected = split_masks(inst)
        assert free_masks(inst) == expected
        assert solve_oracle(inst).solution_moment == (expected[0] if expected else None)

    @pytest.mark.parametrize(
        "family",
        [
            # pairs {b, 23}: the smallest split is 2**23 - 1, the last unit
            # of the run [1024, 2048)
            tuple((1 << b) | (1 << 23) for b in range(23)),
            # 40 three-element sets; the smallest split is 3900868, in unit
            # 952 of the run [512, 1024)
            random_triples(random.Random(1), 24, 40),
        ],
        ids=["pair ladder", "random triples"],
    )
    def test_late_solution_decides_no_later_run(self, family):
        inst = SplitInstance(24, family)
        expected = solve_optical(inst)
        first = expected.solution_moment
        assert first is not None and first >= 1 << 19
        start = 1 << ((first >> UNIT).bit_length() - 1)  # the run holding it
        assert 2 * start < 1 << (inst.n - UNIT)  # and later runs follow
        tracemalloc.start()
        try:
            answer = solve_oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == expected
        assert peak < 1 << 20
        # the scan suspended at the answer is still in the run holding it
        gen = splitbeam.oracle._free_masks(inst, splitbeam.oracle.DEFAULT_ORACLE_CAP)
        assert next(gen) == first
        assert gen.gi_frame.f_locals["start"] == start

    def test_table_memory_per_distinct_low_part(self, monkeypatch):
        # every set's high part is unit bit 1, so units 0 and 1 and units
        # 2 and 3 each AND one table of the pair, and neither ever clears
        # every flag: one pair of 512 B tables per low part
        rng = random.Random(17)
        lows = rng.sample(range(1, 1 << UNIT), 2000)
        inst = SplitInstance(UNIT + 2, tuple((2 << UNIT) | f_lo for f_lo in lows))
        built = []

        def counted(f_lo):
            built.append(f_lo)
            return low_table(f_lo)

        low_table = splitbeam.oracle._low_table
        monkeypatch.setattr(splitbeam.oracle, "_low_table", counted)
        tracemalloc.start()
        try:
            free = sum(1 for _ in splitbeam.oracle._free_masks(inst, splitbeam.oracle.DEFAULT_ORACLE_CAP))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert free > 0
        assert sorted(built) == sorted(lows)
        # two tables of 512 B, with their key, per low part
        assert peak < len(lows) * (2 << 10) + (1 << 20)

    @pytest.mark.parametrize(
        "f_lo",
        [0, (1 << UNIT) - 1]
        + [1 << b for b in range(UNIT)]
        + random.Random(29).sample(range(1, (1 << UNIT) - 1), 8),
    )
    def test_low_table_pair_is_the_split_predicate(self, f_lo):
        meets, misses = splitbeam.oracle._low_table(f_lo)
        for j in range(1 << UNIT):
            assert (meets >> j & 1) == (j & f_lo != 0)
            assert (misses >> j & 1) == (j & f_lo != f_lo)
        assert meets >> (1 << UNIT) == misses >> (1 << UNIT) == 0

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_free_masks_match_brute_force_across_the_unit_edge(self, data):
        # below UNIT bits the start flags hold 2**n masks, at UNIT bits one
        # unit holds them all, and past it unit 0 and the runs follow
        n = data.draw(st.one_of(st.sampled_from([UNIT - 1, UNIT, UNIT + 1]), st.integers(1, 14)))
        sets = st.one_of(
            st.integers(1, (1 << n) - 1),
            st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(lambda ps: sum(1 << p for p in ps)),
        )
        inst = SplitInstance(n, tuple(data.draw(st.lists(sets, max_size=6))))
        assert free_masks(inst) == split_masks(inst)

    @pytest.mark.parametrize("family", ["a1", "odd cycle", "fano"])
    def test_unsolvable_families_at_the_cap(self, family):
        # n = 28 is 2**16 units; each family empties every group of a run
        # within a few sets, so tables and groups stay far below their
        # 4 MiB and 16 MiB bounds
        n = 28
        sets = {
            "a1": (1,),
            "odd cycle": (0b011 << 25, 0b110 << 25, 0b101 << 25),
            "fano": tuple(sum(1 << p * (n - 1) // 6 for p in line) for line in FANO_LINES),
        }[family]
        inst = SplitInstance(n, sets)
        tracemalloc.start()
        try:
            answer = solve_oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == solve_optical(inst)
        assert answer.decision is Decision.UNSOLVABLE
        assert peak < 1 << 20

    @pytest.mark.parametrize("family", [(1,), (0b011, 0b110, 0b101)], ids=["a1", "odd cycle 1-3"])
    def test_scan_ends_once_no_later_run_can_differ(self, family):
        # sets inside unit 0's low bits meet every later unit as they meet
        # unit 0, so emptying unit 0 ends the scan: one run of the 2**16
        # units at n = 28, not one per doubling
        code = splitbeam.oracle._free_masks.__code__
        starts = set()

        def in_scan(frame, event, arg):
            if event == "line":
                starts.add(frame.f_locals.get("start"))
            return in_scan

        def on_call(frame, event, arg):
            return in_scan if frame.f_code is code else None

        inst = SplitInstance(28, family)
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            masks = free_masks(inst)
        finally:
            sys.settrace(previous)
        assert masks == []
        assert starts - {None} == {0}


class TestOracleEquivalence:
    def test_exhaustive_single_set_families(self):
        for n in range(1, 9):
            for f in range(1, 1 << n):
                inst = SplitInstance(n, (f,))
                optical = solve_optical(inst)
                oracle = solve_oracle(inst)
                expected = first_split_mask(inst)
                assert optical.decision == oracle.decision
                assert optical.solution_moment == oracle.solution_moment == expected
                assert optical.validate_against(inst)
                assert oracle.validate_against(inst)

    def test_randomized(self):
        rng = random.Random(1234)
        for _ in range(300):
            inst = random_instance(rng)
            optical = solve_optical(inst)
            oracle = solve_oracle(inst)
            expected = first_split_mask(inst)
            assert optical.solution_moment == oracle.solution_moment == expected
            if expected is None:
                assert optical.decision is Decision.UNSOLVABLE
            else:
                assert mask_splits(inst.family, optical.partition.a1, inst.n)

    @staticmethod
    def check_routes_agree(inst):
        optical = solve_optical(inst)
        oracle = solve_oracle(inst)
        assert optical.decision == oracle.decision
        assert optical.solution_moment == oracle.solution_moment
        assert optical.validate_against(inst) and oracle.validate_against(inst)
        if optical.solvable:
            # no smaller mask among the first 2**12 splits the family
            below = range(min(optical.solution_moment, 1 << 12))
            assert not any(mask_splits(inst.family, m, inst.n) for m in below)
        return optical

    @pytest.mark.parametrize("n", [25, 28])
    @pytest.mark.parametrize("family", ["a1", "a8", "top cycle", "fano"])
    def test_structured_families_past_24(self, n, family):
        # families whose blocked set spans several 2**16-word blocks of the
        # class scan: {a1}, {a8}, an odd cycle of seven pairs on the top
        # bits (21-27 at n = 28), and the Fano plane, which no two sides
        # split, spread over the bits
        sets = {
            "a1": (1,),
            "a8": (1 << 7,),
            "top cycle": tuple(1 << (n - 7 + i) | 1 << (n - 7 + (i + 1) % 7) for i in range(7)),
            "fano": tuple(sum(1 << p * (n - 1) // 6 for p in line) for line in FANO_LINES),
        }[family]
        inst = SplitInstance(n, sets)
        assert not self.check_routes_agree(inst).solvable

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(25, 28).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=5),
            )
        )
    )
    def test_random_families_past_24(self, case):
        n, sets = case
        self.check_routes_agree(SplitInstance(n, tuple(sum(1 << p for p in s) for s in sets)))

    def test_monotonicity_adding_sets(self):
        # growing the family can only destroy solutions, never create them
        rng = random.Random(77)
        for _ in range(200):
            inst = random_instance(rng, max_n=10)
            grown = SplitInstance(inst.n, inst.family + (rng.randrange(1, 1 << inst.n),))
            if not solve_oracle(inst).solvable:
                assert not solve_oracle(grown).solvable


class TestSubsetSumSolvers:
    def test_hit(self):
        detection = solve_subset_sum(SubsetSumInstance((1, 2), 3))
        assert detection.found and detection.witness == 0b11

    def test_parity_miss(self):
        detection = solve_subset_sum(SubsetSumInstance((2, 4), 5))
        assert not detection.found

    def test_singleton_hit(self):
        detection = solve_subset_sum(SubsetSumInstance((7,), 7))
        assert detection.found and detection.witness == 0b1

    def test_singleton_miss(self):
        assert not solve_subset_sum(SubsetSumInstance((7,), 3)).found

    def test_oracle_matches_pipeline(self):
        rng = random.Random(4321)
        for _ in range(200):
            n = rng.randint(1, 12)
            values = tuple(rng.randint(1, 99) for _ in range(n))
            if rng.random() < 0.5:
                mask = rng.randrange(1, 1 << n)
                target = sum(v for i, v in enumerate(values) if (mask >> i) & 1)
            else:
                target = rng.randint(1, sum(values) + 2)
            inst = SubsetSumInstance(values, target)
            piped = solve_subset_sum(inst)
            direct = subset_sum_oracle(inst)
            assert piped.found == direct.found
            assert piped.witness == direct.witness == smallest_witness(values, target)
            if piped.found:
                assert inst.subset_sum(piped.witness) == target

    def test_oracle_cap(self):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="oracle cap 28"):
                subset_sum_oracle(SubsetSumInstance(tuple([1] * 29), 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_targets_out_of_reach(self):
        values = (3, 5, 9)
        for target in (sum(values) + 1, 1 << 63, 1 << 64, 1 << 70):
            inst = SubsetSumInstance(values, target)
            for detection in (solve_subset_sum(inst), subset_sum_oracle(inst)):
                assert not detection.found and detection.witness is None
                assert detection.moment.core == target

    def test_oracle_answers_a_target_past_the_sum_before_allocating(self):
        inst = SubsetSumInstance(tuple(range(1, 21)), 211)
        tracemalloc.start()
        try:
            detection = subset_sum_oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not detection.found
        assert peak < 1 << 20

    @staticmethod
    def full_scan_peak(n):
        # all values even, target odd and inside [0, sum]: no subset hits,
        # so every one of the 2**n sums is compared
        values = tuple(2 * (i + 1) for i in range(n))
        inst = SubsetSumInstance(values, sum(values) - 1)
        tracemalloc.start()
        try:
            detection = subset_sum_oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not detection.found
        return peak

    def test_oracle_full_scan_memory(self):
        # the 2**15 low sums (256 KiB), the 2**7 high ones and one flag per
        # mask of a 2**15-mask row (32 KiB)
        assert self.full_scan_peak(22) < 1 << 20

    def test_oracle_full_scan_memory_at_the_cap(self):
        # at n = 28, the cap, only the high sums grow, to 2**13 Python ints
        assert self.full_scan_peak(28) < 1 << 20

    @pytest.mark.parametrize("values, target", [
        ((5, 3, 7), 7),  # witness exactly 1 << 2, the first mask of its step
        ((1, 2, 3), 3),  # 0b011 is written before 0b100 and wins
        ((1, 2, 4, 8), 8),
        ((2, 4, 8, 1), 15),  # only the last mask of the last step hits
        ((2, 4, 8, 1), 1),
        ((6, 6, 6), 12),
        ((7,), 7),
        ((7,), 3),
        ((2, 4, 6), 5),
    ])
    def test_oracle_returns_the_smallest_witness(self, values, target):
        detection = subset_sum_oracle(SubsetSumInstance(values, target))
        expected = smallest_witness(values, target)
        assert detection.found == (expected is not None)
        assert detection.witness == expected

    def test_sums_at_the_int64_edge(self):
        values = (1 << 62, 1 << 61, (1 << 61) - 1)
        assert sum(values) == (1 << 63) - 1
        sums = {masked_sum(values, mask) for mask in range(1, 1 << len(values))}
        for target in sorted(sums) + [1, 1 << 63]:
            inst = SubsetSumInstance(values, target)
            direct = subset_sum_oracle(inst)
            piped = solve_subset_sum(inst)
            assert (direct.found, direct.witness) == (piped.found, piped.witness)
            assert direct.found == (target in sums)
            if direct.found:
                assert inst.subset_sum(direct.witness) == target

    def test_cap(self):
        with pytest.raises(EnumerationLimitError, match="simulation cap"):
            solve_subset_sum(SubsetSumInstance(tuple([1] * 29), 1))

    def test_raised_cap_refuses_oversize_halves_before_allocating(self, monkeypatch):
        # 57 values make a 29-layer front half, which the path enumeration
        # refuses before it allocates the 2**29-entry (4 GiB) buffer
        monkeypatch.setattr(splitbeam.solver, "DEFAULT_SIM_CAP", 63)
        inst = SubsetSumInstance(tuple([1] * 57), 5)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="path enumeration cap 24"):
                solve_subset_sum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_planted_n40_joins_halves_of_2_20_paths(self, monkeypatch):
        rng = random.Random(40)
        values = tuple(rng.randint(1, 1 << 40) for _ in range(40))
        mask = rng.randrange(1, 1 << 40)
        inst = SubsetSumInstance(values, masked_sum(values, mask))
        paths = []
        path_delays = splitbeam.solver._path_delays

        def counted(delays):
            sums = path_delays(delays)
            paths.append(len(sums))
            return sums

        monkeypatch.setattr(splitbeam.solver, "_path_delays", counted)
        monkeypatch.setattr(splitbeam.solver, "DEFAULT_SIM_CAP", 40)
        detection = solve_subset_sum(inst)
        assert detection.found and inst.subset_sum(detection.witness) == inst.target
        assert detection.witness <= mask
        assert paths == [1 << 20, 1 << 20]

    @pytest.mark.parametrize("planted", [True, False])
    def test_at_the_cap_matches_the_oracle_under_one_mib(self, planted):
        # 28 values make halves of 2**14 paths; even values never reach
        # an odd target, so that join finds nothing and the oracle scans
        # every mask
        rng = random.Random(28)
        values = tuple(rng.randint(1, 1 << 40) for _ in range(28))
        if planted:
            inst = SubsetSumInstance(values, masked_sum(values, rng.randrange(1, 1 << 28)))
        else:
            inst = SubsetSumInstance(tuple(2 * v for v in values), 2 * sum(values) // 3 | 1)
        tracemalloc.start()
        try:
            detection = solve_subset_sum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = subset_sum_oracle(inst)
        assert detection.found == expected.found == planted
        assert detection.witness == expected.witness
        assert peak < 1 << 20


class TestSubsetSumOracleBlocks:
    """The oracle splits a mask at bit 15 into a low-table column and a
    row of the high sums, and compares one row of 2**15 masks at a time;
    these instances put witnesses on both sides of the split."""

    def test_random_instances_match_the_one_array_scan(self):
        rng = random.Random(25)
        for n in range(15, 20):
            for width in (8, 20, 40):
                values = tuple(rng.randint(1, 1 << width) for _ in range(n))
                for _ in range(3):
                    if rng.random() < 0.5:
                        target = masked_sum(values, rng.randrange(1, 1 << n))
                    else:
                        target = rng.randint(1, sum(values) + 1)
                    detection = subset_sum_oracle(SubsetSumInstance(values, target))
                    expected = one_array_scan(values, target)
                    assert detection.found == (expected is not None)
                    assert detection.witness == expected

    @pytest.mark.parametrize("n", [16, 17, 19])
    @pytest.mark.parametrize("mask", [(1 << 15) - 1, 1 << 15, (1 << 15) | 1, -1])
    def test_planted_witness_at_a_split(self, n, mask):
        # the last mask of the first row, the first and second masks of the
        # second row, and the last mask of all; wide random values leave
        # one witness
        mask &= (1 << n) - 1
        rng = random.Random(n)
        values = tuple(rng.randint(1, 1 << 40) for _ in range(n))
        inst = SubsetSumInstance(values, masked_sum(values, mask))
        detection = subset_sum_oracle(inst)
        assert detection.found
        assert detection.witness == one_array_scan(values, inst.target) == mask

    def test_many_hits_give_the_smallest(self):
        # values in 1..3 reach every target in many ways, so one row holds
        # several hits, several rows hold hits, and the first must win
        rng = random.Random(3)
        for n in (15, 16, 17):
            values = tuple(rng.randint(1, 3) for _ in range(n))
            for target in (1, 2, 3, values[0] + values[15 % n], sum(values) // 2, sum(values) - 1, sum(values)):
                detection = subset_sum_oracle(SubsetSumInstance(values, target))
                assert detection.found
                assert detection.witness == one_array_scan(values, target)
                assert masked_sum(values, detection.witness) == target

    @pytest.mark.parametrize("n", [17, 19])
    def test_sums_at_the_int64_edge(self, n):
        # the large values sit below and above bit 15, in the low table and
        # in the high sums, and all values sum to 2**63 - 1, so both the
        # sums and the target minus a high sum reach the int64 edge
        rng = random.Random(n)
        small = [rng.randint(1, 1000) for _ in range(n - 3)]
        values = [1 << 62] + small[:14] + [1 << 61] + small[14:]
        values.append((1 << 63) - 1 - sum(values))
        values = tuple(values)
        assert len(values) == n and sum(values) == (1 << 63) - 1
        assert values[15] == 1 << 61
        full = (1 << n) - 1
        masks = (full, full ^ 1, full ^ (1 << 15), 1, 1 << 15, 1 << (n - 1), (1 << (n - 1)) | 1, (1 << 15) | 1)
        for target in [masked_sum(values, m) for m in masks] + [(1 << 63) - 2, 1 << 63]:
            detection = subset_sum_oracle(SubsetSumInstance(values, target))
            expected = one_array_scan(values, target)
            assert detection.witness == expected
            assert detection.found == (expected is not None)
            if detection.found:
                assert masked_sum(values, detection.witness) == target


def test_oracles_never_reach_the_optical_route(monkeypatch, demo4):
    # both oracles answer with every device, simulation, blocked-set and
    # path-enumeration entry point of the optical route made to raise
    ladder = SplitInstance(17, tuple((1 << b) | (1 << 16) for b in range(16)))
    cycle = SplitInstance(16, (0b11, 0b110, 0b101, 0b1111 << 12))
    split_cases = [demo4, ladder, cycle]
    split_expected = [1, (1 << 16) - 1, None]
    rng = random.Random(17)
    values = tuple(rng.randint(1, 1 << 30) for _ in range(17))
    sum_cases = [
        SubsetSumInstance((5, 3, 7), 10),
        SubsetSumInstance((2, 4, 6), 5),
        SubsetSumInstance(values, masked_sum(values, (1 << 16) | 5)),
        SubsetSumInstance(tuple(2 * v for v in values), 2 * sum(values) - 1),
    ]
    sum_expected = [one_array_scan(inst.values, inst.target) for inst in sum_cases]

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle reached the optical route")

    # patched where they are defined, which is where an oracle would reach
    # them, and where solver binds them, so that both optical routes show
    # the refusal is live
    for module, name in (
        (splitbeam.sim, "simulate"),
        (splitbeam.sim, "_path_delays"),
        (splitbeam.device, "build_set_splitting_device"),
        (splitbeam.moments, "blocked_moments_full"),
    ):
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(splitbeam.solver, name, refuse)
    with pytest.raises(AssertionError, match="optical route"):
        solve_optical(demo4)
    with pytest.raises(AssertionError, match="optical route"):
        solve_subset_sum(sum_cases[0])
    for inst, expected in zip(split_cases, split_expected):
        assert solve_oracle(inst).solution_moment == expected
    for inst, expected in zip(sum_cases, sum_expected):
        assert subset_sum_oracle(inst).witness == expected
    assert sum_expected[1:] == [None, (1 << 16) | 5, None]


def assert_routes_agree(inst, timeline):
    """Half-chain join, full timeline and oracle: same decision, same smallest witness."""
    joined = solve_subset_sum(inst)
    full = detect_subset_sum(timeline, inst.target)
    direct = subset_sum_oracle(inst)
    assert (joined.found, joined.witness) == (full.found, full.witness)
    assert (joined.found, joined.witness) == (direct.found, direct.witness)
    if joined.found:
        assert inst.subset_sum(joined.witness) == inst.target


# Value lists that stress coalescing (a few repeated values, tiny ranges)
# as well as wide values whose subset sums are almost all distinct.
subset_values = st.one_of(
    st.integers(1, 3).flatmap(lambda hi: st.lists(st.integers(1, hi), min_size=1, max_size=14)),
    st.lists(st.sampled_from((1, 7, 1 << 20, 1 << 40)), min_size=1, max_size=14),
    st.lists(st.integers(1, 1 << 40), min_size=1, max_size=14),
)


class TestSubsetSumRoutesAgree:
    @settings(max_examples=150, deadline=None)
    @given(values=subset_values, data=st.data())
    def test_random_targets(self, values, data):
        planted = data.draw(st.integers(0, (1 << len(values)) - 1))
        target = data.draw(st.one_of(
            st.just(max(masked_sum(values, planted), 1)),
            st.integers(1, sum(values) + 1),
        ))
        inst = SubsetSumInstance(tuple(values), target)
        assert_routes_agree(inst, simulate(build_subset_sum_device(inst)))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(1, 12), min_size=1, max_size=6))
    def test_every_target_small_n(self, values):
        timeline = simulate(build_subset_sum_device(SubsetSumInstance(tuple(values), 1)))
        for target in range(1, sum(values) + 2):
            assert_routes_agree(SubsetSumInstance(tuple(values), target), timeline)

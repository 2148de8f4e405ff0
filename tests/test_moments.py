"""Moment decoding, superset enumeration, blocked sets, watch strategy."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitbeam import (
    EnumerationLimitError,
    MomentSet,
    SplitInstance,
    WatchPolarity,
    blocked_moments_full,
    blocked_moments_literal,
    choose_watch,
    complement,
    decode_moment,
    encode_moment,
    is_solution_moment,
    superset_moments,
)


def brute_supersets(f, n):
    return [k for k in range(1 << n) if k & f == f]


def brute_literal(inst):
    return sorted({k for f in inst.family for k in brute_supersets(f, inst.n)})


def brute_full(inst):
    # two-sided: a moment is blocked if either side swallows a family set
    out = []
    full = (1 << inst.n) - 1
    for k in range(1 << inst.n):
        sides = (k, full ^ k)
        if any(f & side == f for f in inst.family for side in sides):
            out.append(k)
    return out


def random_instance(rng, n, max_sets=4):
    m = rng.randint(0, max_sets)
    family = tuple(rng.randrange(1, 1 << n) for _ in range(m))
    return SplitInstance(n, family)


class TestDecodeEncode:
    def test_decode_examples(self):
        assert decode_moment(5, 4) == 0b0101  # elements 1 and 3
        assert decode_moment(0, 4) == 0
        assert decode_moment(15, 4) == 0b1111

    def test_roundtrip_exhaustive(self):
        for n in range(1, 13):
            for k in range(1 << n):
                assert encode_moment(decode_moment(k, n), n) == k

    def test_roundtrip_randomized_large(self):
        rng = random.Random(31)
        for _ in range(2000):
            n = rng.randint(13, 63)
            k = rng.randrange(1 << n)
            assert encode_moment(decode_moment(k, n), n) == k

    def test_range_checks(self):
        with pytest.raises(ValueError):
            decode_moment(-1, 4)
        with pytest.raises(ValueError):
            decode_moment(16, 4)
        with pytest.raises(ValueError):
            encode_moment(16, 4)


class TestSupersetMoments:
    def test_first_family_set(self):
        assert superset_moments(0b0011, 4).to_list() == [3, 7, 11, 15]

    def test_second_family_set(self):
        assert superset_moments(0b0101, 4).to_list() == [5, 7, 13, 15]

    def test_full_mask_is_own_only_superset(self):
        assert superset_moments(0b1111, 4).to_list() == [15]

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            superset_moments(0, 4)

    def test_matches_brute_force(self):
        for n in range(1, 11):
            for f in range(1, 1 << n):
                assert superset_moments(f, n).to_list() == brute_supersets(f, n)

    def test_cardinality_formula(self):
        for n in range(1, 11):
            for f in range(1, 1 << n):
                assert len(superset_moments(f, n)) == 1 << (n - f.bit_count())

    def test_sparse_universe_path(self):
        # n above the bitset limit exercises the sorted-tuple representation
        n = 40
        f = (1 << n) - 1 - 0b111  # 37 of 40 elements
        ms = superset_moments(f, n)
        assert ms.to_list() == [f | s for s in range(8)]

    def test_sparse_universe_cap(self):
        with pytest.raises(EnumerationLimitError, match="too large"):
            superset_moments(0b1, 40)


class TestBlockedMoments:
    def test_literal_worked_example(self, demo4):
        assert blocked_moments_literal(demo4).to_list() == [3, 5, 7, 11, 13, 15]

    def test_literal_empty_family(self):
        assert blocked_moments_literal(SplitInstance(4)).to_list() == []

    def test_literal_full_mask(self):
        assert blocked_moments_literal(SplitInstance(2, (0b11,))).to_list() == [3]

    def test_full_worked_example(self, demo4):
        expected = [0, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 15]
        assert brute_full(demo4) == expected
        assert blocked_moments_full(demo4).to_list() == expected

    def test_full_empty_family(self):
        assert blocked_moments_full(SplitInstance(4)).to_list() == []

    def test_full_singleton_blocks_everything(self):
        inst = SplitInstance(2, (0b01,))
        assert brute_full(inst) == [0, 1, 2, 3]
        assert blocked_moments_full(inst).to_list() == [0, 1, 2, 3]

    def test_both_variants_match_brute_force(self):
        rng = random.Random(11)
        for n in range(1, 11):
            for _ in range(20):
                inst = random_instance(rng, n)
                assert blocked_moments_literal(inst).to_list() == brute_literal(inst)
                assert blocked_moments_full(inst).to_list() == brute_full(inst)

    def test_full_is_literal_union_reflection(self):
        rng = random.Random(12)
        for n in range(1, 13):
            for _ in range(10):
                inst = random_instance(rng, n)
                literal = blocked_moments_literal(inst)
                assert blocked_moments_full(inst) == literal | literal.reflect()


class TestChooseWatch:
    def test_small_blocked_side(self, demo4):
        blocked = blocked_moments_literal(demo4)  # 6 < 2**3
        strategy = choose_watch(blocked)
        assert strategy.polarity is WatchPolarity.WATCH_BLOCKED
        assert strategy.moments == blocked

    def test_empty_blocked(self):
        strategy = choose_watch(MomentSet.from_iterable(4, []))
        assert strategy.polarity is WatchPolarity.WATCH_BLOCKED
        assert len(strategy.moments) == 0

    def test_everything_blocked_flips(self):
        strategy = choose_watch(MomentSet.from_iterable(3, range(8)))
        assert strategy.polarity is WatchPolarity.WATCH_SOLUTIONS
        assert len(strategy.moments) == 0

    def test_exact_half_flips(self):
        strategy = choose_watch(MomentSet.from_iterable(3, range(4)))
        assert strategy.polarity is WatchPolarity.WATCH_SOLUTIONS
        assert strategy.moments.to_list() == [4, 5, 6, 7]

    def test_never_larger_than_half(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 10)
            size = rng.randint(0, 1 << n)
            blocked = MomentSet.from_iterable(n, rng.sample(range(1 << n), size))
            assert len(choose_watch(blocked).moments) <= 1 << (n - 1)


class TestIsSolutionMoment:
    def test_worked_example(self, demo4):
        assert is_solution_moment(1, demo4)
        assert not is_solution_moment(15, demo4)
        # moment 2 puts {a2} on one side; the complement swallows {a1,a3}
        assert not is_solution_moment(2, demo4)

    def test_equals_full_blocked_membership(self):
        rng = random.Random(14)
        for n in range(1, 11):
            inst = random_instance(rng, n)
            blocked = blocked_moments_full(inst)
            for k in range(1 << n):
                assert is_solution_moment(k, inst) == (k not in blocked)

    def test_reflection_symmetry(self):
        rng = random.Random(15)
        for n in range(1, 13):
            inst = random_instance(rng, n)
            top = (1 << n) - 1
            for k in range(1 << n):
                assert is_solution_moment(k, inst) == is_solution_moment(top - k, inst)

    def test_range_check(self, demo4):
        with pytest.raises(ValueError):
            is_solution_moment(16, demo4)


class TestMomentSet:
    @staticmethod
    def check_small_and_large_contents(n, large):
        top = (1 << n) - 1
        small = MomentSet.from_iterable(n, [top, 5, 1, 5])
        assert len(small) == 3
        assert small.to_list() == [1, 5, top]
        assert 1 in small and 5 in small and top in small
        for k in (-1, 0, 2, 1 << (n - 1), top - 1, 1 << n):
            assert k not in small
        big = MomentSet.from_iterable(n, reversed(large))
        assert len(big) == len(large)
        assert big.to_list() == large
        assert all(k in big for k in large)
        assert 1 not in big and top not in big
        union = small | big
        assert union == big | small
        assert union.to_list() == sorted({1, 5, top} | set(large))
        assert len(union) == len(large) + 3

    def test_small_and_large_contents_small_universe(self):
        self.check_small_and_large_contents(10, list(range(0, 1 << 10, 2)))

    def test_small_and_large_contents_huge_universe(self):
        self.check_small_and_large_contents(40, list(range(0, 1 << 13, 2)))

    def test_union_across_representations(self):
        a = MomentSet.from_iterable(8, range(0, 256, 2))
        b = MomentSet.from_iterable(8, [1, 3])
        u = a | b
        assert len(u) == 130
        assert 3 in u and 5 not in u

    def test_union_requires_same_universe(self):
        with pytest.raises(ValueError):
            MomentSet.from_iterable(3, []) | MomentSet.from_iterable(4, [])

    def test_complement_set(self):
        ms = MomentSet.from_iterable(3, [0, 2, 4, 6])
        assert ms.complement_set().to_list() == [1, 3, 5, 7]

    def test_complement_cap_on_huge_universe(self):
        with pytest.raises(EnumerationLimitError):
            MomentSet.from_iterable(40, [7]).complement_set()

    def test_reflect(self):
        ms = MomentSet.from_iterable(4, [3, 5])
        assert ms.reflect().to_list() == [10, 12]

    def test_first_absent_and_covers(self):
        assert MomentSet.from_iterable(2, [0, 1, 2, 3]).first_absent() is None
        assert MomentSet.from_iterable(2, [0, 1, 2, 3]).covers_all()
        assert MomentSet.from_iterable(2, [0, 1]).first_absent() == 2
        assert MomentSet.from_iterable(2, [1, 2]).first_absent() == 0
        assert MomentSet.from_iterable(40, [0, 1]).first_absent() == 2

    def test_rejects_out_of_range_members(self):
        with pytest.raises(ValueError):
            MomentSet.from_iterable(3, [8])
        with pytest.raises(ValueError):
            MomentSet.from_iterable(3, [-1])

    def test_contains_and_iter(self):
        ms = MomentSet.from_iterable(5, [4, 1, 4, 30])
        assert ms.to_list() == [1, 4, 30]
        assert 4 in ms and 2 not in ms and 32 not in ms


def model_subsets(mask):
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return {sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)}


# Bitset universes and tuple universes; above 28 only small sets are affordable.
universes = st.one_of(st.integers(1, 12), st.integers(29, 40))


@st.composite
def universe_and_sets(draw):
    n = draw(universes)
    members = st.sets(st.integers(0, (1 << n) - 1), max_size=40)
    return n, draw(members), draw(members)


@st.composite
def instance_with_few_free(draw):
    # at most 4 free elements per set above 28 keeps every family set
    # within the sparse enumeration cap
    n = draw(universes)
    top = (1 << n) - 1
    free_max = n - 1 if n <= 12 else 4
    free_sets = draw(
        st.lists(st.sets(st.integers(0, n - 1), max_size=free_max), max_size=4)
    )
    family = tuple(top ^ sum(1 << p for p in free) for free in free_sets)
    return SplitInstance(n, family)


class TestMomentSetModel:
    """MomentSet against a Python set, on both representations."""

    @settings(max_examples=200, deadline=None)
    @given(universe_and_sets())
    def test_matches_python_set(self, case):
        n, a, b = case
        top = (1 << n) - 1
        ma, mb = MomentSet.from_iterable(n, a), MomentSet.from_iterable(n, b)
        assert len(ma) == len(a)
        assert list(ma) == ma.to_list() == sorted(a)
        for k in a | b | {-1, 0, 1, top, 1 << n}:
            assert (k in ma) == (k in a)
        assert (ma | mb).to_list() == sorted(a | b)
        assert ma.reflect().to_list() == sorted(top - k for k in a)
        gap = next(k for k in range(len(a) + 1) if k not in a)
        assert ma.first_absent() == (gap if gap <= top else None)
        assert ma.covers_all() == (len(a) == 1 << n)
        if n <= 28:
            assert ma.complement_set().to_list() == sorted(set(range(1 << n)) - a)

    @settings(max_examples=200, deadline=None)
    @given(instance_with_few_free(), st.randoms(use_true_random=False))
    def test_equal_contents_by_every_route_compare_and_hash_equal(self, inst, rng):
        n, top = inst.n, (1 << inst.n) - 1
        literal = set()
        for f in inst.family:
            literal |= {f | s for s in model_subsets(top ^ f)}
        full = literal | {top - k for k in literal}
        assert blocked_moments_literal(inst).to_list() == sorted(literal)
        members = list(full)
        rng.shuffle(members)
        cut = rng.randint(0, len(members))
        routes = [
            MomentSet.from_iterable(n, members + members[:cut]),
            MomentSet.from_iterable(n, members[:cut]) | MomentSet.from_iterable(n, members[cut:]),
            blocked_moments_full(inst),
        ]
        if n <= 28:
            routes.append(MomentSet.from_iterable(n, members).complement_set().complement_set())
        for route in routes:
            assert route.to_list() == sorted(full)
            assert route == routes[0]
            assert hash(route) == hash(routes[0])


class TestPackedBuildMemory:
    """At n = 28 a set is a 32 MiB bitset whatever its size; no build of
    one may expand to a byte per moment (256 MiB)."""

    LIMIT = 128 << 20  # 4x the bitset

    @staticmethod
    def peak_bytes(build):
        tracemalloc.start()
        try:
            result = build()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_from_iterable_small_set(self):
        ms, peak = self.peak_bytes(lambda: MomentSet.from_iterable(28, [7, 1 << 27]))
        assert ms.to_list() == [7, 1 << 27]
        assert peak < self.LIMIT

    def test_superset_moments_small_set(self):
        f = (1 << 28) - 2
        ms, peak = self.peak_bytes(lambda: superset_moments(f, 28))
        assert ms.to_list() == [f, f | 1]
        assert peak < self.LIMIT

    def test_contains_reads_one_word(self):
        f = (1 << 28) - 2
        ms = superset_moments(f, 28)
        probes = [f, f | 1] + [i << 20 for i in range(98)]
        tracemalloc.start()
        try:
            hits = sum(k in ms for k in probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits == 2
        assert peak < 1 << 20

    def test_reflect_dense_set_in_place_of_a_member_list(self):
        # 2**23 members: listing them as Python ints would cost far more
        ms = superset_moments(0b1, 24)
        reflected, peak = self.peak_bytes(ms.reflect)
        assert peak < 8 << 20
        assert reflected == MomentSet.from_iterable(24, range(0, 1 << 24, 2))

    def test_repr_decodes_only_what_it_shows(self):
        # every one of the 2**22 moments is blocked; listing them all to
        # show 16 would cost hundreds of MiB
        ms = blocked_moments_full(SplitInstance(22, (0b1,)))
        text, peak = self.peak_bytes(lambda: repr(ms))
        shown = ",".join(map(str, range(16)))
        assert text == f"MomentSet(n=22, size={1 << 22}, {{{shown},...}})"
        assert peak < 1 << 20

    def test_iteration_crosses_decode_slices_and_scan_blocks(self):
        # a dense run over the first 2**17 + 100 moments, then every 997th:
        # both the in-block slicing and the block boundaries are crossed
        n = 19
        members = list(range((1 << 17) + 100)) + list(range((1 << 17) + 100, 1 << n, 997))
        ms = MomentSet.from_iterable(n, members)
        assert list(ms) == members


def family_set_in(n, region):
    """A nonempty family set drawn from the low six bits (one in-word
    pattern), the bits above them (one word slice) or both."""
    low = st.sets(st.integers(0, min(n, 6) - 1), min_size=1)
    high = st.sets(st.integers(6, n - 1), min_size=1) if n > 6 else low
    parts = {"low": [low], "high": [high], "straddle": [low, high]}[region]
    return st.tuples(*parts).map(lambda sets: sum(1 << p for p in set().union(*sets)))


@st.composite
def word_kernel_instance(draw):
    n = draw(st.integers(1, 14))
    regions = st.sampled_from(["low", "high", "straddle"])
    family = draw(st.lists(regions.flatmap(lambda r: family_set_in(n, r)), max_size=4))
    return SplitInstance(n, tuple(family))


class TestWordKernel:
    """The packed word builder against brute force, across the 6-bit word
    boundary and the single-word universes n < 6."""

    @staticmethod
    def check_words(ms):
        assert not ms._words.flags.writeable
        if ms.n < 6:
            assert int(ms._words[0]) >> (1 << ms.n) == 0

    @settings(max_examples=150, deadline=None)
    @given(word_kernel_instance())
    def test_matches_brute_force(self, inst):
        literal = blocked_moments_literal(inst)
        full = blocked_moments_full(inst)
        assert literal.to_list() == brute_literal(inst)
        assert full.to_list() == brute_full(inst)
        built = [literal, full, full.complement_set(), full.reflect(), literal | full]
        for f in inst.family:
            supersets = superset_moments(f, inst.n)
            assert supersets.to_list() == brute_supersets(f, inst.n)
            built.append(supersets)
        for ms in built:
            self.check_words(ms)

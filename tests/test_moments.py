"""Moment decoding, superset enumeration, blocked sets, the packed moment set."""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitbeam import (
    EnumerationLimitError,
    SplitInstance,
    blocked_moments_full,
    blocked_moments_literal,
    complement,
    decode_moment,
    encode_moment,
    is_solution_moment,
    solve_optical,
    superset_moments,
)
from splitbeam import moments


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
        # n above the bitset limit is refused even for a set of 8 moments
        n = 40
        f = (1 << n) - 1 - 0b111  # 37 of 40 elements
        with pytest.raises(EnumerationLimitError, match="n=40 exceeds the moment set cap 28"):
            superset_moments(f, n)

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
                top = (1 << n) - 1
                literal = set(blocked_moments_literal(inst))
                assert set(blocked_moments_full(inst)) == literal | {top - k for k in literal}


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
    def check_small_and_large_contents(n, large_family):
        # a family set with one free element has 2 supersets; the literal
        # set of a family is the union of the supersets of its sets
        top = (1 << n) - 1
        small = superset_moments(top ^ 0b10, n)
        assert len(small) == 2
        assert small.to_list() == [top ^ 0b10, top]
        assert top in small and top - 2 in small
        for k in (-1, 0, 1, 2, 1 << (n - 1), top - 1, 1 << n):
            assert k not in small
        big = blocked_moments_literal(SplitInstance(n, large_family))
        large = sorted({k for f in large_family for k in brute_supersets(f, n)})
        assert len(big) == len(large)
        assert big.to_list() == large
        assert all(k in big for k in large)
        assert 0 not in big and -1 not in big and (1 << n) not in big
        union = blocked_moments_literal(SplitInstance(n, (top ^ 0b10,) + large_family))
        assert union.to_list() == sorted({top ^ 0b10, top} | set(large))

    def test_small_and_large_contents_small_universe(self):
        self.check_small_and_large_contents(10, (0b1, 0b110 << 4))

    def test_small_and_large_contents_huge_universe(self):
        top = (1 << 40) - 1
        for route in (
            lambda: superset_moments(top ^ 0b10, 40),
            lambda: blocked_moments_literal(SplitInstance(40, (0b1, 0b110 << 4))),
        ):
            with pytest.raises(EnumerationLimitError, match="moment set cap 28"):
                route()

    def test_first_absent_and_covers(self):
        full = blocked_moments_full(SplitInstance(2, (0b01,)))  # every moment
        assert full.first_absent() is None
        assert full.covers_all()
        # {a1, a2} on either side blocks 0 and 3
        assert blocked_moments_full(SplitInstance(2, (0b11,))).first_absent() == 1
        assert blocked_moments_literal(SplitInstance(2, (0b10,))).first_absent() == 0
        assert not superset_moments(0b01, 2).covers_all()
        with pytest.raises(EnumerationLimitError):
            blocked_moments_full(SplitInstance(40, (0b01,)))

    def test_rejects_out_of_range_members(self):
        with pytest.raises(ValueError):
            superset_moments(8, 3)
        with pytest.raises(ValueError):
            superset_moments(-1, 3)

    def test_contains_and_iter(self):
        ms = superset_moments(0b11110, 5)
        assert ms.to_list() == [30, 31]
        assert 30 in ms and 2 not in ms and 32 not in ms


def model_subsets(mask):
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return {sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)}


@st.composite
def instance_from_free_sets(draw, universes=st.integers(1, 12)):
    n = draw(universes)
    top = (1 << n) - 1
    free_sets = draw(
        st.lists(st.sets(st.integers(0, n - 1), max_size=n - 1), max_size=4)
    )
    family = tuple(top ^ sum(1 << p for p in free) for free in free_sets)
    return SplitInstance(n, family)


@st.composite
def pattern_set(draw, universes=st.integers(1, 12)):
    """A builder of a fresh moment set by one of the three pattern routes,
    with its members by brute force."""
    n = draw(universes)
    top = (1 << n) - 1
    # any nonempty mask, or one with few free elements (a small superset set)
    masks = st.one_of(
        st.integers(1, top),
        st.sets(st.integers(0, n - 1), max_size=n - 1).map(lambda free: top ^ sum(1 << p for p in free)),
    )
    inst = SplitInstance(n, tuple(draw(st.lists(masks, max_size=4))))
    routes = ["literal", "full"] + (["superset"] if inst.family else [])
    route = draw(st.sampled_from(routes))
    if route == "superset":
        f = inst.family[0]
        return (lambda: superset_moments(f, n)), set(brute_supersets(f, n))
    if route == "literal":
        return (lambda: blocked_moments_literal(inst)), set(brute_literal(inst))
    return (lambda: blocked_moments_full(inst)), set(brute_full(inst))


class TestMomentSetModel:
    """MomentSet against a Python set, and its refusal past the bitset."""

    @settings(max_examples=200, deadline=None)
    @given(pattern_set())
    def test_matches_python_set(self, case):
        build, model = case
        streamed = build()
        n, top = streamed.n, (1 << streamed.n) - 1
        gap = next((k for k in range(1 << n) if k not in model), None)
        probes = model | {-1, 0, 1, top, 1 << n}
        assert streamed.first_absent() == gap
        assert streamed.covers_all() == (gap is None)
        assert all((k in streamed) == (k in model) for k in probes)
        assert streamed._patterns is not None  # nothing was built
        built = build()
        built._words  # build the words
        assert built.first_absent() == gap
        assert built.covers_all() == (gap is None)
        assert all((k in built) == (k in model) for k in probes)
        assert len(built) == len(model)
        assert list(built) == built.to_list() == sorted(model)
        assert built == streamed and streamed == built
        assert (built == superset_moments(top, n)) == (model == {top})
        assert built != blocked_moments_full(SplitInstance(n + 1))

    @settings(max_examples=200, deadline=None)
    @given(instance_from_free_sets(), st.randoms(use_true_random=False))
    def test_equal_contents_by_every_route_compare_equal(self, inst, rng):
        n, top = inst.n, (1 << inst.n) - 1
        literal = set()
        for f in inst.family:
            supersets = {f | s for s in model_subsets(top ^ f)}
            route = superset_moments(f, n)
            assert route.to_list() == sorted(supersets)
            # a superset of f blocks no moment that f does not
            assert route == blocked_moments_literal(SplitInstance(n, (f, f | rng.randrange(top + 1))))
            literal |= supersets
        full = literal | {top - k for k in literal}
        # the same blocked sets from other patterns: the family shuffled,
        # partly repeated and padded with supersets of its sets
        family = list(inst.family) + [f | rng.randrange(top + 1) for f in inst.family]
        rng.shuffle(family)
        same = SplitInstance(n, tuple(family + family[: rng.randint(0, len(family))]))
        for blocked, model in ((blocked_moments_literal, literal), (blocked_moments_full, full)):
            routes = [blocked(inst), blocked(same)]
            for route in routes:
                assert route.to_list() == sorted(model)
                assert route == routes[0]
        assert (blocked_moments_literal(inst) == blocked_moments_full(inst)) == (literal == full)

    @settings(max_examples=100, deadline=None)
    @given(instance_from_free_sets(st.integers(29, 63)))
    def test_every_route_refuses_universes_past_the_bitset(self, inst):
        routes = [lambda f=f: superset_moments(f, inst.n) for f in inst.family]
        routes += [lambda: blocked_moments_literal(inst), lambda: blocked_moments_full(inst)]
        for route in routes:
            with pytest.raises(EnumerationLimitError, match="exceeds the moment set cap 28"):
                route()


class TestRefusalPastTheBitset:
    """Past n = 28 every route to a moment set is refused before it reads
    its input or allocates anything."""

    @pytest.mark.parametrize("n", [29, 63])
    @pytest.mark.parametrize("route", ["superset", "literal", "full", "unread_family"])
    def test_refused_before_allocating(self, n, route):
        # the word array alone would take 64 MiB at n = 29
        inst = SplitInstance(n, (0b1, 0b110))

        def unreadable():
            raise AssertionError("a family set was read")
            yield

        build = {
            "superset": lambda: superset_moments(0b1, n),
            "literal": lambda: blocked_moments_literal(inst),
            "full": lambda: blocked_moments_full(inst),
            "unread_family": lambda: moments._packed_union(n, unreadable(), two_sided=True),
        }[route]
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match=f"n={n} exceeds the moment set cap 28"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


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

    def test_repr_decodes_only_what_it_shows(self):
        # every one of the 2**22 moments is blocked; listing them all to
        # show 16 would cost hundreds of MiB
        ms = blocked_moments_full(SplitInstance(22, (0b1,)))
        text, peak = self.peak_bytes(lambda: repr(ms))
        shown = ",".join(map(str, range(16)))
        assert text == f"MomentSet(n=22, size={1 << 22}, {{{shown},...}})"
        assert peak < 1 << 20

    def test_solvable_decision_at_28_builds_no_set(self):
        # the first solution lies in the first words, so the scan stops
        # after the 64-word prefix instead of building 32 MiB
        rng = random.Random(3)
        inst = SplitInstance(28, tuple(sum(1 << p for p in rng.sample(range(28), 8)) for _ in range(6)))
        answer, peak = self.peak_bytes(lambda: solve_optical(inst))
        assert answer.solvable and answer.validate_against(inst)
        assert peak < 1 << 20

    def test_unsolvable_decision_at_28_scans_in_one_buffer(self):
        # {a1} blocks every moment: all 64 blocks of 2**16 words are scanned
        inst = SplitInstance(28, (0b1,))
        answer, peak = self.peak_bytes(lambda: solve_optical(inst))
        assert not answer.solvable
        assert peak < 1 << 20

    def test_iteration_crosses_decode_slices_and_scan_blocks(self):
        # {a18, a19} fills the last 2**17 moments, one whole scan block
        # decoded in 32 slices; {a1..a7} puts one moment in 128 into every
        # scan block and {a1, a17} every odd moment of four 2**16 runs
        inst = SplitInstance(19, (0b11 << 17, 0b1111111, 1 << 16 | 1))
        assert list(blocked_moments_literal(inst)) == brute_literal(inst)


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
        built = [literal, full]
        for f in inst.family:
            supersets = superset_moments(f, inst.n)
            assert supersets.to_list() == brute_supersets(f, inst.n)
            built.append(supersets)
        for ms in built:
            self.check_words(ms)

    @settings(max_examples=150, deadline=None)
    @given(word_kernel_instance(), st.booleans())
    @example(SplitInstance(14, (1 << 7,)), True)
    @example(SplitInstance(14, (1 << 7 | 1 << 9,)), True)
    @example(SplitInstance(14, (1 << 7 | 1 << 9,)), False)
    def test_every_aligned_block_matches_the_built_words(self, inst, two_sided):
        ms = moments._packed_union(inst.n, inst.family, two_sided=two_sided)
        patterns = dict(ms._patterns)
        words = ms._words
        total = len(words)
        size = 1
        while size <= total:
            for lo in range(0, total, size):
                out = np.zeros(size, dtype=words.dtype)
                moments._or_block(patterns, lo, out)
                assert np.array_equal(out, words[lo : lo + size])
            size *= 2

    @pytest.mark.parametrize("prefix, block", [(64, 1 << 16), (1, 2), (2, 8)])
    @settings(max_examples=100, deadline=None)
    @given(inst=word_kernel_instance())
    def test_streamed_first_absent_matches_built_scan_and_brute_force(self, prefix, block, inst):
        # small block sizes put every block boundary of the scan within reach
        blocked = set(brute_full(inst))
        gap = next((k for k in range(1 << inst.n) if k not in blocked), None)
        with mock.patch.multiple(moments, _PREFIX_WORDS=prefix, _BLOCK_WORDS=block):
            streamed = blocked_moments_full(inst)
            assert streamed.first_absent() == gap
            assert streamed.covers_all() == (gap is None)
            assert streamed._patterns is not None  # nothing was built
            built = blocked_moments_full(inst)
            built._words  # build the words
            assert built.first_absent() == gap

    def test_first_solution_in_a_later_block(self):
        # {a23, a24} blocks every moment below 2**22 (its complement holds
        # both), {a1, a2} and {a7, a8} move the first solution to word
        # 2**16 + 1, bit 1: the second of four 2**16-word blocks at n = 24
        inst = SplitInstance(24, (3 << 22, 0b11, 0b11 << 6))
        expected = 1 << 22 | 1 << 6 | 1
        assert blocked_moments_full(inst).first_absent() == expected
        built = blocked_moments_full(inst)
        built._words  # build the words
        assert expected not in built and expected - 1 in built
        assert built.first_absent() == expected
        assert solve_optical(inst).solution_moment == expected

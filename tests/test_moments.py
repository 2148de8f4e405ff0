"""Moment decoding, superset moments, blocked sets, the packed moment set."""

import dataclasses
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
    solve_optical,
    solve_oracle,
    splits_family,
)
from splitbeam import moments


def supersets_of(f, n):
    """The moments whose subset contains ``f``: the one-sided blocked set
    of the family {f}."""
    return blocked_moments_literal(SplitInstance(n, (f,)))


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


def reference_fill(patterns, lo, out):
    """OR every pattern into its words among words [lo, lo + len(out)),
    held in ``out``: the fill that the class scan replaced, kept as the
    reference it is checked against.

    Pattern (f_hi, want) belongs to the words w with w & f_hi == want.
    len(out) is a power of two and lo a multiple of it, so a pattern
    whose fixed bits disagree with lo's above the block misses it;
    otherwise each run of its free low bits is one axis of a strided view
    of ``out``.
    """
    low = len(out) - 1
    for (f_hi, want), pattern in patterns.items():
        if (lo ^ want) & f_hi & ~low:
            continue
        shape, strides = [], []
        free = low & ~f_hi
        while free:
            start = free & -free
            stop = (free + start) & ~free
            shape.append(stop // start)
            strides.append(start * 8)
            free ^= stop - start
        view = np.ndarray(tuple(reversed(shape)), "<u8", out, (want & low) * 8, tuple(reversed(strides)))
        view |= pattern


def words_of(ms):
    """The whole word array of ``ms``, ORed from its patterns by the
    reference fill: what the class scan's reads are checked against."""
    words = np.zeros(1 << max(ms.n - 6, 0), dtype="<u8")
    reference_fill(ms._patterns, 0, words)
    return words


def kernel_words(ms, lo, size):
    """Words [lo, lo + size) of ``ms`` as the class kernel leaves them:
    word lo + i is the class word whose index is the sum, in plain Python,
    of the places of i's bits."""
    buffer = np.empty(size, dtype="<u8")
    places = moments._classes(ms._patterns, lo, size, buffer, moments._full_word(ms.n))
    assert len(places) <= (size - 1).bit_length()
    return [int(buffer[sum(at for bit, at in places.items() if i & bit)]) for i in range(size)]


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
                assert decode_moment(k, n) == k

    def test_roundtrip_randomized_large(self):
        rng = random.Random(31)
        for _ in range(2000):
            n = rng.randint(13, 63)
            k = rng.randrange(1 << n)
            assert decode_moment(k, n) == k

    def test_range_checks(self):
        with pytest.raises(ValueError):
            decode_moment(-1, 4)
        with pytest.raises(ValueError):
            decode_moment(16, 4)


class TestSupersetMoments:
    def test_first_family_set(self):
        assert list(supersets_of(0b0011, 4)) == [3, 7, 11, 15]

    def test_second_family_set(self):
        assert list(supersets_of(0b0101, 4)) == [5, 7, 13, 15]

    def test_full_mask_is_own_only_superset(self):
        assert list(supersets_of(0b1111, 4)) == [15]

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            supersets_of(0, 4)

    def test_matches_brute_force(self):
        for n in range(1, 11):
            for f in range(1, 1 << n):
                assert list(supersets_of(f, n)) == brute_supersets(f, n)

    def test_cardinality_formula(self):
        for n in range(1, 11):
            for f in range(1, 1 << n):
                assert len(supersets_of(f, n)) == 1 << (n - f.bit_count())

    def test_sparse_universe_path(self):
        # n above the bitset limit is refused even for a set of 8 moments
        n = 40
        f = (1 << n) - 1 - 0b111  # 37 of 40 elements
        with pytest.raises(EnumerationLimitError, match="n=40 exceeds the moment set cap 28"):
            supersets_of(f, n)

    def test_sparse_universe_cap(self):
        with pytest.raises(EnumerationLimitError, match="too large"):
            supersets_of(0b1, 40)


class TestBlockedMoments:
    def test_literal_worked_example(self, demo4):
        assert list(blocked_moments_literal(demo4)) == [3, 5, 7, 11, 13, 15]

    def test_literal_empty_family(self):
        assert list(blocked_moments_literal(SplitInstance(4))) == []

    def test_literal_full_mask(self):
        assert list(blocked_moments_literal(SplitInstance(2, (0b11,)))) == [3]

    def test_full_worked_example(self, demo4):
        expected = [0, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 15]
        assert brute_full(demo4) == expected
        assert list(blocked_moments_full(demo4)) == expected

    def test_full_empty_family(self):
        assert list(blocked_moments_full(SplitInstance(4))) == []

    def test_full_singleton_blocks_everything(self):
        inst = SplitInstance(2, (0b01,))
        assert brute_full(inst) == [0, 1, 2, 3]
        assert list(blocked_moments_full(inst)) == [0, 1, 2, 3]

    def test_both_variants_match_brute_force(self):
        rng = random.Random(11)
        for n in range(1, 11):
            for _ in range(20):
                inst = random_instance(rng, n)
                assert list(blocked_moments_literal(inst)) == brute_literal(inst)
                assert list(blocked_moments_full(inst)) == brute_full(inst)

    def test_full_is_literal_union_reflection(self):
        rng = random.Random(12)
        for n in range(1, 13):
            for _ in range(10):
                inst = random_instance(rng, n)
                top = (1 << n) - 1
                literal = set(blocked_moments_literal(inst))
                assert set(blocked_moments_full(inst)) == literal | {top - k for k in literal}


class TestIsSolutionMoment:
    """A moment is a solution iff the subset it decodes splits the family."""

    def test_worked_example(self, demo4):
        assert splits_family(demo4.family, decode_moment(1, 4))
        assert not splits_family(demo4.family, decode_moment(15, 4))
        # moment 2 puts {a2} on one side; the complement swallows {a1,a3}
        assert not splits_family(demo4.family, decode_moment(2, 4))

    def test_equals_full_blocked_membership(self):
        rng = random.Random(14)
        for n in range(1, 11):
            inst = random_instance(rng, n)
            blocked = set(blocked_moments_full(inst))
            for k in range(1 << n):
                assert splits_family(inst.family, k) == (k not in blocked)

    def test_reflection_symmetry(self):
        rng = random.Random(15)
        for n in range(1, 13):
            inst = random_instance(rng, n)
            top = (1 << n) - 1
            for k in range(1 << n):
                assert splits_family(inst.family, k) == splits_family(inst.family, top - k)

    def test_range_check(self, demo4):
        # a moment past the window decodes to no subset of the universe
        with pytest.raises(ValueError):
            decode_moment(16, demo4.n)


class TestMomentSet:
    @staticmethod
    def check_small_and_large_contents(n, large_family):
        # a family set with one free element has 2 supersets; the literal
        # set of a family is the union of the supersets of its sets
        top = (1 << n) - 1
        small = supersets_of(top ^ 0b10, n)
        assert len(small) == 2
        assert list(small) == [top ^ 0b10, top]
        big = blocked_moments_literal(SplitInstance(n, large_family))
        large = sorted({k for f in large_family for k in brute_supersets(f, n)})
        assert len(big) == len(large)
        assert list(big) == large
        union = blocked_moments_literal(SplitInstance(n, (top ^ 0b10,) + large_family))
        assert list(union) == sorted({top ^ 0b10, top} | set(large))

    def test_small_and_large_contents_small_universe(self):
        self.check_small_and_large_contents(10, (0b1, 0b110 << 4))

    def test_small_and_large_contents_huge_universe(self):
        top = (1 << 40) - 1
        for route in (
            lambda: supersets_of(top ^ 0b10, 40),
            lambda: blocked_moments_literal(SplitInstance(40, (0b1, 0b110 << 4))),
        ):
            with pytest.raises(EnumerationLimitError, match="moment set cap 28"):
                route()

    def test_first_absent_and_covers(self):
        full = blocked_moments_full(SplitInstance(2, (0b01,)))  # every moment
        assert full.first_absent() is None
        # {a1, a2} on either side blocks 0 and 3
        assert blocked_moments_full(SplitInstance(2, (0b11,))).first_absent() == 1
        assert blocked_moments_literal(SplitInstance(2, (0b10,))).first_absent() == 0
        assert supersets_of(0b01, 2).first_absent() == 0
        with pytest.raises(EnumerationLimitError):
            blocked_moments_full(SplitInstance(40, (0b01,)))

    def test_rejects_out_of_range_members(self):
        with pytest.raises(ValueError):
            supersets_of(8, 3)
        with pytest.raises(ValueError):
            supersets_of(-1, 3)

    def test_contains_and_iter(self):
        ms = supersets_of(0b11110, 5)
        assert list(ms) == [30, 31]
        assert words_of(ms).tolist() == [3 << 30]

    @staticmethod
    def literal_and_full():
        # a literal set with a hole at 0, and a full set that covers all
        inst = SplitInstance(10, (0b11, 0b110 << 4))
        return blocked_moments_literal(inst), blocked_moments_full(SplitInstance(10, (0b1,)))

    def test_assigning_any_field_is_refused(self):
        for ms in self.literal_and_full():
            before = (len(ms), ms.first_absent(), repr(ms))
            names = ("n", "_patterns")
            for name in names:
                held = getattr(ms, name)
                for value in (3, {}):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(ms, name, value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(ms, name)
                assert getattr(ms, name) is held
            # a name that is not a field is refused too; slotted frozen
            # dataclasses raise TypeError for it on some Python versions
            with pytest.raises((AttributeError, TypeError)):
                ms.extra = 1
            assert tuple(f.name for f in dataclasses.fields(ms)) == names
            assert (len(ms), ms.first_absent(), repr(ms)) == before
        literal, full = self.literal_and_full()
        assert (literal.first_absent(), full.first_absent()) == (0, None)

    def test_equality_and_hash_are_by_identity(self):
        for ms, again in zip(self.literal_and_full(), self.literal_and_full()):
            assert ms == ms and ms != again
            assert list(ms) == list(again)
            assert hash(ms) == object.__hash__(ms)
            assert len({ms, again, ms}) == 2


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
    """A moment set built by one of the three pattern routes, with its
    members by brute force."""
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
        return supersets_of(f, n), set(brute_supersets(f, n))
    if route == "literal":
        return blocked_moments_literal(inst), set(brute_literal(inst))
    return blocked_moments_full(inst), set(brute_full(inst))


class TestMomentSetModel:
    """MomentSet against a Python set, and its refusal past the bitset."""

    @settings(max_examples=300, deadline=None)
    @given(pattern_set(), st.sampled_from([(64, 1 << 16), (1, 2), (2, 8)]))
    def test_matches_python_set(self, case, sizes):
        # small block sizes put block boundaries within reach of every read
        ms, model = case
        prefix, block = sizes
        with mock.patch.multiple(moments, _PREFIX_WORDS=prefix, _BLOCK_WORDS=block):
            n = ms.n
            gap = next((k for k in range(1 << n) if k not in model), None)
            assert ms.first_absent() == gap
            assert len(ms) == len(model)
            assert list(ms) == sorted(model)
            words = words_of(ms)
            assert {k for k in range(1 << n) if int(words[k >> 6]) >> (k & 63) & 1} == model
            shown = ",".join(map(str, sorted(model)[:16])) + (",..." if len(model) > 16 else "")
            assert repr(ms) == f"MomentSet(n={n}, size={len(model)}, {{{shown}}})"

    @settings(max_examples=200, deadline=None)
    @given(instance_from_free_sets(), st.randoms(use_true_random=False))
    def test_equal_contents_by_every_route_compare_equal(self, inst, rng):
        n, top = inst.n, (1 << inst.n) - 1
        literal = set()
        for f in inst.family:
            supersets = {f | s for s in model_subsets(top ^ f)}
            route = supersets_of(f, n)
            assert list(route) == sorted(supersets)
            # a superset of f blocks no moment that f does not
            assert list(route) == list(blocked_moments_literal(SplitInstance(n, (f, f | rng.randrange(top + 1)))))
            literal |= supersets
        full = literal | {top - k for k in literal}
        # the same blocked sets from other patterns: the family shuffled,
        # partly repeated and padded with supersets of its sets
        family = list(inst.family) + [f | rng.randrange(top + 1) for f in inst.family]
        rng.shuffle(family)
        same = SplitInstance(n, tuple(family + family[: rng.randint(0, len(family))]))
        for blocked, model in ((blocked_moments_literal, literal), (blocked_moments_full, full)):
            for route in (blocked(inst), blocked(same)):
                assert list(route) == sorted(model)
        assert (list(blocked_moments_literal(inst)) == list(blocked_moments_full(inst))) == (literal == full)

    @settings(max_examples=100, deadline=None)
    @given(instance_from_free_sets(st.integers(29, 63)))
    def test_every_route_refuses_universes_past_the_bitset(self, inst):
        routes = [lambda f=f: supersets_of(f, inst.n) for f in inst.family]
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
            "superset": lambda: supersets_of(0b1, n),
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
    """At n = 28 the bitset of a set would take 32 MiB whatever its size;
    no build or read of one may hold more than a 512 KiB block of it."""

    LIMIT = 1 << 20  # two blocks

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
        ms, peak = self.peak_bytes(lambda: supersets_of(f, 28))
        assert list(ms) == [f, f | 1]
        assert peak < self.LIMIT

    def test_repr_decodes_only_what_it_shows(self):
        # every one of the 2**n moments is blocked; listing them all to
        # show 16 would cost hundreds of MiB
        for n in (22, 28):
            ms = blocked_moments_full(SplitInstance(n, (0b1,)))
            text, peak = self.peak_bytes(lambda: repr(ms))
            shown = ",".join(map(str, range(16)))
            assert text == f"MomentSet(n={n}, size={1 << n}, {{{shown},...}})"
            assert peak < self.LIMIT

    def test_len_streams_the_blocks(self):
        # a1 and a2 on one side: half the moments, in every one of the 64 blocks
        ms = blocked_moments_full(SplitInstance(28, (0b11,)))
        size, peak = self.peak_bytes(lambda: len(ms))
        assert size == 1 << 27
        assert peak < self.LIMIT

    def test_listing_a_small_set(self):
        f = (1 << 28) - 4
        ms = supersets_of(f, 28)
        members, peak = self.peak_bytes(lambda: list(ms))
        assert members == [f, f | 1, f | 2, f | 3]
        assert peak < self.LIMIT

    def test_solvable_decision_at_28_builds_no_set(self):
        # the first solution lies in the first words, so the scan stops
        # in the first word or the 64-word prefix instead of building 32 MiB
        rng = random.Random(3)
        inst = SplitInstance(28, tuple(sum(1 << p for p in rng.sample(range(28), 8)) for _ in range(6)))
        answer, peak = self.peak_bytes(lambda: solve_optical(inst))
        assert answer.solvable and answer.validate_against(inst)
        assert peak < 1 << 20

    def test_unsolvable_decision_at_28_scans_in_one_buffer(self):
        # the odd cycle on a20, a24 and a28 fixes word-index bit 21, so
        # all 32 blocks of 2**16 words below moment 2**27 are scanned
        # (33 spans with the prefix), reusing one buffer
        inst = SplitInstance(28, (1 << 19 | 1 << 23, 1 << 23 | 1 << 27, 1 << 19 | 1 << 27))
        answer, peak = self.peak_bytes(lambda: solve_optical(inst))
        assert not answer.solvable
        assert peak < 1 << 20

    def test_first_absent_allocates_only_the_words_it_reads(self):
        # {a1, a2}, {a1, a3}, {a4, a5}: the first hole is moment 9, in
        # word 0, which is read without the kernel, so the scan holds no
        # word and not the 2**16 of a block; an odd cycle of pairs at n = 22 has no hole, and the scan
        # holds the 2**15 words of the lower half (256 KiB), not 2**16
        ms = blocked_moments_full(SplitInstance(24, (0b11, 0b101, 0b11000)))
        first, peak = self.peak_bytes(ms.first_absent)
        assert first == 9
        assert peak < 16 << 10
        ms = blocked_moments_full(SplitInstance(22, (0b011 << 19, 0b110 << 19, 0b101 << 19)))
        first, peak = self.peak_bytes(ms.first_absent)
        assert first is None
        assert peak < 320 << 10

    def test_unsolvable_decision_at_28_scans_only_the_lower_half(self):
        # a split and its complement are both splits, so no hole below
        # moment 2**27 proves there is none: no block from word 2**21 on
        # is taken. The odd cycle on a20, a24 and a28 fixes word-index
        # bits 13, 17 and 21, so the blocks differ and each is scanned
        inst = SplitInstance(28, (1 << 19 | 1 << 23, 1 << 23 | 1 << 27, 1 << 19 | 1 << 27))
        with mock.patch.object(moments, "_classes", wraps=moments._classes) as classes:
            answer = solve_optical(inst)
        assert not answer.solvable
        assert max(lo + size for (_, lo, size, *_), _ in classes.call_args_list) == 1 << 21

    def test_iteration_decodes_only_occupied_blocks(self):
        # {a2, ..., a28} blocks the moments holding all of a2..a28 or none
        # of them: two moments in the first block and two in the last
        inst = SplitInstance(28, ((1 << 28) - 2,))
        with mock.patch.object(moments, "_bit_positions", wraps=moments._bit_positions) as decode:
            members = list(blocked_moments_full(inst))
        assert members == [0, 1, 268435454, 268435455]
        assert decode.call_count <= 2

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


def top_pairs(n):
    """{a_n, a_j} for every j < n: the holes are 2**(n-1) - 1 and 2**(n-1),
    so the smallest is the last moment of the lower half."""
    return SplitInstance(n, tuple(1 << (n - 1) | 1 << j for j in range(n - 1)))


class TestWordKernel:
    """The packed word builder against brute force, across the 6-bit word
    boundary and the single-word universes n < 6."""

    @staticmethod
    def check_words(ms):
        if ms.n < 6:
            assert int(words_of(ms)[0]) >> (1 << ms.n) == 0

    @settings(max_examples=150, deadline=None)
    @given(word_kernel_instance())
    def test_matches_brute_force(self, inst):
        literal = blocked_moments_literal(inst)
        full = blocked_moments_full(inst)
        assert list(literal) == brute_literal(inst)
        assert list(full) == brute_full(inst)
        built = [literal, full]
        for f in inst.family:
            supersets = supersets_of(f, inst.n)
            assert list(supersets) == brute_supersets(f, inst.n)
            built.append(supersets)
        for ms in built:
            self.check_words(ms)

    @settings(max_examples=150, deadline=None)
    @given(word_kernel_instance(), st.booleans())
    @example(SplitInstance(14, (1 << 7,)), True)
    @example(SplitInstance(14, (1 << 7 | 1 << 9,)), True)
    @example(SplitInstance(14, (1 << 7 | 1 << 9,)), False)
    def test_every_aligned_block_matches_the_built_words(self, inst, two_sided):
        # the class words of every aligned block, copied out to the words
        # they stand for, are the reference fill's words
        ms = moments._packed_union(inst.n, inst.family, two_sided=two_sided)
        words = words_of(ms)
        total = len(words)
        size = 1
        while size <= total:
            for lo in range(0, total, size):
                assert kernel_words(ms, lo, size) == words[lo : lo + size].tolist()
            size *= 2

    @pytest.mark.parametrize("prefix, block", [(64, 1 << 16), (1, 2), (2, 8)])
    @settings(max_examples=100, deadline=None)
    @given(inst=word_kernel_instance())
    # first_absent scans the words below moment 2**(n-1): for n = 1-6 the
    # one word, which also holds the upper half, at n = 7 exactly the
    # lower half's one word, and at n = 9 and n = 11 two blocks of the
    # patched 2 and 8 words. top_pairs puts the smallest hole on the last
    # moment of the lower half, and {a1} covers all
    @example(inst=top_pairs(1))
    @example(inst=top_pairs(2))
    @example(inst=top_pairs(3))
    @example(inst=top_pairs(4))
    @example(inst=top_pairs(5))
    @example(inst=top_pairs(6))
    @example(inst=top_pairs(7))
    @example(inst=top_pairs(9))
    @example(inst=top_pairs(11))
    @example(inst=SplitInstance(6, (0b1,)))
    @example(inst=SplitInstance(7, (0b1,)))
    @example(inst=SplitInstance(11, (0b1,)))
    def test_streamed_first_absent_matches_built_scan_and_brute_force(self, prefix, block, inst):
        # small block sizes put every block boundary of the scan within
        # reach; the scan stops at 2**(n-1), the brute force does not
        for build, brute in ((blocked_moments_full, brute_full), (blocked_moments_literal, brute_literal)):
            blocked = set(brute(inst))
            gap = next((k for k in range(1 << inst.n) if k not in blocked), None)
            with mock.patch.multiple(moments, _PREFIX_WORDS=prefix, _BLOCK_WORDS=block):
                streamed = build(inst)
                assert streamed.first_absent() == gap
            words = words_of(build(inst))
            clear = (k for k in range(1 << inst.n) if not int(words[k >> 6]) >> (k & 63) & 1)
            assert next(clear, None) == gap

    def test_first_solution_in_a_later_block(self):
        # {a23, a24} blocks every moment below 2**22 (its complement holds
        # both), {a1, a2} and {a7, a8} move the first solution to word
        # 2**16 + 1, bit 1: the second of four 2**16-word blocks at n = 24
        inst = SplitInstance(24, (3 << 22, 0b11, 0b11 << 6))
        expected = 1 << 22 | 1 << 6 | 1
        ms = blocked_moments_full(inst)
        assert ms.first_absent() == expected
        # the scan of the whole word array finds the same first clear bit
        words, w = words_of(ms), expected >> 6
        assert np.all(words[:w] == np.uint64((1 << 64) - 1))
        word = int(words[w])
        assert (~word & (word + 1)).bit_length() - 1 == expected & 63
        assert solve_optical(inst).solution_moment == expected


class TestClassScan:
    """The class kernel, ``moments._classes``, against the reference fill
    and plain-Python brute force, and the class words it needs."""

    @pytest.mark.parametrize("prefix, block", [(64, 1 << 16), (1, 2), (2, 8)])
    @settings(max_examples=100, deadline=None)
    @given(inst=word_kernel_instance(), two_sided=st.booleans())
    # odd cycles of pairs on word-index bits (a8, a10, a13) and across
    # the word boundary (a1, a8, a14): the classes fill before the later
    # sets split them; top_pairs puts the hole on the lower half's last word
    @example(
        inst=SplitInstance(14, (1 << 7 | 1 << 9, 1 << 9 | 1 << 12, 1 << 7 | 1 << 12, (1 << 14) - 2)),
        two_sided=True,
    )
    @example(inst=SplitInstance(14, (1 | 1 << 7, 1 << 7 | 1 << 13, 1 | 1 << 13, 0b111 << 8)), two_sided=True)
    @example(inst=top_pairs(11), two_sided=True)
    def test_reads_match_the_reference_and_brute_force(self, prefix, block, inst, two_sided):
        ms = moments._packed_union(inst.n, inst.family, two_sided=two_sided)
        words = words_of(ms)
        reference = [k for k in range(1 << inst.n) if int(words[k >> 6]) >> (k & 63) & 1]
        members = (brute_full if two_sided else brute_literal)(inst)
        assert reference == members
        blocked = set(members)
        gap = next((k for k in range(1 << inst.n) if k not in blocked), None)
        shown = ",".join(map(str, members[:16])) + (",..." if len(members) > 16 else "")
        with mock.patch.multiple(moments, _PREFIX_WORDS=prefix, _BLOCK_WORDS=block):
            assert ms.first_absent() == gap
            assert len(ms) == len(members)
            assert list(ms) == members
            assert repr(ms) == f"MomentSet(n={inst.n}, size={len(members)}, {{{shown}}})"

    @staticmethod
    def class_words_per_block(read):
        """The result of ``read()`` and the number of class words of each
        block the kernel took for it."""
        sizes = []
        kernel = moments._classes

        def counted(patterns, lo, size, buffer, full):
            places = kernel(patterns, lo, size, buffer, full)
            sizes.append(1 << len(places))
            return places

        with mock.patch.object(moments, "_classes", counted):
            return read(), sizes

    @pytest.mark.parametrize(
        "family, spans",
        [
            # every pattern fixes no word-index bit: a full word 0 decides
            ((0b1,), 0),
            ((1 << 7,), 1),
            # an odd cycle on a13, a18 and a22, word-index bits 6, 11 and 15
            ((1 << 12 | 1 << 17, 1 << 17 | 1 << 21, 1 << 12 | 1 << 21), 2),
            # an odd cycle on a20, a24 and a28, word-index bits 13, 17 and 21
            ((1 << 19 | 1 << 23, 1 << 23 | 1 << 27, 1 << 19 | 1 << 27), 33),
        ],
        ids=["a1", "a8", "high cycle", "top cycle"],
    )
    def test_unsolvable_families_at_28_take_at_most_8_class_words(self, family, spans):
        # word 0 is read without the kernel; past it the scan takes the
        # prefix and the 32 blocks below moment 2**27 up to the first span
        # larger than every pattern's f_hi: those after it have its class words
        inst = SplitInstance(28, family)
        answer, sizes = self.class_words_per_block(lambda: solve_optical(inst))
        assert not answer.solvable
        assert len(sizes) == spans
        assert max(sizes, default=0) <= 8

    @pytest.mark.parametrize("n", [24, 28])
    @pytest.mark.parametrize(
        "family, spans",
        [
            # every pattern fixes no word-index bit: word 0, read without
            # the kernel, decides
            ((0b1,), 0),
            ((0b011, 0b110, 0b101), 0),
            ((0b11, 0b11 << 4), 0),
            # an odd cycle on a7, a8 and a9, word-index bits 0-2: the prefix decides
            ((0b011 << 6, 0b110 << 6, 0b101 << 6), 1),
            # an odd cycle on word-index bits 6, 11 and 15: the first block decides
            ((1 << 12 | 1 << 17, 1 << 17 | 1 << 21, 1 << 12 | 1 << 21), 2),
        ],
        ids=["a1", "low cycle", "solvable", "a7-a9 cycle", "high cycle"],
    )
    def test_scan_stops_at_the_first_span_above_every_pattern(self, n, family, spans):
        inst = SplitInstance(n, family)
        first, sizes = self.class_words_per_block(blocked_moments_full(inst).first_absent)
        assert first == solve_oracle(inst).solution_moment
        assert len(sizes) == spans

    def test_a_block_stops_once_every_class_word_is_full(self):
        # the odd cycle on a8, a10 and a15 fills its 8 classes; the two
        # large sets fix 16 word-index bits, but come after it and are
        # never applied, so no block splits into more classes
        cycle = (1 << 7 | 1 << 9, 1 << 9 | 1 << 14, 1 << 7 | 1 << 14)
        large = (((1 << 22) - 1) ^ 0b1011, sum(1 << p for p in range(6, 22, 2)) | 1)
        inst = SplitInstance(22, large + cycle)
        answer, sizes = self.class_words_per_block(lambda: solve_optical(inst))
        assert not answer.solvable
        assert max(sizes) == 8


def boundary_pairs(n, top, below):
    """{a_j, a_top} for every j in ``below``."""
    return SplitInstance(n, tuple(1 << (j - 1) | 1 << (top - 1) for j in below))


class TestWordZero:
    """first_absent reads word 0, moments 0-63, as the OR of the patterns
    keyed want == 0, without the class kernel; the scan starts only when
    word 0 is full and some pattern fixes a word-index bit."""

    @staticmethod
    def smallest_hole(inst, two_sided):
        """Brute force that walks k = 0, 1, ... and stops at the first
        moment whose side k, or either side when two-sided, holds no
        family set whole; None if every moment is blocked."""
        full = (1 << inst.n) - 1
        for k in range(1 << inst.n):
            sides = (k, full ^ k) if two_sided else (k,)
            if not any(f & side == f for f in inst.family for side in sides):
                return k
        return None

    @classmethod
    def check(cls, inst):
        """first_absent of the literal and the full set against brute
        force, the full one also against the oracle; the number of
        _classes calls the full set's first_absent made."""
        with mock.patch.object(moments, "_classes", wraps=moments._classes) as classes:
            first = blocked_moments_full(inst).first_absent()
        assert first == cls.smallest_hole(inst, two_sided=True)
        assert first == solve_oracle(inst).solution_moment
        literal = blocked_moments_literal(inst).first_absent()
        assert literal == cls.smallest_hole(inst, two_sided=False)
        return first, classes.call_count

    def test_hole_at_63_is_the_last_moment_of_word_0(self):
        # {a1, a7}, ..., {a6, a7}: the holes are 63 and 64, and 63 is the
        # last moment of word 0, which alone is the lower half at n = 7
        first, calls = self.check(boundary_pairs(7, 7, range(1, 7)))
        assert first == 63
        assert calls == 0

    def test_a_full_word_0_at_n_7_is_the_whole_lower_half(self):
        # {a1} fills word 0, and {a2, a7} fixes only word-index bit 0,
        # which at n = 7 is the top bit: it tells no two words of the
        # lower half apart, so word 0 answers alone
        first, calls = self.check(SplitInstance(7, (0b1, 1 << 6 | 0b10)))
        assert first is None
        assert calls == 0

    @pytest.mark.parametrize("n", [8, 24])
    def test_hole_at_64_is_the_first_moment_of_word_1(self, n):
        # {a7, a8} blocks every moment holding both or neither: word 0 is
        # full, and the kernel finds moment 64 in the scan after it
        first, calls = self.check(boundary_pairs(n, 8, [7]))
        assert first == 64
        assert calls >= 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_0_is_the_whole_set_below_n_7(self, n):
        # every pattern is keyed (0, 0): word 0 answers, hole or none
        rng = random.Random(n)
        families = [(), (0b1,), ((1 << n) - 1,), tuple(range(1, 1 << n))]
        families += [tuple(rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))) for _ in range(20)]
        if n > 1:
            families.append(top_pairs(n).family)
        for family in families:
            _, calls = self.check(SplitInstance(n, family))
            assert calls == 0

    @pytest.mark.parametrize(
        "family",
        [(1 << 6,), (1 << 6 | 1, 0b10), (1 << 9 | 1 << 6, 1 << 7 | 0b11, 0b100)],
        ids=["a7", "a1a7 a2", "a7a10 a1a2a8 a3"],
    )
    def test_a_literal_set_leaves_out_patterns_keyed_with_a_nonzero_f_hi(self, family):
        # the one-sided pattern of a set with f_hi != 0 is keyed
        # (f_hi, f_hi) and misses word 0: {a7} alone would fill word 0
        inst = SplitInstance(12, family)
        literal = blocked_moments_literal(inst)
        assert any(want for _, want in literal._patterns)
        with mock.patch.object(moments, "_classes", wraps=moments._classes) as classes:
            assert literal.first_absent() == self.smallest_hole(inst, two_sided=False) == 0
        assert classes.call_count == 0
        self.check(inst)

    def test_missing_table_is_the_spread_of_every_free_set(self):
        # entry free holds the in-word moments j that lie inside free
        for free in range(64):
            assert moments._MISSING[free] == moments._spread(1, free)
            assert moments._MISSING[free] == sum(1 << j for j in range(64) if j & ~free == 0)

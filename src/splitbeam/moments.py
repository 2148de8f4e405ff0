"""Arrival-moment analysis for the set-splitting device.

Because the take delays are the powers of two, the moment k at which a
beam arrives is numerically identical to the bitmask of the subset that
produced it: decoding is free. A family set f rules out every moment
whose subset is a superset of f (that side swallows f whole) and, under
the full two-sided semantics, every moment whose subset is disjoint from
f (the other side swallows it). The union of those ruled-out moments is
the blocked set; any arrival outside it is a solution.

Two variants of the blocked set are deliberately shipped:

* ``blocked_moments_literal`` collects superset moments only, i.e. it
  checks the arriving side but never its complement. It exists so the
  one-sided construction can be reproduced and golden-tested exactly.
* ``blocked_moments_full`` also reflects the check onto the complement
  side, matching the actual problem predicate. The solver uses this one;
  the two differ precisely on moments whose complement (but not the
  subset itself) contains a family set.

A ``MomentSet`` is its word patterns, made by ``_packed_union``: each
family set contributes one 64-bit in-word pattern for a strided slice of
the 2**(n-6) uint64 words of the bitset, which is never held whole. A
universe of more than ``BITSET_MAX_N`` = 28 elements is refused with
``EnumerationLimitError`` before anything is read or allocated. One
kernel, ``_classes``, takes any aligned block of words as classes: a
word depends on its index only through the index bits the patterns fix,
so it keeps one word per class of those bits, splitting the classes
only when a pattern fixes a new bit, and stops a block once every class
word is full. Every read goes through it: ``len`` counts the class
words, iteration and ``repr`` copy the block's words out of them a slice
at a time, and ``first_absent`` reads the smallest hole from the
classes, all in one reused buffer that grows to the largest block
read, at most 512 KiB. ``first_absent`` first reads word 0 without the
kernel, as the OR of the patterns keyed want == 0, one Python int. Past
it, it scans only the moments below 2**(n-1), where every set made here
has its smallest hole if it has one, and stops at the first block with a
hole, so a decision whose first solution lies early allocates nothing
for word 0 or only the first 64 words, and an odd cycle of pairs proves
each block in a few class words. It also stops at a block without a
hole that is larger than every pattern's f_hi: every block of its size
has its class words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .core import (
    SplitInstance,
    SubsetMask,
    _check_enumerable,
    _check_universe,
)

# The largest universe a moment set is built for: a full scan at n = 28
# reads 2**22 words, a block at a time. A larger universe is refused.
BITSET_MAX_N = 28

# Bit j of word w is moment 64*w + j; little-endian words make the byte
# view of a block the same little-endian bitset on every host.
_WORD = np.dtype("<u8")

# Iteration copies each block's words out of its classes in slices of
# _SCAN_BYTES and decodes at most _DECODE_BYTES nonzero bytes (4096
# members) at a time, so listing a set of any size or density holds well
# under 1 MiB.
_SCAN_BYTES = 1 << 14
_DECODE_BYTES = 1 << 9

# Every read takes aligned blocks of _BLOCK_WORDS words, whose classes
# hold at most 512 KiB. first_absent reads word 0 as the OR of the
# patterns keyed want == 0, without the kernel, and then the first
# _PREFIX_WORDS words before the blocks, where the first solution of most
# solvable instances lies: a prefix has at most 64 classes. Each block
# applies the patterns that reach it once, so smaller blocks make a full
# scan repeat that work more often: with 2**12-word blocks the scan of
# an unsolvable n = 22 decision took about 5x as long, and {a1} at
# n = 28 about 20x.
_PREFIX_WORDS = 1 << 6
_BLOCK_WORDS = 1 << 16


@dataclass(frozen=True, slots=True, eq=False)
class MomentSet:
    """A frozen set of integer moments in [0, 2**n): ``n`` and its word
    patterns (see ``_packed_union``), each keyed (f_hi, want) and ORed
    into the words w with w & f_hi == want. Assigning a field raises
    ``FrozenInstanceError``; equality and hashing are by identity.

    Bit j of word w stands for moment 64*w + j; for n < 6 the single
    word keeps every bit past 2**n clear. Every read takes one aligned
    block of words at a time as the classes of its words (``_blocks``).
    """

    n: int
    _patterns: dict[tuple[int, int], int] = field(kw_only=True)

    def _blocks(
        self, spans: Iterable[tuple[int, int]]
    ) -> Iterator[tuple[int, int, np.ndarray, dict[int, int]]]:
        """(lo, size, words, places) for each (lo, size) of ``spans``: the
        class words of words [lo, lo + size) and their places (see
        ``_classes``), held in one buffer that the next block reuses and
        that grows only when a block needs more words than it holds."""
        buffer = np.empty(0, dtype=_WORD)
        full = _full_word(self.n)
        for lo, size in spans:
            if len(buffer) < size:
                buffer = np.empty(size, dtype=_WORD)
            places = _classes(self._patterns, lo, size, buffer, full)
            yield lo, size, buffer[: 1 << len(places)], places

    def __len__(self) -> int:
        # each class word stands for size >> len(places) words of the block
        blocks = self._blocks(_spans(self.n))
        return sum(_count(words) * (size >> len(places)) for _, size, words, places in blocks)

    def __iter__(self) -> Iterator[int]:
        step = min(_word_count(self.n), _BLOCK_WORDS, _SCAN_BYTES // _WORD.itemsize)
        out = np.empty(step, dtype=_WORD)
        for lo, size, words, places in self._blocks(_spans(self.n)):
            # an empty block has no member, and decoding would walk all its bytes
            if not words.any():
                continue
            for start in range(0, size, step):
                # each word of the slice copied from the class word standing for it
                ascending = _ascending(words, places, step - 1, start)
                out.reshape(ascending.shape)[...] = ascending
                if out.any():
                    yield from _bit_positions(out, lo + start)

    def first_absent(self) -> int | None:
        """Smallest moment of [0, 2**n) not in the set, or None if it
        covers all.

        Word 0 comes first, without the class kernel: index 0 misses
        every f_hi, so it is the OR of the patterns keyed want == 0. If
        it is full and no f_hi fixes a word-index bit of the lower half,
        every word there is word 0 and the set covers all. Otherwise the
        scan (``_scan_blocks``) reads only the words of the lower half,
        the moments below 2**(n-1), and stops at the first hole. That
        finds the smallest hole of the whole range for both kinds of set
        that ``_packed_union`` makes. A two-sided set holds k iff it
        holds its reflection 2**n - 1 - k, so a hole in the upper half
        has a mirror hole in the lower one. A one-sided set never holds
        moment 0, because every family set is nonempty. A block's
        smallest hole lies in its class word with a clear bit whose
        class has the smallest word index. A block of a size above every
        pattern's f_hi on the lower half has the class words of every
        other block of its size there, so if it has no hole, none has.
        """
        full = _full_word(self.n)
        word = 0
        for (_, want), pattern in self._patterns.items():
            if not want:
                word |= pattern
        if word != full:
            # word ^ (word + 1) sets exactly the bits up to its lowest clear bit
            return (word ^ (word + 1)).bit_length() - 1
        # the top word-index bit tells no two words of the lower half apart
        lower = _word_count(self.n - 1) - 1
        reach = max((f_hi & lower for f_hi, _ in self._patterns), default=0)
        if not reach:
            return None
        for lo, size, words, places in self._blocks(_scan_blocks(self.n - 1)):
            bits = sum(places)
            ascending = _ascending(words, places, bits, 0)
            c = int(np.not_equal(ascending, full, order="C").argmax())
            word = ascending.item(c)
            if word != full:
                return 64 * (lo + _deposit(c, bits)) + (word ^ (word + 1)).bit_length() - 1
            if reach < size:
                return None
        return None

    def __repr__(self) -> str:
        size = len(self)  # a full scan, so taken once
        shown = ",".join(str(k) for k in islice(self, 16))
        suffix = ",..." if size > 16 else ""
        return f"MomentSet(n={self.n}, size={size}, {{{shown}{suffix}}})"


def _word_count(n: int) -> int:
    return 1 << max(n - 6, 0)


def _full_word(n: int) -> int:
    # every moment a word can hold: all 64 bits, or 2**n of them for n < 6
    return (1 << (1 << min(n, 6))) - 1


def _count(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _spans(n: int) -> Iterator[tuple[int, int]]:
    # (first word, word count) of the aligned blocks that tile the words, in order
    size = min(_word_count(n), _BLOCK_WORDS)
    return ((lo, size) for lo in range(0, _word_count(n), size))


def _scan_blocks(n: int) -> Iterator[tuple[int, int]]:
    # the first _PREFIX_WORDS words of a universe of n elements, then the
    # blocks that tile its words (the first repeats the prefix, 64 words
    # of 2**16); first_absent passes n - 1, the lower half of its words,
    # once it has read word 0 without the kernel and found it full
    if _word_count(n) > _PREFIX_WORDS:
        yield 0, _PREFIX_WORDS
    yield from _spans(n)


def _bit_positions(words: np.ndarray, lo: int) -> Iterator[int]:
    # the members in words [lo, lo + len(words)): unpack only the nonzero
    # bytes, so a sparse slice never expands to a byte per moment, and only
    # _DECODE_BYTES of them at a time, so a dense one never lists every member
    packed = words.view(np.uint8)
    nonzero = np.flatnonzero(packed)
    bit = np.arange(8) + 64 * lo
    for i in range(0, len(nonzero), _DECODE_BYTES):
        at = nonzero[i : i + _DECODE_BYTES]
        flags = np.unpackbits(packed[at, None], axis=1, bitorder="little")
        yield from (at[:, None] * 8 + bit)[flags == 1].tolist()


def decode_moment(k: int, n: int) -> SubsetMask:
    """Subset mask encoded by arrival moment ``k``.

    With power-of-two take delays the decomposition of k into powers of
    two is unique, so the mask is numerically k itself; this function is
    the range-checked statement of that fact.
    """
    _check_universe(n)
    if not 0 <= k < (1 << n):
        raise ValueError(f"moment {k} out of range [0, 2**{n})")
    return k


def _spread(bits: int, free: SubsetMask) -> int:
    # Doubles the moment set once per free element: shifting the bitset
    # left by 2**p adds element p's delay to every member.
    while free:
        low = free & -free
        bits |= bits << low
        free ^= low
    return bits


# the in-word moments that miss f_lo, for each set `free` of in-word
# elements outside f_lo: one lookup per family set
_MISSING = tuple(_spread(1, free) for free in range(64))


def _packed_union(n: int, family: Iterable[SubsetMask], *, two_sided: bool) -> MomentSet:
    """The moments k with k & f == f for some f in ``family``, and with
    two_sided also those with k & f == 0, as a packed set of word patterns.

    Moment k = 64*w + j splits f at the word boundary: k contains f iff
    w contains f_hi = f >> 6 and j contains f_lo = f & 63, and k misses f
    iff w and j miss them. So the words whose index contains (misses)
    f_hi, 2**(n-6-|f_hi|) of them, each take one 64-bit pattern: the
    in-word moments containing (missing) f_lo. A pattern is keyed by the
    bits its words fix within f_hi: (f_hi, f_hi) for the containing words
    and (f_hi, 0) for the missing ones.
    """
    # checked before the family is read or anything is allocated
    _check_universe(n)
    _check_enumerable(n, BITSET_MAX_N, "moment set")
    low = (1 << min(n, 6)) - 1
    # one pattern per slice: family sets sharing f_hi (all of them for
    # n <= 6) share their slices, so each slice takes a single OR. The
    # sets go fewest f_hi bits first, and the keys keep that order: it is
    # the order in which _classes applies the patterns
    patterns: dict[tuple[int, int], int] = {}
    for f in sorted(family, key=lambda f: (f >> 6).bit_count()):
        f_lo, f_hi = f & 63, f >> 6
        missing = _MISSING[~f & low]
        # f_lo shares no bit with the free elements, so shifting by it
        # ORs it into every in-word moment that misses f_lo
        patterns[f_hi, f_hi] = patterns.get((f_hi, f_hi), 0) | missing << f_lo
        if two_sided:
            # with f_hi = 0 both slices are every word, under one key
            patterns[f_hi, 0] = patterns.get((f_hi, 0), 0) | missing
    return MomentSet(n, _patterns=patterns)


def _lattice(words: np.ndarray, bits: int, offset: int) -> np.ndarray:
    """The entries words[offset + s], for every submask s of ``bits``, as
    a view with one axis per run of consecutive bits."""
    shape = strides = ()
    while bits:
        start = bits & -bits
        # adding start carries through the run to the bit just above it
        stop = (bits + start) & ~bits
        shape = (stop // start,) + shape
        strides = (start * _WORD.itemsize,) + strides
        bits ^= stop - start
    return np.ndarray(shape, _WORD, words, offset * _WORD.itemsize, strides)


def _ascending(words: np.ndarray, places: dict[int, int], span: int, base: int) -> np.ndarray:
    """The class word of each word index base + s of a block, for every
    submask s of ``span`` (base shares no bit with it), in ascending order
    of s: a view of ``words`` with one axis per bit of span, broadcast
    along the bits that are not class bits."""
    strides = ()
    while span:
        bit = span & -span
        strides = (places.get(bit, 0) * _WORD.itemsize,) + strides
        span ^= bit
    offset = sum(at for bit, at in places.items() if base & bit) if base else 0
    return np.ndarray((2,) * len(strides), _WORD, words, offset * _WORD.itemsize, strides)


def _deposit(c: int, bits: int) -> int:
    # the c-th submask of bits, ascending: bit i of c goes to the i-th bit of bits
    s = 0
    while c:
        bit = bits & -bits
        if c & 1:
            s |= bit
        c >>= 1
        bits ^= bit
    return s


def _classes(
    patterns: dict[tuple[int, int], int], lo: int, size: int, buffer: np.ndarray, full: int
) -> dict[int, int]:
    """Put the words [lo, lo + size) into ``buffer`` as classes, and
    return their places: each word-index bit that the patterns reaching
    the block fix there, mapped to the bit of a class index that stands
    for it.

    Pattern (f_hi, want) belongs to the words w with w & f_hi == want.
    size is a power of two and lo a multiple of it, so the block fixes
    every index bit above the low log2(size) to lo's: a pattern whose
    fixed bits disagree there misses the block. Within the block a word
    depends on its index only through the bits that the patterns fix, so
    one class word stands for all the words that agree on them: the class
    words are buffer[:2**len(places)], and class c holds the words whose
    index has bit ``bit`` set iff c has bit ``places[bit]`` set. A pattern
    ORs into the classes its fixed bits select: a strided view of the
    class words, or one class word when it fixes every class bit. A
    pattern that fixes new bits first repeats the class words after
    themselves once per new combination, each new bit taking the next
    class bit. Patterns come fewest f_hi bits first, and before the class
    words grow the block stops if every one is already full, so an odd
    cycle of three pairs proves a block in at most 8 class words, before
    any set with more f_hi bits is applied.
    """
    low = size - 1
    places: dict[int, int] = {}
    bits = seen = 0
    count = 1
    buffer[0] = 0
    for (f_hi, want), pattern in patterns.items():
        if (lo ^ want) & f_hi & ~low:
            continue
        fixed = f_hi & low
        new = fixed & ~bits
        if new:
            # seen is the union of the class words: no class is full before it is
            if seen == full and buffer[:count].min() == full:
                break
            # each new bit takes the next class bit, so the class words
            # repeat 2**|new| - 1 times in the words after them
            bits |= new
            grown = count << new.bit_count()
            buffer[count:grown].reshape(-1, count)[...] = buffer[:count]
            while new:
                bit = new & -new
                places[bit] = count
                count *= 2
                new ^= bit
        select = value = 0
        while fixed:
            bit = fixed & -fixed
            at = places[bit]
            select |= at
            if want & bit:
                value |= at
            fixed ^= bit
        if select == count - 1:
            # the pattern fixes every class bit: one class word
            buffer[value] = buffer.item(value) | pattern
        else:
            classes = _lattice(buffer, count - 1 & ~select, value)
            classes |= pattern
        seen |= pattern
    return places


def blocked_moments_literal(inst: SplitInstance) -> MomentSet:
    """One-sided blocked set: union of the superset moments of every family set.

    This checks only whether the arriving subset contains a family set; a
    family set swallowed by the complement side goes unnoticed. Kept for
    exact reproduction of the one-sided construction; decisions should use
    :func:`blocked_moments_full`.
    """
    return _packed_union(inst.n, inst.family, two_sided=False)


def blocked_moments_full(inst: SplitInstance) -> MomentSet:
    """Two-sided blocked set: moments whose subset or its complement contains a family set.

    Equals the literal set united with its reflection k -> 2**n - 1 - k,
    because the complement of the subset decoding k is the subset decoding
    the reflected moment.
    """
    return _packed_union(inst.n, inst.family, two_sided=True)

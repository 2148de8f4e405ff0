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
kernel, ``_or_block``, ORs the patterns into any aligned block of words,
and every read goes through it: ``len``, iteration, ``repr`` and
``first_absent`` stream blocks of at most 512 KiB through one reused
buffer. ``first_absent`` scans only the moments below 2**(n-1), where
every set made here has its smallest hole if it has one, and stops at
the first block with a clear bit, so a decision whose first solution
lies early reads only the first 64 words and an unsolvable one reads
half of them.
"""

from __future__ import annotations

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

# Iteration scans each block's bytes in slices of _SCAN_BYTES and decodes
# at most _DECODE_BYTES nonzero bytes (4096 members) at a time, so listing
# a set of any size or density holds well under 1 MiB.
_SCAN_BYTES = 1 << 14
_DECODE_BYTES = 1 << 9

# Every read streams aligned blocks of _BLOCK_WORDS words
# (512 KiB); first_absent looks at a prefix of _PREFIX_WORDS first, where
# the first solution of most solvable instances lies. Smaller blocks make
# a full scan pay the per-slice set-up of _or_block more often: with
# 2**12-word blocks an unsolvable n = 22 decision took 2.4x as long.
_PREFIX_WORDS = 1 << 6
_BLOCK_WORDS = 1 << 16


class MomentSet:
    """An immutable set of integer moments in [0, 2**n): ``n`` and its
    word patterns (see ``_packed_union``), each keyed (f_hi, want) and
    ORed into the words w with w & f_hi == want.

    Bit j of word w stands for moment 64*w + j; for n < 6 the single
    word keeps every bit past 2**n clear. Every read ORs one aligned
    block at a time (``_blocks``).
    """

    __slots__ = ("n", "_patterns")

    def __init__(self, n: int, *, _patterns: dict[tuple[int, int], int]):
        self.n = n
        self._patterns = _patterns

    def _blocks(self, spans: Iterable[tuple[int, int]]) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, words [lo, lo + size)) for each (lo, size) of ``spans``,
        ORed from the patterns into one buffer that the next block reuses."""
        buffer = np.empty(min(_word_count(self.n), _BLOCK_WORDS), dtype=_WORD)
        for lo, size in spans:
            block = buffer[:size]
            block.fill(0)
            _or_block(self._patterns, lo, block)
            yield lo, block

    def __len__(self) -> int:
        return sum(_count(block) for _, block in self._blocks(_spans(self.n)))

    def __iter__(self) -> Iterator[int]:
        for lo, block in self._blocks(_spans(self.n)):
            # an empty block has no member, and decoding would walk all its bytes
            if block.any():
                yield from _bit_positions(block, lo)

    def first_absent(self) -> int | None:
        """Smallest moment of [0, 2**n) not in the set, or None if it
        covers all.

        The scan (``_scan_blocks``) reads only the words of the lower
        half, the moments below 2**(n-1) (for n <= 6 the one word), and
        stops at the first hole. That finds the smallest hole of the whole
        range for both kinds of set that ``_packed_union`` makes. A
        two-sided set holds k iff it holds its reflection 2**n - 1 - k, so
        a hole in the upper half has a mirror hole in the lower one. A
        one-sided set never holds moment 0, because every family set is
        nonempty.
        """
        full = _full_word(self.n)
        for lo, block in self._blocks(_scan_blocks(self.n - 1)):
            w = int((block != np.uint64(full)).argmax())
            word = block.item(w)
            if word != full:
                # word ^ (word + 1) sets exactly the bits up to its lowest clear bit
                return 64 * (lo + w) + (word ^ (word + 1)).bit_length() - 1
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
    # of 2**16); first_absent passes n - 1: the lower half of its words
    if _word_count(n) > _PREFIX_WORDS:
        yield 0, _PREFIX_WORDS
    yield from _spans(n)


def _bit_positions(words: np.ndarray, lo: int) -> Iterator[int]:
    # the members in words [lo, lo + len(words)): unpack only the nonzero
    # bytes, so a sparse block never expands to a byte per moment, and only
    # a slice of them at a time, so a dense one never lists every member
    packed = words.view(np.uint8)
    bit = np.arange(8) + 64 * lo
    for start in range(0, len(packed), _SCAN_BYTES):
        nonzero = np.flatnonzero(packed[start : start + _SCAN_BYTES])
        for i in range(0, len(nonzero), _DECODE_BYTES):
            at = nonzero[i : i + _DECODE_BYTES] + start
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
    # n <= 6) share their slices, so each slice takes a single OR
    patterns: dict[tuple[int, int], int] = {}
    for f in family:
        f_lo, f_hi = f & 63, f >> 6
        missing = _spread(1, ~f & low)
        # f_lo shares no bit with the free elements, so shifting by it
        # ORs it into every in-word moment that misses f_lo
        patterns[f_hi, f_hi] = patterns.get((f_hi, f_hi), 0) | missing << f_lo
        if two_sided:
            # with f_hi = 0 both slices are every word, under one key
            patterns[f_hi, 0] = patterns.get((f_hi, 0), 0) | missing
    return MomentSet(n, _patterns=patterns)


def _or_block(patterns: dict[tuple[int, int], int], lo: int, out: np.ndarray) -> None:
    """OR every pattern into its words among words [lo, lo + len(out)), held in ``out``.

    Pattern (f_hi, want) belongs to the words w with w & f_hi == want.
    len(out) is a power of two and lo a multiple of it, so the block
    fixes every index bit above the low log2(len(out)) to lo's: a
    pattern whose fixed bits disagree there misses the block. Otherwise
    its words in the block are its fixed low bits plus every combination
    of the free ones, and each run of consecutive free bits is one axis
    of a strided view of ``out``.
    """
    low = len(out) - 1
    for (f_hi, want), pattern in patterns.items():
        if (lo ^ want) & f_hi & ~low:
            continue
        shape, strides = [], []
        free = low & ~f_hi
        while free:
            start = free & -free
            # adding start carries through the run to the bit just above it
            stop = (free + start) & ~free
            shape.append(stop // start)
            strides.append(start * _WORD.itemsize)
            free ^= stop - start
        view = np.ndarray(
            tuple(reversed(shape)), _WORD, out, (want & low) * _WORD.itemsize, tuple(reversed(strides))
        )
        view |= pattern


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

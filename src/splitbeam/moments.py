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

A ``MomentSet`` is a packed bitset of 2**(n-6) little-endian uint64 words
(32 MiB at n = 28) whatever its size. A universe of more than
``BITSET_MAX_N`` = 28 elements is refused with ``EnumerationLimitError``
before anything is read or allocated. Both blocked sets and the superset
moments are word patterns: each family set contributes one 64-bit
in-word pattern for a strided slice of the words (see ``_packed_union``).
One kernel, ``_or_block``, ORs the patterns into any aligned block of
words. A set made from patterns builds its words on first use, with one
call over the whole array, except for ``first_absent`` and
``covers_all``, which build one block at a time in a reused buffer and
stop at the first block with a clear bit, and ``in``, which builds the
one word it reads. So a decision whose first solution lies early never
builds the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .core import (
    SplitInstance,
    SubsetMask,
    _check_enumerable,
    _check_universe,
    splits_family,
)

# The largest universe a moment set is built for: at n = 28 the packed
# bitset takes 32 MiB, and a larger one is refused.
BITSET_MAX_N = 28

# Bit j of word w is moment 64*w + j; little-endian words make the byte
# view of the array the same little-endian bitset on every host.
_WORD = np.dtype("<u8")

# Iteration scans the packed bytes in blocks of _SCAN_BYTES and decodes at
# most _DECODE_BYTES nonzero bytes (4096 members) at a time, so listing a
# set of any size or density holds well under 1 MiB.
_SCAN_BYTES = 1 << 14
_DECODE_BYTES = 1 << 9

# first_absent looks at a prefix of _PREFIX_WORDS first, where the first
# solution of most solvable instances lies, then at aligned blocks of
# _BLOCK_WORDS words (512 KiB). Smaller blocks make a full scan pay the
# per-slice set-up of _or_block more often: with 2**12-word blocks an
# unsolvable n = 22 decision took 2.4x as long.
_PREFIX_WORDS = 1 << 6
_BLOCK_WORDS = 1 << 16


class MomentSet:
    """An immutable set of integer moments in [0, 2**n).

    The set is a read-only array of max(2**(n-6), 1) little-endian uint64
    words, bit j of word w standing for moment 64*w + j, costing 2**n/8
    bytes whatever its size; for n < 6 the single word keeps every bit past
    2**n clear. n > BITSET_MAX_N is refused with ``EnumerationLimitError``.

    A set given as word patterns (the blocked sets and superset
    moments) builds its words on first use and keeps them.
    ``first_absent`` and ``covers_all`` do not build them: they OR the
    patterns into one block of words at a time and stop at the first
    block with a clear bit. ``in`` ORs only the word it reads.
    """

    __slots__ = ("n", "_packed", "_patterns")

    def __init__(
        self,
        n: int,
        *,
        _words: np.ndarray | None = None,
        _patterns: dict[tuple[int, int], int] | None = None,
    ):
        _check_packable(n)
        self.n = n
        if _words is not None:
            _words.setflags(write=False)
        self._packed = _words
        self._patterns = _patterns

    @property
    def _words(self) -> np.ndarray:
        """The read-only word array, built from the patterns on first use."""
        if self._packed is None:
            words = _empty_words(self.n)
            _or_block(self._patterns, 0, words)
            words.setflags(write=False)
            self._packed, self._patterns = words, None
        return self._packed

    def _block(self, lo: int, size: int, buffer: np.ndarray | None) -> np.ndarray:
        """Words [lo, lo + size): a slice of the built words if there are
        any, else ORed from the patterns into the front of ``buffer``."""
        if self._packed is not None:
            return self._packed[lo : lo + size]
        out = buffer[:size]
        out.fill(0)
        _or_block(self._patterns, lo, out)
        return out

    @classmethod
    def from_iterable(cls, n: int, moments: Iterable[int]) -> "MomentSet":
        _check_packable(n)
        members = sorted(set(moments))
        if members and (members[0] < 0 or members[-1] >= (1 << n)):
            raise ValueError(f"moments must lie in [0, 2**{n})")
        words = _empty_words(n)
        ks = np.array(members, dtype=np.uint64)
        np.bitwise_or.at(words, ks >> 6, np.uint64(1) << (ks & 63))
        return cls(n, _words=words)

    def __len__(self) -> int:
        return int(np.bitwise_count(self._words).sum())

    def __contains__(self, k: int) -> bool:
        if not 0 <= k < (1 << self.n):
            return False
        word = self._block(k >> 6, 1, np.empty(1, dtype=_WORD)).item(0)
        return word >> (k & 63) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        yield from _bit_positions(self._words)

    def to_list(self) -> list[int]:
        return list(self)

    def __or__(self, other: "MomentSet") -> "MomentSet":
        if not isinstance(other, MomentSet):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot union moment sets over different universes")
        return MomentSet(self.n, _words=self._words | other._words)

    def complement_set(self) -> "MomentSet":
        """Moments of [0, 2**n) not in this set."""
        return MomentSet(self.n, _words=self._words ^ _full_word(self.n))

    def reflect(self) -> "MomentSet":
        """The set {2**n - 1 - k} of complement-side images."""
        # 2**n - 1 - (64*w + j) = 64*(last - w) + (63 - j): reverse the word
        # order and the bits of each word, which is reversing the byte order
        # and the bits of each byte
        byte_reversed = np.packbits(
            np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"),
            axis=1,
        ).ravel()
        words = byte_reversed[self._words.view(np.uint8)[::-1]].view(_WORD)
        if self.n < 6:
            # a lone word held moments in bits [0, 2**n), now in [64 - 2**n, 64)
            words >>= np.uint64(64 - (1 << self.n))
        return MomentSet(self.n, _words=words)

    def covers_all(self) -> bool:
        return self.first_absent() is None

    def first_absent(self) -> int | None:
        """Smallest moment of [0, 2**n) not in the set, or None if it covers all.

        The set is scanned block by block (``_scan_blocks``) up to the
        first block with a clear bit. Words not built yet are ORed from the
        patterns one block at a time into a single reused buffer, so the
        scan holds at most 512 KiB and never builds the set.
        """
        full = _full_word(self.n)
        buffer = None
        if self._packed is None:
            buffer = np.empty(min(1 << max(self.n - 6, 0), _BLOCK_WORDS), dtype=_WORD)
        for lo, size in _scan_blocks(self.n):
            block = self._block(lo, size, buffer)
            w = int((block != np.uint64(full)).argmax())
            word = block.item(w)
            if word != full:
                # word ^ (word + 1) sets exactly the bits up to its lowest clear bit
                return 64 * (lo + w) + (word ^ (word + 1)).bit_length() - 1
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentSet):
            return NotImplemented
        # the word array of n is canonical, so equal contents have equal words
        return self.n == other.n and np.array_equal(self._words, other._words)

    def __hash__(self) -> int:
        return hash((self.n, self._words.tobytes()))

    def __repr__(self) -> str:
        shown = ",".join(str(k) for k in islice(self, 16))
        suffix = ",..." if len(self) > 16 else ""
        return f"MomentSet(n={self.n}, size={len(self)}, {{{shown}{suffix}}})"


def _check_packable(n: int) -> None:
    # every route to a MomentSet passes here before it reads its input or
    # allocates: words, patterns or members
    _check_universe(n)
    _check_enumerable(n, BITSET_MAX_N, "moment set")


def _empty_words(n: int) -> np.ndarray:
    return np.zeros(1 << max(n - 6, 0), dtype=_WORD)


def _full_word(n: int) -> int:
    # every moment a word can hold: all 64 bits, or 2**n of them for n < 6
    return (1 << (1 << min(n, 6))) - 1


def _scan_blocks(n: int) -> Iterator[tuple[int, int]]:
    # (first word, word count) of each block first_absent scans, in order;
    # the first full-size block repeats the prefix, 64 words of 2**16
    total = 1 << max(n - 6, 0)
    yield 0, min(total, _PREFIX_WORDS)
    if total > _PREFIX_WORDS:
        size = min(total, _BLOCK_WORDS)
        for lo in range(0, total, size):
            yield lo, size


def _bit_positions(words: np.ndarray) -> Iterator[int]:
    # unpack only the nonzero bytes, so a small set at n = 28 never
    # expands to a byte per moment, and only a slice of them at a time,
    # so a dense set never becomes one list of every member
    packed = words.view(np.uint8)
    bit = np.arange(8)
    for lo in range(0, len(packed), _SCAN_BYTES):
        nonzero = np.flatnonzero(packed[lo : lo + _SCAN_BYTES])
        for i in range(0, len(nonzero), _DECODE_BYTES):
            at = nonzero[i : i + _DECODE_BYTES] + lo
            flags = np.unpackbits(packed[at, None], axis=1, bitorder="little")
            yield from (at[:, None] * 8 + bit)[flags == 1].tolist()


class WatchPolarity(Enum):
    WATCH_BLOCKED = "blocked"
    WATCH_SOLUTIONS = "solutions"


@dataclass(frozen=True)
class WatchStrategy:
    """The smaller moment list to monitor at the destination, with its meaning."""

    moments: MomentSet
    polarity: WatchPolarity


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


def encode_moment(mask: SubsetMask, n: int) -> int:
    """Arrival moment of the path taking exactly the masked layers."""
    _check_universe(n)
    if not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} out of range for universe size {n}")
    return mask


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
    in-word moments containing (missing) f_lo. The pattern is keyed
    (f_hi, 1) for the containing words and (f_hi, 0) for the missing ones.
    """
    _check_packable(n)
    low = (1 << min(n, 6)) - 1
    # one pattern per slice: family sets sharing f_hi (all of them for
    # n <= 6) share their slices, so each slice takes a single OR
    patterns: dict[tuple[int, int], int] = {}
    for f in family:
        f_lo, f_hi = f & 63, f >> 6
        missing = _spread(1, ~f & low)
        # f_lo shares no bit with the free elements, so shifting by it
        # ORs it into every in-word moment that misses f_lo
        patterns[f_hi, 1] = patterns.get((f_hi, 1), 0) | missing << f_lo
        if two_sided:
            # with f_hi = 0 both slices are every word
            side = (f_hi, 0 if f_hi else 1)
            patterns[side] = patterns.get(side, 0) | missing
    return MomentSet(n, _patterns=patterns)


def _or_block(patterns: dict[tuple[int, int], int], lo: int, out: np.ndarray) -> None:
    """OR every pattern into its words among words [lo, lo + len(out)), held in ``out``.

    Pattern (f_hi, fixed) belongs to the words w with w & f_hi equal to
    f_hi (fixed 1) or to 0 (fixed 0). len(out) is a power of two and lo a
    multiple of it, so the block fixes every index bit above the low
    log2(len(out)) to lo's: a pattern whose fixed bits disagree there
    misses the block. Otherwise its words in the block are its fixed low
    bits plus every combination of the free ones, and each run of
    consecutive free bits is one axis of a strided view of ``out``.
    """
    low = len(out) - 1
    for (f_hi, fixed), pattern in patterns.items():
        want = f_hi if fixed else 0
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


def superset_moments(f: SubsetMask, n: int) -> MomentSet:
    """Moments whose decoded subset includes ``f``.

    Exactly the 2**(n - popcount(f)) integers k with k & f == f: the
    one-sided blocked set of the family {f}.
    """
    _check_universe(n)
    if f == 0:
        raise ValueError("family sets must be nonempty: every moment is a superset of the empty set")
    if not 0 < f < (1 << n):
        raise ValueError(f"mask {f} out of range for universe size {n}")
    return _packed_union(n, (f,), two_sided=False)


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


def choose_watch(blocked: MomentSet) -> WatchStrategy:
    """Pick the smaller side to monitor.

    If fewer than half of all moments are blocked, watch those (an arrival
    there is a non-solution); otherwise watch the complement, where any
    arrival is a solution. Either way the watched list never exceeds
    2**(n-1) moments.
    """
    half = 1 << (blocked.n - 1)
    if len(blocked) < half:
        return WatchStrategy(blocked, WatchPolarity.WATCH_BLOCKED)
    return WatchStrategy(blocked.complement_set(), WatchPolarity.WATCH_SOLUTIONS)


def is_solution_moment(k: int, inst: SplitInstance) -> bool:
    """True iff an arrival at moment ``k`` announces a valid split.

    Checked directly on the decoded subset and its complement against the
    raw family masks; equivalent to k not being in the full blocked set.
    """
    mask = decode_moment(k, inst.n)
    return splits_family(inst.family, mask)

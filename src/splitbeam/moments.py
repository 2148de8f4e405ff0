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

A ``MomentSet``'s form follows the universe size n alone: for n <= 28 it
is a packed bitset of 2**(n-6) little-endian uint64 words (32 MiB at
n = 28) whatever its size, above that a sorted tuple of its members. Both
blocked sets and the superset moments are built word-parallel: each
family set ORs one 64-bit in-word pattern into a strided slice of the
words (see ``_packed_union``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .core import (
    EnumerationLimitError,
    SplitInstance,
    SubsetMask,
    _check_universe,
    complement,
    iter_submasks,
    splits_family,
)

# A packed bitset is used while it stays affordable (n <= 28 means at most
# 32 MiB); beyond that only the sorted sparse representation is possible,
# and enumeration is capped.
BITSET_MAX_N = 28
SPARSE_ENUM_CAP = 1 << 24

# Bit j of word w is moment 64*w + j; little-endian words make the byte
# view of the array the same little-endian bitset on every host.
_WORD = np.dtype("<u8")

# Iteration scans the packed bytes in blocks of _SCAN_BYTES and decodes at
# most _DECODE_BYTES nonzero bytes (4096 members) at a time, so listing a
# set of any size or density holds well under 1 MiB.
_SCAN_BYTES = 1 << 14
_DECODE_BYTES = 1 << 9


class MomentSet:
    """An immutable set of integer moments in [0, 2**n).

    The representation follows n alone: for n <= BITSET_MAX_N the set is a
    read-only array of max(2**(n-6), 1) little-endian uint64 words, bit j
    of word w standing for moment 64*w + j, costing 2**n/8 bytes whatever
    its size; for n < 6 the single word keeps every bit past 2**n clear.
    Above BITSET_MAX_N it is a sorted tuple of its members, the only form
    affordable there.
    """

    __slots__ = ("n", "_words", "_members")

    def __init__(self, n: int, *, _words: np.ndarray | None = None, _members: tuple[int, ...] | None = None):
        _check_universe(n)
        self.n = n
        if _words is not None:
            _words.setflags(write=False)
        self._words = _words
        self._members = _members

    @classmethod
    def from_iterable(cls, n: int, moments: Iterable[int]) -> "MomentSet":
        _check_universe(n)
        members = sorted(set(moments))
        if members and (members[0] < 0 or members[-1] >= (1 << n)):
            raise ValueError(f"moments must lie in [0, 2**{n})")
        if n > BITSET_MAX_N:
            return cls(n, _members=tuple(members))
        words = _empty_words(n)
        ks = np.array(members, dtype=np.uint64)
        np.bitwise_or.at(words, ks >> 6, np.uint64(1) << (ks & 63))
        return cls(n, _words=words)

    def __len__(self) -> int:
        if self.n <= BITSET_MAX_N:
            return int(np.bitwise_count(self._words).sum())
        return len(self._members)

    def __contains__(self, k: int) -> bool:
        if not 0 <= k < (1 << self.n):
            return False
        if self.n <= BITSET_MAX_N:
            return int(self._words[k >> 6]) >> (k & 63) & 1 == 1
        return _tuple_contains(self._members, k)

    def __iter__(self) -> Iterator[int]:
        if self.n <= BITSET_MAX_N:
            yield from _bit_positions(self._words)
        else:
            yield from self._members

    def to_list(self) -> list[int]:
        return list(self)

    def __or__(self, other: "MomentSet") -> "MomentSet":
        if not isinstance(other, MomentSet):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot union moment sets over different universes")
        if self.n <= BITSET_MAX_N:
            return MomentSet(self.n, _words=self._words | other._words)
        return MomentSet.from_iterable(self.n, self._members + other._members)

    def complement_set(self) -> "MomentSet":
        """Moments of [0, 2**n) not in this set."""
        total = 1 << self.n
        if self.n <= BITSET_MAX_N:
            return MomentSet(self.n, _words=self._words ^ _full_word(self.n))
        missing = total - len(self._members)
        if missing > SPARSE_ENUM_CAP:
            raise EnumerationLimitError(
                f"complement too large to enumerate: {missing} moments exceed the cap {SPARSE_ENUM_CAP}"
            )
        return MomentSet.from_iterable(self.n, _gaps(self._members, total))

    def reflect(self) -> "MomentSet":
        """The set {2**n - 1 - k} of complement-side images."""
        if self.n > BITSET_MAX_N:
            top = (1 << self.n) - 1
            return MomentSet.from_iterable(self.n, (top - k for k in self))
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
        return len(self) == (1 << self.n)

    def first_absent(self) -> int | None:
        """Smallest moment of [0, 2**n) not in the set, or None if it covers all."""
        if self.n <= BITSET_MAX_N:
            full = _full_word(self.n)
            w = (self._words != np.uint64(full)).argmax()
            word = self._words.item(w)
            if word == full:
                return None
            # word ^ (word + 1) sets exactly the bits up to its lowest clear bit
            return 64 * int(w) + (word ^ (word + 1)).bit_length() - 1
        expected = 0
        for k in self._members:
            if k != expected:
                return expected
            expected += 1
        return expected if expected < (1 << self.n) else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentSet):
            return NotImplemented
        # n fixes the representation and each form is canonical, so equal
        # contents always have identical fields
        if self.n != other.n:
            return False
        if self.n <= BITSET_MAX_N:
            return np.array_equal(self._words, other._words)
        return self._members == other._members

    def __hash__(self) -> int:
        if self.n <= BITSET_MAX_N:
            return hash((self.n, self._words.tobytes()))
        return hash((self.n, self._members))

    def __repr__(self) -> str:
        shown = ",".join(str(k) for k in islice(self, 16))
        suffix = ",..." if len(self) > 16 else ""
        return f"MomentSet(n={self.n}, size={len(self)}, {{{shown}{suffix}}})"


def _empty_words(n: int) -> np.ndarray:
    return np.zeros(1 << max(n - 6, 0), dtype=_WORD)


def _full_word(n: int) -> int:
    # every moment a word can hold: all 64 bits, or 2**n of them for n < 6
    return (1 << (1 << min(n, 6))) - 1


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


def _tuple_contains(members: tuple[int, ...], k: int) -> bool:
    i = bisect_left(members, k)
    return i < len(members) and members[i] == k


def _gaps(members: tuple[int, ...], total: int) -> Iterator[int]:
    expected = 0
    for k in members:
        while expected < k:
            yield expected
            expected += 1
        expected = k + 1
    while expected < total:
        yield expected
        expected += 1


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
    two_sided also those with k & f == 0, as a packed set.

    Moment k = 64*w + j splits f at the word boundary: k contains f iff
    w contains f_hi = f >> 6 and j contains f_lo = f & 63, and k misses f
    iff w and j miss them. Seen as a (2,)*(n-6) cube, the words whose
    index contains (misses) f_hi are the slice with f_hi's axes fixed to
    1 (0), 2**(n-6-|f_hi|) words; each takes one 64-bit pattern, the
    in-word moments containing (missing) f_lo.
    """
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
    words = _empty_words(n)
    # reversed C order, so axis b is bit b of the word index
    cube = words.reshape((2,) * max(n - 6, 0)).T
    for (f_hi, fixed), pattern in patterns.items():
        index = tuple(fixed if f_hi >> b & 1 else slice(None) for b in range(cube.ndim))
        # the trailing Ellipsis keeps a fully fixed index a view, not a scalar
        view = cube[index + (Ellipsis,)]
        view |= np.uint64(pattern)
    return MomentSet(n, _words=words)


def superset_moments(f: SubsetMask, n: int, *, cap: int = SPARSE_ENUM_CAP) -> MomentSet:
    """Moments whose decoded subset includes ``f``.

    Exactly the 2**(n - popcount(f)) integers k with k & f == f: one
    pattern OR into a slice of the packed words, or for n > 28 the subsets
    of the complement of f with f OR-ed in.
    """
    _check_universe(n)
    if f == 0:
        raise ValueError("family sets must be nonempty: every moment is a superset of the empty set")
    if not 0 < f < (1 << n):
        raise ValueError(f"mask {f} out of range for universe size {n}")
    if n <= BITSET_MAX_N:
        return _packed_union(n, (f,), two_sided=False)
    free = complement(f, n)
    count = 1 << (n - f.bit_count())
    if count > cap:
        raise EnumerationLimitError(
            f"superset moments too large to enumerate: {count} moments exceed the cap {cap}"
        )
    return MomentSet.from_iterable(n, (f | s for s in iter_submasks(free)))


def blocked_moments_literal(inst: SplitInstance, *, cap: int = SPARSE_ENUM_CAP) -> MomentSet:
    """One-sided blocked set: union of the superset moments of every family set.

    This checks only whether the arriving subset contains a family set; a
    family set swallowed by the complement side goes unnoticed. Kept for
    exact reproduction of the one-sided construction; decisions should use
    :func:`blocked_moments_full`.
    """
    return _blocked_moments(inst, cap, two_sided=False)


def blocked_moments_full(inst: SplitInstance, *, cap: int = SPARSE_ENUM_CAP) -> MomentSet:
    """Two-sided blocked set: moments whose subset or its complement contains a family set.

    Equals the literal set united with its reflection k -> 2**n - 1 - k,
    because the complement of the subset decoding k is the subset decoding
    the reflected moment.
    """
    return _blocked_moments(inst, cap, two_sided=True)


def _blocked_moments(inst: SplitInstance, cap: int, *, two_sided: bool) -> MomentSet:
    if inst.n > BITSET_MAX_N:
        return _sparse_union(inst, cap, two_sided=two_sided)
    return _packed_union(inst.n, inst.family, two_sided=two_sided)


def _sparse_union(inst: SplitInstance, cap: int, *, two_sided: bool) -> MomentSet:
    members: set[int] = set()
    for f in inst.family:
        free = complement(f, inst.n)
        count = (2 if two_sided else 1) << (inst.n - f.bit_count())
        if count > cap or len(members) + count > 4 * cap:
            raise EnumerationLimitError(
                f"blocked moments too large to enumerate: {count} new moments exceed the cap {cap}"
            )
        for s in iter_submasks(free):
            members.add(f | s)
            if two_sided:
                members.add(s)
    return MomentSet.from_iterable(inst.n, members)


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

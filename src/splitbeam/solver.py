"""End-to-end decision procedures.

Two routes decide set splitting: the optical pipeline (build the delay
device, simulate every path, classify arrival moments against the full
blocked set) and a brute-force oracle that drops each mask a raw family
set contains or misses, reading only the raw family masks and touching
no devices, timelines, or moment sets. The oracle tests the first 2**15
masks directly. Past them, every aligned block of 2**15 masks runs
through the same low 15 bits, so each set's test on those bits is a
packed bit table built once per scan and ANDed into the flags; the
tables hold at most 384 MiB, 12 KiB per distinct low part of a set.
These blocks are decided in aligned runs whose length doubles, each
run keeping one group of flags for all its blocks that agree on the
high bits the sets tested so far vary: at most c groups of 4 KiB for
the run [c, 2c), so 1 MiB at n = 24 and 16 MiB at n = 28.
Equality of the two routes on small instances is the correctness
argument. Subset sum gets the same pair. Its oracle compares every
mask's sum with the target, ascending, as a 2**13-entry table of low
sums against the target minus each sum of the remaining values, 2**16
masks at a time, so a full scan holds about 0.14 MiB at n = 24.

A subset-sum decision watches a single moment at the destination, so
``solve_subset_sum`` does not simulate the whole device. It cuts the
layer chain into a front and a back half, simulates each half, and joins
the two coalesced half-timelines at the target moment (Horowitz and
Sahni's meet in the middle). That costs Theta(2**(n/2)) time and memory
instead of Theta(2**n). Watching the full timeline with
``detect_subset_sum`` remains the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .core import (
    ExactMoment,
    Partition,
    SplitInstance,
    SubsetSumInstance,
    _check_enumerable,
    splits_family,
)
from .device import (
    DelayDevice,
    DeviceKind,
    build_set_splitting_device,
    build_subset_sum_device,
)
from .moments import blocked_moments_full
from .sim import DEFAULT_SIM_CAP, SubsetSumDetection, simulate

DEFAULT_ORACLE_CAP = 28
# Blocks grow from the first size to the full one, aligned, so an early
# solution costs a small block and a full scan still runs in large ones.
_ORACLE_FIRST_BLOCK = 1 << 10
_ORACLE_BLOCK = 1 << 15
# every low pattern of a full block, the input of each of its tables
_LOW_PATTERNS = np.arange(_ORACLE_BLOCK, dtype=np.uint16)
_LOW_PATTERNS.flags.writeable = False
# the subset-sum oracle's low table holds the sums of 2**13 masks (64 KiB),
# and each comparison covers 2**16 masks (a 64 KiB flag buffer)
_SUBSET_ORACLE_LOW_BITS = 13
_SUBSET_ORACLE_CHUNK = 1 << 16


class Decision(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class SplitAnswer:
    decision: Decision
    partition: Partition | None
    solution_moment: int | None

    @property
    def solvable(self) -> bool:
        return self.decision is Decision.SOLVABLE

    def validate_against(self, inst: SplitInstance) -> bool:
        """Re-verify the returned partition against the raw family masks."""
        if not self.solvable:
            return self.partition is None and self.solution_moment is None
        return (
            self.partition is not None
            and self.solution_moment == self.partition.a1
            and self.partition.n == inst.n
            and splits_family(inst.family, self.partition.a1)
        )


def solve_optical(inst: SplitInstance) -> SplitAnswer:
    """Decide set splitting through the delay-device pipeline.

    Builds the device, simulates all arrivals, computes the two-sided
    blocked set, and reports the smallest arrival moment outside it. A
    set-splitting timeline arrives at every moment of [0, 2**n), so the
    smallest unblocked moment is the smallest solution arrival. The
    blocked set is never built whole here: ``first_absent`` takes it one
    block of words at a time, as one word per class of the word-index
    bits the family fixes there, holding at most 512 KiB, and stops at
    the first block with a hole. A block whose class words all fill
    stops early, so an odd cycle of pairs is proved in a few words per
    block. It watches only the moments below 2**(n-1):
    a split and its complement, moments k and 2**n - 1 - k, are both
    splits, so the smallest one lies there if any exists, and an
    unsolvable instance is proven by half the words. Universes of more
    than ``DEFAULT_SIM_CAP`` elements are refused, as ``simulate``
    refuses them.
    """
    device = build_set_splitting_device(inst.n)
    timeline = simulate(device)
    blocked = blocked_moments_full(inst)
    k = blocked.first_absent()
    if k is None:
        return SplitAnswer(Decision.UNSOLVABLE, None, None)
    mask = timeline.witness_for(k)
    if mask is None or not splits_family(inst.family, mask):
        raise AssertionError(f"optical pipeline produced an invalid witness for moment {k}")
    return SplitAnswer(Decision.SOLVABLE, Partition.from_mask(mask, inst.n), k)


def _low_table(f_lo: int, avoid_zero: bool, avoid_full: bool) -> np.ndarray:
    """One bit per low pattern j in [0, 2**15), packed little-endian into
    512 uint64 words: set when ``j & f_lo`` avoids 0 (if asked) and
    ``f_lo`` (if asked)."""
    part = _LOW_PATTERNS & f_lo
    ok = np.ones(_ORACLE_BLOCK, bool)
    if avoid_zero:
        ok &= part != 0
    if avoid_full:
        ok &= part != f_lo
    return np.packbits(ok, bitorder="little").view("<u8")


def _free_masks(inst: SplitInstance, cap: int) -> Iterator[np.ndarray]:
    """The solution masks of each block of the ascending scan, in the
    narrowest unsigned type holding 2**n - 1, which every family set fits.

    The first 2**15 masks are tested directly, in aligned blocks of 1024,
    1024, 2048, ... 16384 masks, so an early solution costs a small block:
    a block holds one flag per mask, and each set, smallest first, clears
    the flags of the masks that do not split it. Once every flag is clear
    the block's remaining sets are skipped.

    Every later block r holds the 2**15 masks ``(r << 15) + j``, one per
    low pattern j. Split each set as ``f = (f_hi << 15) + f_lo`` at bit
    15, so ``mask & f = ((r & f_hi) << 15) + (j & f_lo)``. With
    ``h = r & f_hi`` strictly between 0 and f_hi every mask of the block
    splits f, and the set is skipped. Otherwise the mask splits f when
    ``j & f_lo`` avoids 0 (if h = 0) and f_lo (if h = f_hi), which depends
    on j alone: that test is a table of one bit per j, built once per scan
    on first use and ANDed into 512 words of flags. Each distinct low part
    needs at most 3 tables of 4 KiB, so the tables of a scan hold at most
    3 * 2**15 * 4 KiB = 384 MiB, reached only by tens of thousands of sets.

    These blocks are decided in aligned runs [c, 2c), c = 1, 2, 4, ...
    Block ``r = c + t`` of a run has ``h = (f_hi & c) + (t & f_hi)``, so it
    meets the sets only through t & high, where high is the OR of the
    varying bits ``f_hi & (c - 1)`` of the sets tested so far. The run
    keeps one group of flags per value of t & high, starting from a
    single group; a set bringing a new bit to high splits each group in
    two, a group whose flags are all clear is dropped, and the run stops
    testing sets once no group is left. An odd cycle of pairs thus clears
    a whole run with a few ANDs. A run holds at most c groups of 4 KiB:
    1 MiB at n = 24, 16 MiB at n = 28. Each block then yields its group's
    free masks, ascending, or none if its group was dropped. Runs double,
    so a solution stops the scan inside the run that holds it. Only
    ``inst.n`` and the raw family masks are read."""
    n = inst.n
    _check_enumerable(n, cap, "oracle")
    dtype = np.min_scalar_type((1 << n) - 1)
    family = sorted(inst.family, key=int.bit_count)
    total, lo, block = 1 << n, 0, _ORACLE_FIRST_BLOCK
    while lo < min(total, _ORACLE_BLOCK):
        masks = np.arange(lo, min(lo + block, total), dtype=dtype)
        free = np.ones(len(masks), bool)
        for f in family:
            part = masks & f
            part -= 1
            # part is a submask of f, so part - 1 wraps only at 0: this reads 0 < part < f
            free &= part < f - 1
            # count_nonzero: a third of the fixed cost of .any() on small blocks
            if not np.count_nonzero(free):
                break
        yield masks[free]
        lo += block
        block = lo
    # f_hi is a set's high part in block units: block r meets it as r & f_hi
    parts = [(f >> 15, f & (_ORACLE_BLOCK - 1)) for f in family]
    tables: dict[tuple[int, bool, bool], np.ndarray] = {}
    none = np.empty(0, dtype)
    c = 1
    while c << 15 < total:
        # the run of blocks c + t, t < c: one group of flags per t & high
        high = 0
        groups = {0: np.full(_ORACLE_BLOCK // 64, (1 << 64) - 1, "<u8")}
        for f_hi, f_lo in parts:
            varying = f_hi & (c - 1)
            new = varying & ~high
            while new:
                bit = new & -new
                groups.update({g | bit: flags.copy() for g, flags in groups.items()})
                new ^= bit
            high |= varying
            for g, flags in list(groups.items()):
                h = (f_hi & c) | (g & varying)
                if 0 < h < f_hi:
                    continue
                key = (f_lo, h == 0, h == f_hi)
                table = tables.get(key)
                if table is None:
                    table = tables[key] = _low_table(*key)
                flags &= table
                if not np.count_nonzero(flags):
                    del groups[g]
            if not groups:
                break
        for t in range(c):
            flags = groups.get(t & high)
            if flags is None:
                yield none
                continue
            j = np.flatnonzero(np.unpackbits(flags.view(np.uint8), bitorder="little"))
            yield (j + ((c + t) << 15)).astype(dtype)
        c <<= 1


def solve_oracle(inst: SplitInstance, *, cap: int = DEFAULT_ORACLE_CAP) -> SplitAnswer:
    """Brute-force verifier: scan masks ascending, check containment directly.

    Works block by block over one flag per mask, so the scan stays
    vectorized while still returning the first solution in ascending mask
    order. The first 2**15 masks are tested one set at a time on the masks
    themselves, and a block whose masks are all blocked skips its
    remaining sets. Past them each set's test on the low 15 mask bits is a
    packed table built once per scan, and the blocks are decided in runs
    [c, 2c) of doubling length, one group of flags per set of blocks the
    sets tested so far cannot tell apart (see ``_free_masks``): a group
    whose flags are all clear is dropped, and a run with no group left
    skips its remaining sets. A run holds at most c groups of 4 KiB, 16
    MiB at the default cap n = 28, and the tables at most 384 MiB. It reads
    only the raw family masks and touches no devices, timelines, or moment
    sets.
    """
    for free in _free_masks(inst, cap):
        if free.size:
            m = int(free[0])
            return SplitAnswer(Decision.SOLVABLE, Partition.from_mask(m, inst.n), m)
    return SplitAnswer(Decision.UNSOLVABLE, None, None)


def _half_chain(delays: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct core delays of a sub-chain and the smallest mask reaching each.

    The empty chain passes the pulse through once, at delay 0. A chain
    ``simulate`` refuses is refused here too, before anything is
    allocated.
    """
    if not delays:
        zero = np.zeros(1, dtype=np.int64)
        return zero, zero
    timeline = simulate(DelayDevice(DeviceKind.SUBSET_SUM, delays))
    return timeline.cores, timeline.witnesses


def solve_subset_sum(inst: SubsetSumInstance) -> SubsetSumDetection:
    """Decide subset sum by joining the device's two half-chains at the target.

    The front half is the first ceil(n/2) layers of the device, the back
    half the rest; each is simulated on its own. A back arrival at core
    ``c`` completes to the target exactly when the front half has an
    arrival at ``target - c``. Among those back arrivals the one with the
    smallest mask wins, because the back layers are the high bits of the
    full mask; its front partner's smallest mask fills the low bits. The
    result is the smallest witness the full timeline would report, found
    in Theta(2**(n/2)) time and memory. Instances of more than
    ``DEFAULT_SIM_CAP`` values are refused before anything is allocated,
    as the full simulation refuses them.
    """
    n = inst.n
    _check_enumerable(n, DEFAULT_SIM_CAP, "simulation")
    moment = ExactMoment(inst.target, n)
    device = build_subset_sum_device(inst)
    # Devices keep the sum of take delays below 2**63, so past this check
    # target - core fits int64.
    if inst.target > sum(device.take_delays):
        return SubsetSumDetection(False, None, moment)
    front_n = (n + 1) // 2
    front_cores, front_wits = _half_chain(device.take_delays[:front_n])
    back_cores, back_wits = _half_chain(device.take_delays[front_n:])
    need = inst.target - back_cores
    at = np.minimum(np.searchsorted(front_cores, need), len(front_cores) - 1)
    joins = np.flatnonzero(front_cores[at] == need)
    if not joins.size:
        return SubsetSumDetection(False, None, moment)
    best = joins[np.argmin(back_wits[joins])]
    witness = (int(back_wits[best]) << front_n) | int(front_wits[at[best]])
    return SubsetSumDetection(True, witness, moment)


def _subset_sums(values: tuple[int, ...]) -> np.ndarray:
    """The 2**len(values) subset sums as int64, entry ``mask`` holding the
    sum of the values ``mask`` selects, doubled value by value."""
    sums = np.empty(1 << len(values), dtype=np.int64)
    sums[0] = 0
    for i, v in enumerate(values):
        np.add(sums[: 1 << i], v, out=sums[1 << i : 2 << i])
    return sums


def subset_sum_oracle(inst: SubsetSumInstance, *, cap: int = DEFAULT_ORACLE_CAP) -> SubsetSumDetection:
    """Direct comparison of every subset sum with the target, no device involved.

    Mask ``(h << b) | l`` splits into its low b = min(n, 13) bits l and
    its high bits h. Two small tables are doubled value by value: ``low``,
    the 2**b sums of the first b values (64 KiB), and ``need``, the target
    minus each sum of the remaining values. The mask sums to the target
    exactly when ``low[l] == need[h]``. Rows of ``need`` are compared
    with all of ``low`` in ascending mask order, 2**16 masks at a time
    into one reused flag buffer, so every mask is compared once while the
    working set stays cache-sized, and the first hit is the smallest
    witness mask. The int64 sums and differences are exact because
    ``SubsetSumInstance`` refuses values whose sum reaches 2**63, and a
    target past that sum is answered before anything is allocated.
    """
    n = inst.n
    _check_enumerable(n, cap, "oracle")
    moment = ExactMoment(inst.target, n)
    if inst.target > sum(inst.values):
        return SubsetSumDetection(False, None, moment)
    b = min(n, _SUBSET_ORACLE_LOW_BITS)
    low = _subset_sums(inst.values[:b])
    need = _subset_sums(inst.values[b:])
    np.subtract(inst.target, need, out=need)
    rows = min(len(need), _SUBSET_ORACLE_CHUNK >> b)
    flags = np.empty((rows, 1 << b), dtype=bool)
    for r in range(0, len(need), rows):
        part = need[r : r + rows, None]
        hit = np.equal(low, part, out=flags[: len(part)])
        k = int(np.argmax(hit))
        if hit.flat[k]:
            return SubsetSumDetection(True, (r << b) + k, moment)
    return SubsetSumDetection(False, None, moment)

"""Brute-force oracles for both problems, independent of the optical route.

The set-splitting oracle drops each mask a raw family set contains or
misses, reading only the raw family masks and touching no devices,
timelines, or moment sets. It decides aligned units of 2**12 masks, one
bit of a Python int per mask. Every unit runs through the same low 12
bits, so each set's test on those bits is a pair of bit tables built
once per scan and ANDed into the flags: two tables per distinct low part
of a set, at most 4 MiB. Unit 0 is decided alone, then aligned runs of
units whose length doubles, each run keeping one group of flags for all
its units that agree on the high bits the sets tested so far vary: at
most c groups of 512 B for the run [c, 2c), so 16 MiB at n = 28. The
subset-sum oracle compares every mask's sum with the target, ascending,
as a 2**15-entry table of low sums against the target minus each sum of
the remaining values, one row of 2**15 masks at a time, so a full scan
holds about 0.3 MiB up to n = 24 and 0.6 MiB at n = 28.

Equality with the optical route of ``solver`` on small instances is the
correctness argument, so of splitbeam this module imports ``core``
alone: the instances, the split predicate and the answer types.
``tests/test_imports.py`` reads the import graph and keeps it so.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import (
    Decision,
    ExactMoment,
    Partition,
    SplitAnswer,
    SplitInstance,
    SubsetSumDetection,
    SubsetSumInstance,
    _check_enumerable,
)

DEFAULT_ORACLE_CAP = 28
# the set-splitting oracle decides 2**12 masks at a time, one Python int of
# flags (512 B) per unit: 2**10 slowed families of hundreds of sets at
# n = 28, and 2**15 slowed the early answers of the benchmark workloads
_ORACLE_UNIT_BITS = 12
# the subset-sum oracle compares rows of 2**15 masks (256 KiB of low sums):
# 2**14 slowed full scans at n = 28, 2**16 doubled the memory at no gain
_SUBSET_ORACLE_LOW_BITS = 15


def _low_table(f_lo: int) -> tuple[int, int]:
    """A pair of Python ints of one bit per low pattern j < 2**12: the
    patterns that meet f_lo (``j & f_lo != 0``) and the patterns that miss
    part of it (``j & f_lo != f_lo``)."""
    # the patterns with j & f_lo == 0, doubled once per free low bit
    zero = 1
    for b in range(_ORACLE_UNIT_BITS):
        if not f_lo >> b & 1:
            zero |= zero << (1 << b)
    # shifted by f_lo they become the patterns that contain f_lo
    every = (1 << (1 << _ORACLE_UNIT_BITS)) - 1
    return every ^ zero, every ^ zero << f_lo


def _free_masks(inst: SplitInstance, cap: int) -> Iterator[int]:
    """The solution masks, ascending, as Python ints, found unit by unit.

    Unit r holds the 2**12 masks ``(r << 12) + j``, one per low pattern j
    (only the 2**n masks when n < 12), and its flags are one Python int
    of a bit per mask. Split each set as ``f = (f_hi << 12) + f_lo``, so
    ``mask & f = ((r & f_hi) << 12) + (j & f_lo)``. With ``h = r & f_hi``
    the mask splits f (``0 < mask & f < f``) unless h = 0 and j misses
    f_lo, or h = f_hi and j contains f_lo. Both tests depend on j alone:
    the pair of tables ``meets`` and ``misses`` of one bit per j, built
    once per scan on a set's first use. A unit with h = 0 ANDs ``meets``
    into its flags and one with h = f_hi ``misses`` (a set with f_hi = 0
    both): two tables of 512 B per distinct low part, at most 4 MiB.

    Unit 0 is decided alone, then the aligned runs [c, 2c), c = 1, 2, 4,
    ... Unit ``r = c + t`` of a run has ``h = (f_hi & c) + (t & f_hi)``,
    so it meets the sets only through t & high, where high is the OR of
    the varying bits ``f_hi & (c - 1)`` of the sets tested so far. The
    sets are tested smallest first, and the run keeps one group of flags
    per value of t & high, starting from a single group; a set bringing a
    new bit to high splits each group in two, a group whose flags are all
    clear is dropped, and the run stops testing sets once no group is
    left. An odd cycle of pairs thus clears a whole run with a few ANDs.
    If every set tested has f_hi below the run's length, none fixes a bit
    of a later run's start, so each later run empties the same way and the
    scan ends. A run holds at most c groups of 512 B, 16 MiB at n = 28.
    Each unit of the run then yields its group's free masks, ascending.
    Runs double, so a solution stops the scan inside the run that holds
    it. Only ``inst.n`` and the raw family masks are read."""
    n = inst.n
    _check_enumerable(n, cap, "oracle")
    u = _ORACLE_UNIT_BITS
    # f_hi is a set's high part in units: unit r meets it as r & f_hi
    parts = [(f >> u, f & ((1 << u) - 1)) for f in sorted(inst.family, key=int.bit_count)]
    units = 1 << max(n - u, 0)
    tables: dict[int, tuple[int, int]] = {}
    start, size = 0, 1
    while start < units:
        # the run of units start + t, t < size: one group of flags per t & high
        high = reach = 0
        groups = {0: (1 << (1 << min(n, u))) - 1}
        for f_hi, f_lo in parts:
            varying = f_hi & (size - 1)
            new = varying & ~high
            while new:
                bit = new & -new
                groups.update({g | bit: flags for g, flags in groups.items()})
                new ^= bit
            high |= varying
            pair = tables.get(f_lo)
            if pair is None:
                pair = tables[f_lo] = _low_table(f_lo)
            meets, misses = pair
            for g, flags in list(groups.items()):
                h = (f_hi & start) | (g & varying)
                if h == 0:
                    flags &= meets
                if h == f_hi:
                    flags &= misses
                if flags:
                    groups[g] = flags
                else:
                    del groups[g]
            reach |= f_hi
            if not groups:
                break
        if not groups and reach < size:
            return  # every later run empties the same way
        for t in range(size if groups else 0):
            flags = groups.get(t & high, 0)
            while flags:
                low = flags & -flags
                yield ((start + t) << u) + low.bit_length() - 1
                flags ^= low
        start += size
        size = start


def solve_oracle(inst: SplitInstance, *, cap: int = DEFAULT_ORACLE_CAP) -> SplitAnswer:
    """Brute-force verifier: scan masks ascending, check containment directly.

    Works on units of 2**12 masks, one bit of a Python int per mask, and
    returns the first solution in ascending mask order. Each set's test on
    the low 12 mask bits is a pair of tables built once per scan. Unit 0
    is decided alone, then the units go in runs [c, 2c) of doubling
    length, one group of flags per set of units the sets tested so far
    cannot tell apart (see ``_free_masks``): a group whose flags are all
    clear is dropped, and a run with no group left skips its remaining
    sets, or ends the scan when no later run can differ. A run holds at
    most c groups of 512 B, 16 MiB at the default cap n = 28, and the
    tables at most 4 MiB. It reads only the raw family masks and touches
    no devices, timelines, or moment sets.
    """
    m = next(_free_masks(inst, cap), None)
    if m is None:
        return SplitAnswer(Decision.UNSOLVABLE, None, None)
    return SplitAnswer(Decision.SOLVABLE, Partition.from_mask(m, inst.n), m)


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

    Mask ``(h << b) | l`` splits into its low b = min(n, 15) bits l and
    its high bits h, and the sums of the first b values (``low``,
    256 KiB) and of the rest (``high``) are doubled value by value. The
    mask sums to the target exactly when ``low[l] == target - high[h]``,
    so the rows h, in order, compare all of ``low`` with one Python int
    into a reused 32 KiB flag buffer: every mask is compared once, in
    ascending order, in a cache-sized working set, and the first hit is
    the smallest witness mask. The int64 sums and differences are exact
    because ``SubsetSumInstance`` refuses values whose sum reaches 2**63,
    and a target past that sum is answered before anything is allocated.
    """
    n = inst.n
    _check_enumerable(n, cap, "oracle")
    moment = ExactMoment(inst.target, n)
    if inst.target > sum(inst.values):
        return SubsetSumDetection(None, moment)
    b = min(n, _SUBSET_ORACLE_LOW_BITS)
    low = _subset_sums(inst.values[:b])
    flags = np.empty(1 << b, dtype=bool)
    for h, high in enumerate(_subset_sums(inst.values[b:]).tolist()):
        k = int(np.equal(low, inst.target - high, out=flags).argmax())
        if flags[k]:
            return SubsetSumDetection((h << b) + k, moment)
    return SubsetSumDetection(None, moment)

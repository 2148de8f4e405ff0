"""End-to-end decision procedures.

Two routes decide set splitting: the optical pipeline (build the delay
device, simulate every path, classify arrival moments against the full
blocked set) and a brute-force oracle that drops each mask a raw family
set contains or misses, reading only the raw family masks and touching
no devices, timelines, or moment sets. The oracle decides aligned units
of 2**12 masks, one bit of a Python int per mask. Every unit runs
through the same low 12 bits, so each set's test on those bits is a
pair of bit tables built once per scan and ANDed into the flags: two
tables per distinct low part of a set, at most 4 MiB. Unit 0 is decided
alone, then aligned runs of units whose length doubles, each run keeping
one group of flags for all its units that agree on the high bits the
sets tested so far vary: at most c groups of 512 B for the run [c, 2c),
so 16 MiB at n = 28. Equality of the two routes on small instances is
the correctness argument. Subset sum gets the same pair. Its oracle
compares every mask's sum with the target, ascending, as a 2**15-entry
table of low sums against the target minus each sum of the remaining
values, one row of 2**15 masks at a time, so a full scan holds about
0.3 MiB up to n = 24 and 0.6 MiB at n = 28.

A subset-sum decision watches a single moment at the destination, so
``solve_subset_sum`` does not simulate the whole device. It cuts the
layer chain into a front and a back half, enumerates the path delays of
each with the simulator's kernel, and joins them at the target moment
(Horowitz and Sahni's meet in the middle): the sorted front delays are
searched for the target minus each back delay. That costs
Theta(2**(n/2)) memory and Theta(n * 2**(n/2)) time instead of
Theta(2**n). Watching the full timeline with ``detect_subset_sum``
remains the reference the tests compare against.
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
from .device import build_set_splitting_device
from .moments import blocked_moments_full
from .sim import DEFAULT_SIM_CAP, SubsetSumDetection, _path_delays, simulate

DEFAULT_ORACLE_CAP = 28
# the set-splitting oracle decides 2**12 masks at a time, one Python int of
# flags (512 B) per unit: 2**10 slowed families of hundreds of sets at
# n = 28, and 2**15 slowed the early answers of the benchmark workloads
_ORACLE_UNIT_BITS = 12
# the subset-sum oracle compares rows of 2**15 masks (256 KiB of low sums):
# 2**14 slowed full scans at n = 28, 2**16 doubled the memory at no gain
_SUBSET_ORACLE_LOW_BITS = 15


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
    blocked set is never built whole here: ``first_absent`` reads word 0,
    moments 0-63, as the OR of the patterns keyed want == 0, without the
    class kernel. Past it, it takes the set one block of words at a
    time, as one word per class of the word-index bits the family fixes
    there, holding at most 512 KiB, and stops at the first block with a
    hole. A block whose class words all fill stops early, so an odd
    cycle of pairs is proved in a few words per block. It watches only
    the moments below 2**(n-1): a split and its complement, moments k
    and 2**n - 1 - k, are both splits, so the smallest one lies there if
    any exists, and an unsolvable instance is proven by half the words.
    Universes of more than ``DEFAULT_SIM_CAP`` elements are refused, as
    ``simulate`` refuses them.
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


def solve_subset_sum(inst: SubsetSumInstance) -> SubsetSumDetection:
    """Decide subset sum by joining the device's two half-chains at the target.

    Layer i of the device takes the i-th value as its delay, so the
    values are read directly: the front half is the first ceil(n/2)
    layers, the back half the rest, and ``_path_delays`` gives each
    half's path delays in mask order. A back path of delay ``c``
    completes to the target exactly when some front path has delay
    ``target - c``. The front delays are sorted stably, so equal delays
    keep their smallest mask first, and each back path's needed delay is
    searched among them. The back layers are the high bits of the full
    mask, so the first back mask with a hit wins, and its partner's
    smallest front mask fills the low bits. The result is the smallest
    witness the full timeline would report, found in Theta(2**(n/2))
    memory. Instances of more than ``DEFAULT_SIM_CAP`` values are refused
    before anything is allocated, as the full simulation refuses them,
    and so is a half of more than ``PATH_ENUM_CAP`` layers.
    """
    n = inst.n
    _check_enumerable(n, DEFAULT_SIM_CAP, "simulation")
    moment = ExactMoment(inst.target, n)
    # The take delays are the values, whose sum SubsetSumInstance keeps
    # below 2**63, so past this check target - core fits int64.
    if inst.target > sum(inst.values):
        return SubsetSumDetection(None, moment)
    front_n = (n + 1) // 2
    front = _path_delays(inst.values[:front_n])
    order = np.argsort(front, kind="stable")
    front = front[order]
    need = _path_delays(inst.values[front_n:])
    np.subtract(inst.target, need, out=need)
    at = np.minimum(np.searchsorted(front, need), len(front) - 1)
    hit = front[at] == need
    b = int(np.argmax(hit))
    if not hit[b]:
        return SubsetSumDetection(None, moment)
    return SubsetSumDetection((b << front_n) | int(order[at[b]]), moment)


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

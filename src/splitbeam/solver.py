"""The optical decision pipelines.

Set splitting builds the delay device, simulates every path, and
classifies arrival moments against the full blocked set. Equality with
the brute-force oracles of ``oracle`` on small instances is the
correctness argument.

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
    splits_family,
)
from .device import build_set_splitting_device
from .moments import blocked_moments_full
from .sim import DEFAULT_SIM_CAP, _path_delays, simulate


def solve_optical(inst: SplitInstance) -> SplitAnswer:
    """Decide set splitting through the delay-device pipeline.

    Builds the device, simulates all arrivals, computes the two-sided
    blocked set, and reports the smallest arrival moment outside it. A
    set-splitting timeline arrives at every moment of [0, 2**n), so the
    smallest unblocked moment is the smallest solution arrival. The
    blocked set is never built whole here: ``first_absent`` reads word 0
    and then the first 64 words, moments 0-4095, as Python ints without
    the class kernel. Past them, it takes the set one block of words at
    a time from block 0, as one word per class of the word-index bits
    the family fixes there, holding at most 512 KiB, and stops at the
    first block with a hole. A block whose class words all fill stops
    early, so an odd cycle of pairs is proved in a few words per block.
    It watches only the moments below 2**(n-1): a split and its
    complement, moments k and 2**n - 1 - k, are both splits, so the
    smallest one lies there if any exists, and an unsolvable instance is
    proven by half the words.
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

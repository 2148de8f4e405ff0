"""Exhaustive light-propagation simulation.

Enumerates all 2**n source-to-destination paths of a device and
coalesces simultaneous arrivals (same core delay) into one event whose
exact intensity is the ``Fraction`` paths / 2**n; the float trace a
detector records of a timeline is rendered in ``feasibility``.
Enumeration is one pass in one thread into one buffer and costs
Theta(2**n) in time and memory, which is the whole point of the device
being simulated; devices of more than
``DEFAULT_SIM_CAP`` = 28 layers, which would not terminate at desk
scale, are refused, and so is the enumeration of more than
``PATH_ENUM_CAP`` = 24 layers, which would need 1 GiB or more. When
each take delay exceeds the sum of those before it, as set splitting's
1, 2, 4, ... do, the path delays come out distinct and in mask order:
the buffer is the timeline and no sort is needed.

Take delays 1, 2, ..., 2**(n-1), the set-splitting device's, force a
fully predictable timeline (every moment in [0, 2**n) arrives exactly
once), so from ``DEFAULT_ANALYTIC_THRESHOLD`` layers on such a timeline
is generated analytically; below it the paths are genuinely enumerated
so tests exercise the model rather than the formula.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ExactMoment,
    SubsetMask,
    SubsetSumDetection,
    _check_enumerable,
)
from .device import DelayDevice

DEFAULT_SIM_CAP = 28
# enumeration peaks at up to 65 bytes per path: about 1 GiB at 24 layers
PATH_ENUM_CAP = 24
DEFAULT_ANALYTIC_THRESHOLD = 17


@dataclass(frozen=True)
class ArrivalEvent:
    """All beams reaching the destination at one exact moment."""

    moment: ExactMoment
    intensity: Fraction
    paths: int
    witness: SubsetMask


@dataclass(frozen=True, slots=True, eq=False)
class ArrivalTimeline:
    """Coalesced arrival events of one simulation, sorted by core delay.

    A frozen dataclass, so assigning a field raises
    ``FrozenInstanceError``; equality and hashing are by identity, as a
    generated ``__eq__`` would compare arrays. It is backed by three
    parallel arrays (distinct core delays, path multiplicities, smallest
    originating mask per delay), any of which may be implicit. No counts
    means one path per event, whose mask is the event's position:
    ``simulate`` keeps that form whenever each take delay exceeds the
    sum of those before it. No cores as well means the moments are
    exactly 0..2**n-1, the form a timeline of take delays 1, 2, ...,
    2**(n-1) built analytically has. A read builds only what it returns
    and keeps nothing: ``cores`` and ``counts`` return the held array,
    which ``simulate`` makes read-only, or a new one for an implicit
    array, ``witness_for`` looks one moment up, and ``iter_events``
    streams the events one at a time.
    """

    n: int
    _cores: np.ndarray | None
    _counts: np.ndarray | None
    _witnesses: np.ndarray | None

    @property
    def is_analytic(self) -> bool:
        return self._cores is None

    # implicit cores are the event positions
    @property
    def cores(self) -> np.ndarray:
        if self._cores is None:
            return np.arange(self.event_count, dtype=np.int64)
        return self._cores

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            return np.ones(self.event_count, dtype=np.int64)
        return self._counts

    @property
    def event_count(self) -> int:
        if self._cores is None:
            return 1 << self.n
        return len(self._cores)

    @property
    def total_paths(self) -> int:
        if self._counts is None:
            return self.event_count
        return int(self._counts.sum())

    def witness_for(self, core: int) -> SubsetMask | None:
        """Smallest mask among the paths arriving at ``core``, or None."""
        if self._cores is None:
            # analytic: event k sits at position k, arrays stay implicit
            return core if 0 <= core < (1 << self.n) else None
        i = int(np.searchsorted(self._cores, core))
        if i == len(self._cores) or int(self._cores[i]) != core:
            return None
        return i if self._witnesses is None else int(self._witnesses[i])

    def iter_events(self):
        # implicit arrays stream without being built
        cores = range(1 << self.n) if self._cores is None else self._cores
        counts = itertools.repeat(1) if self._counts is None else self._counts
        witnesses = itertools.count() if self._witnesses is None else self._witnesses
        for core, paths, wit in zip(cores, counts, witnesses):
            yield ArrivalEvent(
                ExactMoment(int(core), self.n),
                Fraction(int(paths), 1 << self.n),
                int(paths),
                int(wit),
            )

    def __repr__(self) -> str:
        return f"ArrivalTimeline(n={self.n}, events={self.event_count})"


def _path_delays(delays: tuple[int, ...]) -> np.ndarray:
    """The int64 core delay of every path through a chain of take delays,
    entry ``mask`` summing the layers ``mask`` takes, doubled layer by
    layer. The empty chain passes the pulse once, at delay 0. More than
    ``PATH_ENUM_CAP`` layers are refused before anything is allocated."""
    _check_enumerable(len(delays), PATH_ENUM_CAP, "path enumeration")
    sums = np.empty(1 << len(delays), dtype=np.int64)
    sums[0] = 0
    for i, d in enumerate(delays):
        np.add(sums[: 1 << i], d, out=sums[1 << i : 2 << i])
    return sums


def simulate(device: DelayDevice) -> ArrivalTimeline:
    """Propagate one source pulse through every path of the device.

    Evaluation is one pass in one thread: ``_path_delays`` puts the
    delays of all 2**n paths, in mask order, in one buffer, and refuses
    more than ``PATH_ENUM_CAP`` layers before it allocates. When each
    take delay exceeds the sum of those before it, the buffer is strictly
    increasing: two masks are ordered by the highest layer where they
    differ, whose delay outweighs all the layers below it. Then every
    path arrives alone and the buffer is the timeline, with unit counts
    and witness = position left implicit. Otherwise one sort coalesces
    them. From ``DEFAULT_ANALYTIC_THRESHOLD`` layers on, take delays 1,
    2, ..., 2**(n-1) give the analytic timeline, and nothing is
    enumerated. The arrays the timeline holds are read-only. A device
    of more than ``DEFAULT_SIM_CAP`` layers is refused with
    ``EnumerationLimitError`` before anything is allocated.
    """
    n = device.n
    _check_enumerable(n, DEFAULT_SIM_CAP, "simulation")

    delays = device.take_delays
    if n >= DEFAULT_ANALYTIC_THRESHOLD and delays == tuple(1 << i for i in range(n)):
        return ArrivalTimeline(n, None, None, None)
    sums = _path_delays(delays)
    if all(map(operator.gt, delays, itertools.accumulate(delays, initial=0))):
        # distinct and in mask order: each event is one path, its mask the position
        sums.flags.writeable = False
        return ArrivalTimeline(n, sums, None, None)
    cores, first, counts = np.unique(sums, return_index=True, return_counts=True)
    # first occurrence in mask order is the smallest witness mask
    first = first.astype(np.int64)
    for array in (cores, counts, first):
        array.flags.writeable = False
    return ArrivalTimeline(n, cores, counts, first)


def detect_subset_sum(timeline: ArrivalTimeline, target: int) -> SubsetSumDetection:
    """Decide whether any beam arrives at core delay ``target``.

    Any timeline can be watched. A set-splitting timeline is the
    subset-sum timeline of the values 1, 2, ..., 2**(n-1), so watching
    it at ``target`` finds the subset whose bits are ``target``. The
    physical detection moment is target + n*epsilon because every
    complete path crosses n arcs; the epsilon offset is constant and never
    affects which subset is found.
    """
    moment = ExactMoment(target, timeline.n)
    witness = timeline.witness_for(target)
    return SubsetSumDetection(witness, moment)

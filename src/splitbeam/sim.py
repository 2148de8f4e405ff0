"""Exhaustive light-propagation simulation.

Enumerates all 2**n source-to-destination paths of a device, coalesces
simultaneous arrivals (same core delay) by summing their exact dyadic
intensities, and can render the result as an oscilloscope-style sampled
trace. Enumeration is one pass in one thread and costs Theta(2**n) in
time and memory, which is the whole point of the device being simulated;
a configurable cap refuses instances that would not terminate at desk
scale.

Set-splitting devices force a fully predictable timeline (every moment in
[0, 2**n) arrives exactly once), so above an enumeration threshold the
timeline is generated analytically; below it the paths are genuinely
enumerated so tests exercise the model rather than the formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DyadicIntensity,
    EnumerationLimitError,
    ExactMoment,
    SubsetMask,
    format_mask,
)
from .device import DelayDevice, DeviceKind

DEFAULT_SIM_CAP = 28
DEFAULT_ANALYTIC_THRESHOLD = 17
# 32 MiB per float64 array, and a trace holds three
TRACE_MAX_SAMPLES = 1 << 22


@dataclass(frozen=True)
class ArrivalEvent:
    """All beams reaching the destination at one exact moment."""

    moment: ExactMoment
    intensity: DyadicIntensity
    paths: int
    witness: SubsetMask


class ArrivalTimeline:
    """Coalesced arrival events of one simulation, sorted by core delay.

    Backed by three parallel arrays (distinct core delays, path
    multiplicities, smallest originating mask per delay). Set-splitting
    timelines built analytically keep the arrays implicit until someone
    asks for them: the moments are exactly 0..2**n-1, each from a single
    path whose mask equals the moment.
    """

    __slots__ = ("n", "kind", "_cores", "_counts", "_witnesses", "_events")

    def __init__(
        self,
        n: int,
        kind: DeviceKind,
        cores: np.ndarray | None,
        counts: np.ndarray | None,
        witnesses: np.ndarray | None,
    ):
        self.n = n
        self.kind = kind
        self._cores = cores
        self._counts = counts
        self._witnesses = witnesses
        self._events: tuple[ArrivalEvent, ...] | None = None

    @classmethod
    def analytic_splitting(cls, n: int) -> "ArrivalTimeline":
        return cls(n, DeviceKind.SET_SPLITTING, None, None, None)

    @property
    def is_analytic(self) -> bool:
        return self._cores is None

    def _ensure_arrays(self) -> None:
        if self._cores is None:
            total = 1 << self.n
            self._cores = np.arange(total, dtype=np.int64)
            self._counts = np.ones(total, dtype=np.int64)
            self._witnesses = self._cores

    @property
    def cores(self) -> np.ndarray:
        self._ensure_arrays()
        return self._cores

    @property
    def counts(self) -> np.ndarray:
        self._ensure_arrays()
        return self._counts

    @property
    def witnesses(self) -> np.ndarray:
        self._ensure_arrays()
        return self._witnesses

    @property
    def event_count(self) -> int:
        if self._cores is None:
            return 1 << self.n
        return len(self._cores)

    @property
    def total_paths(self) -> int:
        if self._cores is None:
            return 1 << self.n
        return int(self._counts.sum())

    def _index(self, core: int) -> int | None:
        """Array position of the event at ``core``, or None if no beam arrives then."""
        if self._cores is None:
            # analytic: event k sits at position k, arrays stay implicit
            return core if 0 <= core < (1 << self.n) else None
        i = int(np.searchsorted(self._cores, core))
        if i < len(self._cores) and int(self._cores[i]) == core:
            return i
        return None

    def contains_core(self, core: int) -> bool:
        return self._index(core) is not None

    def multiplicity(self, core: int) -> int:
        i = self._index(core)
        if i is None:
            return 0
        return 1 if self._counts is None else int(self._counts[i])

    def witness_for(self, core: int) -> SubsetMask | None:
        """Smallest mask among the paths arriving at ``core``, or None."""
        i = self._index(core)
        if i is None or self._witnesses is None:
            return i
        return int(self._witnesses[i])

    def iter_events(self):
        if self._cores is None:
            one_path = DyadicIntensity.from_paths(1, self.n)
            for k in range(1 << self.n):
                yield ArrivalEvent(ExactMoment(k, self.n), one_path, 1, k)
            return
        for core, count, wit in zip(self._cores, self._counts, self._witnesses):
            yield ArrivalEvent(
                ExactMoment(int(core), self.n),
                DyadicIntensity.from_paths(int(count), self.n),
                int(count),
                int(wit),
            )

    @property
    def events(self) -> tuple[ArrivalEvent, ...]:
        if self._events is None:
            self._events = tuple(self.iter_events())
        return self._events

    def total_intensity(self) -> DyadicIntensity:
        """Exact dyadic sum of all event intensities (1 when nothing is lost)."""
        total = DyadicIntensity.zero()
        for event in self.iter_events():
            total = total + event.intensity
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrivalTimeline):
            return NotImplemented
        return (
            self.n == other.n
            and self.kind == other.kind
            and np.array_equal(self.cores, other.cores)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.witnesses, other.witnesses)
        )

    def __repr__(self) -> str:
        return (
            f"ArrivalTimeline(kind={self.kind.value}, n={self.n}, "
            f"events={self.event_count})"
        )


def simulate(
    device: DelayDevice,
    *,
    cap: int = DEFAULT_SIM_CAP,
    partitions: int = 1,
    workers: int | None = None,
) -> ArrivalTimeline:
    """Propagate one source pulse through every path of the device.

    Evaluation is one pass in one thread: the delays of all 2**n paths,
    coalesced by one sort. ``partitions`` (a power of two no larger than
    the path count) and ``workers`` are accepted and change nothing: the
    result is the same for every partition count.
    """
    n = device.n
    if n > cap:
        raise EnumerationLimitError(
            f"instance too large to enumerate: n={n} exceeds the simulation cap {cap}"
        )
    if cap > DEFAULT_SIM_CAP:
        warnings.warn(
            f"simulation cap raised to {cap}; enumeration costs Theta(2**n) time and memory",
            stacklevel=2,
        )
    if partitions < 1 or partitions & (partitions - 1):
        raise ValueError("partitions must be a positive power of two")
    if partitions > (1 << n):
        raise ValueError(f"partitions={partitions} exceeds the 2**{n} path count")

    if device.kind is DeviceKind.SET_SPLITTING and n >= DEFAULT_ANALYTIC_THRESHOLD:
        return ArrivalTimeline.analytic_splitting(n)

    # sums[mask] is the core delay of the path taking the masked layers
    sums = np.zeros(1, dtype=np.int64)
    for d in device.take_delays:
        sums = np.concatenate([sums, sums + d])
    cores, first, counts = np.unique(sums, return_index=True, return_counts=True)
    # first occurrence in mask order is the smallest witness mask
    return ArrivalTimeline(n, device.kind, cores, counts, first.astype(np.int64))


@dataclass(frozen=True)
class SubsetSumDetection:
    """Outcome of watching the destination at the target moment."""

    found: bool
    witness: SubsetMask | None
    moment: ExactMoment

    def describe(self) -> str:
        if self.found:
            return f"fluctuation at moment {self.moment} (subset {format_mask(self.witness)})"
        return f"no fluctuation at moment {self.moment}"


def detect_subset_sum(timeline: ArrivalTimeline, target: int) -> SubsetSumDetection:
    """Decide whether any beam arrives at core delay ``target``.

    The physical detection moment is target + n*epsilon because every
    complete path crosses n arcs; the epsilon offset is constant and never
    affects which subset is found.
    """
    if timeline.kind is not DeviceKind.SUBSET_SUM:
        raise ValueError("timeline was not produced by a subset-sum device")
    moment = ExactMoment(target, timeline.n)
    witness = timeline.witness_for(target)
    return SubsetSumDetection(witness is not None, witness, moment)


@dataclass(frozen=True)
class Trace:
    """A sampled oscilloscope-style trace: times in seconds, summed intensities."""

    times: np.ndarray
    values: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time_s,intensity\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")


def synthesize_trace(
    timeline: ArrivalTimeline,
    *,
    unit_delay: float,
    epsilon: float,
    rise_time: float,
    samples_per_rise: int = 8,
) -> Trace:
    """Render the timeline as the photodiode signal an oscilloscope would sample.

    Every arrival contributes a rectangular pulse of width ``rise_time``
    and height equal to its intensity (as a decimal); overlapping pulses
    add. The sample grid step is rise_time / samples_per_rise and the
    series spans [0, t_last + 2*rise_time]. Rectangles are the simplest
    shape that keeps a fluctuation at a given moment detectable at the
    stated resolution; no detector physics beyond that is modeled.

    A grid of more than ``TRACE_MAX_SAMPLES`` samples is refused with
    ``EnumerationLimitError`` before anything is allocated.
    """
    for name, value in (("unit_delay", unit_delay), ("epsilon", epsilon), ("rise_time", rise_time)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
    # a trace spans two rise times or more, so no larger value fits the cap
    if not 1 <= samples_per_rise <= TRACE_MAX_SAMPLES:
        raise ValueError(f"samples_per_rise must be in [1, {TRACE_MAX_SAMPLES}]")

    # size the grid before allocating; an analytic timeline's arrays stay
    # implicit, and its last arrival is at 2**n - 1
    last = (1 << timeline.n) - 1 if timeline.is_analytic else int(timeline.cores[-1])
    step = rise_time / samples_per_rise
    t_end = last * unit_delay + timeline.n * epsilon + 2.0 * rise_time
    samples = t_end / step if step > 0 else math.inf
    if not samples < TRACE_MAX_SAMPLES:
        raise EnumerationLimitError(
            f"trace too large to synthesize: {samples:.3g} samples exceed the cap {TRACE_MAX_SAMPLES}"
        )
    count = int(np.floor(samples)) + 1

    arrive = timeline.cores.astype(np.float64) * unit_delay + timeline.n * epsilon
    heights = timeline.counts.astype(np.float64) / float(2**timeline.n)
    times = np.arange(count) * step

    delta = np.zeros(count + 1)
    starts = np.searchsorted(times, arrive, side="left")
    stops = np.searchsorted(times, arrive + rise_time, side="left")
    np.add.at(delta, starts, heights)
    np.subtract.at(delta, stops, heights)
    return Trace(times, np.cumsum(delta[:-1]))

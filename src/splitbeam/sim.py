"""Exhaustive light-propagation simulation.

Enumerates all 2**n source-to-destination paths of a device, coalesces
simultaneous arrivals (same core delay) by summing their exact dyadic
intensities, and can render the result as an oscilloscope-style sampled
trace. Enumeration cost is Theta(2**n) in time and memory, which is the
whole point of the device being simulated; a configurable cap refuses
instances that would not terminate at desk scale.

Set-splitting devices force a fully predictable timeline (every moment in
[0, 2**n) arrives exactly once), so above an enumeration threshold the
timeline is generated analytically; below it the paths are genuinely
enumerated so tests exercise the model rather than the formula.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
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

    def contains_core(self, core: int) -> bool:
        if self._cores is None:
            return 0 <= core < (1 << self.n)
        i = np.searchsorted(self._cores, core)
        return i < len(self._cores) and int(self._cores[i]) == core

    def multiplicity(self, core: int) -> int:
        if self._cores is None:
            return 1 if 0 <= core < (1 << self.n) else 0
        i = np.searchsorted(self._cores, core)
        if i < len(self._cores) and int(self._cores[i]) == core:
            return int(self._counts[i])
        return 0

    def witness_for(self, core: int) -> SubsetMask | None:
        """Smallest mask among the paths arriving at ``core``, or None."""
        if self._cores is None:
            return core if 0 <= core < (1 << self.n) else None
        i = np.searchsorted(self._cores, core)
        if i < len(self._cores) and int(self._cores[i]) == core:
            return int(self._witnesses[i])
        return None

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


def _enumerate_chunk(base: np.ndarray, offset: int, lo: int):
    sums = base + offset if offset else base
    cores, first, counts = np.unique(sums, return_index=True, return_counts=True)
    # first occurrence in mask order is the smallest witness mask
    return cores, counts, first.astype(np.int64) + lo


def _merge_chunks(parts):
    cores = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    wits = np.concatenate([p[2] for p in parts])
    order = np.argsort(cores, kind="stable")
    cores, counts, wits = cores[order], counts[order], wits[order]
    starts = np.flatnonzero(np.concatenate(([True], cores[1:] != cores[:-1])))
    return (
        cores[starts],
        np.add.reduceat(counts, starts),
        np.minimum.reduceat(wits, starts),
    )


def simulate(
    device: DelayDevice,
    *,
    cap: int = DEFAULT_SIM_CAP,
    analytic_threshold: int = DEFAULT_ANALYTIC_THRESHOLD,
    partitions: int = 1,
    workers: int | None = None,
) -> ArrivalTimeline:
    """Propagate one source pulse through every path of the device.

    ``partitions`` splits the mask range [0, 2**n) into that many equal
    power-of-two chunks which may be evaluated concurrently (``workers``
    threads); the merge is an exact commutative reduction, so the result
    is identical to the sequential run regardless of schedule.
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

    if device.kind is DeviceKind.SET_SPLITTING and n >= analytic_threshold:
        return ArrivalTimeline.analytic_splitting(n)

    take = device.take_delays
    top_bits = partitions.bit_length() - 1
    low_n = n - top_bits
    base = np.zeros(1, dtype=np.int64)
    for d in take[:low_n]:
        base = np.concatenate([base, base + d])
    high = take[low_n:]

    def job(i: int):
        offset = 0
        sel = i
        while sel:
            low = sel & -sel
            offset += high[low.bit_length() - 1]
            sel ^= low
        return _enumerate_chunk(base, offset, i << low_n)

    if workers and workers > 1 and partitions > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, range(partitions)))
    else:
        parts = [job(i) for i in range(partitions)]

    cores, counts, wits = parts[0] if len(parts) == 1 else _merge_chunks(parts)
    return ArrivalTimeline(n, device.kind, cores, counts, wits)


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
    """
    if unit_delay <= 0 or epsilon <= 0 or rise_time <= 0:
        raise ValueError("physical parameters must be strictly positive")
    if samples_per_rise < 1:
        raise ValueError("samples_per_rise must be at least 1")

    arrive = timeline.cores.astype(np.float64) * unit_delay + timeline.n * epsilon
    heights = timeline.counts.astype(np.float64) / float(2**timeline.n)

    step = rise_time / samples_per_rise
    t_end = float(arrive.max()) + 2.0 * rise_time
    count = int(np.floor(t_end / step)) + 1
    times = np.arange(count) * step

    delta = np.zeros(count + 1)
    starts = np.searchsorted(times, arrive, side="left")
    stops = np.searchsorted(times, arrive + rise_time, side="left")
    np.add.at(delta, starts, heights)
    np.subtract.at(delta, stops, heights)
    return Trace(times, np.cumsum(delta[:-1]))

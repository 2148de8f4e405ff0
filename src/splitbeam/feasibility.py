"""The package's one float module: the physical side of a delay-line device.

Decisions read integer arrival moments and never come here. This module
holds the floats that describe a device as built: its envelope (cable
lengths, run time, power) and the trace a detector records of its
arrivals.

The smallest resolvable delay is the oscilloscope rise time; light covers
rise_time * light_speed meters in that window, which fixes the minimum
cable length. All longer cables are power-of-two multiples of it, the
total run time is 2**n rise times, and the required beam power grows as
2**n because the pulse is halved at every layer. These closed forms give
instance-size bounds under a time or cable budget.

Threshold computations keep the power-of-two factors as exact integers
(floats are converted to exact binary rationals first), so no bound is
ever off by one due to rounding. Every physical quantity, here and in
the trace, must be finite and strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import EnumerationLimitError, _check_universe
from .sim import ArrivalTimeline

# 32 MiB per float64 array, and a trace holds three
TRACE_MAX_SAMPLES = 1 << 22


@dataclass(frozen=True)
class PhysicalParams:
    """Instrument constants. Defaults: picosecond rise time, vacuum light speed.

    ``epsilon_length`` is the pad every arc carries because zero-length
    cables do not exist; by default it equals the minimum resolvable
    length.
    """

    rise_time: float = 1e-12
    light_speed: float = 3e8
    epsilon_length: float | None = None

    def __post_init__(self):
        _check_positive("rise time", self.rise_time)
        _check_positive("light speed", self.light_speed)
        # the product can overflow to inf or underflow to 0 although both
        # factors are finite and positive; every threshold divides by it
        min_cable = min_cable_length(self)
        _check_positive("minimum cable length rise time * light speed", min_cable)
        if self.epsilon_length is None:
            object.__setattr__(self, "epsilon_length", min_cable)
        _check_positive("epsilon length", self.epsilon_length)


def _check_positive(label: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{label} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class FeasibilityReport:
    n: int
    min_cable_m: float
    longest_cable_m: float
    total_cable_m: float
    solve_time_s: float
    relative_power: int
    build_cost_units: int


def min_cable_length(p: PhysicalParams) -> float:
    """Length light covers in one rise time: the shortest buildable delay cable."""
    return p.rise_time * p.light_speed


def _floor_log2(q: Fraction) -> int:
    """Largest k with 2**k <= q, for q >= 1, computed in exact integer arithmetic."""
    # q < floor(q) + 1 <= 2**(k+1), so floor(q) has the answer's bit length
    return (q.numerator // q.denominator).bit_length() - 1


def max_n_for_total_time(total_time: float, p: PhysicalParams) -> int:
    """Largest n with 2**n * rise_time <= total_time (0 when nothing fits beyond n=0)."""
    _check_positive("total time", total_time)
    ratio = Fraction(total_time) / Fraction(p.rise_time)
    if ratio < 2:
        return 0
    return _floor_log2(ratio)


def max_n_for_cable(max_cable: float, p: PhysicalParams) -> int:
    """Largest n whose longest cable 2**(n-1) * min_cable fits in ``max_cable``."""
    _check_positive("longest available cable", max_cable)
    min_cable = min_cable_length(p)
    if max_cable < min_cable:
        raise ValueError(
            f"longest available cable {max_cable} m is below one minimum cable {min_cable} m"
        )
    return _floor_log2(Fraction(max_cable) / Fraction(min_cable)) + 1


def report(n: int, p: PhysicalParams) -> FeasibilityReport:
    """Closed-form envelope for an n-element device.

    Total cable counts every take arc (2**n - 1 minimum-cable units in
    all) plus the epsilon pad on each of the 2n arcs, skip arcs included.
    """
    _check_universe(n)
    min_cable = min_cable_length(p)
    return FeasibilityReport(
        n=n,
        min_cable_m=min_cable,
        longest_cable_m=(1 << (n - 1)) * min_cable,
        total_cable_m=((1 << n) - 1) * min_cable + 2 * n * p.epsilon_length,
        solve_time_s=(1 << n) * p.rise_time,
        relative_power=1 << n,
        build_cost_units=n * (1 << n),
    )


@dataclass(frozen=True)
class FigureCheck:
    """A computed quantity next to its published estimate, with agreement flag."""

    label: str
    computed: float
    published: float

    @property
    def agrees(self) -> bool:
        return abs(self.computed - self.published) <= 0.01 * abs(self.published)

    def describe(self) -> str:
        verdict = "agrees" if self.agrees else "DIFFERS"
        return (
            f"{self.label}: computed={self.computed!r} "
            f"published={self.published!r} {verdict}"
        )


def published_figure_checks(p: PhysicalParams | None = None) -> tuple[FigureCheck, ...]:
    """Cross-check the closed forms against the published envelope figures.

    Three of the five published figures do not follow from the stated
    formulas; the checks report both values side by side rather than
    silently preferring either. Where 300 km is shorter than one minimum
    cable, no instance fits beyond n=0 and the cable check computes 0.
    """
    p = p or PhysicalParams()
    cable_n = max_n_for_cable(3e5, p) if 3e5 >= min_cable_length(p) else 0
    return (
        FigureCheck("minimum cable length (m)", min_cable_length(p), 3e-4),
        FigureCheck(
            "instance size solvable in one second",
            float(max_n_for_total_time(1.0, p)),
            39.0,
        ),
        FigureCheck(
            "longest cable for a 39-element device (m)",
            report(39, p).longest_cable_m,
            8e8,
        ),
        FigureCheck(
            "instance size with 300 km cables",
            float(cable_n),
            26.0,
        ),
        FigureCheck(
            "solve time for a 26-element device (s)",
            report(26, p).solve_time_s,
            1e-6,
        ),
    )


@dataclass(frozen=True, slots=True, eq=False)
class Trace:
    """A sampled oscilloscope-style trace: times in seconds, summed
    intensities. Equality and hashing are by identity, as for timelines."""

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

    A grid of more than ``TRACE_MAX_SAMPLES`` samples, or a timeline of
    more than ``TRACE_MAX_SAMPLES`` arrival events, is refused with
    ``EnumerationLimitError`` before anything is allocated.
    """
    for name, value in (("unit_delay", unit_delay), ("epsilon", epsilon), ("rise_time", rise_time)):
        _check_positive(name, value)
    # a trace spans two rise times or more, so no larger value fits the cap
    if not 1 <= samples_per_rise <= TRACE_MAX_SAMPLES:
        raise ValueError(f"samples_per_rise must be in [1, {TRACE_MAX_SAMPLES}]")

    # every event gets its own arrival time, height and two grid indices,
    # so a tiny grid does not bound the work; an analytic timeline counts
    # its events without building its arrays
    if timeline.event_count > TRACE_MAX_SAMPLES:
        raise EnumerationLimitError(
            f"trace too large to synthesize: {timeline.event_count} arrival events exceed the cap {TRACE_MAX_SAMPLES}"
        )
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

"""Physical-envelope arithmetic for delay-line devices.

The smallest resolvable delay is the oscilloscope rise time; light covers
rise_time * light_speed meters in that window, which fixes the minimum
cable length. All longer cables are power-of-two multiples of it, the
total run time is 2**n rise times, and the required beam power grows as
2**n because the pulse is halved at every layer. These closed forms give
instance-size bounds under a time or cable budget.

Threshold computations keep the power-of-two factors as exact integers
(floats are converted to exact binary rationals first), so no bound is
ever off by one due to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import _check_universe


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
        _check_finite("rise time", self.rise_time)
        _check_finite("light speed", self.light_speed)
        if self.rise_time <= 0 or self.light_speed <= 0:
            raise ValueError("rise time and light speed must be strictly positive")
        # the product can overflow to inf or underflow to 0 although both
        # factors are finite and positive; every threshold divides by it
        min_cable = self.rise_time * self.light_speed
        if not 0 < min_cable < math.inf:
            raise ValueError(
                f"minimum cable length rise time * light speed = {min_cable!r} m "
                "must be finite and strictly positive"
            )
        if self.epsilon_length is None:
            object.__setattr__(self, "epsilon_length", min_cable)
        _check_finite("epsilon length", self.epsilon_length)
        if self.epsilon_length <= 0:
            raise ValueError("epsilon length must be strictly positive")


def _check_finite(label: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")


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
    _check_finite("total time", total_time)
    if total_time <= 0:
        raise ValueError("total time must be strictly positive")
    ratio = Fraction(total_time) / Fraction(p.rise_time)
    if ratio < 2:
        return 0
    return _floor_log2(ratio)


def max_n_for_cable(max_cable: float, p: PhysicalParams) -> int:
    """Largest n whose longest cable 2**(n-1) * min_cable fits in ``max_cable``."""
    _check_finite("longest available cable", max_cable)
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

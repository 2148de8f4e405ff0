"""Delay-graph construction.

Both devices are chains of n layers between a source and a destination
node. Each layer offers two parallel arcs: a "take" arc whose base delay
encodes one element, and a zero-base-delay "skip" arc. A beam split at
every layer therefore traverses all 2**n take/skip combinations, and each
complete path accumulates the take delays of its chosen layers, and a
device is its tuple of take delays. The uniform epsilon pad every
physical arc needs is presentation metadata, not arc data, so core
delays stay integral.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .core import MAX_UNIVERSE, SubsetSumInstance, _check_int64_sum, _check_universe


@dataclass(frozen=True)
class DelayDevice:
    """A layered delay graph: the take delay of each layer, in layer order.

    Every skip arc has base delay 0, so the take delays are the whole
    device.
    """

    take_delays: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "take_delays", tuple(map(operator.index, self.take_delays)))
        if not 1 <= len(self.take_delays) <= MAX_UNIVERSE:
            raise ValueError(f"device must have between 1 and {MAX_UNIVERSE} layers")
        if min(self.take_delays) < 0:
            raise ValueError("take delays must be nonnegative")
        _check_int64_sum(self.take_delays, "take delays")

    @property
    def n(self) -> int:
        return len(self.take_delays)

    def dump(self) -> str:
        """Human-readable arc table."""
        lines = [f"device n={self.n}"]
        for i, delay in enumerate(self.take_delays, start=1):
            lines.append(f"layer {i}: take={delay} skip=0")
        return "\n".join(lines)


def build_set_splitting_device(n: int) -> DelayDevice:
    """Device whose layer i take delay is 2**(i-1).

    Powers of two are the smallest values making every subset sum distinct,
    so the arrival moment of a path, read as a binary integer, is exactly
    the mask of the layers it took.
    """
    _check_universe(n)
    return DelayDevice(tuple(1 << i for i in range(n)))


def build_subset_sum_device(inst: SubsetSumInstance) -> DelayDevice:
    """Device whose layer i take delay is the i-th input value."""
    return DelayDevice(inst.values)

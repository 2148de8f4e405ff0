"""Host speed: a fixed reference kernel timed in between the decisions.

On a shared host the CPU time of the same decision drifts by 20-50% over
minutes, as other tenants load the cores, caches and memory bus. The
timed pass therefore also times this kernel, interleaved with the
decisions at a fixed share of their CPU time, and every reported time
is scaled by ``REFERENCE_S / median kernel time``: it reads as the time
on a host that runs the kernel in ``REFERENCE_S``. The kernel mixes the
kinds of work the decisions do (interpreter loops, dicts and big ints,
object and method calls, in-place numpy sorts and scans on a few MiB,
many numpy calls on small arrays), so it slows down with the host much
as they do. It allocates no large blocks, so it leaves the allocator's
state as the decisions leave it. It does not use splitbeam, so a change
to splitbeam leaves it unchanged.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

REFERENCE_S = 10e-3  # the kernel's typical CPU time on the host the benchmark was tuned on
SHARE = 0.1  # kernel CPU time per unit of decision CPU time

_VALUES = np.random.default_rng(0).integers(0, 1 << 40, 1 << 18)
_SCRATCH = np.empty_like(_VALUES)
_SUMS = np.empty_like(_VALUES)
_SMALL = _VALUES[:512] >> 20
_WORDS = " ".join(str(i) for i in range(2000))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def at(self, x: int) -> int:
        return self.a + x * self.b


def kernel() -> None:
    # interpreter arithmetic, dicts, text and big ints (parsing, oracles)
    acc, table = 0, {}
    for i in range(4000):
        acc += (i * i) ^ (acc >> 3)
        table[i & 255] = (acc, i)
    _WORDS.split()
    bits = 1
    for k in range(14):
        bits |= bits << (1 << k)
    # object creation and method calls (per-call overhead of the pipeline)
    pairs = [_Pair(i, i + 1) for i in range(2000)]
    total = sum(p.at(3) for p in pairs)
    sorted(pairs, key=lambda p: -p.a)
    # numpy on a few MiB, in place (blocked sets, simulator)
    np.bitwise_and(_VALUES, 0xFFFFF, out=_SCRATCH)
    _SCRATCH.sort()
    np.cumsum(_SCRATCH, out=_SUMS)
    # many numpy calls on small arrays (small instances)
    for i in range(40):
        part = np.sort(_SMALL[i : i + 300])
        np.cumsum(part)
        np.unique(part)
        total += int(part.min())


@dataclass
class HostSpeed:
    samples: list[float] = field(default_factory=list)  # CPU seconds per kernel run
    spent: float = 0.0

    def keep_up(self, busy: float) -> None:
        """Run the kernel until it has used ``SHARE`` of ``busy`` CPU seconds."""
        while self.spent <= SHARE * busy:
            start = time.process_time()
            kernel()
            elapsed = time.process_time() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference-host time."""
        return REFERENCE_S / statistics.median(self.samples)

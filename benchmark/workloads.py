"""Seeded instance generators for the benchmark workloads.

Every instance is a pure function of (workload, seed, index) and reaches
the library only as instance text, the way ``splitbeam solve`` gets it.
The per-instance draw that sets an instance's cost (set size, value
width, universe size, number of random sets) is stratified: each block of
consecutive instances takes every stratum exactly once, in a seeded order.
A run therefore samples the whole cost range evenly however many
instances it gets through, and its median depends on the code, not on
the luck of the draw.

This module imports nothing from ``splitbeam``: the generators and the
planted answers they promise are independent of the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """One generated instance and what its construction guarantees."""

    index: int
    kind: str  # "split" or "subset-sum"
    text: str
    expect: bool | None  # planted decision; None when the generator promises nothing


def _rng(*parts) -> random.Random:
    # str seeds hash with SHA-512, so they are stable across processes
    return random.Random(":".join(str(p) for p in parts))


def _stratum(workload: str, seed: int, index: int, strata: list):
    block, pos = divmod(index, len(strata))
    order = list(strata)
    _rng(workload, seed, "block", block).shuffle(order)
    return order[pos]


def _split_text(n: int, family: list[list[int]]) -> str:
    lines = [f"n {n}"] + ["f " + " ".join(map(str, sorted(s))) for s in family]
    return "\n".join(lines) + "\n"


def _random_set(rng: random.Random, n: int, max_size: int) -> list[int]:
    """Uniform among subsets of size 2..max_size (sizes weighted by count)."""
    sizes = range(2, min(max_size, n) + 1)
    k = rng.choices(sizes, weights=[math.comb(n, s) for s in sizes])[0]
    return rng.sample(range(1, n + 1), k)


def planted_split_text(rng: random.Random, n: int, sizes: list[int]) -> str:
    """One random set per size, all cut by one random partition: solvable."""
    planted = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    family = []
    for size in sizes:
        while True:
            s = rng.sample(range(1, n + 1), size)
            if 0 < sum(i in planted for i in s) < size:
                break
        family.append(s)
    return _split_text(n, family)


def _split_sat(rng: random.Random, size: int) -> tuple[str, bool]:
    # All six sets share the drawn size, so the stratum alone fixes which
    # side of the 1/64 blocked-density switch in MomentSet an instance is
    # on; decision time is a step function of that, and a family mixing
    # both sides would put the median in the gap between the two modes.
    return planted_split_text(rng, 24, [size] * 6), True


def _split_unsat(rng: random.Random, m: int) -> tuple[str, bool]:
    n = 22
    family = [_random_set(rng, n, rng.randint(3, n)) for _ in range(m)]
    a, b, c = rng.sample(range(1, n + 1), 3)
    # an odd cycle of pairs: no two-colouring separates all three
    family += [[a, b], [b, c], [a, c]]
    rng.shuffle(family)
    return _split_text(n, family), False


def subset_sum_text(rng: random.Random, n: int, bits: int, planted: bool) -> tuple[str, bool | None]:
    """n values from [1, 2**bits]; the target is a planted subset sum or uniform."""
    values = [rng.randint(1, 1 << bits) for _ in range(n)]
    if planted:
        chosen = [v for v in values if rng.random() < 0.5] or [values[0]]
        target, expect = sum(chosen), True
    else:
        target, expect = rng.randint(1, sum(values)), None
    text = "values " + " ".join(map(str, values)) + f"\ntarget {target}\n"
    return text, expect


def _split_small(rng: random.Random, n: int) -> tuple[str, None]:
    family = [
        rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(0, 6))
    ]
    return _split_text(n, family), None


# name -> (problem kind, generator, strata of its cost-setting draw)
WORKLOADS = {
    "split-sat": ("split", _split_sat, list(range(3, 25))),
    "split-unsat": ("split", _split_unsat, list(range(0, 7))),
    "subset-sum": (
        "subset-sum",
        lambda rng, stratum: subset_sum_text(rng, 19, *stratum),
        [(b, p) for b in range(8, 33) for p in (True, False)],
    ),
    "split-small": ("split", _split_small, list(range(4, 17))),
}


def block_size(workload: str) -> int:
    """Instances per stratification block: one of each stratum."""
    return len(WORKLOADS[workload][2])


def make_case(workload: str, seed: int, index: int) -> Case:
    kind, gen, strata = WORKLOADS[workload]
    stratum = _stratum(workload, seed, index, strata)
    text, expect = gen(_rng(workload, seed, index), stratum)
    return Case(index, kind, text, expect)

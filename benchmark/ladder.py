"""Size-ladder report: one decision per size, end to end and per layer.

Usage, from the repository root:

    python3 benchmark/ladder.py [--seed 1] [--out .bench_out/ladder.json]

Rows: set splitting at n = 12, 16, 20, 24, 28 for one seeded solvable
family (6 sets of n/2 elements cut by a planted partition) and for the unsolvable family
{1}; subset sum at n = 12, 16, 20, 24 with 32-bit values and a planted
target. Each row times one untraced optical decision, one traced optical
decision (self time per layer, as in the traced benchmark run) and one
oracle decision with its cap raised to n. Every answer is checked. This
report is not gated and makes no repeat runs: treat it as orders of
magnitude. The largest rows need about 1.6 GiB of memory.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SPLIT_SIZES = (12, 16, 20, 24, 28)
SUBSET_SUM_SIZES = (12, 16, 20, 24)


def _rows(seed: int):
    from workloads import Case, planted_split_text, subset_sum_text

    for n in SPLIT_SIZES:
        text = planted_split_text(random.Random(f"ladder:{seed}:{n}"), n, [n // 2] * 6)
        yield f"split solvable n={n}", Case(n, "split", text, True)
        yield f"split {{1}} n={n}", Case(n, "split", f"n {n}\nf 1\n", False)
    for n in SUBSET_SUM_SIZES:
        text, expect = subset_sum_text(random.Random(f"ladder:{seed}:{n}"), n, 32, True)
        yield f"subset-sum n={n}", Case(n, "subset-sum", text, expect)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import splitbeam

    import harness
    from run import LAYER_SPANS
    from spans import Tracer, patched

    def oracle(case):  # the benchmark's oracle route with the cap raised to n
        if case.kind == "split":
            inst = splitbeam.parse_split_instance(case.text)
            return splitbeam.solve_oracle(inst, cap=inst.n)
        inst = splitbeam.parse_subset_sum_instance(case.text)
        return splitbeam.subset_sum_oracle(inst, cap=inst.n)

    def timed(route, case):
        start = time.perf_counter()
        answer = route(case)
        return answer, (time.perf_counter() - start) * 1e3

    rows, failed = [], 0
    layers = list(LAYER_SPANS) + ["solver.optical"]
    print(f"{'row':24s} {'optical_ms':>11s} {'oracle_ms':>10s} "
          + " ".join(f"{name:>14s}" for name in layers))
    for label, case in _rows(args.seed):
        plain, optical_ms = timed(harness.optical, case)
        tracer = Tracer()
        with patched(harness.LAYER_TARGETS, tracer.wrapper):
            with tracer.span("decide.optical"):
                traced = harness.optical(case)
        exact, oracle_ms = timed(oracle, case)
        failed += harness.failures(case, [plain, traced, exact])
        self_ns, _, _, total_ns = tracer.self_times("decide.optical")
        layer_ms = {name: self_ns[name] / 1e6 for name in layers}
        rows.append({"row": label, "optical_ms": optical_ms, "traced_ms": total_ns / 1e6,
                     "oracle_ms": oracle_ms, "layer_self_ms": layer_ms})
        print(f"{label:24s} {optical_ms:11.3f} {oracle_ms:10.3f} "
              + " ".join(f"{layer_ms[name]:14.3f}" for name in layers), flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"seed": args.seed, "rows": rows}, indent=1) + "\n")
    if failed:
        print(f"{failed} wrong answers", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the splitbeam decision benchmark.

Usage, from the repository root:

    python3 benchmark/run.py --workload split-sat --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: the timed pass, with
set-up probes in fresh processes and the host-speed kernel interleaved,
then the untimed memory pass. ``--trace 1`` runs the traced pass and the
memory pass instead and reports per-layer metrics; its spans are written
to ``.bench_out/``. Either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is non-zero if any decision was wrong. See README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11  # fresh-process set-up probes, spread through the timed pass


def _import_library() -> None:
    """Import splitbeam from this checkout's source tree, nowhere else."""
    if not (SRC / "splitbeam" / "__init__.py").is_file():
        sys.exit(f"error: splitbeam source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitbeam

    if Path(splitbeam.__file__).resolve().parent != SRC / "splitbeam":
        sys.exit(f"error: imported splitbeam from {splitbeam.__file__}, not {SRC}")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(timed, memory) -> dict[str, tuple[float, str]]:
    """Times in CPU time, scaled to the reference host (see hostspeed.py)."""
    scale = timed.speed.scale()
    optical = timed.optical_s
    return {
        "decide_ms_p50": (statistics.median(optical) * scale * 1e3, "ms"),
        "decide_ms_p90": (statistics.quantiles(optical, n=10)[-1] * scale * 1e3, "ms"),
        "decide_per_s": (timed.instances / (timed.loop_s * scale), "1/s"),
        "oracle_ms_p50": (statistics.median(timed.oracle_s) * scale * 1e3, "ms"),
        "peak_mib": (memory.peaks["decide"], "MiB"),
        "setup_s": (statistics.median(timed.setup_s) * scale, "s"),
    }


# spans reported as <span>_ms (self time) and <span>_calls
LAYER_SPANS = (
    "core.parse",
    "device.build",
    "sim.simulate",
    "sim.witness",
    "sim.detect",
    "moments.blocked",
    "moments.first_absent",
)


def per_layer(traced, memory) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics (means per optical decision) and each module's share."""
    tracer = traced.tracer
    self_ns, calls, roots, total_ns = tracer.self_times("decide.optical")
    oracle_ns, _, oracle_roots, _ = tracer.self_times("decide.oracle")
    metrics: dict[str, tuple[float, str]] = {}
    for span in LAYER_SPANS:
        metrics[f"{span}_ms"] = (self_ns[span] / roots / 1e6, "ms")
        metrics[f"{span}_calls"] = (calls[span] / roots, "count")
    metrics["solver.optical_self_ms"] = (self_ns["solver.optical"] / roots / 1e6, "ms")
    metrics["solver.oracle_ms"] = (oracle_ns["solver.oracle"] / oracle_roots / 1e6, "ms")
    sim_ns = self_ns["sim.simulate"]
    paths_per_s = traced.enumerated_paths / (sim_ns / 1e9) if traced.enumerated_paths else 0.0
    counts = memory.counts
    metrics.update(
        {
            "sim.paths_per_s": (paths_per_s, "1/s"),
            "sim.analytic_share": (_mean(counts.get("analytic", [])), "ratio"),
            "sim.events": (_mean(counts.get("events", [])), "count"),
            "sim.paths": (_mean(counts.get("paths", [])), "count"),
            "sim.peak_mib": (memory.peaks.get("sim.simulate", 0.0), "MiB"),
            "moments.blocked_density": (_mean(counts.get("density", [])), "ratio"),
            "moments.peak_mib": (memory.peaks.get("moments.blocked", 0.0), "MiB"),
            "trace.overhead_frac": (
                (total_ns / roots / 1e9) / _mean(traced.untraced_s) - 1.0,
                "ratio",
            ),
            "trace.attributed_frac": (1.0 - self_ns["decide.optical"] / total_ns, "ratio"),
        }
    )
    shares: dict[str, float] = defaultdict(float)
    for span, ns in self_ns.items():
        shares[span.split(".")[0]] += ns / total_ns
    return metrics, dict(shares)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    tally = harness.Tally()
    if args.trace:
        traced = harness.traced_pass(args.workload, args.seed, args.seconds, tally)
        memory = harness.memory_pass(args.workload, args.seed, tally)
        metrics, shares = per_layer(traced, memory)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        traced.tracer.write_csv(spans_file)
        print(f"spans: {len(traced.tracer.spans)} written to {spans_file.relative_to(ROOT)}")
        print("self-time share of a traced optical decision by module: "
              + ", ".join(f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda x: -x[1])))
    else:
        timed = harness.timed_pass(args.workload, args.seed, args.seconds, SETUP_PROBES, tally)
        memory = harness.memory_pass(args.workload, args.seed, tally)
        metrics = end_to_end(timed, memory)
        p90 = statistics.quantiles(timed.optical_s, n=10)[-1]
        beyond = sum(t > p90 for t in timed.optical_s)
        print(f"timed pass: {timed.instances} instances, {len(timed.optical_s)} optical "
              f"samples, {beyond} beyond p90" + ("" if beyond >= 10 else " (p90 not valid)"))
        speed = timed.speed
        print(f"host speed: reference kernel {statistics.median(speed.samples) * 1e3:.3f} ms "
              f"over {len(speed.samples)} runs; times scaled by {speed.scale():.4f}; unscaled "
              f"decide p50 {statistics.median(timed.optical_s) * 1e3:.4g} ms, "
              f"setup {statistics.median(timed.setup_s):.4g} s")

    error_rate = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'error_rate':28s} {error_rate:14.6g} ratio ({tally.failed}/{tally.attempted})")
    print(f"digest {args.workload} seed={args.seed} {memory.digest}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

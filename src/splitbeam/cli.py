"""Command-line front end.

Verbs: solve, simulate, moments, trace, feasibility, gen. Exit codes:
0 = solvable (or command succeeded), 1 = unsolvable, 2 = usage or input
error or out of memory, 141 = the reader closed stdout early (128 +
SIGPIPE). All randomness lives in ``gen`` and is seeded; every other
verb is fully deterministic. Human-readable output uses 1-based element
indices.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import random
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator

from .core import (
    MAX_UNIVERSE,
    _check_universe,
    format_mask,
    parse_split_instance,
    parse_subset_sum_instance,
)
from .device import build_set_splitting_device, build_subset_sum_device
from .feasibility import (
    PhysicalParams,
    max_n_for_cable,
    max_n_for_total_time,
    published_figure_checks,
    report,
    synthesize_trace,
)
from .moments import blocked_moments_full, blocked_moments_literal
from .oracle import solve_oracle
from .sim import detect_subset_sum, simulate
from .solver import solve_optical


def _split_instance_lines(n: int, m: int, max_set_size: int, seed: int) -> Iterator[str]:
    """Deterministic random instance, each line drawn when it is read:
    sets drawn uniformly among nonempty subsets of size at most
    ``max_set_size``. Same seed, same bytes."""
    _check_universe(n)
    if m < 0:
        raise ValueError("family count must be nonnegative")
    if max_set_size < 1:
        raise ValueError("max set size must be at least 1")
    size_cap = min(max_set_size, n)
    sizes = range(1, size_cap + 1)
    weights = [math.comb(n, k) for k in sizes]
    rng = random.Random(seed)
    yield f"# gen seed={seed} n={n} m={m} max-set-size={max_set_size}\nn {n}\n"
    for _ in range(m):
        k = rng.choices(sizes, weights=weights)[0]
        indices = sorted(rng.sample(range(1, n + 1), k))
        yield "f " + " ".join(map(str, indices)) + "\n"


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_solve(args) -> int:
    inst = parse_split_instance(_read(args.instance))
    answer = solve_optical(inst) if args.method == "optical" else solve_oracle(inst)
    if not answer.solvable:
        print("NO-SPLIT")
        return 1
    print(
        f"SPLIT A1={format_mask(answer.partition.a1)} "
        f"A2={format_mask(answer.partition.a2)} moment={answer.solution_moment}"
    )
    return 0


def _cmd_simulate(args) -> int:
    subset_sum_target = None
    if args.instance is not None:
        inst = parse_split_instance(_read(args.instance))
        device = build_set_splitting_device(inst.n)
    elif args.set_splitting_n is not None:
        device = build_set_splitting_device(args.set_splitting_n)
    else:
        ss = parse_subset_sum_instance(_read(args.subset_sum_file))
        device = build_subset_sum_device(ss)
        subset_sum_target = ss.target

    timeline = simulate(device)
    if args.dump_device:
        print(device.dump())
    print(f"events={timeline.event_count} total_paths={timeline.total_paths}")
    for event in timeline.iter_events():
        print(
            f"moment={event.moment} paths={event.paths} "
            f"intensity={event.intensity} witness={format_mask(event.witness)}"
        )
    if subset_sum_target is not None:
        detection = detect_subset_sum(timeline, subset_sum_target)
        print(f"target={subset_sum_target} " + detection.describe())
    return 0


def _cmd_moments(args) -> int:
    inst = parse_split_instance(_read(args.instance))
    if args.literal:
        label, blocked = "literal", blocked_moments_literal(inst)
    else:
        label, blocked = "full", blocked_moments_full(inst)
    # write the members a slice at a time: the whole line of a dense set
    # at large n would not fit in memory
    members = iter(blocked)
    sys.stdout.write(f"{label}:")
    sep = " "
    while chunk := list(islice(members, 4096)):
        sys.stdout.write(sep + ",".join(map(str, chunk)))
        sep = ","
    sys.stdout.write("\n")
    return 0


def _cmd_trace(args) -> int:
    inst = parse_split_instance(_read(args.instance))
    device = build_set_splitting_device(inst.n)
    timeline = simulate(device)
    trace = synthesize_trace(
        timeline,
        unit_delay=args.unit_delay,
        epsilon=args.epsilon,
        rise_time=args.rise_time,
        samples_per_rise=args.samples_per_rise,
    )
    trace.write_csv(args.out)
    print(f"wrote {args.out} samples={len(trace.times)}")
    return 0


def _print_report(rep) -> None:
    for name, value in dataclasses.asdict(rep).items():
        print(f"{name}: {value!r}")


def _cmd_feasibility(args) -> int:
    params = PhysicalParams(
        rise_time=args.rise_time,
        light_speed=args.light_speed,
        epsilon_length=args.epsilon_length,
    )
    # computed before anything is printed, so that an error leaves stdout empty
    checks = published_figure_checks(params)
    if args.n is not None:
        _print_report(report(args.n, params))
    else:
        if args.total_time is not None:
            n = max_n_for_total_time(args.total_time, params)
        else:
            n = max_n_for_cable(args.max_cable, params)
        print(f"max_n: {n}")
        if n < 1:
            print("note: no instance fits beyond n=0")
        elif n > MAX_UNIVERSE:
            print(f"note: no report is given past n={MAX_UNIVERSE}")
        else:
            _print_report(report(n, params))
    for check in checks:
        print("check " + check.describe())
    return 0


def _cmd_gen(args) -> int:
    # one line at a time: the text of a large --m need never be held whole
    sys.stdout.writelines(_split_instance_lines(args.n, args.m, args.max_set_size, args.seed))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitbeam",
        description="Exact simulator and solver for delay-line optical devices "
        "deciding set splitting and subset sum.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="decide a set-splitting instance file")
    p.add_argument("instance", help="instance file")
    p.add_argument("--method", choices=["optical", "oracle"], default="optical")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("simulate", help="enumerate all arrival events of a device")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("instance", nargs="?", help="set-splitting instance file")
    group.add_argument("--set-splitting-n", type=int, metavar="N")
    group.add_argument("--subset-sum-file", metavar="F")
    p.add_argument("--dump-device", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("moments", help="print the blocked-moment set")
    p.add_argument("instance", help="instance file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--literal", action="store_true", help="one-sided blocked set")
    group.add_argument("--full", action="store_true", help="two-sided blocked set (default)")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("trace", help="write an oscilloscope-style CSV trace")
    p.add_argument("instance", help="set-splitting instance file")
    p.add_argument("--rise-time", type=float, required=True, metavar="S")
    p.add_argument("--unit-delay", type=float, required=True, metavar="S")
    p.add_argument("--epsilon", type=float, required=True, metavar="S")
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--samples-per-rise", type=int, default=8, metavar="K")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("feasibility", help="physical-envelope calculator")
    p.add_argument("--rise-time", type=float, default=1e-12, metavar="S")
    p.add_argument("--light-speed", type=float, default=3e8, metavar="M_S")
    p.add_argument("--epsilon-length", type=float, default=None, metavar="M")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--total-time", type=float, metavar="S")
    group.add_argument("--max-cable", type=float, metavar="M")
    p.set_defaults(handler=_cmd_feasibility)

    p = sub.add_parser("gen", help="emit a deterministic random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-set-size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early, which is not bad input. Point
        # stdout at devnull so the flush at exit does not raise again, and
        # exit as a writer killed by SIGPIPE would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MemoryError as exc:
        # numpy's _ArrayMemoryError is one: an allocation this host cannot
        # hold, which must not read as NO-SPLIT's exit 1
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three passes over a workload, and the answer checks.

Each decision hands the library instance text, as ``splitbeam solve``
does. The optical route is ``parse_*`` then ``solve_optical`` /
``solve_subset_sum``; the oracle route is ``parse_*`` then
``solve_oracle`` / ``subset_sum_oracle``. Calls go through attributes of
the ``splitbeam`` package at call time, so the traced pass can wrap them.

* :func:`timed_pass` — closed loop, one thread, routes alternating per
  instance, tracing and tracemalloc off. Gives the latency metrics, in
  CPU time, with the set-up probes and the host-speed kernel
  (see hostspeed.py) interleaved.
* :func:`memory_pass` — untimed, tracemalloc on, over the first
  stratification block. Gives the peaks, the exact work counts and the
  answer digest, all fixed by the seed.
* :func:`traced_pass` — each instance is decided once untraced and once
  with every layer wrapped, giving per-layer self times and the tracing
  overhead.

Every decision of every pass is checked; see :func:`failures`.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import splitbeam
import splitbeam.solver
from splitbeam.moments import MomentSet
from splitbeam.sim import ArrivalTimeline

import hostspeed
from hostspeed import HostSpeed
from spans import PeakMeter, Tracer, patched
from workloads import Case, block_size, make_case

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Captured at import, before any wrapping: the checks must not show up in
# the trace, and must not depend on the code being timed.
_PARSE = {
    "split": splitbeam.core.parse_split_instance,
    "subset-sum": splitbeam.core.parse_subset_sum_instance,
}


def optical(case: Case):
    if case.kind == "split":
        return splitbeam.solve_optical(splitbeam.parse_split_instance(case.text))
    return splitbeam.solve_subset_sum(splitbeam.parse_subset_sum_instance(case.text))


def oracle(case: Case):
    if case.kind == "split":
        return splitbeam.solve_oracle(splitbeam.parse_split_instance(case.text))
    return splitbeam.subset_sum_oracle(splitbeam.parse_subset_sum_instance(case.text))


# The layers are the splitbeam modules; each target is the name its caller
# looks up: package attributes for the benchmark's own calls, solver
# globals for the pipeline's calls, class attributes for methods.
LAYER_TARGETS = [
    (splitbeam, "parse_split_instance", "core.parse"),
    (splitbeam, "parse_subset_sum_instance", "core.parse"),
    (splitbeam, "solve_optical", "solver.optical"),
    (splitbeam, "solve_subset_sum", "solver.optical"),
    (splitbeam, "solve_oracle", "solver.oracle"),
    (splitbeam, "subset_sum_oracle", "solver.oracle"),
    (splitbeam.solver, "build_set_splitting_device", "device.build"),
    (splitbeam.solver, "build_subset_sum_device", "device.build"),
    (splitbeam.solver, "simulate", "sim.simulate"),
    (splitbeam.solver, "detect_subset_sum", "sim.detect"),
    (splitbeam.solver, "blocked_moments_full", "moments.blocked"),
    (MomentSet, "first_absent", "moments.first_absent"),
    (ArrivalTimeline, "witness_for", "sim.witness"),
]

RAISED = object()  # stands for the answer of a route that raised


def _answer_key(kind: str, answer):
    if answer is RAISED:
        return "raised"
    if kind == "split":
        return (answer.decision.value, answer.solution_moment)
    return (answer.found, answer.witness)


def _valid(case: Case, inst, answer) -> bool:
    if case.kind == "split":
        return answer.validate_against(inst) and case.expect in (None, answer.solvable)
    if answer.found != (answer.witness is not None):
        return False
    if answer.found and inst.subset_sum(answer.witness) != inst.target:
        return False
    return case.expect in (None, answer.found)


def failures(case: Case, answers: list) -> int:
    """Number of wrong answers among one instance's route answers.

    An answer is wrong when its route raised, when it fails validation
    (the partition must split every set, the witness must sum to the
    target), when it misses the planted decision, or when two routes
    disagree on the decision or the smallest witness (then both count).
    """
    inst = _PARSE[case.kind](case.text)
    ok = []
    for answer in answers:
        try:
            ok.append(answer is not RAISED and _valid(case, inst, answer))
        except (ValueError, TypeError, AttributeError):
            ok.append(False)
    keys = {_answer_key(case.kind, a) for a in answers if a is not RAISED}
    if len(keys) > 1:
        ok = [False] * len(answers)
    return ok.count(False)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, case: Case, answers: list) -> None:
        bad = failures(case, answers)
        self.attempted += len(answers)
        self.failed += bad
        if bad and self.failed == bad:  # show the first wrong instance only
            keys = [_answer_key(case.kind, a) for a in answers]
            print(f"wrong answer on instance {case.index}: {keys}\n{case.text}", file=sys.stderr)


def _decide(route, case: Case, errors: list):
    """Run one route; an exception becomes RAISED (its traceback is kept once)."""
    try:
        return route(case)
    except Exception:  # a crash is a counted failure, not the end of the run
        if not errors:
            errors.append(traceback.format_exc())
            print(errors[0], file=sys.stderr)
        return RAISED


def _warm_up(workload: str, seed: int, errors: list) -> None:
    """One untimed decision per route, so lazy set-up is not timed."""
    warm = make_case(workload, seed, 0)
    _decide(optical, warm, errors)
    _decide(oracle, warm, errors)


def setup_probe(case: Case) -> float:
    """CPU seconds a fresh process spends importing splitbeam and deciding ``case``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), case.kind],
        input=case.text,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


@dataclass
class TimedResult:
    optical_s: list[float] = field(default_factory=list)
    oracle_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    instances: int = 0
    loop_s: float = 0.0  # CPU time of the decision loop, set-up probes excluded
    speed: HostSpeed = field(default_factory=HostSpeed)


def timed_pass(workload: str, seed: int, seconds: float, probes: int, tally: Tally) -> TimedResult:
    """Closed loop for ``seconds`` of wall time; times are CPU time of this process.

    ``probes`` set-up probes run at even intervals through the pass, and
    the host-speed kernel runs after each instance, so both see the same
    host conditions as the decisions around them.
    """
    errors: list = []
    _warm_up(workload, seed, errors)
    hostspeed.kernel()
    result = TimedResult()
    clock = time.process_time
    start = time.perf_counter()
    for k in range(probes):
        result.setup_s.append(setup_probe(make_case(workload, seed, k)))
        while time.perf_counter() < start + seconds * (k + 1) / probes:
            case = make_case(workload, seed, result.instances)
            result.instances += 1
            loop_start = clock()
            answers = []
            for route, times in ((optical, result.optical_s), (oracle, result.oracle_s)):
                t0 = clock()
                answer = _decide(route, case, errors)
                elapsed = clock() - t0
                if answer is not RAISED:
                    times.append(elapsed)
                answers.append(answer)
            tally.add(case, answers)
            result.loop_s += clock() - loop_start
            result.speed.keep_up(result.loop_s)
    return result


@dataclass
class MemoryResult:
    peaks: dict[str, float]
    counts: dict[str, list]
    digest: str


def memory_pass(workload: str, seed: int, tally: Tally) -> MemoryResult:
    """Optical decisions of the first stratification block under tracemalloc."""
    meter = PeakMeter()
    counts: dict[str, list] = defaultdict(list)

    def record(name, fn):
        measured = meter.wrapper(name, fn)

        def recorded(*args, **kwargs):
            result = measured(*args, **kwargs)
            if name == "sim.simulate":
                counts["events"].append(result.event_count)
                counts["paths"].append(result.total_paths)
                counts["analytic"].append(bool(getattr(result, "is_analytic", False)))
            else:
                counts["density"].append(len(result) / (1 << args[0].n))
            return result

        return recorded

    targets = [t for t in LAYER_TARGETS if t[2] in ("sim.simulate", "moments.blocked")]
    digest = hashlib.sha256()
    errors: list = []
    tracemalloc.start()
    try:
        with patched(targets, record):
            for i in range(block_size(workload)):
                case = make_case(workload, seed, i)
                with meter.frame("decide"):
                    answer = _decide(optical, case, errors)
                tally.add(case, [answer])
                digest.update(f"{i}:{_answer_key(case.kind, answer)}\n".encode())
    finally:
        tracemalloc.stop()
    return MemoryResult(dict(meter.peaks), dict(counts), digest.hexdigest()[:16])


@dataclass
class TracedResult:
    tracer: Tracer
    untraced_s: list[float]
    enumerated_paths: int  # paths of simulate calls that did not take the analytic path


def traced_pass(workload: str, seed: int, seconds: float, tally: Tally) -> TracedResult:
    """Wall-clock spans: the span clock must be cheap to read around small calls."""
    tracer = Tracer()
    result = TracedResult(tracer, [], 0)

    def wrap(name, fn):
        traced = tracer.wrapper(name, fn)
        if name != "sim.simulate":
            return traced

        def counted(*args, **kwargs):
            timeline = traced(*args, **kwargs)
            if not timeline.is_analytic:
                result.enumerated_paths += 1 << timeline.n
            return timeline

        return counted

    errors: list = []
    _warm_up(workload, seed, errors)
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while clock() < deadline:
        case = make_case(workload, seed, i)
        start = clock()
        plain = _decide(optical, case, errors)
        elapsed = clock() - start
        if plain is not RAISED:
            result.untraced_s.append(elapsed)
        answers = []
        tracer.decision = i
        with patched(LAYER_TARGETS, wrap):
            for root, route in (("decide.optical", optical), ("decide.oracle", oracle)):
                with tracer.span(root):
                    answers.append(_decide(route, case, errors))
        tally.add(case, [plain] + answers)
        i += 1
    return result

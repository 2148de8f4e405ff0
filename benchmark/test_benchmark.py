"""Tests of the benchmark itself: generators, answer checks, instrumentation.

Run from the repository root: python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import splitbeam  # noqa: E402

import harness  # noqa: E402
from spans import PeakMeter, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, block_size, make_case  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_bytes(workload):
    first = [make_case(workload, 7, i).text for i in range(5)]
    assert first == [make_case(workload, 7, i).text for i in range(5)]
    assert first != [make_case(workload, 8, i).text for i in range(5)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_block_is_answered_correctly(workload):
    tally = harness.Tally()
    for i in range(block_size(workload)):
        case = make_case(workload, 3, i)
        if workload == "split-sat":  # full-size optical decisions are slow
            tally.add(case, [harness.oracle(case)])
        else:
            tally.add(case, [harness.optical(case), harness.oracle(case)])
    assert tally.attempted > 0 and tally.failed == 0


def test_strata_each_appear_once_per_block():
    sizes = set()
    for i in range(block_size("split-small")):
        sizes.add(splitbeam.parse_split_instance(make_case("split-small", 5, i).text).n)
    assert sizes == set(range(4, 17))


def test_planted_expectations():
    sat = make_case("split-sat", 1, 0)
    unsat = make_case("split-unsat", 1, 0)
    assert sat.expect is True and harness.oracle(sat).solvable
    assert unsat.expect is False and not harness.oracle(unsat).solvable
    planted = [c for c in (make_case("subset-sum", 1, i) for i in range(6)) if c.expect]
    assert planted and all(harness.oracle(c).found for c in planted)


def _split_case():
    return harness.Case(0, "split", "n 4\nf 1 2\nf 1 3\n", True)


def test_corrupted_split_answer_is_counted():
    case = _split_case()
    good = harness.optical(case)
    tally = harness.Tally()
    tally.add(case, [good, harness.oracle(case)])
    assert (tally.attempted, tally.failed) == (2, 0)
    # a different (valid-looking) moment: the routes disagree, both count
    wrong = replace(good, solution_moment=good.solution_moment + 1)
    tally.add(case, [wrong, harness.oracle(case)])
    assert (tally.attempted, tally.failed) == (4, 2)
    # a false "unsolvable" alone misses the planted expectation
    none = replace(good, decision=splitbeam.Decision.UNSOLVABLE, partition=None, solution_moment=None)
    tally.add(case, [none])
    assert (tally.attempted, tally.failed) == (5, 3)
    tally.add(case, [harness.RAISED, harness.oracle(case)])
    assert (tally.attempted, tally.failed) == (7, 4)


def test_corrupted_subset_sum_witness_is_counted():
    case = harness.Case(0, "subset-sum", "values 3 5 9\ntarget 8\n", True)
    good = harness.optical(case)
    assert harness.failures(case, [good, harness.oracle(case)]) == 0
    assert harness.failures(case, [replace(good, witness=0b100)]) == 1
    assert harness.failures(case, [replace(good, witness=1 << 40)]) == 1


def test_patched_restores_and_skips_missing_targets():
    original = splitbeam.solver.simulate
    seen = []

    def wrap(name, fn):
        def inner(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return inner

    targets = [(splitbeam.solver, "simulate", "sim.simulate"), (splitbeam.solver, "gone", "x")]
    with patched(targets, wrap):
        harness.optical(_split_case())
    assert splitbeam.solver.simulate is original and seen == ["sim.simulate"]


def test_self_times_account_for_the_root():
    tracer = Tracer()
    with patched(harness.LAYER_TARGETS, tracer.wrapper):
        with tracer.span("decide.optical"):
            harness.optical(_split_case())
    self_ns, calls, roots, total = tracer.self_times("decide.optical")
    assert roots == 1 and sum(self_ns.values()) == total
    assert calls["sim.simulate"] == calls["moments.blocked"] == calls["core.parse"] == 1


def test_peak_meter_nests():
    meter = PeakMeter()
    tracemalloc.start()
    try:
        with meter.frame("outer"):
            with meter.frame("inner"):
                block = np.ones(1 << 20, dtype=np.uint8)
                del block
    finally:
        tracemalloc.stop()
    assert 1.0 <= meter.peaks["inner"] <= meter.peaks["outer"]


def test_timed_pass_spreads_probes_and_samples_host_speed():
    tally = harness.Tally()
    timed = harness.timed_pass("split-small", 2, 1.0, 2, tally)
    assert len(timed.setup_s) == 2 and all(s > 0 for s in timed.setup_s)
    assert timed.instances == len(timed.optical_s) == len(timed.oracle_s) > 0
    assert timed.loop_s > 0 and timed.speed.samples and timed.speed.scale() > 0
    assert tally.failed == 0


def test_only_enumerating_simulate_calls_count_paths():
    small = harness.traced_pass("split-small", 2, 0.3, harness.Tally())
    assert small.enumerated_paths > 0
    unsat = harness.traced_pass("split-unsat", 2, 0.3, harness.Tally())
    assert unsat.enumerated_paths == 0  # n=22 takes the analytic path

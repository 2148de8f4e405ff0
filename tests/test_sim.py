"""Simulation: arrival timelines, coalescing, detection, trace synthesis."""

import random
from collections import Counter

import numpy as np
import pytest

from splitbeam import (
    ArrivalTimeline,
    DeviceKind,
    DyadicIntensity,
    EnumerationLimitError,
    ExactMoment,
    SubsetSumInstance,
    build_set_splitting_device,
    build_subset_sum_device,
    detect_subset_sum,
    simulate,
    synthesize_trace,
)


def brute_subset_sums(values):
    """Independent path enumeration: mask -> total, via per-bit summation."""
    n = len(values)
    out = {}
    for mask in range(1 << n):
        total = sum(values[i] for i in range(n) if (mask >> i) & 1)
        out[mask] = total
    return out


class TestSimulateSetSplitting:
    def test_two_layers(self):
        timeline = simulate(build_set_splitting_device(2))
        events = timeline.events
        assert [e.moment.core for e in events] == [0, 1, 2, 3]
        assert all(e.moment.hops == 2 for e in events)
        assert all(e.intensity == DyadicIntensity(1, 2) for e in events)
        assert all(e.paths == 1 for e in events)
        assert [e.witness for e in events] == [0, 1, 2, 3]

    def test_completeness_and_conservation(self):
        for n in range(1, 13):
            timeline = simulate(build_set_splitting_device(n))
            assert timeline.event_count == 1 << n
            assert np.array_equal(timeline.cores, np.arange(1 << n))
            assert timeline.total_paths == 1 << n
            assert timeline.total_intensity() == DyadicIntensity.one()

    def test_analytic_matches_enumerated(self):
        for n in (1, 3, 6, 10):
            device = build_set_splitting_device(n)
            enumerated = simulate(device)
            analytic = ArrivalTimeline.analytic_splitting(n)
            assert not enumerated.is_analytic
            assert analytic.witness_for(n) == n
            assert analytic.multiplicity(0) == 1
            assert not analytic.contains_core(1 << n)
            for k in range(-1, (1 << n) + 1):
                assert analytic.contains_core(k) == enumerated.contains_core(k)
                assert analytic.multiplicity(k) == enumerated.multiplicity(k)
                assert analytic.witness_for(k) == enumerated.witness_for(k)
            assert analytic.events == enumerated.events
            # neither the lookups nor the events materialise the arrays
            assert analytic.is_analytic
            assert analytic == enumerated

    def test_default_threshold_switches(self):
        assert not simulate(build_set_splitting_device(10)).is_analytic
        assert simulate(build_set_splitting_device(17)).is_analytic


class TestSimulateSubsetSum:
    def test_distinct_sums(self):
        timeline = simulate(build_subset_sum_device(SubsetSumInstance((1, 2), 3)))
        assert [e.moment.core for e in timeline.events] == [0, 1, 2, 3]
        assert all(e.intensity == DyadicIntensity(1, 2) for e in timeline.events)

    def test_collision_multiplicity(self):
        timeline = simulate(build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15)))
        by_core = {e.moment.core: e for e in timeline.events}
        assert sorted(by_core) == [0, 5, 10, 15, 20]
        assert by_core[5].paths == 2
        assert by_core[5].intensity == DyadicIntensity(2, 3)
        assert by_core[5].witness == 0b001  # smallest of the two colliding masks
        assert timeline.total_paths == 8
        assert timeline.total_intensity() == DyadicIntensity.one()

    def test_matches_brute_force_multiset(self):
        rng = random.Random(99)
        for n in list(range(1, 13)) + [16]:
            values = tuple(rng.randint(1, 40) for _ in range(n))
            timeline = simulate(build_subset_sum_device(SubsetSumInstance(values, 1)))
            expected = Counter(brute_subset_sums(values).values())
            got = {e.moment.core: e.paths for e in timeline.events}
            assert got == dict(expected)

    def test_witness_is_smallest_mask(self):
        values = (2, 1, 1)
        inst = SubsetSumInstance(values, 2)
        timeline = simulate(build_subset_sum_device(inst))
        sums = brute_subset_sums(values)
        for event in timeline.events:
            masks = [m for m, s in sums.items() if s == event.moment.core]
            assert event.witness == min(masks)
            assert event.paths == len(masks)


class TestPartitionedSimulation:
    def test_equals_sequential(self):
        rng = random.Random(5)
        for n in range(1, 11):
            values = tuple(rng.randint(1, 9) for _ in range(n))
            device = build_subset_sum_device(SubsetSumInstance(values, 1))
            sequential = simulate(device)
            for partitions in (1, 2, min(8, 1 << n)):
                for workers in (None, 3):
                    chunked = simulate(device, partitions=partitions, workers=workers)
                    assert chunked == sequential

    def test_single_chunk_is_byte_identical_to_merged_chunks(self):
        # every partition count runs the same single pass: np.unique sorts
        # and coalesces, so the arrays must match byte for byte
        rng = random.Random(6)
        for n in range(1, 17):
            values = tuple(rng.randint(1, 1 << rng.randint(1, 20)) for _ in range(n))
            devices = [build_subset_sum_device(SubsetSumInstance(values, 1)), build_set_splitting_device(n)]
            for device in devices:
                single = simulate(device, partitions=1)
                merged = simulate(device, partitions=min(4, 1 << n))
                for a, b in [
                    (single.cores, merged.cores),
                    (single.counts, merged.counts),
                    (single.witnesses, merged.witnesses),
                ]:
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()

    def test_partition_validation(self):
        device = build_set_splitting_device(3)
        with pytest.raises(ValueError, match="power of two"):
            simulate(device, partitions=3)
        with pytest.raises(ValueError, match="exceeds"):
            simulate(device, partitions=16)


class TestSimulationCap:
    def test_rejects_large_instance(self):
        device = build_subset_sum_device(SubsetSumInstance(tuple([1] * 29), 5))
        with pytest.raises(EnumerationLimitError, match="too large to enumerate.*28"):
            simulate(device)

    def test_raised_cap_warns(self):
        device = build_set_splitting_device(3)
        with pytest.warns(UserWarning, match="cap raised"):
            simulate(device, cap=30)


class TestDetectSubsetSum:
    def test_hit_with_witness(self):
        inst = SubsetSumInstance((1, 2), 3)
        detection = detect_subset_sum(simulate(build_subset_sum_device(inst)), 3)
        assert detection.found
        assert detection.witness == 0b11
        assert detection.moment == ExactMoment(3, 2)

    def test_miss(self):
        inst = SubsetSumInstance((1, 2), 4)
        detection = detect_subset_sum(simulate(build_subset_sum_device(inst)), 4)
        assert not detection.found
        assert detection.witness is None
        assert "no fluctuation" in detection.describe()

    def test_rejects_wrong_device_kind(self):
        timeline = simulate(build_set_splitting_device(2))
        with pytest.raises(ValueError, match="subset-sum"):
            detect_subset_sum(timeline, 1)


# Powers of two keep every arrival, grid point, and pulse edge exactly
# representable, so the rectangle arithmetic below is float-exact.
RISE = 2.0**-40
STEP = RISE / 4  # samples_per_rise=4


def trace_oracle(timeline, times, unit_delay, epsilon, rise_time):
    """Direct superposition at each sample point."""
    expected = np.zeros(len(times))
    for event in timeline.iter_events():
        t = event.moment.physical_seconds(unit_delay, epsilon)
        inside = (times >= t) & (times < t + rise_time)
        expected[inside] += event.intensity.as_float()
    return expected


class TestSynthesizeTrace:
    def test_single_pulse_rectangle(self):
        # one coalesced arrival carrying the whole unit intensity
        timeline = ArrivalTimeline(
            1,
            DeviceKind.SUBSET_SUM,
            np.array([0], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([0], dtype=np.int64),
        )
        eps = 2.0**-45  # arrival at n*eps = step/8
        trace = synthesize_trace(
            timeline, unit_delay=2.0**-30, epsilon=eps, rise_time=RISE, samples_per_rise=4
        )
        values = trace.values.tolist()
        assert values[0] == 0.0  # grid point before the pulse starts
        assert values[1:5] == [1.0, 1.0, 1.0, 1.0]
        assert all(v == 0.0 for v in values[5:])

    def test_disjoint_pulses(self):
        timeline = simulate(build_set_splitting_device(2))
        unit = 2.0**-30  # far above the rise time: pulses cannot overlap
        trace = synthesize_trace(
            timeline, unit_delay=unit, epsilon=2.0**-45, rise_time=RISE, samples_per_rise=4
        )
        assert np.count_nonzero(trace.values) == 4 * 4
        assert set(np.unique(trace.values)) == {0.0, 0.25}
        expected = trace_oracle(timeline, trace.times, unit, 2.0**-45, RISE)
        assert np.array_equal(trace.values, expected)

    def test_overlapping_pulses_superpose(self):
        timeline = simulate(build_set_splitting_device(2))
        unit = 2.0**-41  # half the rise time: neighbouring pulses overlap
        trace = synthesize_trace(
            timeline, unit_delay=unit, epsilon=2.0**-45, rise_time=RISE, samples_per_rise=4
        )
        expected = trace_oracle(timeline, trace.times, unit, 2.0**-45, RISE)
        assert np.array_equal(trace.values, expected)
        assert trace.values.max() == 0.5  # two 1/4 pulses stacked

    def test_grid_and_span(self):
        timeline = simulate(build_set_splitting_device(1))
        trace = synthesize_trace(
            timeline, unit_delay=2.0**-30, epsilon=2.0**-45, rise_time=RISE, samples_per_rise=4
        )
        assert np.all(np.diff(trace.times) > 0)
        assert trace.times[1] - trace.times[0] == STEP
        t_last = timeline.events[-1].moment.physical_seconds(2.0**-30, 2.0**-45)
        assert trace.times[-1] <= t_last + 2 * RISE < trace.times[-1] + STEP

    def test_parameter_validation(self):
        timeline = simulate(build_set_splitting_device(1))
        with pytest.raises(ValueError):
            synthesize_trace(timeline, unit_delay=0, epsilon=1e-12, rise_time=1e-12)
        with pytest.raises(ValueError):
            synthesize_trace(timeline, unit_delay=1e-9, epsilon=-1e-12, rise_time=1e-12)
        with pytest.raises(ValueError):
            synthesize_trace(
                timeline, unit_delay=1e-9, epsilon=1e-12, rise_time=1e-12, samples_per_rise=0
            )

    def test_csv_roundtrip(self, tmp_path):
        timeline = simulate(build_set_splitting_device(2))
        trace = synthesize_trace(
            timeline, unit_delay=2.0**-30, epsilon=2.0**-45, rise_time=RISE, samples_per_rise=2
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,intensity"
        parsed = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert [t for t, _ in parsed] == trace.times.tolist()
        assert [v for _, v in parsed] == trace.values.tolist()

"""Simulation: arrival timelines, coalescing, detection, trace synthesis."""

import dataclasses
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitbeam import (
    ArrivalEvent,
    ArrivalTimeline,
    DelayDevice,
    EnumerationLimitError,
    ExactMoment,
    SplitInstance,
    SubsetSumInstance,
    Trace,
    build_set_splitting_device,
    build_subset_sum_device,
    detect_subset_sum,
    simulate,
    solve_optical,
    solve_subset_sum,
    synthesize_trace,
)
from splitbeam.sim import DEFAULT_ANALYTIC_THRESHOLD


def brute_subset_sums(values):
    """Independent path enumeration: mask -> total, via per-bit summation."""
    n = len(values)
    out = {}
    for mask in range(1 << n):
        total = sum(values[i] for i in range(n) if (mask >> i) & 1)
        out[mask] = total
    return out


def analytic_splitting(n):
    """The analytic timeline of an n-layer set-splitting device, at any n."""
    return ArrivalTimeline(n, None, None, None)


class TestSimulateSetSplitting:
    def test_two_layers(self):
        timeline = simulate(build_set_splitting_device(2))
        events = list(timeline.iter_events())
        assert [e.moment.core for e in events] == [0, 1, 2, 3]
        assert all(e.moment.hops == 2 for e in events)
        assert all(e.intensity == Fraction(1, 4) for e in events)
        assert all(e.paths == 1 for e in events)
        assert [e.witness for e in events] == [0, 1, 2, 3]

    def test_completeness_and_conservation(self):
        for n in range(1, 13):
            timeline = simulate(build_set_splitting_device(n))
            assert timeline.event_count == 1 << n
            assert np.array_equal(timeline.cores, np.arange(1 << n))
            assert timeline.total_paths == 1 << n
            assert sum(e.intensity for e in timeline.iter_events()) == 1

    def test_analytic_matches_enumerated(self, timeline_fields):
        for n in (1, 3, 6, 10):
            device = build_set_splitting_device(n)
            enumerated = simulate(device)
            analytic = analytic_splitting(n)
            assert not enumerated.is_analytic
            assert analytic.witness_for(n) == n
            assert analytic.witness_for(1 << n) is None
            for k in range(-1, (1 << n) + 1):
                assert analytic.witness_for(k) == enumerated.witness_for(k)
            assert analytic.counts.tolist() == enumerated.counts.tolist() == [1] * (1 << n)
            assert list(analytic.iter_events()) == list(enumerated.iter_events())
            # neither the lookups nor the events materialise the arrays
            assert analytic.is_analytic
            assert timeline_fields(analytic) == timeline_fields(enumerated)

    def test_default_threshold_switches(self):
        assert not simulate(build_set_splitting_device(10)).is_analytic
        assert simulate(build_set_splitting_device(17)).is_analytic

    def test_analytic_form_follows_the_delays(self):
        # 17 layers of delay 5 are enumerated: they arrive at 0, 5, ..., 85
        n = DEFAULT_ANALYTIC_THRESHOLD
        fives = simulate(DelayDevice((5,) * n))
        assert not fives.is_analytic
        assert fives.event_count == 18
        assert fives.cores.tolist() == list(range(0, 90, 5))
        assert fives.counts.tolist() == [math.comb(n, k) for k in range(n + 1)]
        assert fives.witness_for(3) is None
        # subset-sum values 1, 2, ..., 2**(n-1) are the set-splitting delays
        powers = build_subset_sum_device(SubsetSumInstance(tuple(1 << i for i in range(n)), 12345))
        timeline = simulate(powers)
        assert timeline.is_analytic
        assert detect_subset_sum(timeline, 12345).witness == 12345
        assert simulate(build_set_splitting_device(22)).is_analytic


class TestSimulateSubsetSum:
    def test_distinct_sums(self):
        timeline = simulate(build_subset_sum_device(SubsetSumInstance((1, 2), 3)))
        events = list(timeline.iter_events())
        assert [e.moment.core for e in events] == [0, 1, 2, 3]
        assert all(e.intensity == Fraction(1, 4) for e in events)

    def test_collision_path_counts(self):
        timeline = simulate(build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15)))
        by_core = {e.moment.core: e for e in timeline.iter_events()}
        assert sorted(by_core) == [0, 5, 10, 15, 20]
        assert by_core[5].paths == 2
        assert by_core[5].intensity == Fraction(2, 8)
        assert by_core[5].witness == 0b001  # smallest of the two colliding masks
        assert timeline.total_paths == 8
        assert sum(e.intensity for e in by_core.values()) == 1

    def test_matches_brute_force_multiset(self):
        rng = random.Random(99)
        for n in list(range(1, 13)) + [16]:
            values = tuple(rng.randint(1, 40) for _ in range(n))
            timeline = simulate(build_subset_sum_device(SubsetSumInstance(values, 1)))
            expected = Counter(brute_subset_sums(values).values())
            got = {e.moment.core: e.paths for e in timeline.iter_events()}
            assert got == dict(expected)

    def test_witness_is_smallest_mask(self):
        values = (2, 1, 1)
        inst = SubsetSumInstance(values, 2)
        timeline = simulate(build_subset_sum_device(inst))
        sums = brute_subset_sums(values)
        for event in timeline.iter_events():
            masks = [m for m, s in sums.items() if s == event.moment.core]
            assert event.witness == min(masks)
            assert event.paths == len(masks)


def brute_timeline_arrays(values):
    """Distinct sums, path counts and smallest masks from brute_subset_sums,
    as the int64 arrays a timeline holds."""
    counts, witnesses = {}, {}
    for mask, total in brute_subset_sums(values).items():  # ascending masks
        counts[total] = counts.get(total, 0) + 1
        witnesses.setdefault(total, mask)
    cores = sorted(counts)
    columns = (cores, [counts[c] for c in cores], [witnesses[c] for c in cores])
    return tuple(np.array(col, dtype=np.int64) for col in columns)


@st.composite
def enumerated_devices(draw):
    """Devices whose path sums come out distinct and in mask order
    (superincreasing take delays) or not (repeated, zero or arbitrary
    take delays), so that both sides of simulate's sort check run."""
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["superincreasing", "repeated", "zero", "arbitrary"]))
    if shape == "superincreasing":
        delays = []
        for _ in range(n):
            delays.append(sum(delays) + draw(st.integers(1, 1 << 20)))
    elif shape == "repeated":
        delays = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    elif shape == "zero":
        delays = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=n, max_size=n))
    else:
        delays = draw(st.lists(st.integers(1, 1 << 40), min_size=n, max_size=n))
    return DelayDevice(delays)


class TestSimulateDifferential:
    @staticmethod
    def check_against_brute_force(device):
        n = device.n
        cores, counts, witnesses = brute_timeline_arrays(device.take_delays)
        timeline = simulate(device)
        # superincreasing take delays are exactly those whose path sums come
        # out distinct and in mask order, and exactly those simulate keeps
        # in the ordered form, with no counts
        delays = device.take_delays
        superincreasing = all(d > sum(delays[:i]) for i, d in enumerate(delays))
        assert np.array_equal(witnesses, np.arange(1 << n)) == superincreasing
        assert (timeline._counts is None) == superincreasing
        # lookups first, while the implicit parts are still implicit
        assert timeline.total_paths == 1 << n
        assert timeline.event_count == len(cores)
        stride = max(1, len(cores) >> 10)
        for core, wit in zip(cores[::stride].tolist(), witnesses[::stride].tolist()):
            assert timeline.witness_for(core) == wit
        present = set(cores.tolist())
        for miss in {-1, int(cores[-1]) + 1, *(c + 1 for c in cores[:64].tolist())} - present:
            assert timeline.witness_for(miss) is None
        expected = tuple(
            ArrivalEvent(ExactMoment(c, n), Fraction(k, 1 << n), k, w)
            for c, k, w in zip(cores.tolist(), counts.tolist(), witnesses.tolist())
        )
        assert tuple(timeline.iter_events()) == expected
        # held witnesses only: implicit ones are the positions, checked above
        held = [(timeline.cores, cores), (timeline.counts, counts)]
        if timeline._witnesses is not None:
            held.append((timeline._witnesses, witnesses))
        for got, want in held:
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
        assert timeline.total_paths == 1 << n
        return timeline

    @settings(max_examples=150, deadline=None)
    @given(enumerated_devices())
    @example(DelayDevice([0]))
    @example(DelayDevice([7]))
    @example(DelayDevice([0, 1, 2, 4]))
    @example(DelayDevice([1, 2, 4, 0]))
    @example(DelayDevice([3, 3, 3]))
    @example(DelayDevice([1, 1, 5]))
    @example(DelayDevice([2, 1, 5]))
    def test_matches_brute_force(self, device):
        self.check_against_brute_force(device)

    def test_set_splitting_below_the_threshold(self):
        assert DEFAULT_ANALYTIC_THRESHOLD > 16
        for n in range(1, 17):
            timeline = self.check_against_brute_force(build_set_splitting_device(n))
            # genuinely enumerated, not the analytic formula
            assert not timeline.is_analytic


@st.composite
def timelines(draw):
    """A timeline of each form: enumerated in mask order, coalesced by the
    sort, or analytic."""
    if draw(st.booleans()):
        return analytic_splitting(draw(st.integers(1, 10)))
    return simulate(draw(enumerated_devices()))


class TestIntensityContract:
    @settings(max_examples=150, deadline=None)
    @given(timelines())
    @example(simulate(build_set_splitting_device(4)))
    @example(simulate(DelayDevice((5, 5, 10))))
    @example(analytic_splitting(4))
    def test_intensities_are_exact_dyadic_fractions_summing_to_one(self, timeline):
        n = timeline.n
        total = Fraction(0)
        for event in timeline.iter_events():
            assert type(event.intensity) is Fraction
            assert event.intensity == Fraction(event.paths, 1 << n)
            assert (1 << n) % event.intensity.denominator == 0
            total += event.intensity
        assert total == 1


class TestImplicitTimeline:
    @staticmethod
    def peak_bytes(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lookups_build_no_count_or_witness_array(self):
        timeline = simulate(build_set_splitting_device(16))

        def lookups():
            return (
                timeline.witness_for(12345),
                timeline.witness_for(1 << 16),
                timeline.total_paths,
                timeline.event_count,
            )

        result, peak = self.peak_bytes(lookups)
        assert result == (12345, None, 1 << 16, 1 << 16)
        assert timeline._counts is None and timeline._witnesses is None
        # one int64 array of 2**16 entries would take 512 KiB
        assert peak < 64 << 10

    def test_properties_build_implicit_arrays_and_keep_nothing(self):
        for timeline in (simulate(build_set_splitting_device(5)), analytic_splitting(5)):
            assert timeline.counts.tobytes() == np.ones(32, dtype=np.int64).tobytes()
            assert timeline.cores.tobytes() == np.arange(32, dtype=np.int64).tobytes()
            assert timeline._counts is None and timeline._witnesses is None

        timeline = analytic_splitting(20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            arrays = (timeline.cores, timeline.counts)
            assert [len(a) for a in arrays] == [1 << 20] * 2
            del arrays
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert timeline.is_analytic
        assert timeline._counts is None and timeline._witnesses is None
        # two int64 arrays of 2**20 entries took 16 MiB while they were held
        assert after - before < 64 << 10

    def test_total_intensity_reads_no_event(self):
        # the total intensity is total_paths / 2**n; over 2**28 events, each
        # its own path, a per-event sum would take hours
        def total_intensity(timeline):
            return Fraction(timeline.total_paths, 1 << timeline.n)

        timeline = analytic_splitting(28)
        with mock.patch.object(ArrivalTimeline, "iter_events", side_effect=AssertionError("events read")):
            total, peak = self.peak_bytes(lambda: total_intensity(timeline))
        assert total == 1
        assert peak < 64 << 10
        # the total follows the held path counts: 3/2 + 1/2
        coalesced = ArrivalTimeline(
            1, *(np.array(a, dtype=np.int64) for a in ([0, 3], [3, 1], [0, 1]))
        )
        assert total_intensity(coalesced) == 2 == sum(e.intensity for e in coalesced.iter_events())

    def test_solve_optical_at_16_peaks_under_one_mib(self):
        inst = SplitInstance(16, (0b111, 0b11 << 3, 0b101 << 8, 0b1010101 << 9))
        solve_optical(inst)
        answer, peak = self.peak_bytes(lambda: solve_optical(inst))
        assert answer.solvable and answer.validate_against(inst)
        assert peak < 1 << 20

    def test_repr_counts_events_without_building_them(self):
        coalesced = simulate(build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15)))
        assert repr(coalesced) == "ArrivalTimeline(n=3, events=5)"
        analytic = analytic_splitting(28)
        text, peak = self.peak_bytes(lambda: repr(analytic))
        assert text == "ArrivalTimeline(n=28, events=268435456)"
        assert peak < 64 << 10

    def test_held_arrays_are_read_only(self):
        timeline = simulate(build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15)))
        assert not timeline.is_analytic
        for array in (timeline.cores, timeline.counts, timeline._witnesses):
            with pytest.raises(ValueError, match="read-only"):
                array[3] = 99
        assert timeline.witness_for(15) == 5
        # sums in mask order are held as the cores; the implicit arrays are fresh
        ordered = simulate(build_set_splitting_device(4))
        with pytest.raises(ValueError, match="read-only"):
            ordered.cores[3] = 99
        assert ordered.witness_for(3) == 3
        ordered.counts[3] = 99
        assert int(ordered.counts[3]) == 1


class TestFrozenTimeline:
    @staticmethod
    def timelines():
        # analytic, ordered (one path per event) and coalesced
        return (
            simulate(build_set_splitting_device(DEFAULT_ANALYTIC_THRESHOLD + 1)),
            simulate(build_set_splitting_device(4)),
            simulate(build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15))),
        )

    def test_assigning_any_field_is_refused(self):
        for timeline in self.timelines():
            before = (timeline.event_count, timeline.witness_for(15), repr(timeline))
            names = ("n", "_cores", "_counts", "_witnesses")
            for name in names:
                held = getattr(timeline, name)
                for value in (3, None):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(timeline, name, value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(timeline, name)
                assert getattr(timeline, name) is held
            # a name that is not a field is refused too; slotted frozen
            # dataclasses raise TypeError for it on some Python versions
            with pytest.raises((AttributeError, TypeError)):
                timeline.extra = 1
            assert tuple(f.name for f in dataclasses.fields(timeline)) == names
            assert (timeline.event_count, timeline.witness_for(15), repr(timeline)) == before

    def test_equality_and_hash_are_by_identity(self):
        for timeline, again in zip(self.timelines(), self.timelines()):
            assert timeline == timeline and timeline != again
            assert hash(timeline) == object.__hash__(timeline)
            assert len({timeline, again, timeline}) == 2


class TestSimulationCap:
    def test_rejects_large_instance(self):
        device = build_subset_sum_device(SubsetSumInstance(tuple([1] * 29), 5))
        with pytest.raises(EnumerationLimitError, match="too large to enumerate.*28"):
            simulate(device)

    def test_refuses_path_enumeration_past_24_layers_before_allocating(self):
        device = build_subset_sum_device(SubsetSumInstance(tuple(range(1, 26)), 5))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="path enumeration cap 24"):
                simulate(device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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

    @pytest.mark.parametrize("n", [4, DEFAULT_ANALYTIC_THRESHOLD])
    def test_watches_a_set_splitting_timeline(self, n):
        # the set-splitting timeline is the subset-sum timeline of the
        # values 1, 2, ..., 2**(n-1): moment t is the subset whose bits are t
        timeline = simulate(build_set_splitting_device(n))
        assert timeline.is_analytic == (n >= DEFAULT_ANALYTIC_THRESHOLD)
        values = tuple(1 << i for i in range(n))
        top = (1 << n) - 1
        for t in sorted({1, 2, 5, top >> 1, top - 1, top, *random.Random(n).sample(range(1, top), 8)}):
            detection = detect_subset_sum(timeline, t)
            assert detection.witness == t
            assert detection == solve_subset_sum(SubsetSumInstance(values, t))
        past = detect_subset_sum(timeline, 1 << n)
        assert not past.found
        assert past == solve_subset_sum(SubsetSumInstance(values, 1 << n))


# Powers of two keep every arrival, grid point, and pulse edge exactly
# representable, so the rectangle arithmetic below is float-exact.
RISE = 2.0**-40
STEP = RISE / 4  # samples_per_rise=4


def trace_oracle(timeline, times, unit_delay, epsilon, rise_time):
    """Direct superposition at each sample point."""
    expected = np.zeros(len(times))
    for event in timeline.iter_events():
        t = event.moment.core * unit_delay + event.moment.hops * epsilon
        inside = (times >= t) & (times < t + rise_time)
        expected[inside] += float(event.intensity)
    return expected


class TestFrozenTrace:
    @staticmethod
    def trace():
        return synthesize_trace(
            simulate(build_set_splitting_device(2)), unit_delay=2.0**-30, epsilon=2.0**-45, rise_time=RISE
        )

    def test_equality_and_hash_are_by_identity(self):
        # a generated __eq__ would compare the arrays and raise
        trace, again = self.trace(), self.trace()
        same = Trace(trace.times, trace.values)
        assert trace == trace and trace != again and trace != same
        assert hash(trace) == object.__hash__(trace)
        assert len({trace, again, same, trace}) == 3

    def test_assigning_a_field_is_refused(self):
        trace = self.trace()
        times = trace.times
        for name in ("times", "values"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, name, times)
        assert trace.times is times
        assert tuple(f.name for f in dataclasses.fields(trace)) == ("times", "values")


class TestSynthesizeTrace:
    def test_single_pulse_rectangle(self):
        # one coalesced arrival carrying the whole unit intensity
        timeline = ArrivalTimeline(
            1,
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
        last = list(timeline.iter_events())[-1].moment
        t_last = last.core * 2.0**-30 + last.hops * 2.0**-45
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

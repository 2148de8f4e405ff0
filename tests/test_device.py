"""Delay-graph builders: layer delays, path/mask correspondence, determinism."""

import numpy as np
import pytest

from splitbeam import (
    DelayDevice,
    SubsetSumInstance,
    build_set_splitting_device,
    build_subset_sum_device,
    simulate,
)


class TestSetSplittingDevice:
    def test_power_of_two_delays(self):
        device = build_set_splitting_device(4)
        assert device.take_delays == (1, 2, 4, 8)

    def test_single_layer(self):
        assert build_set_splitting_device(1).take_delays == (1,)

    def test_path_taking_first_two_layers(self):
        device = build_set_splitting_device(4)
        assert simulate(device).witness_for(3) == 0b0011

    def test_path_delay_equals_mask_exhaustive(self):
        # the path <-> mask bijection is structural: core delay reads back the mask
        for n in (1, 2, 3, 8, 16):
            timeline = simulate(build_set_splitting_device(n))
            assert timeline.cores.tolist() == list(range(1 << n))
            assert [timeline.witness_for(k) for k in range(1 << n)] == list(range(1 << n))

    def test_all_path_delays_distinct(self):
        timeline = simulate(build_set_splitting_device(10))
        assert timeline.event_count == timeline.total_paths == 1 << 10

    def test_deterministic(self):
        assert build_set_splitting_device(6) == build_set_splitting_device(6)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_set_splitting_device(0)
        with pytest.raises(ValueError):
            build_set_splitting_device(64)


class TestSubsetSumDevice:
    def test_direct_mapping(self):
        device = build_subset_sum_device(SubsetSumInstance((1, 2), 3))
        assert device.take_delays == (1, 2)

    def test_duplicate_values_permitted(self):
        inst = SubsetSumInstance((5, 5, 10), 15)
        device = build_subset_sum_device(inst)
        assert device.take_delays == (5, 5, 10)
        # oracle: the target is reachable two ways
        hits = [m for m in range(8) if inst.subset_sum(m) == 15]
        assert len(hits) == 2
        timeline = simulate(device)
        assert timeline.witness_for(15) == hits[0]
        assert int(timeline.counts[timeline.cores.tolist().index(15)]) == len(hits)

    def test_path_delays_match_subset_sums(self):
        inst = SubsetSumInstance((3, 1, 4, 1, 5), 9)
        device = build_subset_sum_device(inst)
        timeline = simulate(device)
        arrivals = np.repeat(timeline.cores, timeline.counts).tolist()
        assert arrivals == sorted(inst.subset_sum(mask) for mask in range(1 << 5))

    def test_single_value_device(self):
        device = build_subset_sum_device(SubsetSumInstance((7,), 3))
        # 2 paths only; neither reaches delay 3
        assert simulate(device).cores.tolist() == [0, 7]

    def test_deterministic(self):
        inst = SubsetSumInstance((2, 9, 2), 4)
        assert build_subset_sum_device(inst) == build_subset_sum_device(inst)


class TestDelayDevice:
    def test_rejects_negative_take_delay(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DelayDevice((1, -1))

    def test_rejects_bad_layer_count(self):
        with pytest.raises(ValueError, match="layers"):
            DelayDevice(())
        with pytest.raises(ValueError, match="layers"):
            DelayDevice((0,) * 64)

    def test_dump_prints_zero_skip_arcs(self):
        device = build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15))
        assert device.dump() == (
            "device n=3\n"
            "layer 1: take=5 skip=0\n"
            "layer 2: take=5 skip=0\n"
            "layer 3: take=10 skip=0"
        )

    def test_rejects_non_integer_take_delay(self):
        with pytest.raises(TypeError):
            DelayDevice((1.5, 2))

    def test_numpy_integer_take_delays_become_ints(self, timeline_fields):
        device = DelayDevice((np.int64(5), np.uint8(5), np.int32(10)))
        plain = DelayDevice((5, 5, 10))
        assert device == plain and all(type(d) is int for d in device.take_delays)
        assert device.dump() == plain.dump()
        assert timeline_fields(simulate(device)) == timeline_fields(simulate(plain))

    def test_rejects_take_delays_summing_past_int64(self):
        # the full path would arrive at 2**63, which int64 wraps to -2**63
        with pytest.raises(ValueError, match="64-bit"):
            DelayDevice((1 << 62, 1 << 62))

    def test_rejects_take_delay_past_int64(self):
        with pytest.raises(ValueError, match="64-bit"):
            DelayDevice((1 << 63,))

    def test_largest_int64_sum_accepted(self):
        device = DelayDevice((1 << 62, (1 << 62) - 1))
        assert int(simulate(device).cores[-1]) == (1 << 63) - 1

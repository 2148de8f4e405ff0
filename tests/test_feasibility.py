"""The float module: cable lengths, instance-size bounds, reports, and
the one finite-and-positive rule every physical quantity obeys."""

import math

import pytest

import splitbeam.feasibility
import splitbeam.sim
from splitbeam import (
    PhysicalParams,
    build_set_splitting_device,
    max_n_for_cable,
    max_n_for_total_time,
    min_cable_length,
    published_figure_checks,
    report,
    simulate,
)

DEFAULTS = PhysicalParams()


class TestPhysicalParams:
    def test_defaults(self):
        assert DEFAULTS.rise_time == 1e-12
        assert DEFAULTS.light_speed == 3e8
        # epsilon pad defaults to the minimum resolvable length
        assert DEFAULTS.epsilon_length == min_cable_length(DEFAULTS)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(rise_time=0)
        with pytest.raises(ValueError):
            PhysicalParams(light_speed=-1)
        with pytest.raises(ValueError):
            PhysicalParams(epsilon_length=0.0)

    @pytest.mark.parametrize("field", ["rise_time", "light_speed", "epsilon_length"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            PhysicalParams(**{field: value})

    @pytest.mark.parametrize("rise_time, light_speed", [(1e200, 1e200), (1e-200, 1e-200)])
    def test_rejects_min_cable_overflow_and_underflow(self, rise_time, light_speed):
        # finite, positive factors whose product is inf or 0.0
        with pytest.raises(ValueError, match="minimum cable length"):
            PhysicalParams(rise_time=rise_time, light_speed=light_speed, epsilon_length=1.0)


class TestMinCableLength:
    def test_picosecond_scope(self):
        assert min_cable_length(DEFAULTS) == 3e-4

    def test_nanosecond_scope(self):
        assert min_cable_length(PhysicalParams(rise_time=1e-9)) == pytest.approx(0.3)

    def test_product_invariance(self):
        slower_light = PhysicalParams(rise_time=2e-12, light_speed=1.5e8)
        assert min_cable_length(slower_light) == 3e-4

    def test_power_of_two_scaling_exact(self):
        base = min_cable_length(DEFAULTS)
        for c in (2, 4, 1024):
            scaled = PhysicalParams(rise_time=c * 1e-12)
            assert min_cable_length(scaled) == c * base

    def test_general_scaling(self):
        base = min_cable_length(DEFAULTS)
        for c in (10, 1000):
            scaled = PhysicalParams(rise_time=c * 1e-12)
            assert min_cable_length(scaled) == pytest.approx(c * base, rel=1e-15)


class TestMaxNForTotalTime:
    def test_one_second_budget(self):
        assert max_n_for_total_time(1.0, DEFAULTS) == 39

    def test_single_rise_time_fits_nothing(self):
        assert max_n_for_total_time(1e-12, DEFAULTS) == 0

    def test_microsecond_budget(self):
        assert max_n_for_total_time(1e-6, DEFAULTS) == 19

    def test_exact_power_boundaries(self):
        for k in range(1, 64):
            budget = (1 << k) * DEFAULTS.rise_time
            assert max_n_for_total_time(budget, DEFAULTS) == k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_n_for_total_time(0.0, DEFAULTS)

    @pytest.mark.parametrize("budget", [math.inf, math.nan])
    def test_rejects_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="total time must be finite"):
            max_n_for_total_time(budget, DEFAULTS)


class TestMaxNForCable:
    def test_300_km(self):
        assert max_n_for_cable(3e5, DEFAULTS) == 30

    def test_one_unit_cable(self):
        assert max_n_for_cable(3e-4, DEFAULTS) == 1

    def test_doubling_adds_one_layer(self):
        assert max_n_for_cable(6e-4, DEFAULTS) == 2

    def test_exact_power_boundaries(self):
        base = min_cable_length(DEFAULTS)
        for k in range(1, 64):
            assert max_n_for_cable((1 << (k - 1)) * base, DEFAULTS) == k

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError, match="below one minimum cable"):
            max_n_for_cable(1e-4, DEFAULTS)

    @pytest.mark.parametrize("budget", [math.inf, math.nan])
    def test_rejects_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="cable must be finite"):
            max_n_for_cable(budget, DEFAULTS)


class TestReport:
    def test_single_element(self):
        rep = report(1, DEFAULTS)
        assert rep.longest_cable_m == 3e-4
        assert rep.solve_time_s == 2e-12
        assert rep.relative_power == 2
        assert rep.build_cost_units == 2

    def test_39_elements_longest_cable(self):
        # about 8.25e7 m, nowhere near the published 8e8
        assert report(39, DEFAULTS).longest_cable_m == pytest.approx(8.25e7, rel=5e-3)

    def test_26_elements_solve_time(self):
        assert report(26, DEFAULTS).solve_time_s == pytest.approx(6.7e-5, rel=5e-3)

    def test_closed_form_invariants(self):
        base = min_cable_length(DEFAULTS)
        for n in range(1, 64):
            rep = report(n, DEFAULTS)
            assert rep.min_cable_m == base
            assert rep.longest_cable_m == (1 << (n - 1)) * base
            assert rep.solve_time_s == (1 << n) * DEFAULTS.rise_time
            assert rep.relative_power == 1 << n
            assert rep.build_cost_units == n * (1 << n)
            expected_total = ((1 << n) - 1) * base + 2 * n * DEFAULTS.epsilon_length
            assert rep.total_cable_m == pytest.approx(expected_total, rel=1e-12)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            report(0, DEFAULTS)
        with pytest.raises(ValueError):
            report(64, DEFAULTS)


class TestPublishedFigures:
    def test_flags(self):
        checks = {c.label: c for c in published_figure_checks()}
        assert checks["minimum cable length (m)"].agrees
        assert checks["instance size solvable in one second"].agrees
        assert not checks["longest cable for a 39-element device (m)"].agrees
        assert not checks["instance size with 300 km cables"].agrees
        assert not checks["solve time for a 26-element device (s)"].agrees

    def test_computed_values(self):
        checks = {c.label: c for c in published_figure_checks()}
        assert checks["minimum cable length (m)"].computed == 3e-4
        assert checks["instance size solvable in one second"].computed == 39
        assert checks["longest cable for a 39-element device (m)"].computed == pytest.approx(
            8.25e7, rel=5e-3
        )
        assert checks["instance size with 300 km cables"].computed == 30
        assert checks["solve time for a 26-element device (s)"].computed == pytest.approx(
            6.7e-5, rel=5e-3
        )

    def test_describe_carries_verdict(self):
        lines = [c.describe() for c in published_figure_checks()]
        assert sum("DIFFERS" in line for line in lines) == 3
        assert sum(line.endswith("agrees") for line in lines) == 2

    def test_minimum_cable_past_300_km_fits_nothing(self):
        # 1 s at 1e6 m/s is a 1000 km minimum cable: 300 km builds no layer
        params = PhysicalParams(rise_time=1.0, light_speed=1e6)
        checks = {c.label: c for c in published_figure_checks(params)}
        assert checks["instance size with 300 km cables"].computed == 0.0
        assert checks["instance size solvable in one second"].computed == 0.0


class TestOneFloatModule:
    def test_the_trace_lives_here(self):
        assert splitbeam.synthesize_trace is splitbeam.feasibility.synthesize_trace
        assert splitbeam.Trace is splitbeam.feasibility.Trace
        for name in ("Trace", "synthesize_trace", "TRACE_MAX_SAMPLES"):
            assert not hasattr(splitbeam.sim, name)

    @pytest.mark.parametrize(
        "call, label, value",
        [
            (lambda: PhysicalParams(rise_time=-1.0), "rise time", "-1.0"),
            (lambda: PhysicalParams(light_speed=0.0), "light speed", "0.0"),
            (lambda: PhysicalParams(epsilon_length=math.nan), "epsilon length", "nan"),
            (lambda: max_n_for_total_time(0.0, DEFAULTS), "total time", "0.0"),
            (lambda: max_n_for_cable(0.0, DEFAULTS), "longest available cable", "0.0"),
            (
                lambda: splitbeam.feasibility.synthesize_trace(
                    simulate(build_set_splitting_device(1)), unit_delay=0.0, epsilon=1e-12, rise_time=1e-12
                ),
                "unit_delay",
                "0.0",
            ),
        ],
        ids=["rise time", "light speed", "epsilon length", "total time", "longest cable", "trace unit delay"],
    )
    def test_every_quantity_states_one_rule(self, call, label, value):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == f"{label} must be finite and strictly positive, got {value}"

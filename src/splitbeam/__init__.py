"""Exact simulator and solver for delay-line optical computing devices.

A chain of beam splitters and delay cables enumerates all 2**n subsets of
a ground set in superposition; arrival moments at the destination encode
the subsets. This package builds those devices as data, simulates them
with exact integer moments and exact dyadic intensities, decides the
set-splitting and subset-sum instances they encode, and computes the
physical envelope (cable lengths, run time, power) of actually building
one.
"""

from .core import (
    Decision,
    EnumerationLimitError,
    ExactMoment,
    MAX_UNIVERSE,
    ParseError,
    Partition,
    SplitAnswer,
    SplitInstance,
    SubsetMask,
    SubsetSumDetection,
    SubsetSumInstance,
    complement,
    format_mask,
    mask_to_indices,
    parse_split_instance,
    parse_subset_sum_instance,
    splits_family,
)
from .device import (
    DelayDevice,
    build_set_splitting_device,
    build_subset_sum_device,
)
from .feasibility import (
    FeasibilityReport,
    FigureCheck,
    PhysicalParams,
    max_n_for_cable,
    max_n_for_total_time,
    min_cable_length,
    published_figure_checks,
    report,
)
from .moments import (
    MomentSet,
    blocked_moments_full,
    blocked_moments_literal,
    decode_moment,
)
from .oracle import DEFAULT_ORACLE_CAP, solve_oracle, subset_sum_oracle
from .sim import (
    ArrivalEvent,
    ArrivalTimeline,
    DEFAULT_ANALYTIC_THRESHOLD,
    DEFAULT_SIM_CAP,
    Trace,
    detect_subset_sum,
    simulate,
    synthesize_trace,
)
from .solver import solve_optical, solve_subset_sum

__version__ = "0.1.0"

__all__ = [
    "ArrivalEvent",
    "ArrivalTimeline",
    "DEFAULT_ANALYTIC_THRESHOLD",
    "DEFAULT_ORACLE_CAP",
    "DEFAULT_SIM_CAP",
    "Decision",
    "DelayDevice",
    "EnumerationLimitError",
    "ExactMoment",
    "FeasibilityReport",
    "FigureCheck",
    "MAX_UNIVERSE",
    "MomentSet",
    "ParseError",
    "Partition",
    "PhysicalParams",
    "SplitAnswer",
    "SplitInstance",
    "SubsetMask",
    "SubsetSumDetection",
    "SubsetSumInstance",
    "Trace",
    "blocked_moments_full",
    "blocked_moments_literal",
    "build_set_splitting_device",
    "build_subset_sum_device",
    "complement",
    "decode_moment",
    "detect_subset_sum",
    "format_mask",
    "mask_to_indices",
    "max_n_for_cable",
    "max_n_for_total_time",
    "min_cable_length",
    "parse_split_instance",
    "parse_subset_sum_instance",
    "published_figure_checks",
    "report",
    "simulate",
    "solve_optical",
    "solve_oracle",
    "solve_subset_sum",
    "splits_family",
    "subset_sum_oracle",
    "synthesize_trace",
]

"""Evaluation harnesses regenerating the paper's Chapter-5 measurements."""

from .availability import (
    AvailabilityResult,
    CONFIGURATIONS,
    compare_configurations,
    node_count_sweep,
    read_ratio_sweep,
    run_availability_study,
)
from .scripting import ScriptError, ScriptResult, ScriptRunner
from .ch5 import (
    OperationRates,
    ReconciliationTiming,
    TestBean,
    async_constraint_improvement,
    build_cluster,
    figure_5_1,
    figure_5_2,
    figure_5_3,
    figure_5_4,
    figure_5_6,
    figure_5_8,
    measure_operations,
)

__all__ = [
    "AvailabilityResult",
    "CONFIGURATIONS",
    "OperationRates",
    "ScriptError",
    "ScriptResult",
    "ScriptRunner",
    "compare_configurations",
    "node_count_sweep",
    "read_ratio_sweep",
    "run_availability_study",
    "ReconciliationTiming",
    "TestBean",
    "async_constraint_improvement",
    "build_cluster",
    "figure_5_1",
    "figure_5_2",
    "figure_5_3",
    "figure_5_4",
    "figure_5_6",
    "figure_5_8",
    "measure_operations",
]

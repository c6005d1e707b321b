"""Evaluation harnesses regenerating the paper's Chapter-5 measurements."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "availability": (
        "AvailabilityResult", "CONFIGURATIONS", "compare_configurations",
        "node_count_sweep", "read_ratio_sweep", "run_availability_study",
    ),
    "scripting": ("ScriptError", "ScriptResult", "ScriptRunner"),
    "ch5": (
        "OperationRates", "ReconciliationTiming", "TestBean",
        "async_constraint_improvement", "build_cluster", "figure_5_1", "figure_5_2",
        "figure_5_3", "figure_5_4", "figure_5_6", "figure_5_8", "measure_operations",
    ),
})

"""replint — repo-specific static analysis for the middleware.

An AST-based lint pass that enforces the conventions the rest of the
test infrastructure depends on: determinism of sim-reachable code,
a canonical observability vocabulary, exhaustive message dispatch,
consistent constraint metadata (paper §4.2.2), and side-effect-free
invariant probes.  Run it with ``python -m repro.analysis``.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "baseline": ("BaselineComparison", "compare", "load_baseline", "save_baseline"),
    "cli": ("main",),
    "engine": (
        "AnalysisResult", "Finding", "Project", "Rule", "SourceModule", "all_rules",
        "load_project", "register", "run_analysis",
    ),
    "reporting": ("REPORT_VERSION", "render_json", "render_text"),
})

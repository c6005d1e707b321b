"""Chapter-2 study: constraint validation approaches, workload, mini-OCL,
runtime slices, and study orchestration."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "adaptive": ("AdaptiveDispatchTable", "build_adaptive_instrumentation"),
    "approaches": ("APPROACHES", "Approach", "DynamicProxy"),
    "ocl": ("OclError", "OclExpression", "parse"),
    "runtime": (
        "CheckCounter", "CompiledSpec", "ScenarioRunner", "SpecConstraint",
        "ViolationError", "build_repository", "checks_by_method", "compile_specs",
    ),
    "slices": ("MECHANISMS", "STAGES", "build_slice_runner"),
    "study": (
        "SliceResult", "StudyResult", "measure_lookup_time", "measure_runner",
        "run_slice_study", "run_study",
    ),
    "workload": (
        "CONSTRAINT_SPECS", "INVARIANT_SPECS", "POSTCONDITION_SPECS",
        "PRECONDITION_SPECS", "PUBLIC_METHODS", "ConstraintSpec", "Employee", "Project",
        "run_scenario",
    ),
})

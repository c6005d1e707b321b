"""Generative scenario corpus: seeded multi-domain workloads as data.

One generator feeds three consumers.  A :class:`GeneratorConfig` plus a
seed deterministically yields a :class:`~repro.check.scenario.Scenario` —
per-domain op grammar, scale knobs (nodes into the hundreds, entity
groups into the thousands, weighted partition-sensitive topologies), and
a closed fault plan — which the chaos replayer
(:func:`~repro.faults.chaos.replay_scenario`), the ``check`` DFS
explorer, and the benchmarks all consume unchanged.  A structural
validator rejects ill-formed scenarios before anything runs them, and
:func:`~repro.corpus.sweep.run_sweep` ties it together into the
byte-reproducible JSON artifact CI archives.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "generator": (
        "PRESETS", "GeneratorConfig", "generate_corpus", "generate_scenario",
        "preset_config",
    ),
    "grammars": ("GRAMMARS", "OpTemplate", "grammar_for"),
    "sweep": ("healthy_violations", "run_sweep"),
    "validator": ("Issue", "validate_scenario"),
})

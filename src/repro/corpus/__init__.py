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

from .generator import (
    PRESETS,
    GeneratorConfig,
    generate_corpus,
    generate_scenario,
    preset_config,
)
from .grammars import GRAMMARS, OpTemplate, grammar_for
from .sweep import healthy_violations, run_sweep
from .validator import Issue, validate_scenario

__all__ = [
    "GRAMMARS",
    "GeneratorConfig",
    "Issue",
    "OpTemplate",
    "PRESETS",
    "generate_corpus",
    "generate_scenario",
    "grammar_for",
    "healthy_violations",
    "preset_config",
    "run_sweep",
    "validate_scenario",
]

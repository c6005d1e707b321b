"""Shared pytest configuration.

Registers the ``obs`` marker (also declared in ``pyproject.toml``) and a
small line-coverage collector for the observability package.  The
container deliberately ships without coverage tooling, so the collector
is hand-rolled on :func:`sys.settrace`: it activates only while a test
marked ``obs`` runs and records only lines of files inside
``src/repro/obs``.  ``tests/test_zz_obs_coverage.py`` (named so it runs
last) compares the recorded lines against the package's executable lines
and enforces the >=90% floor.

It also holds the few read helpers several test modules share
(``from conftest import ...``) and the one full replint run over
``src/repro`` that the package self-checks share.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

import pytest

import repro.obs

OBS_PACKAGE_DIR = str(Path(repro.obs.__file__).resolve().parent)


class ObsCoveragePlugin:
    """Collects executed line numbers for ``repro.obs`` modules."""

    def __init__(self) -> None:
        self.executed: dict[str, set[int]] = {}
        self.obs_tests_run = 0

    # trace machinery --------------------------------------------------
    def _trace_lines(self, frame: Any, event: str, arg: Any) -> Any:
        if event == "line":
            lines = self.executed.setdefault(frame.f_code.co_filename, set())
            lines.add(frame.f_lineno)
        return self._trace_lines

    def _trace_calls(self, frame: Any, event: str, arg: Any) -> Any:
        if frame.f_code.co_filename.startswith(OBS_PACKAGE_DIR):
            return self._trace_lines
        return None

    # pytest hooks -----------------------------------------------------
    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item: pytest.Item) -> Any:
        if item.get_closest_marker("obs") is None:
            return (yield)
        self.obs_tests_run += 1
        previous = sys.gettrace()
        sys.settrace(self._trace_calls)
        try:
            return (yield)
        finally:
            sys.settrace(previous)


def pytest_configure(config: pytest.Config) -> None:
    plugin = ObsCoveragePlugin()
    config.obs_coverage = plugin  # type: ignore[attr-defined]
    config.pluginmanager.register(plugin, "obs-coverage")


SRC_REPRO = Path(__file__).parents[1] / "src" / "repro"


@pytest.fixture(scope="session")
def package_project() -> Any:
    """``src/repro`` as replint loads it, parsed once per session; its
    interprocedural index is built once too, by the first rule that asks."""
    from repro.analysis.engine import load_project

    return load_project(SRC_REPRO)


@pytest.fixture(scope="session")
def package_analysis(package_project: Any) -> Any:
    """Every replint rule over ``src/repro``, run once per session, over
    the session's loaded package rather than a second parse of it."""
    from unittest.mock import patch

    from repro.analysis import engine

    with patch.object(engine, "load_project", lambda root: package_project):
        return engine.run_analysis(SRC_REPRO)


def history_entries(history: Any) -> int:
    """Recorded versions over every object of a ``StateHistory``."""
    return sum(len(history.versions_of(oid)) for oid in history.objects())


def partition_fraction(gms: Any, node: Any) -> float:
    """Weight of ``node``'s partition relative to the whole system (§5.5.2)."""
    return gms.weight_fraction(gms.view_of(node).members)

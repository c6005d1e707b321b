"""Transport clock-boundary rule (``TRN``).

The pluggable-transport seam only works if time flows through it: a
module that reads the machine clock directly behaves differently on the
sim and real backends, and silently breaks cross-backend conformance.
``DET001`` already rejects wall-clock calls as a determinism hazard, but
it can be silenced with a pragma — which is how legitimate uses inside
the substrate are written.  ``TRN001`` closes that hole: *outside* the
substrate (``repro.sim`` and ``repro.transport``), a wall-clock call is
a boundary violation even when a ``DET001`` pragma excuses it, and so is
a stale ``DET001`` pragma with no call left on the line.  Code that
genuinely needs real elapsed time (the Ch. 2 approaches study, the
transport benchmark) imports
:func:`repro.transport.wallclock.read_perf_counter` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, Rule, SourceModule, register
from .determinism import _WALL_CLOCK, _terminal_name

#: Module prefixes allowed to read the machine clock (relative to the
#: analysis root, the ``repro`` package).
_CLOCK_BOUNDARY = ("sim/", "transport/")


def _inside_boundary(rel_path: str) -> bool:
    rel = rel_path.removeprefix("repro/").removeprefix("src/repro/")
    return rel.startswith(_CLOCK_BOUNDARY)


@register
class ClockBoundaryRule(Rule):
    code = "TRN001"
    name = "transport-clock-boundary"
    description = (
        "only repro.sim and repro.transport may read the machine clock; "
        "everything else gets time from the transport (cluster.clock, "
        "scheduler, read_perf_counter) so both backends behave identically"
    )

    def check_module(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        if _inside_boundary(module.rel_path):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            base = _terminal_name(node.func.value)
            if base in _WALL_CLOCK and node.func.attr in _WALL_CLOCK[base]:
                yield Finding(
                    code=self.code,
                    message=(
                        f"{base}.{node.func.attr}() outside the transport clock "
                        "boundary; route time through the transport "
                        "(cluster.clock / repro.transport.wallclock helpers)"
                    ),
                    path=module.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                )
        # A DET001 pragma outside the boundary marks a wall-clock read
        # that was waved through (or a stale pragma) — both are leaks.
        # The analysis package itself documents the pragma syntax in
        # comments, which the collector cannot tell from real pragmas.
        rel = module.rel_path.removeprefix("repro/").removeprefix("src/repro/")
        if rel.startswith("analysis/"):
            return
        for line, codes in sorted(module.pragmas.items()):
            if "DET001" in codes:
                yield Finding(
                    code=self.code,
                    message=(
                        "DET001 pragma outside the transport clock boundary; "
                        "move the clock read behind repro.transport.wallclock"
                    ),
                    path=module.rel_path,
                    line=line,
                    col=0,
                )

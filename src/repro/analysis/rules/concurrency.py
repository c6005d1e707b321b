"""CONC rules: lock discipline and event-loop safety (interprocedural).

The real transport backends run genuinely concurrent code — per-node
worker pools, RLock tx guards, a process worker's connection threads —
which the per-module rules cannot reason about.  These five rules sit on
the interprocedural index (``analysis/interproc.py``) and police the
contracts that keep the backends correct:

* **CONC001** — a field declared ``# guarded-by: <lock>`` is read or
  written on a path that does not hold the lock, where "holds" is
  computed interprocedurally: locally via ``with lock:`` nesting, or
  because *every* call chain into the function holds it.
* **CONC002** — a blocking operation (``time.sleep``, lock acquire,
  socket/frame I/O, ``Condition.wait``, ``Future.result``) is reachable
  from event-loop context: any coroutine, or any callback handed to
  ``call_soon_threadsafe``/``call_soon``/``call_later``.  Thread and
  executor boundaries stop reachability — that is the sanctioned way to
  block.
* **CONC003** — a cycle in the acquired-while-holding graph: two (or
  more) locks acquired in conflicting orders on different paths, the
  classic deadlock shape.
* **CONC004** — a lock held across an operation that can take
  arbitrarily long: an ``await``, direct network I/O, or a call that
  transitively reaches network I/O (a multicast, a frame request).
  Holding a lock across such a point stalls every contender for the
  lock's full round-trip and invites distributed deadlock.
* **CONC005** — check-then-act lazy initialization of shared instance
  state (``if self._x is None: self._x = ...``) outside any lock, in a
  class that owns locks or guarded fields (i.e. one whose instances are
  demonstrably shared across threads).

All five are project rules: the index is built once per
:class:`~repro.analysis.engine.Project` and shared.  Messages are
line-free so fingerprints survive unrelated edits; suppression uses the
ordinary pragma grammar (``# replint: ignore[CONC001]``) with the
repo's convention that a baseline entry or pragma for a CONC finding
must carry a written justification.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..engine import Finding, Project, Rule, register
from ..interproc import Access, BlockingOp, FunctionInfo, InterprocIndex, analyze


def _dedupe(findings: Iterable[Finding]) -> Iterator[Finding]:
    """Keep the first (lowest-line) finding per fingerprint."""
    best: dict[str, Finding] = {}
    for finding in findings:
        existing = best.get(finding.fingerprint)
        if existing is None or (finding.line, finding.col) < (
            existing.line,
            existing.col,
        ):
            best[finding.fingerprint] = finding
    return iter(
        sorted(best.values(), key=lambda f: (f.path, f.line, f.code, f.message))
    )


@register
class UnguardedSharedFieldAccess(Rule):
    code = "CONC001"
    name = "unguarded-shared-field-access"
    description = (
        "A field declared `# guarded-by: <lock>` is read or written on a "
        "path that does not hold the lock (checked interprocedurally)."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = analyze(project)
        findings: list[Finding] = []
        for info in index.functions.values():
            for access in info.accesses:
                if access.lock in access.held:
                    continue
                if index.lock_kind(access.lock) is None:
                    continue  # declared lock never constructed: META gap
                if index.holds(info.qualname, access.lock):
                    continue
                verb = "written" if access.is_write else "read"
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"shared field '{access.field_name}' {verb} in "
                            f"{info.short} without holding "
                            f"'{access.lock}'"
                        ),
                        path=info.rel_path,
                        line=access.lineno,
                        col=access.col,
                    )
                )
        return _dedupe(findings)


@register
class BlockingCallOnEventLoop(Rule):
    code = "CONC002"
    name = "blocking-call-on-event-loop"
    description = (
        "A blocking operation (time.sleep, lock acquire, socket I/O, "
        "Condition.wait, Future.result) is reachable from a coroutine or "
        "an event-loop callback without an executor boundary in between."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = analyze(project)
        reachable = index.loop_reachability()
        findings: list[Finding] = []
        for qualname, chain in reachable.items():
            info = index.functions.get(qualname)
            if info is None:
                continue
            root = index.functions.get(chain[0])
            root_short = root.short if root is not None else chain[0]
            for op in info.blocking:
                findings.append(self._finding(info, op, root_short))
        return _dedupe(findings)

    def _finding(
        self, info: FunctionInfo, op: BlockingOp, root_short: str
    ) -> Finding:
        via = "" if root_short == info.short else f" (reached from {root_short})"
        return Finding(
            code=self.code,
            message=(
                f"blocking {op.desc} in {info.short} may run on the "
                f"event-loop thread{via}"
            ),
            path=info.rel_path,
            line=op.lineno,
            col=op.col,
        )


@register
class LockOrderInversion(Rule):
    code = "CONC003"
    name = "lock-order-inversion"
    description = (
        "Two or more locks are acquired in conflicting orders on "
        "different paths (a cycle in the acquired-while-holding graph)."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = analyze(project)
        edges = index.acquisition_edges()
        adjacency: dict[str, set[str]] = {}
        for held, acquired in edges:
            adjacency.setdefault(held, set()).add(acquired)
            adjacency.setdefault(acquired, set())
        findings: list[Finding] = []
        for component in _sccs(adjacency):
            if len(component) < 2:
                continue
            locks = sorted(component)
            # Anchor the finding at the earliest acquisition edge that
            # participates in the cycle.
            sites = [
                (site, held, acquired)
                for (held, acquired), site in edges.items()
                if held in component and acquired in component
            ]
            site, _, _ = min(
                sites, key=lambda item: (item[0].lineno, item[0].col)
            )
            quoted = ", ".join(f"'{lock}'" for lock in locks)
            module = self._module_of(index, site)
            findings.append(
                Finding(
                    code=self.code,
                    message=(
                        f"lock-order inversion: {quoted} are acquired in "
                        "conflicting orders on different paths"
                    ),
                    path=module,
                    line=site.lineno,
                    col=site.col,
                )
            )
        return _dedupe(findings)

    def _module_of(self, index: InterprocIndex, site: object) -> str:
        # An Acquire does not carry its module; recover it by matching
        # the site back to the owning function summary.
        for info in index.functions.values():
            for acq in info.acquires:
                if acq is site:
                    return info.rel_path
            for call in info.calls:
                if (call.lineno, call.col) == (site.lineno, site.col):  # type: ignore[attr-defined]
                    return info.rel_path
        # Interprocedural synthetic edge: fall back to any module that
        # constructs one of the locks (deterministic first match).
        for info in sorted(index.functions.values(), key=lambda i: i.qualname):
            if info.acquires:
                return info.rel_path
        return index.project.modules[0].rel_path if index.project.modules else "?"


@register
class LockHeldAcrossRemoteOp(Rule):
    code = "CONC004"
    name = "lock-held-across-remote-op"
    description = (
        "A lock is held across an await, direct network I/O, or a call "
        "that transitively performs network I/O (multicast, frame "
        "request) — stalling contenders for a full round-trip."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = analyze(project)
        transitive = index.transitive_blocking()
        findings: list[Finding] = []
        for info in index.functions.values():
            for lineno, col, held in info.awaits:
                for lock in sorted(held):
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"'{lock}' held across await in {info.short}"
                            ),
                            path=info.rel_path,
                            line=lineno,
                            col=col,
                        )
                    )
            for op in info.blocking:
                if not op.is_network or not op.held:
                    continue
                for lock in sorted(op.held):
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"'{lock}' held across {op.desc} in "
                                f"{info.short}"
                            ),
                            path=info.rel_path,
                            line=op.lineno,
                            col=op.col,
                        )
                    )
            for site in info.calls:
                if site.spawn or not site.held:
                    continue
                reached = next(
                    (
                        transitive[callee]
                        for callee in site.callees
                        if transitive.get(callee) is not None
                    ),
                    None,
                )
                if reached is None:
                    continue
                for lock in sorted(site.held):
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"'{lock}' held across call to "
                                f"{site.name}() in {info.short} "
                                f"(reaches {reached.desc})"
                            ),
                            path=info.rel_path,
                            line=site.lineno,
                            col=site.col,
                        )
                    )
        return _dedupe(findings)


@register
class UnlockedLazyInit(Rule):
    code = "CONC005"
    name = "unlocked-lazy-init"
    description = (
        "Check-then-act lazy initialization of shared instance state "
        "(`if self._x ...: self._x = ...`) outside any lock, in a class "
        "that owns locks or guarded fields."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = analyze(project)
        findings: list[Finding] = []
        for info in index.functions.values():
            for lazy in info.lazy_inits:
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"check-then-act initialization of "
                            f"'{lazy.field_name}' in {info.short} outside "
                            "any lock"
                        ),
                        path=info.rel_path,
                        line=lazy.lineno,
                        col=lazy.col,
                    )
                )
        return _dedupe(findings)


def _sccs(adjacency: dict[str, set[str]]) -> list[set[str]]:
    """Strongly connected components (iterative Tarjan, deterministic)."""
    index_counter = 0
    indices: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[set[str]] = []

    for start in sorted(adjacency):
        if start in indices:
            continue
        work: list[tuple[str, Iterator[str]]] = [
            (start, iter(sorted(adjacency[start])))
        ]
        indices[start] = lowlinks[start] = index_counter
        index_counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in indices:
                    indices[succ] = lowlinks[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result

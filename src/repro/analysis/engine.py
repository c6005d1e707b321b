"""The replint engine: source model, rule registry, and the lint run.

``replint`` is a hand-rolled AST analysis pass that turns the repo's
conventions — deterministic simulation code, a canonical observability
vocabulary, exhaustive message dispatch, consistent constraint metadata,
and side-effect-free invariant probes — into machine-checked rules.

The moving parts:

* :class:`SourceModule` — one parsed file: text, AST, and the
  ``# replint: ignore[CODE]`` pragma map.
* :class:`Project` — every scanned module plus cross-file lookups
  (module-level string constants, package-relative paths).
* :class:`Rule` — a registered check.  File rules run per module,
  project rules run once over the whole project (for cross-file
  invariants like registry drift or send/handle exhaustiveness).
* :func:`run_analysis` — parse, run every enabled rule, apply pragmas,
  report the pragmas that suppressed nothing (``PRAGMA001``), and return
  findings in a deterministic order.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: Pragma grammar: ``# replint: ignore`` silences every rule on the line,
#: ``# replint: ignore[DET001]`` / ``ignore[DET001,MSG001]`` silence the
#: named codes.  A pragma on a comment-only line applies to the next
#: non-comment line (so justifications can sit above the offending code).
#: Only a comment that starts with the pragma is one: a string or a
#: comment quoting the grammar is not.
_PRAGMA = re.compile(r"#\s*replint:\s*ignore(?:\[(?P<codes>[A-Z0-9, ]+)\])?")

_IGNORE_ALL = "*"

#: The code of a pragma whose codes all ran and that suppressed nothing.
UNUSED_PRAGMA = "PRAGMA001"


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a ``file:line``."""

    code: str
    message: str
    path: str  # project-relative, forward slashes
    line: int
    col: int = 0

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    @property
    def fingerprint(self) -> str:
        """Baseline identity: stable across unrelated line shifts."""
        return f"{self.code}:{self.path}:{self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "fingerprint": self.fingerprint,
        }


class SourceModule:
    """One parsed source file with its pragma map."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))
        #: ``(comment line, target line or None, codes)`` per pragma.
        self.pragma_sites = self._collect_pragmas()
        self.pragmas: dict[int, frozenset[str]] = {}
        for _, target, codes in self.pragma_sites:
            if target is not None:
                self.pragmas[target] = self.pragmas.get(target, frozenset()) | codes
        #: Module-level ``NAME = "literal"`` string constants.
        self.constants = self._collect_constants()

    @property
    def dotted(self) -> str:
        """The module path as dots, without the ``.py`` suffix."""
        return self.rel_path.removesuffix(".py").replace("/", ".")

    def _collect_pragmas(self) -> list[tuple[int, int | None, frozenset[str]]]:
        comments: dict[int, tuple[frozenset[str], bool]] = {}
        for token in tokenize.generate_tokens(io.StringIO(self.text).readline):
            match = _PRAGMA.match(token.string) if token.type == tokenize.COMMENT else None
            if match is None:
                continue
            raw = match.group("codes")
            codes = (
                frozenset({_IGNORE_ALL})
                if raw is None
                else frozenset(code.strip() for code in raw.split(",") if code.strip())
            )
            own_line = not token.line[: token.start[1]].strip()
            comments[token.start[0]] = (codes, own_line)
        sites: list[tuple[int, int | None, frozenset[str]]] = []
        pending: list[tuple[int, frozenset[str]]] = []
        for lineno, line in enumerate(self.lines, start=1):
            comment = comments.get(lineno)
            if comment is not None and comment[1]:
                pending.append((lineno, comment[0]))  # applies to the next code line
                continue
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue  # blank/comment lines keep a pending pragma alive
            if comment is not None:
                sites.append((lineno, lineno, comment[0]))
            sites.extend((at, lineno, codes) for at, codes in pending)
            pending = []
        sites.extend((at, None, codes) for at, codes in pending)
        return sites

    def suppressed(self, code: str, line: int) -> bool:
        codes = self.pragmas.get(line)
        if codes is None:
            return False
        return _IGNORE_ALL in codes or code in codes

    def _collect_constants(self) -> dict[str, str]:
        constants: dict[str, str] = {}
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                constants[node.targets[0].id] = node.value.value
        return constants


class Project:
    """Every scanned module, with cross-file lookups for project rules."""

    def __init__(self, root: Path, modules: list[SourceModule]) -> None:
        self.root = root
        self.modules = modules
        self.by_rel_path = {module.rel_path: module for module in modules}
        # A project-wide view of module-level string constants; later
        # modules do not overwrite earlier definitions, and a conflicting
        # redefinition removes the name (the value is ambiguous).
        self.constants: dict[str, str] = {}
        ambiguous: set[str] = set()
        for module in modules:
            for name, value in module.constants.items():
                if name in ambiguous:
                    continue
                if name in self.constants and self.constants[name] != value:
                    del self.constants[name]
                    ambiguous.add(name)
                elif name not in self.constants:
                    self.constants[name] = value

    def resolve_string(self, module: SourceModule, node: ast.expr) -> str | None:
        """Best-effort resolution of an expression to a string value.

        Handles literals, names bound to module-level string constants
        (locally or anywhere in the project — imports of shared kind
        constants resolve through the project table).
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in module.constants:
                return module.constants[node.id]
            return self.constants.get(node.id)
        return None


class Rule:
    """Base class for registered checks.

    Subclasses set ``code`` (stable, e.g. ``DET001``), ``name``, and
    ``description``, then override :meth:`check_module` (per-file) or
    :meth:`check_project` (whole-project).  Both may yield findings.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


_RULES: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in _RULES:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _RULES[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> tuple[type[Rule], ...]:
    """Every registered rule, ordered by code."""
    _load_builtin_rules()
    return tuple(_RULES[code] for code in sorted(_RULES))


def _load_builtin_rules() -> None:
    # Imported lazily so the registry populates itself on first use
    # without a circular import at package-import time.
    from . import rules  # noqa: F401


@dataclass
class AnalysisResult:
    """The outcome of one lint run (before baseline comparison)."""

    root: str
    findings: list[Finding]
    suppressed: int
    files_scanned: int
    rules: list[str] = field(default_factory=list)


def load_project(root: Path) -> Project:
    """Parse every ``*.py`` under ``root`` (outside ``__pycache__``)."""
    modules = [
        SourceModule(root, path)
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
    return Project(root, modules)


def run_analysis(root: Path, codes: frozenset[str] | None = None) -> AnalysisResult:
    """Run every registered rule (or the selected ``codes``) over ``root``."""
    project = load_project(root)
    findings: list[Finding] = []
    suppressed = 0
    used: dict[tuple[str, int], set[str]] = {}  # codes suppressed per line
    selected = [
        rule_cls()
        for rule_cls in all_rules()
        if codes is None or rule_cls.code in codes
    ]
    for rule in selected:
        raw: list[Finding] = []
        for module in project.modules:
            raw.extend(rule.check_module(module, project))
        raw.extend(rule.check_project(project))
        for finding in raw:
            module = project.by_rel_path.get(finding.path)
            if module is not None and module.suppressed(finding.code, finding.line):
                suppressed += 1
                used.setdefault((finding.path, finding.line), set()).add(finding.code)
                continue
            findings.append(finding)
    ran = None if codes is None else {rule.code for rule in selected}
    findings.extend(_unused_pragmas(project, ran, used))
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return AnalysisResult(
        root=str(root),
        findings=findings,
        suppressed=suppressed,
        files_scanned=len(project.modules),
        rules=[rule.code for rule in selected],
    )


def _unused_pragmas(
    project: Project, ran: set[str] | None, used: dict[tuple[str, int], set[str]]
) -> Iterable[Finding]:
    """Every pragma that suppressed nothing although each code it names
    ran (``ran`` is None on a full run: every code ran, a misspelt one
    included)."""
    for module in project.modules:
        for at, target, codes in module.pragma_sites:
            if ran is not None and (_IGNORE_ALL in codes or not codes <= ran):
                continue
            hit = used.get((module.rel_path, target), set()) if target else set()
            if hit and (_IGNORE_ALL in codes or hit & codes):
                continue
            named = "" if _IGNORE_ALL in codes else f"[{','.join(sorted(codes))}]"
            yield Finding(
                code=UNUSED_PRAGMA,
                message=f"pragma ignore{named} suppresses no finding",
                path=module.rel_path,
                line=at,
            )

"""The interprocedural layer: call graph, summaries, and lock facts.

PR 5's replint engine is strictly per-module, which is enough for
determinism and vocabulary rules but blind to the class of bug the real
transport backends (PR 9) introduced: data races and deadlocks that only
exist *across* function boundaries.  This module grows the engine a
project-wide view:

* a **function index** — every ``def`` in the project, including
  methods and nested functions, with a stable qualname;
* a **class index** — methods, base classes, lock attributes
  (``self.x = threading.Lock()`` and friends), best-effort attribute
  types (``self.net = AsyncioNetwork(...)`` types ``self.net``), and
  ``# guarded-by: <lock>`` field declarations;
* **per-function summaries** — guarded-field accesses, lock
  acquisitions, blocking operations and call sites, each with
  the set of locks *held* at that point (tracked through ``with lock:``
  blocks);
* a **call graph** — edges resolved by: local scope, typed attributes
  (constructor calls, annotated parameters, annotated return types,
  with subclass widening for dynamic dispatch), module aliases for
  project modules, and finally a *name-matching fallback* for calls the
  type pass cannot see (the componentized seam is duck-typed on
  purpose).  Calls routed through thread/executor boundaries
  (``Thread(target=...)``, ``run_in_executor``, ``executor.submit``)
  become *spawn* edges: the callee runs on another thread, so held
  locks do not transfer;
* **fixpoints** — ``holds(function, lock)`` (every path to the function
  holds the lock: the interprocedural half of CONC001), transitive
  blocking/network closures (CONC004), and the acquired-while-holding
  graph (CONC003).

The annotation convention::

    self.delivered_count = 0  # guarded-by: _delivered_lock

declares that ``delivered_count`` may only be read or written while
``_delivered_lock`` is held.  Matching is *name-based* (the lock may
live on another object, as ``procnode``'s ``ProcessStaleness.flag``
guarded by ``WorkerNode._mutex`` shows) and scoped to accesses whose
receiver is ``self`` in a declaring class or an attribute whose
inferred type declares the field — so an unrelated class reusing the
field name is never flagged.

Everything here is a deliberate approximation: no aliasing, no flow
sensitivity beyond ``with`` nesting, dynamic dispatch by name when
types are unknown.  The rules built on top (``rules/concurrency.py``)
are tuned so the approximations err toward findings that a pragma with
a written justification can absorb, never toward silence.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from .engine import Project, SourceModule

#: ``# guarded-by: <lock>`` on the line of a ``self.<field> = ...``
#: assignment declares the lock protecting that field.
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")

#: ``threading`` constructors that create a lock-like object.
_LOCK_CTORS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: APIs whose function argument runs on another thread: locks held at
#: the call site do NOT transfer.
_SPAWN_APIS = {"run_in_executor", "submit", "Thread", "start_new_thread"}

#: Positional index of the function argument for each spawn API
#: (``run_in_executor(executor, fn, ...)`` → 1; the rest → 0).
_FUNC_ARG_INDEX = {"run_in_executor": 1, "submit": 0}

#: Method names too generic for the name-matching fallback: resolving
#: ``payload.get(...)`` to every project ``get`` would drown the call
#: graph in noise.  Typed resolution is unaffected.
_FALLBACK_STOPLIST = {
    "get", "items", "keys", "values", "append", "pop", "update", "copy",
    "extend", "clear", "add", "remove", "discard", "insert", "index",
    "count", "sort", "reverse", "setdefault", "popitem", "split", "join",
    "strip", "format", "upper", "lower", "startswith", "endswith",
    "encode", "decode", "read", "write", "close", "send", "multicast",
    "put", "put_nowait", "get_nowait", "cancel", "set", "done", "name",
    "drain", "wait", "acquire", "release", "start", "run", "result",
}

#: Socket-level primitives: a call with one of these attribute names is
#: real network I/O wherever it appears.
_SOCKET_OPS = {"recv", "sendall", "create_connection", "accept", "connect"}


def _terminal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _annotation_class(node: ast.expr | None) -> str | None:
    """Best-effort class name out of an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the first identifier of "X | None" etc.
        match = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)", node.value)
        return match.group(1) if match else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # "X | None" — prefer the non-None side.
        for side in (node.left, node.right):
            name = _annotation_class(side)
            if name not in (None, "None"):
                return name
    if isinstance(node, ast.Subscript):
        # Optional[X] / list[X]: only unwrap Optional.
        if _terminal(node.value) == "Optional":
            return _annotation_class(node.slice)
    return None


@dataclass(frozen=True)
class GuardDecl:
    """One ``# guarded-by`` declaration site."""

    field_name: str
    lock: str
    rel_path: str
    class_name: str
    line: int


@dataclass(frozen=True)
class Access:
    """One read/write of a guarded field."""

    field_name: str
    lock: str
    lineno: int
    col: int
    is_write: bool
    held: frozenset[str]


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition (``with lock:`` or ``lock.acquire()``)."""

    lock: str
    lineno: int
    col: int
    held_before: frozenset[str]


@dataclass(frozen=True)
class BlockingOp:
    """One potentially blocking operation."""

    desc: str
    lineno: int
    col: int
    held: frozenset[str]
    is_network: bool = False


@dataclass
class CallSite:
    """One call site with its resolution."""

    name: str  # terminal callee name as written
    lineno: int
    col: int
    held: frozenset[str]
    callees: tuple[str, ...] = ()  # resolved FunctionInfo qualnames
    spawn: bool = False  # runs on another thread (locks do not transfer)


@dataclass
class LazyInit:
    """A check-then-act initialization of ``self.<field>``."""

    field_name: str
    lineno: int
    col: int
    held: frozenset[str]


@dataclass
class FunctionInfo:
    """Summary of one function/method."""

    qualname: str
    short: str  # Class.method or function name, for messages
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    is_property: bool = False
    accesses: list[Access] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    blocking: list[BlockingOp] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    lazy_inits: list[LazyInit] = field(default_factory=list)

    @property
    def rel_path(self) -> str:
        return self.module.rel_path


@dataclass
class ClassInfo:
    """Summary of one class definition."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    attr_types: dict[str, str | None] = field(default_factory=dict)
    locks: dict[str, str] = field(default_factory=dict)  # attr -> ctor kind
    guarded: dict[str, GuardDecl] = field(default_factory=dict)
    properties: set[str] = field(default_factory=set)


class InterprocIndex:
    """The project-wide analysis product, cached per :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}  # unique name -> info
        self._ambiguous_classes: set[str] = set()
        self.by_name: dict[str, list[str]] = {}  # simple name -> qualnames
        self.locks: dict[str, str] = {}  # lock attr name -> kind
        self.guarded: dict[str, list[GuardDecl]] = {}  # field -> declarations
        self.property_names: dict[str, list[str]] = {}  # name -> qualnames
        #: reverse call graph: callee qualname -> [(caller qualname, site)]
        self.callers: dict[str, list[tuple[str, CallSite]]] = {}
        self._module_aliases: dict[str, dict[str, str | None]] = {}
        self._symbol_imports: dict[str, dict[str, str]] = {}
        self._subclasses: dict[str, set[str]] = {}
        self._holds_cache: dict[str, dict[str, bool]] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for module in self.project.modules:
            self._collect_imports(module)
        for module in self.project.modules:
            self._collect_definitions(module)
        self._collect_class_facts()
        for info in list(self.functions.values()):
            _Summarizer(self, info).run()
        self._link_callers()

    def _collect_imports(self, module: SourceModule) -> None:
        """Alias → project module rel_path (or ``None`` for external)."""
        aliases: dict[str, str | None] = {}
        symbols: dict[str, str] = {}
        package_parts = module.rel_path.split("/")[:-1]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    aliases[bound] = None  # absolute imports: external
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    for alias in node.names:
                        aliases.setdefault(alias.asname or alias.name, None)
                    continue
                base = package_parts[: len(package_parts) - (node.level - 1)]
                parts = base + (node.module.split(".") if node.module else [])
                for alias in node.names:
                    bound = alias.asname or alias.name
                    candidate = "/".join(parts + [alias.name]) + ".py"
                    if candidate in self.project.by_rel_path:
                        aliases[bound] = candidate  # ``from . import frames``
                    else:
                        symbols[bound] = "/".join(parts)  # imported name
        self._module_aliases[module.rel_path] = aliases
        self._symbol_imports[module.rel_path] = symbols

    def _collect_definitions(self, module: SourceModule) -> None:
        def visit(node: ast.AST, scope: list[str], class_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    self._register_class(module, child, scope)
                    visit(child, scope + [child.name], child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._register_function(module, child, scope, class_name)
                    visit(child, scope + [child.name], None)
                else:
                    visit(child, scope, class_name)

        visit(module.tree, [], None)

    def _register_class(
        self, module: SourceModule, node: ast.ClassDef, scope: list[str]
    ) -> None:
        info = ClassInfo(
            name=node.name,
            module=module,
            node=node,
            bases=tuple(
                name for name in (_terminal(base) for base in node.bases) if name
            ),
        )
        if node.name in self.classes or node.name in self._ambiguous_classes:
            self._ambiguous_classes.add(node.name)
            self.classes.pop(node.name, None)
            return
        self.classes[node.name] = info

    def _register_function(
        self,
        module: SourceModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: list[str],
        class_name: str | None,
    ) -> None:
        dotted = ".".join(scope + [node.name])
        qualname = f"{module.rel_path}::{dotted}"
        short = f"{class_name}.{node.name}" if class_name else node.name
        is_property = any(
            _terminal(deco) in ("property", "cached_property")
            for deco in node.decorator_list
        )
        info = FunctionInfo(
            qualname=qualname,
            short=short,
            module=module,
            node=node,
            class_name=class_name,
            is_property=is_property,
        )
        self.functions[qualname] = info
        self.by_name.setdefault(node.name, []).append(qualname)
        if class_name is not None:
            cls = self.classes.get(class_name)
            if cls is not None and cls.module is module:
                cls.methods[node.name] = qualname
                if is_property:
                    cls.properties.add(node.name)
                    self.property_names.setdefault(node.name, []).append(qualname)

    def _collect_class_facts(self) -> None:
        for cls in self.classes.values():
            self._scan_class(cls)
        for cls in self.classes.values():
            for base in cls.bases:
                if base in self.classes:
                    self._subclasses.setdefault(base, set()).add(cls.name)

    def _scan_class(self, cls: ClassInfo) -> None:
        """Lock attributes, attribute types, and guarded-by declarations."""
        for method in ast.walk(cls.node):
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types = {
                arg.arg: _annotation_class(arg.annotation)
                for arg in method.args.args + method.args.kwonlyargs
            }
            for stmt in ast.walk(method):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    kind = self._lock_ctor_kind(value)
                    if kind is not None:
                        cls.locks[attr] = kind
                        existing = self.locks.get(attr)
                        # Conflicting kinds across classes: keep the
                        # strictest (a plain Lock is never re-entrant).
                        if existing is None or existing == "RLock":
                            self.locks[attr] = kind
                    inferred = self._infer_value_class(value, param_types)
                    if attr in cls.attr_types and cls.attr_types[attr] != inferred:
                        cls.attr_types[attr] = None  # conflicting writes
                    else:
                        cls.attr_types[attr] = inferred
                    match = _GUARDED_BY.search(
                        cls.module.lines[stmt.lineno - 1]
                        if stmt.lineno - 1 < len(cls.module.lines)
                        else ""
                    )
                    if match:
                        decl = GuardDecl(
                            field_name=attr,
                            lock=match.group("lock"),
                            rel_path=cls.module.rel_path,
                            class_name=cls.name,
                            line=stmt.lineno,
                        )
                        cls.guarded[attr] = decl
                        self.guarded.setdefault(attr, []).append(decl)

    def _lock_ctor_kind(self, value: ast.expr | None) -> str | None:
        if (
            isinstance(value, ast.Call)
            and _terminal(value.func) in _LOCK_CTORS
        ):
            return _terminal(value.func)
        return None

    def _infer_value_class(
        self, value: ast.expr | None, param_types: dict[str, str | None]
    ) -> str | None:
        """Class name of an assigned value, when statically visible."""
        if isinstance(value, ast.Call):
            name = _terminal(value.func)
            if name in self.classes:
                return name
            # A call to a project function with an annotated return type.
            for qualname in self.by_name.get(name or "", []):
                node = self.functions[qualname].node
                returned = _annotation_class(node.returns)
                if returned in self.classes:
                    return returned
            return None
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        return None

    def _link_callers(self) -> None:
        for info in self.functions.values():
            for site in info.calls:
                if site.spawn:
                    continue
                for callee in site.callees:
                    self.callers.setdefault(callee, []).append((info.qualname, site))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lock_kind(self, lock: str) -> str | None:
        return self.locks.get(lock)

    def resolve_method(self, class_name: str, method: str) -> tuple[str, ...]:
        """``class.method`` with base-chain lookup and subclass widening."""
        found: list[str] = []
        seen: set[str] = set()

        def lookup_up(name: str) -> str | None:
            cls = self.classes.get(name)
            if cls is None:
                return None
            if method in cls.methods:
                return cls.methods[method]
            for base in cls.bases:
                result = lookup_up(base)
                if result is not None:
                    return result
            return None

        own = lookup_up(class_name)
        if own is not None:
            found.append(own)

        def widen(name: str) -> None:
            for sub in sorted(self._subclasses.get(name, ())):
                if sub in seen:
                    continue
                seen.add(sub)
                cls = self.classes.get(sub)
                if cls is not None and method in cls.methods:
                    found.append(cls.methods[method])
                widen(sub)

        widen(class_name)
        return tuple(dict.fromkeys(found))

    def holds(self, qualname: str, lock: str) -> bool:
        """True when *every* caller path reaches ``qualname`` with ``lock``
        held (the interprocedural complement of local ``with`` tracking).

        Greatest fixpoint over the reverse call graph: a function with no
        known callers is an entry point and holds nothing; recursion
        cycles resolve optimistically, which is sound here because a
        cycle is only believed if every edge *into* it holds the lock.
        """
        cache = self._holds_cache.get(lock)
        if cache is None:
            cache = self._compute_holds(lock)
            self._holds_cache[lock] = cache
        return cache.get(qualname, False)

    def _compute_holds(self, lock: str) -> dict[str, bool]:
        # A cycle with no caller outside itself (e.g. a self-recursive
        # helper nothing in the project calls) must count as an entry
        # point, not as optimistically proven: seed True only for
        # functions reachable from a genuine entry (a no-caller root).
        roots = [q for q in self.functions if not self.callers.get(q)]
        reachable: set[str] = set(roots)
        queue = list(roots)
        while queue:
            current = queue.pop()
            info = self.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                if site.spawn:
                    continue
                for callee in site.callees:
                    if callee in self.functions and callee not in reachable:
                        reachable.add(callee)
                        queue.append(callee)
        holds = {
            qualname: bool(self.callers.get(qualname)) and qualname in reachable
            for qualname in self.functions
        }
        changed = True
        while changed:
            changed = False
            for qualname in self.functions:
                if not holds[qualname]:
                    continue
                ok = all(
                    lock in site.held or holds.get(caller, False)
                    for caller, site in self.callers.get(qualname, ())
                )
                if not ok:
                    holds[qualname] = False
                    changed = True
        return holds

    def transitive_blocking(self) -> dict[str, BlockingOp | None]:
        """Per function: one representative blocking/network op reachable
        through non-spawn call edges (``None`` when none is).  Used by
        CONC004 to see through helpers like ``_propagate`` →
        ``frames.request`` → ``ConnectionPool.checkout`` →
        ``socket.create_connection``.
        """
        result: dict[str, BlockingOp | None] = {}
        for qualname, info in self.functions.items():
            direct = [op for op in info.blocking if op.is_network]
            result[qualname] = min(
                direct, key=lambda op: (op.lineno, op.col), default=None
            )
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                if result[qualname] is not None:
                    continue
                for site in info.calls:
                    if site.spawn:
                        continue
                    for callee in site.callees:
                        if result.get(callee) is not None:
                            result[qualname] = result[callee]
                            changed = True
                            break
                    if result[qualname] is not None:
                        break
        return result

    def acquisition_edges(self) -> dict[tuple[str, str], Acquire]:
        """The acquired-while-holding graph: ``(held, acquired)`` edges.

        Local edges come from nested ``with`` blocks; interprocedural
        edges from call sites that hold a lock into callees that
        (transitively) acquire another.
        """
        transitive: dict[str, set[str]] = {
            qualname: {acq.lock for acq in info.acquires}
            for qualname, info in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                for site in info.calls:
                    if site.spawn:
                        continue
                    for callee in site.callees:
                        extra = transitive.get(callee, set()) - transitive[qualname]
                        if extra:
                            transitive[qualname] |= extra
                            changed = True
        edges: dict[tuple[str, str], Acquire] = {}

        def record(held: str, acquired: str, site: Acquire) -> None:
            if held == acquired:
                return  # re-entrancy is CONC004's concern, not ordering
            key = (held, acquired)
            existing = edges.get(key)
            if existing is None or (site.lineno, site.col) < (
                existing.lineno,
                existing.col,
            ):
                edges[key] = site

        for info in self.functions.values():
            for acq in info.acquires:
                for held in acq.held_before:
                    record(held, acq.lock, acq)
            for site in info.calls:
                if site.spawn or not site.held:
                    continue
                for callee in site.callees:
                    for acquired in sorted(transitive.get(callee, ())):
                        for held in site.held:
                            record(
                                held,
                                acquired,
                                Acquire(
                                    acquired, site.lineno, site.col, site.held
                                ),
                            )
        return edges


class _Summarizer:
    """One function's summary: a recursive walk tracking held locks."""

    def __init__(self, index: InterprocIndex, info: FunctionInfo) -> None:
        self.index = index
        self.info = info
        self.module = info.module
        self.cls = (
            index.classes.get(info.class_name) if info.class_name else None
        )
        self.local_types: dict[str, str | None] = {}
        args = info.node.args
        for arg in args.args + args.kwonlyargs + args.posonlyargs:
            inferred = _annotation_class(arg.annotation)
            if inferred in index.classes:
                self.local_types[arg.arg] = inferred

    def run(self) -> None:
        self._infer_local_types()
        for stmt in self.info.node.body:
            self._visit(stmt, frozenset())
        self._detect_lazy_inits()

    # -- local type inference ------------------------------------------
    def _infer_local_types(self) -> None:
        poisoned: set[str] = set()
        for node in ast.walk(self.info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not self.info.node:
                    continue
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            inferred = self.index._infer_value_class(node.value, {})
            if target.id in self.local_types and self.local_types[target.id] != inferred:
                poisoned.add(target.id)
            elif inferred is not None:
                self.local_types[target.id] = inferred
        for name in sorted(poisoned):
            self.local_types.pop(name, None)

    # -- held-lock tracking walk ---------------------------------------
    def _visit(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes summarized separately; locks don't transfer
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                lock = self._lock_name(item.context_expr)
                if lock is not None:
                    self.info.acquires.append(
                        Acquire(
                            lock,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                            held | frozenset(acquired),
                        )
                    )
                    self._record_blocking_acquire(item.context_expr, lock, held)
                    acquired.append(lock)
                else:
                    self._visit(item.context_expr, held)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held)
            inner = held | frozenset(acquired)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, held)
            for child in ast.iter_child_nodes(node):
                if child is not node.func:
                    self._visit(child, held)
            self._visit_reads(node.func, held)
            return
        if isinstance(node, ast.Attribute):
            self._record_access(node, held)
            self._record_property_load(node, held)
            self._visit(node.value, held)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_reads(self, func: ast.expr, held: frozenset[str]) -> None:
        """The callee expression itself may read guarded fields
        (``self._handlers[ns].get(...)`` reads ``_handlers``)."""
        if isinstance(func, ast.Attribute):
            self._visit(func.value, held)

    # -- locks ----------------------------------------------------------
    def _lock_name(self, expr: ast.expr) -> str | None:
        name = _terminal(expr)
        if name is not None and name in self.index.locks:
            return name
        return None

    def _record_blocking_acquire(
        self, expr: ast.expr, lock: str, held: frozenset[str]
    ) -> None:
        self.info.blocking.append(
            BlockingOp(
                f"acquire of {lock}",
                expr.lineno,
                expr.col_offset,
                held,
            )
        )

    # -- guarded-field accesses ----------------------------------------
    def _receiver_class(self, base: ast.expr) -> str | None:
        """The class of an access receiver, when inferable."""
        if isinstance(base, ast.Name):
            if base.id == "self":
                return self.info.class_name
            return self.local_types.get(base.id)
        if isinstance(base, ast.Attribute):
            owner = self._receiver_class(base.value)
            if owner is not None:
                cls = self.index.classes.get(owner)
                if cls is not None:
                    return cls.attr_types.get(base.attr)
        return None

    def _record_access(self, node: ast.Attribute, held: frozenset[str]) -> None:
        decls = self.index.guarded.get(node.attr)
        if not decls:
            return
        receiver = self._receiver_class(node.value)
        if receiver is None:
            return  # unknown receiver: never guess on a field name alone
        declaring = {decl.class_name for decl in decls}
        if receiver not in declaring:
            return
        decl = next(d for d in decls if d.class_name == receiver)
        if (
            self.info.node.name == "__init__"
            and self.info.class_name in declaring
        ):
            return  # construction happens before the object is shared
        self.info.accesses.append(
            Access(
                field_name=node.attr,
                lock=decl.lock,
                lineno=node.lineno,
                col=node.col_offset,
                is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                held=held,
            )
        )

    def _record_property_load(
        self, node: ast.Attribute, held: frozenset[str]
    ) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if node.attr not in self.index.property_names:
            return
        receiver = self._receiver_class(node.value)
        if receiver is None:
            return
        callees = self.index.resolve_method(receiver, node.attr)
        callees = tuple(
            q for q in callees if self.index.functions[q].is_property
        )
        if callees:
            self.info.calls.append(
                CallSite(
                    name=node.attr,
                    lineno=node.lineno,
                    col=node.col_offset,
                    held=held,
                    callees=callees,
                )
            )

    # -- calls ----------------------------------------------------------
    def _handle_call(self, node: ast.Call, held: frozenset[str]) -> None:
        func = node.func
        name = _terminal(func)
        if name is None:
            for child in ast.iter_child_nodes(node):
                self._visit(child, held)
            return
        # Thread/executor boundary APIs.
        if name in _SPAWN_APIS:
            self._handle_boundary(node, name, held)
            return
        blocking = self._blocking_reason(node, name)
        if blocking is not None:
            desc, is_network = blocking
            self.info.blocking.append(
                BlockingOp(desc, node.lineno, node.col_offset, held, is_network)
            )
        callees, spawn = self._resolve_call(func, name)
        self.info.calls.append(
            CallSite(
                name=name,
                lineno=node.lineno,
                col=node.col_offset,
                held=held,
                callees=callees,
                spawn=spawn,
            )
        )

    def _handle_boundary(
        self, node: ast.Call, api: str, held: frozenset[str]
    ) -> None:
        """Spawn APIs: the function argument runs on another thread."""
        fn_arg: ast.expr | None = None
        if api == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    fn_arg = kw.value
        else:
            idx = _FUNC_ARG_INDEX.get(api, 0)
            if len(node.args) > idx:
                fn_arg = node.args[idx]
        for child in ast.iter_child_nodes(node):
            if child is not node.func and child is not fn_arg:
                self._visit(child, held)
        if fn_arg is None:
            return
        fn_name = _terminal(fn_arg)
        if fn_name is None:
            return
        callees, _ = self._resolve_call(fn_arg, fn_name)
        self.info.calls.append(
            CallSite(
                name=fn_name,
                lineno=node.lineno,
                col=node.col_offset,
                held=held,
                callees=callees,
                spawn=True,
            )
        )

    def _blocking_reason(self, node: ast.Call, name: str) -> tuple[str, bool] | None:
        """(description, is_network) when the call can block a thread."""
        func = node.func
        base = (
            _terminal(func.value) if isinstance(func, ast.Attribute) else None
        )
        if name == "sleep" and base in ("time", None):
            return ("time.sleep()", False)
        if name in _SOCKET_OPS:
            return (f"socket {name}()", True)
        if name == "acquire" and base in self.index.locks:
            return (f"{base}.acquire()", False)
        if name in ("wait", "wait_for") and base in self.index.locks:
            return (f"{base}.{name}()", False)
        if name == "result" and isinstance(func, ast.Attribute):
            return ("Future.result()", True)
        if name == "join" and base is not None and "thread" in base.lower():
            return (f"{base}.join()", False)
        if name == "shutdown" and isinstance(func, ast.Attribute):
            for kw in node.keywords:
                if kw.arg == "wait" and (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                ):
                    return None
            return ("executor.shutdown(wait=True)", False)
        return None

    def _resolve_call(
        self, func: ast.expr, name: str
    ) -> tuple[tuple[str, ...], bool]:
        """Resolve a call expression to candidate function qualnames."""
        index = self.index
        # Plain name: class constructor, module function, imported symbol.
        if isinstance(func, ast.Name):
            if name in index.classes:
                init = index.resolve_method(name, "__init__")
                return (init, False)
            local = f"{self.module.rel_path}::{name}"
            if local in index.functions:
                return ((local,), False)
            nested = f"{self.info.qualname}.{name}"
            if nested in index.functions:
                return ((nested,), False)
            symbols = index._symbol_imports.get(self.module.rel_path, {})
            if name in symbols:
                candidate = f"{symbols[name]}/{name}.py"  # unlikely; fall through
            return (self._fallback(name), False)
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = _terminal(base)
            aliases = index._module_aliases.get(self.module.rel_path, {})
            if isinstance(base, ast.Name) and base.id in aliases:
                target = aliases[base.id]
                if target is None:
                    return ((), False)  # external module: no project callees
                qualname = f"{target}::{name}"
                if qualname in index.functions:
                    return ((qualname,), False)
                return ((), False)
            receiver = self._receiver_class(base)
            if receiver is not None:
                resolved = index.resolve_method(receiver, name)
                if resolved:
                    return (resolved, False)
                return (self._fallback(name), False)
            if base_name == "self" and self.info.class_name:
                resolved = index.resolve_method(self.info.class_name, name)
                if resolved:
                    return (resolved, False)
            return (self._fallback(name), False)
        return ((), False)

    def _fallback(self, name: str) -> tuple[str, ...]:
        """Dynamic-dispatch fallback: name matching, but only when the
        name is *unique* project-wide.  An ambiguous name (``create``,
        ``request``) would wire unrelated subsystems together and drown
        the graph in phantom edges; typed resolution plus subclass
        widening covers real dynamic dispatch, so the fallback only has
        to catch duck-typed seams with distinctive method names."""
        if name in _FALLBACK_STOPLIST or name.startswith("__"):
            return ()
        candidates = self.index.by_name.get(name, ())
        if len(candidates) == 1:
            return tuple(candidates)
        return ()

    # -- lazy init ------------------------------------------------------
    def _detect_lazy_inits(self) -> None:
        """Check-then-act on ``self.<attr>`` in a lock-owning class."""
        cls = self.cls
        if cls is None or (not cls.locks and not cls.guarded):
            return
        if self.info.node.name == "__init__":
            return

        def tested_attr(test: ast.expr) -> str | None:
            # ``self.x is None`` / ``not self.x`` / ``self.x``
            if isinstance(test, ast.Compare) and isinstance(
                test.ops[0], (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)
            ):
                candidates = [test.left] + list(test.comparators)
            elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                candidates = [test.operand]
            elif isinstance(test, ast.Attribute):
                candidates = [test]
            else:
                return None
            for expr in candidates:
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    return expr.attr
            return None

        def assigns_attr(stmts: list[ast.stmt], attr: str) -> bool:
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr == attr
                    ):
                        return True
            return False

        def has_return(stmts: list[ast.stmt]) -> bool:
            return any(
                isinstance(node, ast.Return)
                for stmt in stmts
                for node in ast.walk(stmt)
            )

        def scan(stmts: list[ast.stmt], held: frozenset[str]) -> None:
            for pos, stmt in enumerate(stmts):
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    locks = frozenset(
                        lock
                        for item in stmt.items
                        for lock in [self._lock_name(item.context_expr)]
                        if lock is not None
                    )
                    scan(stmt.body, held | locks)
                    continue
                if isinstance(stmt, ast.If):
                    attr = tested_attr(stmt.test)
                    if attr is not None and not held:
                        guarded_later = assigns_attr(stmt.body, attr) or (
                            has_return(stmt.body)
                            and assigns_attr(stmts[pos + 1 :], attr)
                        )
                        if guarded_later:
                            self.info.lazy_inits.append(
                                LazyInit(
                                    attr,
                                    stmt.lineno,
                                    stmt.col_offset,
                                    held,
                                )
                            )
                    scan(stmt.body, held)
                    scan(stmt.orelse, held)
                    continue
                for body_attr in ("body", "orelse", "finalbody", "handlers"):
                    children = getattr(stmt, body_attr, None)
                    if not children:
                        continue
                    if body_attr == "handlers":
                        for handler in children:
                            scan(handler.body, held)
                    else:
                        scan(children, held)

        scan(list(self.info.node.body), frozenset())


def analyze(project: Project) -> InterprocIndex:
    """Build (or fetch the cached) interprocedural index for a project."""
    cached = getattr(project, "_interproc_index", None)
    if cached is None:
        cached = InterprocIndex(project)
        project._interproc_index = cached  # type: ignore[attr-defined]
    return cached

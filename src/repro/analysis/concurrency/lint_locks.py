"""Static lock-discipline analysis: the ``LOCK001``–``LOCK004`` rules.

The pass builds a **per-class lock model** from the AST: which instance
attributes hold locks (``self._lock = threading.Lock()`` / ``RLock`` /
``Condition``, the :func:`~repro.analysis.concurrency.locks.make_lock`
factory, or an ``__init__`` parameter named like a lock), and which
instance attributes each method reads or writes inside vs. outside
``with self._lock:`` blocks.  From the model it derives:

``LOCK001``
    An attribute written under a lock in one place is read or written
    *without* that lock elsewhere.  The guard is inferred as the
    intersection of the locksets of every locked write; methods named
    ``*_locked`` are treated as called-with-the-lock-held helpers and
    exempt (the convention the codebase uses for breaker internals).
``LOCK002``
    Two locks are nested in opposite orders somewhere in the class —
    the classic ABBA deadlock shape.  Both acquisition sites are
    flagged.
``LOCK003``
    A blocking call while holding a lock: ``time.sleep``, bare
    ``open()``, socket/subprocess entry points, file/socket methods
    (``.write``/``.flush``/``.read``/``.recv``/``.send``…),
    ``Future.result()`` / ``.wait()`` / ``.get()`` without a timeout,
    and zero-argument ``.join()``.
``LOCK004``
    A manual ``<lock>.acquire()`` whose matching ``.release()`` is not
    in a ``try/finally`` — an exception between the two leaks the lock
    forever.  Applies to known lock attributes of the class model and
    to any name containing ``lock``/``mutex``.

Like every lint rule, a finding is suppressed in place with
``# lint: allow[LOCK00x] — justification``.  The analysis is
class-local and intentionally conservative: ``__init__`` writes are
construction-time and ignored, and code inside nested functions
(thread bodies, callbacks) is skipped because its locking context is
unknowable statically — the dynamic detector covers it instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..lint import RULES, LintViolation

__all__ = ["LOCK_RULES", "LockModel", "collect_lock_violations", "build_lock_models"]

#: rule ID → one-line description, the LOCK rows of ``repro.analysis.RULES``.
LOCK_RULES: Dict[str, str] = {
    rule: text for rule, text in RULES.items() if rule.startswith("LOCK")
}

#: Constructors whose result is a lock when bound to ``self.<attr>``.
_LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition", "TracedLock"}
_LOCK_FACTORIES = {"make_lock"}

#: Container methods that mutate their receiver: a call
#: ``self.x.append(...)`` counts as a *write* of ``x``.
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popleft",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "move_to_end",
    "sort",
}

#: Method calls that block on I/O or synchronization (LOCK003).
_BLOCKING_METHODS = {
    "write",
    "flush",
    "read",
    "readline",
    "readlines",
    "recv",
    "recvfrom",
    "send",
    "sendall",
    "connect",
    "accept",
}

#: Methods that block *unless* given a timeout argument (LOCK003).
_TIMEOUT_METHODS = {"result", "wait", "get"}

#: Module roots whose calls are blocking wherever they appear (LOCK003).
_BLOCKING_ROOTS = {"socket", "subprocess", "requests", "urllib"}

#: Substrings marking a non-``self`` name as lock-like for LOCK004.
_LOCKISH = ("lock", "mutex")


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` → ``["a", "b", "c"]``; ``[]`` when not a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _self_attr(node: ast.AST) -> Optional[str]:
    """The first attribute off ``self`` in a chain, or ``None``.

    ``self.x`` → ``x``; ``self.x.y`` → ``x``; ``self.x[k]`` → ``x``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
        while isinstance(node, ast.Subscript):
            node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


@dataclass
class _Access:
    """One attribute touch: where, how, and under which locks."""

    attr: str
    write: bool
    held: Tuple[str, ...]
    line: int
    col: int
    method: str


@dataclass
class LockModel:
    """The per-class lock model the rules are derived from."""

    name: str
    line: int
    locks: Set[str]
    accesses: List[_Access]
    #: ``(outer, inner)`` → first acquisition site observed.
    order_pairs: Dict[Tuple[str, str], Tuple[int, int]]

    def guarded_attrs(self) -> Dict[str, Tuple[str, ...]]:
        """Attribute → inferred guard lockset (non-empty intersections only)."""
        guards: Dict[str, Tuple[str, ...]] = {}
        by_attr: Dict[str, List[_Access]] = {}
        for access in self.accesses:
            by_attr.setdefault(access.attr, []).append(access)
        for attr, accesses in by_attr.items():
            locked_writes = [a for a in accesses if a.write and a.held]
            if not locked_writes:
                continue
            guard = set(locked_writes[0].held)
            for access in locked_writes[1:]:
                guard &= set(access.held)
            if guard:
                guards[attr] = tuple(sorted(guard))
        return guards

    def to_dict(self) -> Dict[str, object]:
        return {
            "line": self.line,
            "locks": sorted(self.locks),
            "guarded": {
                attr: list(guard) for attr, guard in sorted(self.guarded_attrs().items())
            },
        }


class _MethodScanner:
    """Walks one method body, tracking the stack of held lock attributes."""

    def __init__(self, model: LockModel, method: str, path: str,
                 violations: List[LintViolation], sleep_aliases: Set[str]) -> None:
        self.model = model
        self.method = method
        self.path = path
        self.violations = violations
        self.sleep_aliases = sleep_aliases
        self.held: List[str] = []

    # -- statement dispatch -------------------------------------------
    def scan(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scope: locking context unknowable statically
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._scan_with(stmt)
            return
        if self._track_manual(stmt):
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_target(target, stmt)
            self._scan_expr(stmt.value)
            return
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.target is not None:
                self._record_target(stmt.target, stmt)
            if getattr(stmt, "value", None) is not None:
                self._scan_expr(stmt.value)
            if isinstance(stmt, ast.AugAssign):
                # ``self.x += 1`` also reads x, but the write already
                # records the access; the read adds nothing.
                pass
            return
        # Generic: scan child expressions, recurse into child statements.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child)
            elif isinstance(child, ast.expr):
                self._scan_expr(child)
            elif isinstance(child, (ast.excepthandler,)):
                self.scan(child.body)
            elif isinstance(child, ast.withitem):  # pragma: no cover — handled above
                self._scan_expr(child.context_expr)

    def _scan_with(self, stmt) -> None:
        entered: List[str] = []
        for item in stmt.items:
            lock_attr = self._lock_attr_of(item.context_expr)
            if lock_attr is not None:
                for outer in self.held:
                    pair = (outer, lock_attr)
                    self.model.order_pairs.setdefault(
                        pair, (item.context_expr.lineno, item.context_expr.col_offset)
                    )
                self.held.append(lock_attr)
                entered.append(lock_attr)
            else:
                self._scan_expr(item.context_expr)
        self.scan(stmt.body)
        for _ in entered:
            self.held.pop()

    def _lock_attr_of(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Attribute):
            attr = _self_attr(expr)
            if attr is not None and attr in self.model.locks:
                return attr
        return None

    def _track_manual(self, stmt: ast.stmt) -> bool:
        """Model ``self._lock.acquire()`` / ``.release()`` statements.

        Statements between the two run with the lock held, so LOCK001
        agrees with the manual pattern (LOCK004 separately polices the
        missing try/finally).  Returns True when the statement was a
        bare acquire/release and needs no further scanning.
        """
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return False
        func = stmt.value.func
        if not (isinstance(func, ast.Attribute) and func.attr in ("acquire", "release")):
            return False
        lock_attr = self._lock_attr_of(func.value)
        if lock_attr is None:
            return False
        if func.attr == "acquire":
            for outer in self.held:
                self.model.order_pairs.setdefault(
                    (outer, lock_attr), (stmt.lineno, stmt.col_offset)
                )
            self.held.append(lock_attr)
        elif lock_attr in self.held:
            # Remove the innermost matching entry (mirrors release order).
            for i in range(len(self.held) - 1, -1, -1):
                if self.held[i] == lock_attr:
                    del self.held[i]
                    break
        return True

    # -- accesses ------------------------------------------------------
    def _record(self, attr: str, write: bool, node: ast.AST) -> None:
        if attr in self.model.locks:
            return
        self.model.accesses.append(
            _Access(
                attr=attr,
                write=write,
                held=tuple(self.held),
                line=node.lineno,
                col=node.col_offset,
                method=self.method,
            )
        )

    def _record_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, stmt)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._record(attr, True, target)
        else:
            # e.g. ``local[k] = v`` — still scan for reads inside.
            self._scan_expr(target)

    def _scan_expr(self, expr: Optional[ast.expr]) -> None:
        if expr is None:
            return
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # deferred body: its locking context is the caller's
            if isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    self._record(node.attr, False, node)
            stack.extend(ast.iter_child_nodes(node))

    def _scan_call(self, node: ast.Call) -> None:
        func = node.func
        # Mutating container method on a self attribute → write access.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            attr = _self_attr(func.value)
            if attr is not None:
                self._record(attr, True, node)
        if self.held:
            self._check_blocking(node)

    # -- LOCK003 -------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            LintViolation(rule, self.path, node.lineno, node.col_offset, message)
        )

    def _has_timeout(self, node: ast.Call) -> bool:
        return bool(node.args) or any(kw.arg == "timeout" for kw in node.keywords)

    def _check_blocking(self, node: ast.Call) -> None:
        held = ", ".join(repr(name) for name in self.held)
        chain = _attr_chain(node.func)
        if chain and chain[0] in _BLOCKING_ROOTS:
            self._flag(
                "LOCK003", node,
                f"{'.'.join(chain)}() may block while holding {held}",
            )
            return
        if chain == ["time", "sleep"] or (
            len(chain) == 1 and chain[0] in self.sleep_aliases
        ):
            self._flag("LOCK003", node, f"sleep while holding {held}")
            return
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self._flag("LOCK003", node, f"file open() while holding {held}")
            return
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method in _BLOCKING_METHODS:
            self._flag(
                "LOCK003", node,
                f".{method}() I/O while holding {held}",
            )
        elif method in _TIMEOUT_METHODS and not self._has_timeout(node):
            self._flag(
                "LOCK003", node,
                f".{method}() without a timeout while holding {held}",
            )
        elif method == "join" and not node.args and not node.keywords:
            self._flag(
                "LOCK003", node,
                f".join() without a timeout while holding {held}",
            )


class _ClassCollector:
    """Builds the :class:`LockModel` of one class and scans its methods."""

    def __init__(self, node: ast.ClassDef, path: str,
                 violations: List[LintViolation], sleep_aliases: Set[str]) -> None:
        self.node = node
        self.path = path
        self.violations = violations
        self.sleep_aliases = sleep_aliases
        self.model = LockModel(
            name=node.name, line=node.lineno, locks=set(), accesses=[], order_pairs={}
        )

    def run(self) -> Optional[LockModel]:
        self._find_locks()
        if not self.model.locks:
            return None
        for item in self.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__" or item.name.endswith("_locked"):
                # Construction is single-threaded; ``*_locked`` helpers
                # run with the guard already held by their caller.
                continue
            scanner = _MethodScanner(
                self.model, item.name, self.path, self.violations, self.sleep_aliases
            )
            scanner.scan(item.body)
        self._check_lock001()
        self._check_lock002()
        return self.model

    def _find_locks(self) -> None:
        init_params: Set[str] = set()
        for item in self.node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                init_params = {
                    arg.arg
                    for arg in item.args.args + item.args.kwonlyargs
                    if arg.arg == "lock" or arg.arg.endswith("_lock")
                }
        for node in ast.walk(self.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is None or not isinstance(target, ast.Attribute):
                    continue
                if self._is_lock_value(node.value, init_params):
                    self.model.locks.add(attr)

    def _is_lock_value(self, value: ast.expr, init_params: Set[str]) -> bool:
        if isinstance(value, ast.Call):
            chain = _attr_chain(value.func)
            if chain and (
                chain[-1] in _LOCK_CONSTRUCTORS or chain[-1] in _LOCK_FACTORIES
            ):
                return True
        if isinstance(value, ast.Name) and value.id in init_params:
            # ``self._lock = lock`` with a lock-named __init__ parameter
            # (the metrics children share their family's lock this way).
            return True
        return False

    def _check_lock001(self) -> None:
        guards = self.model.guarded_attrs()
        for access in self.model.accesses:
            guard = guards.get(access.attr)
            if guard is None:
                continue
            if not set(guard) <= set(access.held):
                verb = "written" if access.write else "read"
                locks = " + ".join(repr(g) for g in guard)
                self.violations.append(
                    LintViolation(
                        "LOCK001",
                        self.path,
                        access.line,
                        access.col,
                        f"{self.model.name}.{access.attr} is guarded by {locks} "
                        f"but {verb} here without it (in {access.method})",
                    )
                )

    def _check_lock002(self) -> None:
        flagged = set()
        for (outer, inner), where in sorted(self.model.order_pairs.items()):
            reverse = (inner, outer)
            if reverse in self.model.order_pairs and (outer, inner) not in flagged:
                flagged.add((outer, inner))
                flagged.add(reverse)
                other = self.model.order_pairs[reverse]
                for pair, loc in (((outer, inner), where), (reverse, other)):
                    self.violations.append(
                        LintViolation(
                            "LOCK002",
                            self.path,
                            loc[0],
                            loc[1],
                            f"{self.model.name} acquires {pair[1]!r} while "
                            f"holding {pair[0]!r} here, but the opposite order "
                            f"exists at line {other[0] if pair == (outer, inner) else where[0]}"
                            " — ABBA deadlock risk",
                        )
                    )


class _ManualAcquireChecker(ast.NodeVisitor):
    """LOCK004: flag ``<lock>.acquire()`` not released in a ``finally``.

    Runs module-wide (manual acquisition is a smell anywhere), with a
    parent map so each candidate call can climb to its enclosing
    ``try`` and look for a matching ``.release()`` in the ``finally``.
    """

    def __init__(self, tree: ast.Module, path: str,
                 lock_attrs: Set[str], violations: List[LintViolation]) -> None:
        self.path = path
        self.lock_attrs = lock_attrs
        self.violations = violations
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            if self._is_lockish(func.value) and not self._released_in_finally(node, func.value):
                target = ".".join(_attr_chain(func.value)) or "<lock>"
                self.violations.append(
                    LintViolation(
                        "LOCK004",
                        self.path,
                        node.lineno,
                        node.col_offset,
                        f"manual {target}.acquire() without a try/finally "
                        f"{target}.release(); prefer 'with {target}:'",
                    )
                )
        self.generic_visit(node)

    def _is_lockish(self, base: ast.expr) -> bool:
        attr = _self_attr(base)
        if attr is not None and attr in self.lock_attrs:
            return True
        chain = _attr_chain(base)
        last = chain[-1].lower() if chain else ""
        return any(mark in last for mark in _LOCKISH)

    def _released_in_finally(self, node: ast.AST, base: ast.expr) -> bool:
        wanted = _attr_chain(base)
        # Case 1: the acquire sits inside a try whose finally releases.
        current = node
        while current in self.parents:
            parent = self.parents[current]
            if isinstance(parent, ast.Try) and self._finally_releases(parent, wanted):
                return True
            current = parent
        # Case 2: the canonical ``acquire(); try: ... finally: release()``
        # — the acquire is the *sibling* immediately before the try.
        stmt: ast.AST = node
        while stmt in self.parents and not isinstance(stmt, ast.stmt):
            stmt = self.parents[stmt]
        sibling = self._next_sibling(stmt)
        return isinstance(sibling, ast.Try) and self._finally_releases(sibling, wanted)

    def _finally_releases(self, try_stmt: ast.Try, wanted: List[str]) -> bool:
        for final_stmt in try_stmt.finalbody:
            for call in ast.walk(final_stmt):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "release"
                    and _attr_chain(call.func.value) == wanted
                ):
                    return True
        return False

    def _next_sibling(self, stmt: ast.AST) -> Optional[ast.AST]:
        parent = self.parents.get(stmt)
        if parent is None:
            return None
        for _name, value in ast.iter_fields(parent):
            if isinstance(value, list) and stmt in value:
                index = value.index(stmt)
                if index + 1 < len(value):
                    return value[index + 1]
        return None


def _collect_sleep_aliases(tree: ast.Module) -> Set[str]:
    """Names bound to ``time.sleep`` via ``from time import sleep [as s]``."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    aliases.add(alias.asname or "sleep")
    return aliases


def build_lock_models(tree: ast.Module, path: str = "<string>") -> Dict[str, LockModel]:
    """The per-class lock models of one module (classes with locks only)."""
    models: Dict[str, LockModel] = {}
    sleep_aliases = _collect_sleep_aliases(tree)
    scratch: List[LintViolation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            model = _ClassCollector(node, path, scratch, sleep_aliases).run()
            if model is not None:
                models[node.name] = model
    return models


def collect_lock_violations(tree: ast.Module, path: str) -> List[LintViolation]:
    """Run LOCK001–LOCK004 over one parsed module."""
    violations: List[LintViolation] = []
    sleep_aliases = _collect_sleep_aliases(tree)
    lock_attrs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            model = _ClassCollector(node, path, violations, sleep_aliases).run()
            if model is not None:
                lock_attrs |= model.locks
    _ManualAcquireChecker(tree, path, lock_attrs, violations).visit(tree)
    return violations

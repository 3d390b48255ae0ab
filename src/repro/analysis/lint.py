"""AST-based discipline linter for the repro codebase.

Rules encode the invariants this reproduction depends on — determinism
through injected RNGs, float64 discipline in the substrate, and no
silent mutation of tape-recorded arrays:

========  ==============================================================
Rule      Meaning
========  ==============================================================
RNG001    Legacy global NumPy RNG call (``np.random.<fn>``).  Only
          injected ``np.random.Generator`` instances are allowed; global
          state breaks run-to-run determinism.
RNG002    Stdlib ``random`` module call.  Same reason as RNG001.
TIME001   Wall-clock read (``time.time()`` / ``datetime.now()``).
          Timestamps belong in the observability layer; anywhere else
          they are a hidden nondeterminism source.
DTYPE001  ``np.array``/``np.asarray`` without an explicit ``dtype``
          inside :mod:`repro.nn` — the substrate is float64-only and an
          inferred dtype silently downgrades the tape.
MUT001    Assignment to a ``.data`` attribute (``t.data = …``,
          ``t.data += …``, ``t.data[i] = …``).  Rebinding tape-recorded
          arrays invalidates recorded gradients; only optimizers may do
          it, at sites annotated with a justification.
MUT002    Call-based in-place write to a ``.data`` array: an ``out=``
          argument targeting ``.data`` (``np.subtract(…, out=p.data)``),
          ``np.copyto(p.data, …)``, a ufunc ``.at`` on ``.data``, or a
          mutating ndarray method (``p.data.fill(…)``, ``.sort()``, …).
          These bypass the version-counter bump the assignment setter
          performs, so the graph validator and the fused BiLSTM's
          backward cannot see the mutation.  Only the optimizer's one
          update site, ``repro.nn.optim._descend`` (which calls
          ``bump_version()`` itself), is whitelisted.
LOCK001   Shared attribute accessed both under and outside the lock
          that guards it elsewhere in the class (see
          :mod:`repro.analysis.concurrency.lint_locks`).
LOCK002   Two locks acquired in opposite nesting orders within one
          class — the ABBA deadlock shape.
LOCK003   Blocking call (I/O, ``sleep``, ``result``/``wait``/``join``
          without a timeout) while holding a lock.
LOCK004   Manual ``acquire()`` whose ``release()`` is not in a
          ``try/finally``.
========  ==============================================================

The ``LOCK00x`` rules live in
:mod:`repro.analysis.concurrency.lint_locks` and run on every module
except the concurrency package itself (which manipulates locks by
design).

A violation is suppressed by appending ``# lint: allow[RULE001]`` (one
or more comma-separated rule IDs) to the offending line, which is how
the optimizer update site is whitelisted.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Union

__all__ = ["RULES", "LintViolation", "LintReport", "lint_source", "lint_paths"]

#: rule ID → one-line description (rendered by ``--lint`` and the docs).
#: LOCK001–LOCK004 are checked by :mod:`.concurrency.lint_locks`; their
#: descriptions live here so the catalogue is complete whatever module
#: is imported first.
RULES: Dict[str, str] = {
    "RNG001": "legacy global NumPy RNG call; inject an np.random.Generator instead",
    "RNG002": "stdlib random module call; inject an np.random.Generator instead",
    "TIME001": "wall-clock read (time.time/datetime.now); confine timestamps to repro.obs",
    "DTYPE001": "dtype-less np.array/np.asarray in repro.nn; the substrate is float64-only",
    "MUT001": "assignment to a Tensor .data attribute outside a whitelisted optimizer site",
    "MUT002": "call-based in-place write to a .data array outside the whitelisted optimizer site",
    "LOCK001": "shared attribute accessed both under and outside its guarding lock",
    "LOCK002": "inconsistent lock acquisition order across methods (potential deadlock)",
    "LOCK003": "blocking call (I/O, sleep, result/wait without timeout) while holding a lock",
    "LOCK004": "manual lock acquire() without a try/finally release",
}

#: ndarray methods that mutate in place — targets for MUT002 when
#: invoked directly on a ``.data`` attribute.
_MUTATING_ARRAY_METHODS = {
    "fill",
    "sort",
    "partition",
    "put",
    "itemset",
    "setfield",
    "resize",
    "byteswap",
}

#: np.random attributes that construct the *new-style* API and are fine.
_GENERATOR_API = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "SFC64",
    "MT19937",
}

_PRAGMA = re.compile(r"#\s*lint:\s*allow\[([A-Z0-9_,\s]+)\]")


@dataclass
class LintViolation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Outcome of :func:`lint_paths` / :func:`lint_source`."""

    violations: List[LintViolation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
        }


def _attribute_chain(node: ast.AST) -> List[str]:
    """``np.random.rand`` → ["np", "random", "rand"]; [] when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, in_nn: bool) -> None:
        self.path = path
        self.in_nn = in_nn
        self.violations: List[LintViolation] = []
        self.numpy_aliases: Set[str] = {"np", "numpy"}
        self.imports_stdlib_random = False

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            LintViolation(rule, self.path, node.lineno, node.col_offset, message)
        )

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            if alias.name == "random":
                self.imports_stdlib_random = True
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            names = ", ".join(alias.name for alias in node.names)
            self._flag("RNG002", node, f"imports from stdlib random ({names})")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if len(chain) >= 3 and chain[0] in self.numpy_aliases and chain[1] == "random":
            if chain[2] not in _GENERATOR_API:
                self._flag(
                    "RNG001",
                    node,
                    f"call to {'.'.join(chain)} uses the global NumPy RNG",
                )
        elif (
            len(chain) == 2
            and chain[0] == "random"
            and self.imports_stdlib_random
        ):
            self._flag("RNG002", node, f"call to {'.'.join(chain)} uses stdlib random")
        elif len(chain) >= 2 and chain[-2:] == ["time", "time"]:
            self._flag("TIME001", node, "time.time() reads the wall clock")
        elif len(chain) >= 2 and chain[-1] in ("now", "utcnow") and "datetime" in chain[:-1]:
            self._flag("TIME001", node, f"datetime.{chain[-1]}() reads the wall clock")
        elif (
            self.in_nn
            and len(chain) == 2
            and chain[0] in self.numpy_aliases
            and chain[1] in ("array", "asarray", "asanyarray")
            and not any(kw.arg == "dtype" for kw in node.keywords)
            and len(node.args) < 2  # positional dtype counts as explicit
        ):
            self._flag(
                "DTYPE001",
                node,
                f"{'.'.join(chain)} without an explicit dtype in repro.nn",
            )
        self._check_call_mutation(node, chain)
        self.generic_visit(node)

    def _check_call_mutation(self, node: ast.Call, chain: List[str]) -> None:
        """MUT002: call-based in-place writes to ``.data`` arrays."""
        for kw in node.keywords:
            if kw.arg == "out" and self._out_hits_data(kw.value):
                self._flag(
                    "MUT002",
                    node,
                    "out= argument writes into a .data array in place",
                )
                return
        func = node.func
        if (
            len(chain) == 2
            and chain[0] in self.numpy_aliases
            and chain[1] in ("copyto", "place", "putmask", "put")
            and node.args
            and self._is_data_target(node.args[0])
        ):
            self._flag("MUT002", node, f"np.{chain[1]} writes into a .data array")
            return
        if isinstance(func, ast.Attribute):
            if (
                func.attr == "at"
                and node.args
                and self._is_data_target(node.args[0])
            ):
                self._flag("MUT002", node, "ufunc .at scatters into a .data array")
            elif func.attr in _MUTATING_ARRAY_METHODS and self._is_data_target(
                func.value
            ):
                self._flag(
                    "MUT002",
                    node,
                    f".data.{func.attr}() mutates a tape-recorded array",
                )

    def _out_hits_data(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Tuple):
            return any(self._is_data_target(elt) for elt in value.elts)
        return self._is_data_target(value)

    # -- .data mutation ------------------------------------------------
    def _is_data_target(self, target: ast.AST) -> bool:
        if isinstance(target, ast.Attribute) and target.attr == "data":
            return True
        if isinstance(target, ast.Subscript):
            return self._is_data_target(target.value)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(self._is_data_target(t) for t in node.targets):
            self._flag("MUT001", node, "assigns to a .data attribute")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._is_data_target(node.target):
            self._flag("MUT001", node, "augmented assignment to a .data attribute")
        self.generic_visit(node)


def _allowed_rules(line: str) -> Set[str]:
    match = _PRAGMA.search(line)
    if not match:
        return set()
    return {rule.strip() for rule in match.group(1).split(",") if rule.strip()}


def lint_source(source: str, path: str = "<string>") -> List[LintViolation]:
    """Lint one module's source text; returns pragma-filtered violations."""
    parts = Path(path).parts
    in_nn = "nn" in parts
    in_concurrency = "concurrency" in parts
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                "SYNTAX", path, exc.lineno or 0, exc.offset or 0, f"unparsable: {exc.msg}"
            )
        ]
    visitor = _Visitor(path, in_nn)
    visitor.visit(tree)
    if not in_concurrency:
        # Deferred import: lint_locks needs LintViolation from this module.
        # The concurrency package itself is exempt — it is the sanctioned
        # engine for raw lock manipulation.
        from .concurrency.lint_locks import collect_lock_violations

        visitor.violations.extend(collect_lock_violations(tree, path))
    lines = source.splitlines()
    kept = []
    for violation in visitor.violations:
        line = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        if violation.rule not in _allowed_rules(line):
            kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col))
    return kept


def _iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            files.extend(
                p
                for p in sorted(root.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        elif root.suffix == ".py":
            files.append(root)
        else:
            raise FileNotFoundError(f"lint target {root} is not a .py file or directory")
    return files


def lint_paths(paths: Sequence[Union[str, Path]]) -> LintReport:
    """Lint every ``.py`` file under the given files/directories."""
    report = LintReport()
    for path in _iter_python_files(paths):
        report.files_checked += 1
        report.violations.extend(lint_source(path.read_text(), str(path)))
    return report

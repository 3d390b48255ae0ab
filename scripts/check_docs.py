#!/usr/bin/env python
"""Lint docs against code: every reference must resolve.

Scans ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``
for three kinds of references and verifies each against the actual
repository, so documentation cannot rot silently:

1. **Dotted ``repro...`` names** inside backticks — ``repro.core.RRRETrainer``,
   ``repro.data.load_dataset(...)``.  The longest importable module
   prefix is imported and the remaining attributes are resolved with
   ``getattr``.
2. **Repository paths** inside backticks — ``src/repro/obs/timers.py``,
   ``benchmarks/out/`` — must exist (globs are expanded; a glob is fine
   as long as the directory part exists).
3. **Relative markdown links** — ``[text](docs/nn_api.md)`` — must point
   at existing files.

Against the real repository it additionally checks that the documents in
:data:`REQUIRED_DOCS` exist and that the CLI subcommand catalogue
(``repro.__main__.SUBCOMMANDS``) covers every registered experiment and
is itself covered by the docs (:func:`check_cli`).

Exit status 0 when everything resolves; 1 otherwise, with one line per
problem.  Wired into the test suite by ``tests/test_docs.py``; run
directly with ``python scripts/check_docs.py``.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files scanned, relative to the repository root.
DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: Documents that MUST exist — a rename or deletion fails the lint
#: instead of silently shrinking coverage.
REQUIRED_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/architecture.md",
    "docs/nn_api.md",
    "docs/observability.md",
    "docs/resilience.md",
    "docs/analysis.md",
    "docs/serving.md",
    "docs/serving_resilience.md",
    "docs/execution_plan.md",
)

#: A dotted name rooted at the package, e.g. ``repro.nn.functional.relu``.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Backtick spans (no nested backticks).
CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: Fenced code blocks — handled separately so their ``` delimiters do not
#: scramble the inline-span pairing in the surrounding prose.
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)

#: A path-looking backtick span rooted at a known top-level directory.
PATH_RE = re.compile(
    r"^(?:src|docs|tests|benchmarks|examples|scripts)(?:/[\w*.\-]+)*/?$"
)

#: Relative markdown link targets: [text](target) — skips http(s) and anchors.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")


def doc_files(root: Path = REPO_ROOT) -> List[Path]:
    """The markdown files this linter covers."""
    files: List[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    return files


def resolve_dotted(name: str) -> Tuple[bool, str]:
    """Import the longest module prefix of ``name``, getattr the rest."""
    parts = name.split(".")
    module = None
    index = len(parts)
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ImportError:
            index -= 1
    if module is None:
        return False, f"cannot import any prefix of {name!r}"
    obj = module
    for attr in parts[index:]:
        if not hasattr(obj, attr):
            return False, f"{name!r}: {'.'.join(parts[:index])} has no attribute {attr!r}"
        obj = getattr(obj, attr)
    return True, ""


def check_path(ref: str, root: Path) -> Tuple[bool, str]:
    """Verify a repository-relative path reference (globs allowed)."""
    cleaned = ref.rstrip("/")
    if "*" in cleaned:
        directory = cleaned.rsplit("/", 1)[0]
        if not (root / directory).exists():
            return False, f"glob {ref!r}: directory {directory!r} missing"
        return True, ""
    if not (root / cleaned).exists():
        return False, f"path {ref!r} does not exist"
    return True, ""


def iter_references(text: str) -> Iterable[Tuple[str, str]]:
    """Yield ``(kind, reference)`` pairs found in markdown ``text``.

    Kinds: ``"dotted"`` (python name), ``"path"`` (repo file), ``"link"``
    (markdown link target).

    Fenced code blocks are scanned for dotted names only (their content
    is code, not prose), then stripped so the remaining inline backtick
    spans pair up correctly.
    """
    for block in FENCE_RE.findall(text):
        for dotted in DOTTED_RE.findall(block):
            yield "dotted", dotted
    text = FENCE_RE.sub("", text)
    for span in CODE_SPAN_RE.findall(text):
        span = span.strip()
        if PATH_RE.match(span):
            yield "path", span
            continue
        for dotted in DOTTED_RE.findall(span):
            yield "dotted", dotted
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield "link", target


def check_file(path: Path, root: Path = REPO_ROOT) -> List[str]:
    """Return a list of problems found in one markdown file."""
    problems: List[str] = []
    text = path.read_text(encoding="utf-8")
    seen = set()
    for kind, ref in iter_references(text):
        if (kind, ref) in seen:
            continue
        seen.add((kind, ref))
        if kind == "dotted":
            ok, why = resolve_dotted(ref)
        elif kind == "path":
            ok, why = check_path(ref, root)
        else:  # link — resolve relative to the file's own directory
            target = (path.parent / ref).resolve()
            ok = target.exists()
            why = f"broken link {ref!r}"
        if not ok:
            problems.append(f"{path.relative_to(root)}: {why}")
    return problems


def check_cli(root: Path = REPO_ROOT) -> List[str]:
    """Cross-check the CLI subcommand catalogue against the docs.

    Ensures ``python -m repro --help`` cannot drift: every registered
    experiment must be catalogued in ``repro.__main__.SUBCOMMANDS`` with
    a non-empty one-line description, and every non-experiment
    subcommand must be mentioned somewhere in ``README.md`` or
    ``docs/``.
    """
    cli = importlib.import_module("repro.__main__")
    problems: List[str] = []
    for name in cli.EXPERIMENTS:
        if name not in cli.SUBCOMMANDS:
            problems.append(
                f"CLI: experiment {name!r} missing from SUBCOMMANDS catalogue"
            )
    for name, description in cli.SUBCOMMANDS.items():
        if not str(description).strip():
            problems.append(f"CLI: subcommand {name!r} has an empty description")
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in doc_files(root))
    for name in sorted(set(cli.SUBCOMMANDS) - set(cli.EXPERIMENTS)):
        if name not in corpus:
            problems.append(
                f"CLI: subcommand {name!r} is not mentioned in README.md or docs/"
            )
    return problems


def check_repo(root: Path = REPO_ROOT, required: Tuple[str, ...] = None) -> List[str]:
    """Lint every covered markdown file; returns all problems.

    ``required`` defaults to :data:`REQUIRED_DOCS` when linting the real
    repository and to nothing for ad-hoc roots (the linter's own tests);
    the CLI catalogue cross-check likewise runs only against the real
    repository.
    """
    if required is None:
        required = REQUIRED_DOCS if root == REPO_ROOT else ()
    problems: List[str] = []
    for name in required:
        if not (root / name).exists():
            problems.append(f"{name}: required document is missing")
    for path in doc_files(root):
        problems.extend(check_file(path, root))
    if root == REPO_ROOT:
        problems.extend(check_cli(root))
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = check_repo()
    for problem in problems:
        print(problem, file=sys.stderr)
    files = len(doc_files())
    if problems:
        print(f"check_docs: {len(problems)} problem(s) across {files} file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({files} markdown file(s) verified)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Public-API hygiene: imports, __all__ consistency, CLI, docstrings."""

import importlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.text",
    "repro.data",
    "repro.core",
    "repro.baselines",
    "repro.metrics",
    "repro.eval",
    "repro.analysis",
    "repro.serve",
    "repro.obs",
    "repro.resilience",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for entry in getattr(module, "__all__", []):
        assert hasattr(module, entry), f"{name}.__all__ lists missing {entry!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_objects_documented(name):
    import inspect

    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    for entry in getattr(module, "__all__", []):
        obj = getattr(module, entry)
        # Classes and plain functions must carry docstrings; constants
        # and typing aliases are exempt.
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{entry} lacks a docstring"


def test_analysis_exports():
    """The four analysis entry points are importable from repro.analysis."""
    import repro.analysis as analysis

    for entry in ("check_shapes", "validate_graph", "gradcheck", "lint_paths"):
        assert entry in analysis.__all__, f"repro.analysis.__all__ misses {entry!r}"
        assert callable(getattr(analysis, entry))


class TestCLI:
    def test_list_command(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "table3" in result.stdout
        assert "fig2" in result.stdout

    def test_unknown_experiment_rejected(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "table99"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0

    def test_version_exposed(self):
        import repro

        assert repro.__version__

"""Lazy re-exports for package ``__init__`` files (PEP 562).

A package keeps its ``__all__`` and maps each public name to the
submodule that defines it.  :func:`lazy_exports` turns that map into the
module-level ``__getattr__`` and ``__dir__`` hooks, so a name's submodule
is imported the first time the name is read.  A process then imports
only the code it runs: the HTTP server never loads the trainer, scipy or
the analysis passes (``docs/architecture.md``, "Dependency rules").

An exported name must not also be the name of one of the package's
submodules.  Importing a submodule binds it as an attribute of its
package, and from then on the package's ``__getattr__`` is never asked
for that name.  This is why the gradient checker lives in
``analysis/gradient_check.py`` and the tokenizer in
``text/tokenizer.py``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, submodules: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``submodules`` maps a relative submodule name (``".config"``) to the
    public names it defines.  A resolved name is stored on the package,
    so later reads skip the hook.  Any other attribute that names a
    submodule imports it.
    """
    exports = {name: module for module, names in submodules.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            # A submodule read as an attribute (``repro.core.trainer``)
            # still loads, as it did when the package imported everything.
            if find_spec(f"{package}.{name}") is None:
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            return import_module(f".{name}", package)
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__

"""Each process imports only the code it runs.

Package ``__init__`` files resolve their public names on first access
(``repro._lazy``), so serving never loads the trainer, the model, the
data layer, scipy or the analysis passes, and training never loads
scipy.  Every check runs in a fresh interpreter: ``sys.modules``
of the test process already holds everything.
"""

import pytest

from tests.helpers import fresh

#: Training, experiment and analysis code that serving must not import.
SERVE_FORBIDDEN = (
    "scipy",
    "networkx",
    "repro.core.trainer",
    "repro.text.embeddings",
    "repro.analysis.gradient_check",
    "repro.analysis.graph",
    "repro.analysis.lint",
    "repro.analysis.shapes",
    "repro.baselines",
    "repro.eval",
    "repro.nn",
    "repro.data",
)

#: Packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.text",
    "repro.analysis",
    "repro.analysis.concurrency",
    "repro.eval",
    "repro.obs",
)


def loaded_after(statement: str):
    return set(fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def test_serve_loads_no_training_code():
    loaded = loaded_after("from repro.serve import make_server")
    leaked = sorted(
        name
        for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in SERVE_FORBIDDEN)
    )
    assert leaked == []


def test_training_loads_no_scipy():
    # scipy backs only PPMI-SVD and the baselines; skip-gram is numpy.
    loaded = loaded_after(
        """
from repro.core import RRRETrainer
from repro.data import load_dataset, train_test_split
from repro.eval import bench_rrre_config
from repro.serve import export_store
dataset = load_dataset("yelpchi", scale=0.15)
train, _ = train_test_split(dataset)
trainer = RRRETrainer(bench_rrre_config(epochs=1, pretrain_words=True)).fit(dataset, train)
export_store(trainer)
"""
    )
    assert sorted(name for name in loaded if name.split(".")[0] in ("scipy", "networkx")) == []


def test_bare_package_import_loads_no_subpackage():
    loaded = loaded_after("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


def test_cli_module_loads_no_experiment_code():
    loaded = loaded_after("import repro.__main__")
    for banned in ("repro.eval", "repro.baselines", "networkx"):
        assert banned not in loaded


def test_training_config_loads_no_experiment_code():
    # perfbench's train-yelp process reads the benchmark config this way.
    loaded = loaded_after("from repro.eval import bench_rrre_config")
    for banned in ("repro.baselines", "networkx", "repro.eval.experiments"):
        assert not any(name == banned or name.startswith(banned + ".") for name in loaded)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_are_their_defining_objects(package):
    # Read every name through the package, then find it in a submodule.
    # A submodule named like an export would shadow it: the package
    # attribute would become the module.
    report = fresh(
        f"""
import importlib, json, sys, types
package = importlib.import_module({package!r})
values = {{name: getattr(package, name) for name in package.__all__}}
children = [m for n, m in sys.modules.items() if n.rpartition(".")[0] == package.__name__]
mismatched = []
for name, value in values.items():
    if package.__name__ == "repro":
        ok = name == "__version__" or value is sys.modules.get("repro." + name)
    else:
        defined_here = getattr(value, "__module__", None) == package.__name__
        ok = not isinstance(value, types.ModuleType) and (
            defined_here or any(vars(child).get(name) is value for child in children)
        )
    if not ok:
        mismatched.append(name)
missing = sorted(set(package.__all__) - set(dir(package)))
print(json.dumps({{"mismatched": mismatched, "missing": missing}}))
"""
    )
    assert report == {"mismatched": [], "missing": []}


@pytest.mark.parametrize("package", LAZY_PACKAGES[1:])
def test_no_export_shares_a_submodule_name(package):
    import importlib
    import pkgutil

    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert submodules & set(module.__all__) == set()


def test_submodules_resolve_as_attributes():
    # perfbench wraps these module globals through vars(repro.core.trainer).
    report = fresh(
        """
import json, repro.core
trainer = repro.core.trainer
names = [trainer.__name__] + [name in vars(trainer) for name in ("train_skipgram", "iter_batches")]
print(json.dumps(names))
"""
    )
    assert report == ["repro.core.trainer", True, True]


def test_unknown_attribute_raises_attribute_error():
    import repro.core

    assert not hasattr(repro.core, "no_such_name")
    assert not hasattr(repro, "no_such_name")

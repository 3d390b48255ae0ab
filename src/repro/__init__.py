"""repro — reproduction of "Reliable Recommendation with Review-level
Explanations" (RRRE, ICDE 2021).

Subpackages
-----------
``repro.nn``
    From-scratch autograd + neural-network substrate (numpy).  The
    BiLSTM review encoder and the attention softmax run as fused tape
    nodes (see ``docs/execution_plan.md``).
``repro.text``
    Tokenization, vocabulary, pretrained word vectors.
``repro.data``
    Review data model, platform simulator, dataset presets, loaders.
``repro.core``
    The RRRE model, trainer, and recommendation/explanation pipeline.
``repro.baselines``
    PMF, DeepCoNN, NARRE, DER (rating); ICWSM13, SpEagle+, REV2
    (reliability).
``repro.metrics``
    bRMSE, RMSE, AUC, Average Precision, NDCG@k.
``repro.eval``
    Experiment protocol and one runner per paper table/figure.
``repro.obs``
    Observability: trace spans, metrics, per-layer profiling hooks,
    structured run reports (see ``docs/observability.md``).
``repro.resilience``
    Fault tolerance: atomic checkpoint/resume, divergence rollback,
    deterministic chaos testing (see ``docs/resilience.md``).
``repro.analysis``
    Static analysis: symbolic shape checking, autograd-graph
    validation, per-layer gradient checks, and the repo discipline
    linter (see ``docs/analysis.md``).

Subpackages and their public names load on first access, so a process
imports only the code it runs (``docs/architecture.md``).

Quickstart
----------
>>> from repro.data import load_dataset, train_test_split
>>> from repro.core import RRRETrainer, fast_config
>>> dataset = load_dataset("yelpchi", seed=0, scale=0.3)
>>> train, test = train_test_split(dataset, seed=0)
>>> trainer = RRRETrainer(fast_config(epochs=3)).fit(dataset, train)
>>> metrics = trainer.evaluate(test)
"""

__version__ = "1.0.0"

from importlib import import_module

__all__ = [
    "analysis",
    "baselines",
    "core",
    "data",
    "eval",
    "metrics",
    "nn",
    "obs",
    "resilience",
    "text",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

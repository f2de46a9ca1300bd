"""kktgen: data-free conditional sample generation from a classifier.

A pre-trained max-margin classifier's parameters satisfy the KKT
stationarity and complementary-slackness conditions over its training
distribution.  This package reconstructs a conditional generator (and a
multiplier network) so that the generated distribution makes those same
conditions hold — no training data required.  See README.md for the
pipeline and the `kktgen` command-line entry point.

The package namespace is the README's Python API plus ``RunConfig``;
every other name is imported from the module that defines it.  The names
load with their module on first use (PEP 562), so importing the package
loads no numpy: ``kktgen.cli`` sets the BLAS thread count before numpy
starts its thread pool.
"""

import importlib

__version__ = "0.1.0"

# each public name, with the module that defines it
_MODULE_OF = {
    "ClassifierBundle": "training", "ClassifierTrainConfig": "training",
    "GeneratorSpec": "models", "GeneratorTrainConfig": "training",
    "MlpSpec": "models", "MultiplierSpec": "models",
    "RunConfig": "config", "circle_dataset": "datasets",
    "estimate_profile": "homogeneity", "sample": "training",
    "train_classifier": "training", "train_generator": "training",
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                            __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

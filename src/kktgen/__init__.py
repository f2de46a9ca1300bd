"""kktgen: data-free conditional sample generation from a classifier.

A pre-trained max-margin classifier's parameters satisfy the KKT
stationarity and complementary-slackness conditions over its training
distribution.  This package reconstructs a conditional generator (and a
multiplier network) so that the generated distribution makes those same
conditions hold — no training data required.  See README.md for the
pipeline and the `kktgen` command-line entry point.

The names below load with their module on first use (PEP 562), so
importing the package loads no numpy: ``kktgen.cli`` sets the BLAS
thread count before numpy starts its thread pool.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_SOURCES = {
    "config": ("ConfigError", "RunConfig"),
    "datasets": ("CoverageReport", "LabeledDataset", "circle_dataset",
                 "coverage_report", "nearest_neighbor", "pattern_dataset",
                 "split_dataset"),
    "homogeneity": ("QuasiHomogeneousProfile", "estimate_profile",
                    "lambda_bar", "scale_params", "solve_lambda",
                    "verify_lambda"),
    "kkt": ("kkt_residual_oracle", "margins_np"),
    "models": ("GeneratorSpec", "MlpSpec", "MultiplierSpec",
               "ParameterVector", "deserialize_params", "init_kaiming",
               "serialize_params"),
    "training": ("ClassifierBundle", "ClassifierTrainConfig",
                 "ConvergenceError", "GeneratorTrainConfig",
                 "GeneratorTrainState", "TrainingAborted", "refine_margins",
                 "sample", "train_classifier", "train_generator"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}
# the submodules the eager imports of these names loaded with them
_SUBMODULES = ("autodiff", "config", "datasets", "homogeneity", "kernels",
               "kkt", "models", "training")

__all__ = [
    "ClassifierBundle", "ClassifierTrainConfig", "ConfigError",
    "ConvergenceError", "CoverageReport", "GeneratorSpec",
    "GeneratorTrainConfig", "GeneratorTrainState", "LabeledDataset",
    "MlpSpec", "MultiplierSpec", "ParameterVector",
    "QuasiHomogeneousProfile", "RunConfig", "TrainingAborted",
    "circle_dataset", "coverage_report", "deserialize_params",
    "estimate_profile", "init_kaiming",
    "kkt_residual_oracle", "lambda_bar", "margins_np", "nearest_neighbor",
    "pattern_dataset", "refine_margins", "sample",
    "scale_params", "serialize_params",
    "solve_lambda", "split_dataset", "train_classifier",
    "train_generator", "verify_lambda",
]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    globals()[name] = value
    return value


def __dir__():
    hidden = {"importlib", "_SOURCES", "_MODULE_OF", "_SUBMODULES",
              "__getattr__", "__dir__"}
    return sorted((set(globals()) - hidden) | set(__all__)
                  | set(_SUBMODULES))

"""kktgen: data-free conditional sample generation from a classifier.

A pre-trained max-margin classifier's parameters satisfy the KKT
stationarity and complementary-slackness conditions over its training
distribution.  This package reconstructs a conditional generator (and a
multiplier network) so that the generated distribution makes those same
conditions hold — no training data required.  See README.md for the
pipeline and the `kktgen` command-line entry point.
"""

from .config import ConfigError, RunConfig
from .datasets import (CoverageReport, LabeledDataset, circle_dataset,
                       coverage_report, nearest_neighbor, pattern_dataset,
                       split_dataset)
from .homogeneity import (QuasiHomogeneousProfile, estimate_profile,
                          lambda_bar, scale_params, solve_lambda,
                          verify_lambda)
from .kkt import kkt_residual_oracle, margins_np
from .models import (GeneratorSpec, MlpSpec, MultiplierSpec,
                     ParameterVector, deserialize_params, init_kaiming,
                     serialize_params)
from .training import (ClassifierBundle, ClassifierTrainConfig,
                       ConvergenceError, GeneratorTrainConfig,
                       GeneratorTrainState, TrainingAborted, refine_margins,
                       sample, train_classifier, train_generator)

__version__ = "0.1.0"

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

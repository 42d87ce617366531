"""Short-term electricity demand forecasting models and benchmark tools.

The package compares four approaches to half-hourly demand prediction:
an evolving fuzzy neural network that learns in a single pass, a
feedforward network trained by backpropagation with momentum or by
scaled conjugate gradient, and a seasonal Box-Jenkins model. The
dataset module supplies the feature encoding and a synthetic generator;
bench runs all of them under one sampling protocol.
"""

__version__ = "0.1.0"

from .bench import ExperimentConfig, emit_report, run_experiment
from .dataset import SynthConfig, parse_csv, synthesize, write_csv
from .efunn import EfunnConfig, EfunnModel
from .errors import (ConfigError, ConvergenceError, DataError, DegenerateError,
                     DemandcastError, DivergenceError, EmptyModelError,
                     GapError, ParseError, ShapeError)
from .fuzzy import MembershipPartition, build_partition, defuzzify, fuzzify
from .mlp import BpConfig, MlpModel, bp_train, init_mlp, scg_minimize, scg_train

__all__ = [
    "__version__",
    "BpConfig", "ConfigError", "ConvergenceError", "DataError",
    "DegenerateError", "DemandcastError", "DivergenceError", "EfunnConfig",
    "EfunnModel", "EmptyModelError", "ExperimentConfig", "GapError",
    "MembershipPartition", "MlpModel", "ParseError", "ShapeError",
    "SynthConfig", "bp_train", "build_partition", "defuzzify", "emit_report",
    "fuzzify", "init_mlp", "parse_csv", "run_experiment", "scg_minimize",
    "scg_train", "synthesize", "write_csv",
]

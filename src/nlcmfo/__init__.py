"""Moth-flame optimization toolkit.

Two spiral-flight optimizers (the classic moth-flame algorithm and a
chaos-driven Levy-flight variant), PSO and GWO baselines, a 23-function
benchmark suite with a composite-function plugin point, a batch experiment
harness with CSV export, and a hyperparameter tuner for a small
gradient-trained classifier.
"""

from .benchmarks import (BenchmarkFunction, CompositeCollisionError,
                         CompositeUnavailableError, UnknownFunctionError,
                         clear_composites, load_composite_pack, lookup,
                         register_composite)
from .engine import (EngineConfig, ObjectiveError, RunResult, flame_count,
                     run)
from .harness import (ConfigError, ExperimentConfig, ExperimentResult,
                      export_experiment, load_experiment_config,
                      run_experiment, summarize)
from .hypertune import (ConfusionCounts, HyperParams, MetricsReport,
                        ToyDataset, ToyLogisticClassifier, TuneResult,
                        confusion, decode_hyperparams, evaluate_L_D,
                        make_toy_dataset, metrics, roc_auc, roc_points,
                        train_toy_model, tune)
from .space import SearchSpace
from .stochastic import ChaoticMap, LevySampler, levy_sigma_x, make_rng

__version__ = "0.1.0"

__all__ = [
    "BenchmarkFunction", "ChaoticMap",
    "CompositeCollisionError", "CompositeUnavailableError", "ConfigError",
    "ConfusionCounts", "EngineConfig", "ExperimentConfig", "ExperimentResult",
    "HyperParams", "LevySampler", "MetricsReport",
    "ObjectiveError", "RunResult",
    "SearchSpace", "ToyDataset", "ToyLogisticClassifier", "TuneResult",
    "UnknownFunctionError", "clear_composites", "confusion",
    "decode_hyperparams", "evaluate_L_D",
    "export_experiment", "flame_count", "levy_sigma_x",
    "load_composite_pack", "load_experiment_config", "lookup", "make_rng",
    "make_toy_dataset", "metrics", "register_composite", "roc_auc",
    "roc_points", "run", "run_experiment", "summarize",
    "train_toy_model", "tune", "__version__",
]

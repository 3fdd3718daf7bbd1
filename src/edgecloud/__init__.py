"""Edge-cloud collaborative inference simulator.

Trains small edge/cloud/adapter networks on synthetic data, routes samples
through confidence-threshold policies (edge-only, adapted-feature offload,
or full-cloud fallback), scores the communication/computation/performance
trade-offs, and extracts Pareto frontiers.
"""

from .nncore import (ConfigError, GradientTape, LayerSpec, Param, UsageError,
                     adjoints, dense, flops, forward, residual_block)
from .models import (AdapterSpec, ModelSpec, adapt, cloud_tail, confidence,
                     feedforward, infer, infer_with_tap, make_adapter, softmax)
from .moo import GradientBundle, SimplexWeights, solve_min_norm
from .train import (DivergenceError, FrozenParamsError, LossReport,
                    TrainConfig, TrainResult, cross_entropy, finetune_adapter,
                    kd_loss, positive_cross_entropy, train_base, train_edge_kd)
from .policy import route_codes, route_dataset
from .metrics import (CostReport, ParetoPoint, comm_score, comp_score,
                      comp_score_value, pareto_frontier, perf_score)
from .harness import (Dataset, ExperimentPlan, TrainedSystem, default_plan, gen_dataset,
                      run_experiment, sweep_dynamic)

__version__ = "0.1.0"

__all__ = [
    "AdapterSpec", "ConfigError", "CostReport", "Dataset", "DivergenceError",
    "ExperimentPlan", "FrozenParamsError", "GradientBundle",
    "GradientTape", "LayerSpec", "LossReport", "ModelSpec", "Param",
    "ParetoPoint", "SimplexWeights",
    "TrainConfig", "TrainResult", "TrainedSystem",
    "UsageError", "adapt", "adjoints", "cloud_tail",
    "comm_score", "comp_score", "comp_score_value", "confidence",
    "cross_entropy", "default_plan", "dense", "feedforward",
    "finetune_adapter", "flops", "forward", "gen_dataset",
    "infer", "infer_with_tap", "kd_loss", "make_adapter", "pareto_frontier",
    "perf_score", "positive_cross_entropy", "residual_block",
    "route_codes", "route_dataset", "run_experiment", "softmax", "solve_min_norm",
    "sweep_dynamic", "train_base", "train_edge_kd",
]

"""Robust pod-level topology engineering for optical-circuit-switched fabrics.

Pipeline: cluster historical traffic into critical matrices, jointly
optimize a fractional topology and one routing weight set for max-min
throughput, desensitize it against unexpected bursts, round it onto the
circuit-switch bank, and evaluate under a fluid traffic model.
"""

from .model import (FractionalTopology, IntegerTopology, Path,
                    PhysicalTopology, RoutingWeights, TmSequence,
                    TrafficMatrix, enumerate_paths, validate)
from .traffic import (BoundednessResult, BurstSpec, CriticalSet,
                      boundability_curve, check_bounded, extract_critical,
                      gen_burst_tms, gen_storage_tms)
from .optimize import (FractionalSolution, compute_path_capacity, desensitize,
                       minimize_ahc, recompute_routing, run_pipeline,
                       solve_maxmin_throughput)
from .round import RoundingReport, greedy_round, ldm_round, optimality_gap
from .evaluate import (EvalRecord, ReconfigPolicy, direct_only_weights,
                       evaluate_static, fat_tree_eval, ideal_toe_mlu,
                       num_stages, optimal_routing_mlu, sensitivity_map,
                       simulate_reconfig, uniform_mesh, vlb_weights)

__version__ = "0.1.0"

__all__ = [
    "FractionalTopology", "IntegerTopology", "Path", "PhysicalTopology",
    "RoutingWeights", "TmSequence", "TrafficMatrix", "enumerate_paths",
    "validate",
    "BoundednessResult", "BurstSpec", "CriticalSet", "boundability_curve",
    "check_bounded", "extract_critical", "gen_burst_tms", "gen_storage_tms",
    "FractionalSolution", "compute_path_capacity", "desensitize",
    "minimize_ahc", "recompute_routing", "run_pipeline",
    "solve_maxmin_throughput",
    "RoundingReport", "greedy_round", "ldm_round", "optimality_gap",
    "EvalRecord", "ReconfigPolicy", "direct_only_weights", "evaluate_static",
    "fat_tree_eval", "ideal_toe_mlu", "num_stages", "optimal_routing_mlu",
    "sensitivity_map", "simulate_reconfig", "uniform_mesh", "vlb_weights",
]

"""Performance model and the adaptive (model-driven) strategy planner:
the DP tree search, the analytic cost model and its calibration."""

from .calibrate import (MACHINE_SCHEMA, BandwidthPoint, MachineRoofline,
                        calibrate_machine, calibrate_roofline,
                        default_machine_path, load_roofline, machine_artifact,
                        measure_roofline, reset_calibration,
                        validate_machine_artifact)
from .cost import (DEFAULT_EXECUTION, DEFAULT_MACHINE,
                   FALLBACK_BANDWIDTH_WORKERS, CostReport, ExecutionParams,
                   MachineModel, cost_from_symbolic, cost_report,
                   iteration_flops_words, parallel_iteration_seconds,
                   resolve_bandwidth_workers, simulate_peak_value_bytes,
                   symbolic_index_bytes)
from .fit import WorkSample, collect_samples, fit_machine_model, fitted_machine
from .overlap import DistinctCounter
from .planner import PlannerReport, ScoredStrategy, plan
from .search import dp_tree, search_candidates
from .report import format_table

__all__ = [
    "MACHINE_SCHEMA",
    "BandwidthPoint",
    "MachineRoofline",
    "calibrate_machine",
    "calibrate_roofline",
    "default_machine_path",
    "load_roofline",
    "machine_artifact",
    "measure_roofline",
    "reset_calibration",
    "validate_machine_artifact",
    "DEFAULT_EXECUTION",
    "DEFAULT_MACHINE",
    "FALLBACK_BANDWIDTH_WORKERS",
    "CostReport",
    "ExecutionParams",
    "MachineModel",
    "cost_from_symbolic",
    "cost_report",
    "iteration_flops_words",
    "parallel_iteration_seconds",
    "resolve_bandwidth_workers",
    "simulate_peak_value_bytes",
    "symbolic_index_bytes",
    "DistinctCounter",
    "WorkSample",
    "collect_samples",
    "fit_machine_model",
    "fitted_machine",
    "PlannerReport",
    "ScoredStrategy",
    "plan",
    "dp_tree",
    "search_candidates",
    "format_table",
]

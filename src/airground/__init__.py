"""Safety-filtered simulation of coupled UAV/UGV fleets.

A centralized coordination node selects the locally relevant barrier
constraints for each vehicle and ships them over a simulated star network;
each vehicle filters its nominal velocity through a small quadratic program
so the fleet's collision, landing-funnel and workspace constraints stay
forward invariant.
"""

from .barriers import (Bounds, ConstraintRow, RowKind, SafetyParams,
                       build_constraint_row, eval_landing, eval_uav_other_ugv,
                       eval_uav_uav, eval_ugv_ugv, eval_workspace,
                       landing_gradient, landing_time_term, verify_validity)
from .config import ScenarioConfig, config_from_dict, load_config, parse_config
from .errors import (CapacityError, ConfigError, IncompleteInputError,
                     InvalidInputError, SafetyAbortError,
                     TopologyViolationError)
from .qp import QpSolution, solve_relaxed
from .runner import RunResult, run
from .summary import MetricsSummary, summarize_dir

__version__ = "0.1.0"

__all__ = [
    "Bounds", "ConstraintRow", "RowKind", "SafetyParams",
    "build_constraint_row", "eval_landing", "eval_uav_other_ugv",
    "eval_uav_uav", "eval_ugv_ugv", "eval_workspace", "landing_gradient",
    "landing_time_term", "verify_validity",
    "QpSolution", "solve_relaxed",
    "ScenarioConfig", "config_from_dict", "load_config", "parse_config",
    "RunResult", "run", "MetricsSummary", "summarize_dir",
    "CapacityError", "ConfigError", "IncompleteInputError",
    "InvalidInputError", "SafetyAbortError", "TopologyViolationError",
    "__version__",
]

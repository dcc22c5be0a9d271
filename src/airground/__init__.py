"""Safety-filtered simulation of coupled UAV/UGV fleets.

A centralized coordination node selects the locally relevant barrier
constraints for each vehicle and ships them over a simulated star network;
each vehicle filters its nominal velocity through a small quadratic program
so the fleet's collision, landing-funnel and workspace constraints stay
forward invariant.
"""

from .barriers import (Bounds, RowKind, SafetyParams, build_constraint_row,
                       eval_landing, wall_heights)
from .config import ScenarioConfig, config_from_dict, load_config, parse_config
from .errors import (CapacityError, ConfigError, InvalidInputError,
                     SafetyAbortError, TopologyViolationError)
from .qp import QpSolution, solve_relaxed
from .runner import RunResult, run
from .summary import MetricsSummary, summarize_dir

__version__ = "0.1.0"

__all__ = [
    "Bounds", "RowKind", "SafetyParams", "build_constraint_row",
    "eval_landing", "wall_heights",
    "QpSolution", "solve_relaxed",
    "ScenarioConfig", "config_from_dict", "load_config", "parse_config",
    "RunResult", "run", "MetricsSummary", "summarize_dir",
    "CapacityError", "ConfigError", "InvalidInputError",
    "SafetyAbortError", "TopologyViolationError",
    "__version__",
]

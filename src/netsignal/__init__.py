"""netsignal: anytime decentralized traffic-signal coordination.

Each intersection is an agent on a coordination graph whose cost tables
encode the predicted next-period squared-queue balance of the links between
neighbors. One anytime forward-and-reverse cycle of min-sum message passing
minimizes the network-wide balance, a few local best-response sweeps recover
throughput, and a built-in queue-dynamics simulator evaluates the result
against fixed-time and max-pressure baselines.
"""

from netsignal.controllers import fixed_time, max_pressure, phase_pressures
from netsignal.coordination import CoordinationGraph, build_cg, global_cost
from netsignal.harness import (
    BudgetOverrunError,
    DelayModel,
    Metrics,
    Scenario,
    modeled_delay_ms,
    network_order,
    run_experiment,
    write_comparison_csv,
    write_metrics_csv,
)
from netsignal.improvement import (
    PlannerConfig,
    local_improvement,
    plan_phases_detailed,
)
from netsignal.messaging import CoorBudget, CoordResult, coordinate
from netsignal.network import (
    Link,
    LinkKind,
    LoadError,
    Movement,
    Phase,
    RoadNetwork,
    build_grid,
    load_network,
    save_network,
    validate,
)
from netsignal.ordering import DagOrder, TopologyError, min_diameter_dag
from netsignal.simulation import (
    Flow,
    JointAssignment,
    MetricsError,
    QueueState,
    SimConfig,
    TurningModel,
    Vehicle,
    balance_index,
    estimate_turning,
    generate_uniform_flow,
    initial_state,
    load_flow,
    predict_next_queues,
    save_flow,
    step,
    travel_time_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetOverrunError",
    "CoorBudget",
    "CoordResult",
    "CoordinationGraph",
    "DagOrder",
    "DelayModel",
    "Flow",
    "JointAssignment",
    "Link",
    "LinkKind",
    "LoadError",
    "Metrics",
    "MetricsError",
    "Movement",
    "Phase",
    "PlannerConfig",
    "QueueState",
    "RoadNetwork",
    "Scenario",
    "SimConfig",
    "TopologyError",
    "TurningModel",
    "Vehicle",
    "balance_index",
    "build_cg",
    "build_grid",
    "coordinate",
    "estimate_turning",
    "fixed_time",
    "generate_uniform_flow",
    "global_cost",
    "initial_state",
    "load_flow",
    "load_network",
    "local_improvement",
    "max_pressure",
    "min_diameter_dag",
    "modeled_delay_ms",
    "network_order",
    "phase_pressures",
    "plan_phases_detailed",
    "predict_next_queues",
    "run_experiment",
    "save_flow",
    "save_network",
    "step",
    "travel_time_metrics",
    "validate",
    "write_comparison_csv",
    "write_metrics_csv",
]

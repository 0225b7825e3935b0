"""Experiment orchestration: controller loop, metrics, delay modeling.

One experiment steps the micro simulator over the horizon, asking the
selected controller for a joint phase decision each period from the true
queue state and the route-estimated turning model. Everything except the
wall-clock columns is deterministic given the scenario seed; randomness
flows through named substreams so flow generation and delay sampling cannot
perturb each other.
"""
from __future__ import annotations

import csv
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from netsignal.controllers import FixedTimeConfig, fixed_time, max_pressure
from netsignal.improvement import PlannerConfig, plan_phases_detailed
from netsignal.network import RoadNetwork
from netsignal.ordering import DagOrder, network_order
from netsignal.simulation import (
    Flow,
    JointAssignment,
    QueueState,
    SimConfig,
    TurningModel,
    Vehicle,
    balance_index,
    estimate_turning,
    generate_uniform_flow,
    initial_state,
    step,
    travel_time_metrics,
)

CONTROLLERS = ("fixedtime", "maxpressure", "nlcoor", "emc")


class BudgetOverrunError(RuntimeError):
    """Safety valve: a controller exceeded 10x its wall-clock budget."""


def substream_seed(seed: int, name: str) -> int:
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % (2**31)


@dataclass
class RateSpec:
    rate_vps: float
    duration_s: float
    seed: Optional[int] = None


@dataclass
class DelayModel:
    """Per-message latency N(mu, sigma^2) in milliseconds, clamped at zero."""

    mu_ms: float
    sigma_ms: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.mu_ms < np.inf and 0 <= self.sigma_ms < np.inf):
            raise ValueError(f"mu and sigma must be finite and >= 0, got {self.mu_ms} and {self.sigma_ms}")


@dataclass
class Scenario:
    network: RoadNetwork
    flow: Union[Sequence[Vehicle], RateSpec]
    sim: SimConfig
    controller: str = "emc"
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    fixed: FixedTimeConfig = field(default_factory=FixedTimeConfig)
    delay: Optional[DelayModel] = None

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}, expected one of {CONTROLLERS}")


@dataclass
class PeriodRow:
    period: int
    total_queue: float
    balance: float
    decision_ms: float
    comm_delay_ms: float


@dataclass(eq=False)
class Metrics:
    """Run summary plus one value per period in each of the last four
    arrays; `rows` presents those as `PeriodRow`s. Arrays rather than row
    objects, so that holding the metrics of many runs stays cheap."""

    avg_travel_time_s: float
    throughput: int
    mean_balance: float
    max_total_queue: float
    mean_decision_ms: float
    mean_comm_delay_ms: float
    total_queue: np.ndarray
    balance: np.ndarray
    decision_ms: np.ndarray
    comm_delay_ms: np.ndarray

    @property
    def rows(self) -> list[PeriodRow]:
        """The per-period table, built anew on each access."""
        columns = (self.total_queue, self.balance, self.decision_ms, self.comm_delay_ms)
        return [PeriodRow(t, *row) for t, row in enumerate(zip(*(c.tolist() for c in columns)))]


class _FixedTimeController:
    needs_order = False

    def __init__(self, scenario: Scenario):
        self.cfg = scenario.fixed
        self.intersections = sorted(scenario.network.intersections)
        self.rounds_last = 0

    def decide(self, state: QueueState, turning: TurningModel, period: int) -> JointAssignment:
        return fixed_time(period, self.cfg, self.intersections)


class _MaxPressureController:
    needs_order = False

    def __init__(self, scenario: Scenario):
        self.net = scenario.network
        self.rounds_last = 0

    def decide(self, state: QueueState, turning: TurningModel, period: int) -> JointAssignment:
        return max_pressure(state, self.net, turning)


class _PlannerController:
    needs_order = True

    def __init__(self, scenario: Scenario):
        self.net = scenario.network
        self.cfg = scenario.planner
        self.order = network_order(self.net)
        self.rounds_last = 0

    def decide(self, state: QueueState, turning: TurningModel, period: int) -> JointAssignment:
        detail = plan_phases_detailed(state, self.net, turning, self.cfg)
        self.rounds_last = detail.coordination.rounds
        return detail.assignment


def make_controller(scenario: Scenario):
    if scenario.controller == "nlcoor":
        # coordination only: the whole budget to message passing, no sweeps
        planner = replace(scenario.planner, epsilon=1.0, max_sweeps=0)
        scenario = replace(scenario, planner=planner)
    return {
        "fixedtime": _FixedTimeController,
        "maxpressure": _MaxPressureController,
        "nlcoor": _PlannerController,
        "emc": _PlannerController,
    }[scenario.controller](scenario)


def resolve_flow(scenario: Scenario) -> list[Vehicle]:
    if isinstance(scenario.flow, RateSpec):
        seed = scenario.flow.seed
        if seed is None:
            seed = substream_seed(scenario.sim.seed, "flow")
        return generate_uniform_flow(
            scenario.network, scenario.flow.rate_vps, scenario.flow.duration_s, seed
        )
    return list(scenario.flow)


def modeled_delay_ms(
    order: DagOrder,
    rounds: int,
    model: DelayModel,
    nodes: Optional[int] = None,
) -> float:
    """Virtual-clock total: per round, the slowest message on the critical
    path; intra-node messages are free under a partition into `nodes` >= 1."""
    if nodes is not None and nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    n_edges = len(order.edges)
    if rounds <= 0 or n_edges == 0:
        return 0.0
    rng = np.random.default_rng(np.random.SeedSequence([model.seed, 0xD31A]))
    samples = rng.normal(model.mu_ms, model.sigma_ms, size=(rounds, n_edges))
    np.clip(samples, 0.0, None, out=samples)
    if nodes:
        # intra-node messages are free; same per-message draws either way
        node = rng.permutation(len(order.dist)) % nodes
        ends = np.searchsorted(order.schedule.agents, np.array(order.edges))
        mask = node[ends[:, 0]] != node[ends[:, 1]]
        if not mask.any():
            return 0.0
        samples = samples[:, mask]
    return float(samples.max(axis=1).sum())


def simulate_comm_delay(
    order: DagOrder,
    passes: int,
    model: DelayModel,
    nodes: Optional[int] = None,
) -> float:
    """Modeled communication time (ms) for `passes` >= 0 full message passes."""
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    return modeled_delay_ms(order, passes * order.diameter, model, nodes)


def run_experiment(scenario: Scenario) -> Metrics:
    net = scenario.network
    cfg = scenario.sim
    vehicles = resolve_flow(scenario)
    flow = Flow(vehicles, cfg.tau, net)
    controller = make_controller(scenario)
    budget_wall = scenario.planner.budget.wall_ms if controller.needs_order else None
    delay_model = scenario.delay if controller.needs_order else None

    state = initial_state(net)
    # total queue, balance, decision ms and modeled delay ms per period
    columns = np.empty((4, cfg.horizon))
    delay_seed = substream_seed(cfg.seed, "delay")
    for t in range(cfg.horizon):
        turning = estimate_turning(state, net, flow)
        t0 = time.perf_counter()
        decision = controller.decide(state, turning, t)
        decision_ms = (time.perf_counter() - t0) * 1e3
        if budget_wall is not None and decision_ms > 10 * budget_wall:
            raise BudgetOverrunError(
                f"controller took {decision_ms:.0f} ms against a {budget_wall:.0f} ms budget"
            )
        comm_ms = 0.0
        if delay_model is not None and controller.rounds_last > 0:
            per_period = DelayModel(delay_model.mu_ms, delay_model.sigma_ms, delay_seed + t)
            comm_ms = modeled_delay_ms(controller.order, controller.rounds_last, per_period)
        state = step(state, decision, net, cfg, flow=flow)
        columns[:, t] = (state.total_queue(), balance_index(state), decision_ms, comm_ms)

    total_queue, balance, decision_ms, comm_ms = columns
    base = travel_time_metrics(
        vehicles,
        end_time=cfg.horizon * cfg.tau,
        balance_series=balance.tolist(),
        queue_series=total_queue.tolist(),
    )
    return Metrics(
        avg_travel_time_s=base.avg_travel_time_s,
        throughput=base.throughput,
        mean_balance=base.mean_balance,
        max_total_queue=base.max_total_queue,
        mean_decision_ms=float(np.mean(decision_ms)),
        mean_comm_delay_ms=float(np.mean(comm_ms)),
        total_queue=total_queue,
        balance=balance,
        decision_ms=decision_ms,
        comm_delay_ms=comm_ms,
    )


def write_metrics_csv(metrics: Metrics, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "total_queue", "balance", "decision_ms", "comm_delay_ms"])
        for r in metrics.rows:
            writer.writerow(
                [r.period, r.total_queue, r.balance, f"{r.decision_ms:.3f}", f"{r.comm_delay_ms:.3f}"]
            )


def write_comparison_csv(results: dict[str, Metrics], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["controller", "avg_travel_time_s", "mean_balance", "mean_decision_ms"])
        for name, m in results.items():
            writer.writerow(
                [name, f"{m.avg_travel_time_s:.2f}", f"{m.mean_balance:.2f}", f"{m.mean_decision_ms:.3f}"]
            )

"""Experiment orchestration: controller loop, metrics, delay modeling.

One experiment steps the micro simulator over the horizon, asking the
run's `Planner` for a joint phase decision each period from the true
queue state and the route-estimated turning model. Everything except the
wall-clock columns is deterministic given the scenario's seeds: a rate spec
draws its flow from its own seed, and delay sampling from a named substream
of the simulation seed, so the two cannot perturb each other.
"""
from __future__ import annotations

import csv
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from netsignal.controllers import fixed_time, max_pressure
from netsignal.improvement import PlannerConfig, plan_phases_detailed
from netsignal.messaging import CoordResult
from netsignal.network import RoadNetwork, _is_count, _number_or_nan
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
    _seeded_rng,
)

CONTROLLERS = ("fixedtime", "maxpressure", "nlcoor", "emc")
# standard deviation of the modeled per-message latency
DELAY_SIGMA_MS = 3.0


class BudgetOverrunError(RuntimeError):
    """Safety valve: a controller exceeded 10x its wall-clock budget."""


def substream_seed(seed: int, name: str) -> int:
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % (2**31)


@dataclass
class RateSpec:
    """Uniform arrivals at `rate_vps` over `duration_s` seconds, drawn by
    `generate_uniform_flow` from `seed`."""

    rate_vps: float
    duration_s: float
    seed: int


@dataclass
class DelayModel:
    """Per-message latency N(mu, `DELAY_SIGMA_MS`^2) in milliseconds,
    clamped at zero. The draws come from the seed `modeled_delay_ms` is
    given."""

    mu_ms: float

    def __post_init__(self):
        if not 0 <= _number_or_nan(self.mu_ms) < np.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu_ms!r}")


@dataclass
class Scenario:
    network: RoadNetwork
    flow: Union[Sequence[Vehicle], RateSpec]
    sim: SimConfig
    controller: str = "emc"
    planner: PlannerConfig = field(default_factory=PlannerConfig)
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
    """Trip summary plus one value per period in each of the four arrays;
    the run-wide queue, balance and timing figures are derived from those,
    and `rows` presents them as `PeriodRow`s. Arrays rather than row
    objects, so that holding the metrics of many runs stays cheap."""

    avg_travel_time_s: float
    throughput: int
    total_queue: np.ndarray
    balance: np.ndarray
    decision_ms: np.ndarray
    comm_delay_ms: np.ndarray

    @property
    def mean_balance(self) -> float:
        return float(np.mean(self.balance))

    @property
    def max_total_queue(self) -> float:
        return float(np.max(self.total_queue))

    @property
    def mean_decision_ms(self) -> float:
        return float(np.mean(self.decision_ms))

    @property
    def mean_comm_delay_ms(self) -> float:
        return float(np.mean(self.comm_delay_ms))

    @property
    def rows(self) -> list[PeriodRow]:
        """The per-period table, built anew on each access."""
        columns = (self.total_queue, self.balance, self.decision_ms, self.comm_delay_ms)
        return [PeriodRow(t, *row) for t, row in enumerate(zip(*(c.tolist() for c in columns)))]


class Planner:
    """One run's controller, and the only reader of its name. `decide(state,
    turning, period)` returns the joint decision and the period's record: a
    `CoordResult`, or `None` for the baselines, which keep no config, order,
    `wall_ms` (the safety valve's budget) or delay. Per-run state lives here."""

    def __init__(self, scenario: Scenario):
        self.net, kind = scenario.network, scenario.controller
        self.config = self.order = self.wall_ms = self.delay = None
        if kind in ("nlcoor", "emc"):
            # nlcoor is coordination only: the whole budget to message passing, no sweeps
            self.config = replace(scenario.planner, epsilon=1.0) if kind == "nlcoor" else scenario.planner
            self.order, self.wall_ms = network_order(self.net), self.config.budget.wall_ms
            self.delay, self.delay_seed = scenario.delay, substream_seed(scenario.sim.seed, "delay")
        self.decide = {"fixedtime": self._fixed_time, "maxpressure": self._max_pressure}.get(kind, self._plan)

    def _fixed_time(self, state: QueueState, turning: TurningModel, period: int) -> tuple[JointAssignment, None]:
        return fixed_time(period, self.net.intersections), None

    def _max_pressure(self, state: QueueState, turning: TurningModel, period: int) -> tuple[JointAssignment, None]:
        return max_pressure(state, self.net, turning), None

    def _plan(self, state: QueueState, turning: TurningModel, period: int) -> tuple[JointAssignment, CoordResult]:
        detail = plan_phases_detailed(state, self.net, turning, self.config)
        return detail.assignment, detail.coordination

    def comm_ms(self, record: Optional[CoordResult], period: int) -> float:
        """Modeled delay of the period's message rounds; 0.0 without a model."""
        if self.delay is None:
            return 0.0
        return modeled_delay_ms(self.order, record.rounds, self.delay, self.delay_seed + period)


def resolve_flow(scenario: Scenario) -> list[Vehicle]:
    flow = scenario.flow
    if isinstance(flow, RateSpec):
        return generate_uniform_flow(scenario.network, flow.rate_vps, flow.duration_s, flow.seed)
    return list(flow)


def modeled_delay_ms(
    order: DagOrder,
    rounds: int,
    model: DelayModel,
    seed: int,
    nodes: Optional[int] = None,
) -> float:
    """Modeled communication time (ms) of `rounds` message rounds on a
    virtual clock: per round, the slowest message on the critical path, with
    every draw taken from `seed`. Under a seeded partition of the agents
    into `nodes` >= 1, intra-node messages are free. A full pass takes
    `order.diameter` rounds."""
    if not (_is_count(rounds) and rounds >= 0):
        raise ValueError(f"rounds must be an integer >= 0, got {rounds!r}")
    if nodes is not None and not (_is_count(nodes) and nodes >= 1):
        raise ValueError(f"nodes must be an integer >= 1, got {nodes!r}")
    n_edges = len(order.edges)
    if rounds == 0 or n_edges == 0:
        return 0.0
    rng = _seeded_rng(seed, 0xD31A)
    samples = rng.normal(model.mu_ms, DELAY_SIGMA_MS, size=(rounds, n_edges))
    np.clip(samples, 0.0, None, out=samples)
    if nodes:
        # intra-node messages are free; same per-message draws either way,
        # and from `nodes` >= agents on, every agent is its own node
        node = rng.permutation(len(order.dist)) % min(nodes, len(order.dist))
        ends = np.searchsorted(sorted(order.dist), np.array(order.edges))
        mask = node[ends[:, 0]] != node[ends[:, 1]]
        if not mask.any():
            return 0.0
        samples = samples[:, mask]
    return float(samples.max(axis=1).sum())


def run_experiment(scenario: Scenario) -> Metrics:
    """Run the scenario's controller over the horizon. Trip times left on
    the flow's vehicles by an earlier run are cleared first."""
    net = scenario.network
    cfg = scenario.sim
    vehicles = resolve_flow(scenario)
    for v in vehicles:
        v.exit_time = None
    flow = Flow(vehicles, cfg.tau, net)
    planner = Planner(scenario)
    state = initial_state(net)
    try:
        # total queue, balance, decision ms and modeled delay ms per period
        columns = np.empty((4, cfg.horizon))
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"a horizon of {cfg.horizon} periods leaves no room for its per-period metrics") from exc
    for t in range(cfg.horizon):
        turning = estimate_turning(state, net, flow)
        t0 = time.perf_counter()
        decision, record = planner.decide(state, turning, t)
        decision_ms = (time.perf_counter() - t0) * 1e3
        if planner.wall_ms is not None and decision_ms > 10 * planner.wall_ms:
            raise BudgetOverrunError(
                f"controller took {decision_ms:.0f} ms against a {planner.wall_ms:.0f} ms budget"
            )
        state = step(state, decision, net, cfg, flow=flow)
        columns[:, t] = (state.total_queue(), balance_index(state), decision_ms, planner.comm_ms(record, t))

    trips = travel_time_metrics(vehicles, end_time=cfg.horizon * cfg.tau)
    return Metrics(trips.avg_travel_time_s, trips.throughput, *columns)


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

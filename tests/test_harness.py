import hashlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import shifted_grid_doc
from netsignal import prediction
from netsignal.harness import (
    CONTROLLERS,
    DELAY_SIGMA_MS,
    BudgetOverrunError,
    DelayModel,
    RateSpec,
    Scenario,
    modeled_delay_ms,
    network_order,
    resolve_flow,
    run_experiment,
    substream_seed,
    write_comparison_csv,
    write_metrics_csv,
)
from netsignal.improvement import PlannerConfig
from netsignal.messaging import CoorBudget
from netsignal.network import build_grid, movement_arrays, network_from_dict
from netsignal.simulation import MetricsError, SimConfig, generate_uniform_flow


def small_scenario(controller, seed=3, horizon=60, rate=0.6):
    net = build_grid(2, 2)
    return Scenario(
        network=net,
        flow=RateSpec(rate_vps=rate, duration_s=horizon * 10.0, seed=seed),
        sim=SimConfig(tau=10.0, horizon=horizon, seed=seed),
        controller=controller,
        planner=PlannerConfig(budget=CoorBudget(rounds=64, wall_ms=3000.0)),
    )


def test_unknown_controller_rejected():
    net = build_grid(1, 1)
    with pytest.raises(ValueError, match="unknown controller"):
        Scenario(network=net, flow=[], sim=SimConfig(horizon=1), controller="apollo")


@pytest.mark.parametrize("controller", ["fixedtime", "maxpressure", "nlcoor", "emc"])
def test_run_experiment_produces_metrics(controller):
    metrics = run_experiment(small_scenario(controller))
    assert len(metrics.rows) == 60
    assert metrics.avg_travel_time_s > 0
    assert metrics.throughput > 0
    assert metrics.max_total_queue >= 0


def test_only_the_planner_builds_pair_columns_and_once(monkeypatch):
    built, models = [], []

    class Counted(prediction.PairColumns):
        def __init__(self, net):
            built.append(net)
            super().__init__(net)

    def recorded(*args):
        models.append(model(*args))
        return models[-1]

    model = prediction.period_model
    monkeypatch.setattr(prediction, "PairColumns", Counted)
    monkeypatch.setattr(prediction, "period_model", recorded)
    pressure = small_scenario("maxpressure", horizon=10)
    run_experiment(pressure)
    assert built == [] and "_pair_columns" not in vars(movement_arrays(pressure.network))
    emc = small_scenario("emc", horizon=10)
    run_experiment(emc)
    columns = vars(movement_arrays(emc.network))["_pair_columns"]
    assert built == [emc.network] and len(models) == 10  # one model a period
    assert all(m.columns is columns for m in models)


# sha256 prefix of each controller's metrics on 3x3 at 0.6 veh/s, 40
# periods, seed 1: the total-queue and balance series, the average travel
# time and the throughput
PINNED_METRICS = {
    "fixedtime": "28f59c9224effead",
    "maxpressure": "60299d7ec5747b32",
    "nlcoor": "217834bb8ff815fe",
    "emc": "ba3d138fb931053d",
}


@pytest.mark.parametrize("controller", sorted(PINNED_METRICS))
def test_controller_metrics_are_pinned(controller):
    scenario = Scenario(
        network=build_grid(3, 3),
        flow=RateSpec(rate_vps=0.6, duration_s=400.0, seed=1),
        sim=SimConfig(tau=10.0, horizon=40, seed=1),
        controller=controller,
        planner=PlannerConfig(budget=CoorBudget(rounds=10**6, wall_ms=3000.0)),
    )
    m = run_experiment(scenario)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(m.total_queue).tobytes())
    h.update(np.ascontiguousarray(m.balance).tobytes())
    h.update(repr((m.avg_travel_time_s, m.throughput)).encode())
    assert h.hexdigest()[:16] == PINNED_METRICS[controller]


def test_determinism_identical_series():
    a = run_experiment(small_scenario("emc"))
    b = run_experiment(small_scenario("emc"))
    assert [(r.total_queue, r.balance) for r in a.rows] == [
        (r.total_queue, r.balance) for r in b.rows
    ]
    assert a.avg_travel_time_s == b.avg_travel_time_s
    c = run_experiment(small_scenario("emc", seed=4))
    assert [(r.total_queue, r.balance) for r in a.rows] != [
        (r.total_queue, r.balance) for r in c.rows
    ]


def test_reused_vehicles_start_without_trip_times():
    # a run leaves exit times on the vehicles it was given
    scenario = replace(small_scenario("emc", horizon=30, rate=1.0), network=build_grid(3, 3))
    vehicles = resolve_flow(scenario)
    run_experiment(replace(scenario, flow=vehicles))
    fixed = replace(scenario, controller="fixedtime")
    reused = run_experiment(replace(fixed, flow=vehicles))
    fresh = run_experiment(fixed)
    assert reused.throughput == fresh.throughput
    assert reused.avg_travel_time_s == fresh.avg_travel_time_s


def test_vehicles_that_never_departed_do_not_dilute_travel_time():
    # an hour of flow over a 600 s horizon: 3000 vehicles never depart
    net = build_grid(3, 3)
    vehicles = generate_uniform_flow(net, 1.0, 3600.0)
    full = Scenario(network=net, flow=vehicles, sim=SimConfig(tau=10.0, horizon=60), controller="maxpressure")
    cut = replace(full, flow=[v for v in vehicles if v.depart_s < 600.0])
    a, b = run_experiment(full), run_experiment(cut)
    assert len(cut.flow) == 600
    assert (a.avg_travel_time_s, a.throughput) == (b.avg_travel_time_s, b.throughput)


def test_zero_vehicle_flow_is_metrics_error():
    net = build_grid(1, 1)
    scenario = Scenario(
        network=net, flow=[], sim=SimConfig(horizon=5), controller="fixedtime"
    )
    with pytest.raises(MetricsError):
        run_experiment(scenario)


def test_budget_safety_valve():
    scenario = small_scenario("emc")
    scenario.planner = PlannerConfig(budget=CoorBudget(wall_ms=1e-4))
    with pytest.raises(BudgetOverrunError):
        run_experiment(scenario)


def test_comm_delay_recorded_for_message_controllers():
    # a rounds cap above the cycle: every period runs 2 * diameter rounds,
    # each period's delay drawn from the run's delay substream plus the period
    model = DelayModel(mu_ms=20.0)
    for controller in CONTROLLERS:
        scenario = small_scenario(controller, horizon=10)
        scenario.delay = model
        got = run_experiment(scenario).comm_delay_ms.tolist()
        if controller in ("fixedtime", "maxpressure"):
            assert got == [0.0] * 10
            continue
        order = network_order(scenario.network)
        seed = substream_seed(scenario.sim.seed, "delay")
        assert 2 * order.diameter < scenario.planner.budget.rounds
        assert got == [modeled_delay_ms(order, 2 * order.diameter, model, seed + t) for t in range(10)]
        assert min(got) > 0


def _outcome(metrics):
    return metrics.total_queue.tolist(), metrics.balance.tolist(), metrics.avg_travel_time_s, metrics.throughput


@pytest.mark.parametrize("rounds", [3, 10**6])
def test_runs_on_one_shared_network_are_independent(rounds):
    # the per-network caches carry nothing from one run to the next: each run
    # on a network that earlier runs used reads what it reads on a fresh one,
    # also under a rounds cap that stops inside the cycle
    def scenario(net, controller):
        return Scenario(
            network=net,
            flow=RateSpec(rate_vps=0.6, duration_s=300.0, seed=2),
            sim=SimConfig(tau=10.0, horizon=30, seed=2),
            controller=controller,
            planner=PlannerConfig(budget=CoorBudget(rounds=rounds, wall_ms=3000.0)),
            delay=DelayModel(mu_ms=5.0),
        )

    shared = build_grid(3, 3)
    for controller in ("emc", "maxpressure", "nlcoor", "emc"):
        again = run_experiment(scenario(shared, controller))
        fresh = run_experiment(scenario(build_grid(3, 3), controller))
        assert _outcome(again) == _outcome(fresh)
        assert again.comm_delay_ms.tolist() == fresh.comm_delay_ms.tolist()


def test_modeled_delay_deterministic_and_monotone_in_mu():
    order = network_order(build_grid(3, 3))
    totals = []
    for mu in (0.0, 10.0, 20.0):
        model = DelayModel(mu_ms=mu)
        a = modeled_delay_ms(order, 2 * order.diameter, model, 5)
        b = modeled_delay_ms(order, 2 * order.diameter, model, 5)
        assert a == b
        totals.append(a)
    assert totals[0] < totals[1] < totals[2]


def test_modeled_delay_zero_rounds():
    order = network_order(build_grid(2, 2))
    assert modeled_delay_ms(order, 0, DelayModel(mu_ms=20.0), 0) == 0.0


def test_modeled_delay_partition_free_intranode():
    order = network_order(build_grid(4, 4))
    model = DelayModel(mu_ms=20.0)
    rounds = 2 * order.diameter
    charged_all = modeled_delay_ms(order, rounds, model, 9)
    partitioned = modeled_delay_ms(order, rounds, model, 9, nodes=10)
    single_node = modeled_delay_ms(order, rounds, model, 9, nodes=1)
    assert partitioned <= charged_all
    assert single_node == 0.0


@pytest.mark.parametrize("nodes", [None, 1, 3, 10])
def test_modeled_delay_does_not_depend_on_id_values(nodes):
    # the partition draws by agent position, so ids that are not positions
    # must give the grid's delays
    model = DelayModel(mu_ms=20.0)
    delays = []
    for net in (build_grid(4, 4), network_from_dict(shifted_grid_doc(4, 4, 1000))):
        order = network_order(net)
        delays.append(modeled_delay_ms(order, 2 * order.diameter, model, 9, nodes=nodes))
    assert delays[0] == delays[1]


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel(mu_ms=-1.0)


@pytest.mark.parametrize(
    "fields",
    [{"mu_ms": float("nan")}, {"mu_ms": float("inf")}, {"mu_ms": "3"}, {"mu_ms": True}],
)
def test_delay_model_rejects_values_that_are_not_finite(fields):
    with pytest.raises(ValueError, match=f"mu must be finite and >= 0, got {fields['mu_ms']!r}"):
        DelayModel(**fields)


# a 3x3 grid's pass takes 2 rounds, so 1.25 passes are 2.5 rounds
@pytest.mark.parametrize(
    "passes, nodes, named",
    [(2, 0, "nodes"), (2, -2, "nodes"), (2, 2.5, "nodes"), (2, True, "nodes"), (1.25, None, "rounds")],
)
def test_comm_delay_rejects_negative_passes_and_empty_partitions(passes, nodes, named):
    order = network_order(build_grid(3, 3))
    with pytest.raises(ValueError, match=f"{named} must be"):
        modeled_delay_ms(order, passes * order.diameter, DelayModel(mu_ms=20.0), 0, nodes=nodes)


def test_metrics_csv(tmp_path):
    metrics = run_experiment(small_scenario("maxpressure", horizon=12))
    path = tmp_path / "m.csv"
    write_metrics_csv(metrics, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "period,total_queue,balance,decision_ms,comm_delay_ms"
    assert len(lines) == 13


def test_comparison_csv(tmp_path):
    results = {
        name: run_experiment(small_scenario(name, horizon=12))
        for name in ("fixedtime", "maxpressure")
    }
    path = tmp_path / "cmp.csv"
    write_comparison_csv(results, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "controller,avg_travel_time_s,mean_balance,mean_decision_ms"
    assert len(lines) == 3


def test_coordinated_beats_fixed_time_smoke():
    emc = run_experiment(small_scenario("emc", seed=11, horizon=90, rate=0.9))
    fixed = run_experiment(small_scenario("fixedtime", seed=11, horizon=90, rate=0.9))
    assert emc.avg_travel_time_s < fixed.avg_travel_time_s


def test_modeled_delay_mu_zero_is_noise_scale():
    # with zero mean, only the clamped sigma-noise contributes per round
    order = network_order(build_grid(2, 2))
    rounds = 2 * order.diameter
    total = modeled_delay_ms(order, rounds, DelayModel(mu_ms=0.0), 4)
    assert total <= rounds * 5 * DELAY_SIGMA_MS


def test_balance_ranking_matches_travel_time_on_default_grid():
    # Fig.-2-style alignment: ordering the three controllers by mean balance
    # must match ordering them by average travel time on the default 4x4
    # scenario.
    net = build_grid(4, 4)
    results = {}
    for controller in ("fixedtime", "maxpressure", "emc"):
        scenario = Scenario(
            network=net,
            flow=RateSpec(rate_vps=1.76, duration_s=3600.0, seed=0),
            sim=SimConfig(tau=10.0, horizon=360, seed=0),
            controller=controller,
            planner=PlannerConfig(budget=CoorBudget(rounds=10**6, wall_ms=3000.0)),
        )
        results[controller] = run_experiment(scenario)
    by_balance = sorted(results, key=lambda c: results[c].mean_balance)
    by_travel_time = sorted(results, key=lambda c: results[c].avg_travel_time_s)
    assert by_balance == by_travel_time

from dataclasses import replace

import pytest

from netsignal.harness import (
    DELAY_SIGMA_MS,
    BudgetOverrunError,
    DelayModel,
    RateSpec,
    Scenario,
    modeled_delay_ms,
    network_order,
    resolve_flow,
    run_experiment,
    simulate_comm_delay,
    write_comparison_csv,
    write_metrics_csv,
)
from netsignal.improvement import PlannerConfig
from netsignal.messaging import CoorBudget
from netsignal.network import build_grid
from netsignal.simulation import MetricsError, SimConfig


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


def test_zero_vehicle_flow_is_metrics_error():
    net = build_grid(1, 1)
    scenario = Scenario(
        network=net, flow=[], sim=SimConfig(horizon=5), controller="fixedtime"
    )
    with pytest.raises(MetricsError):
        run_experiment(scenario)


def test_budget_safety_valve():
    scenario = small_scenario("emc")
    scenario.planner = PlannerConfig(budget=CoorBudget.wall_clock(1e-4))
    with pytest.raises(BudgetOverrunError):
        run_experiment(scenario)


def test_comm_delay_recorded_for_message_controllers():
    scenario = small_scenario("emc", horizon=10)
    scenario.delay = DelayModel(mu_ms=20.0, seed=1)
    metrics = run_experiment(scenario)
    assert metrics.mean_comm_delay_ms > 0
    fixed = small_scenario("fixedtime", horizon=10)
    fixed.delay = DelayModel(mu_ms=20.0, seed=1)
    assert run_experiment(fixed).mean_comm_delay_ms == 0


def test_modeled_delay_deterministic_and_monotone_in_mu():
    order = network_order(build_grid(3, 3))
    totals = []
    for mu in (0.0, 10.0, 20.0):
        model = DelayModel(mu_ms=mu, seed=5)
        a = simulate_comm_delay(order, passes=2, model=model)
        b = simulate_comm_delay(order, passes=2, model=model)
        assert a == b
        totals.append(a)
    assert totals[0] < totals[1] < totals[2]


def test_modeled_delay_zero_rounds():
    order = network_order(build_grid(2, 2))
    assert modeled_delay_ms(order, 0, DelayModel(mu_ms=20.0)) == 0.0


def test_modeled_delay_partition_free_intranode():
    order = network_order(build_grid(4, 4))
    model = DelayModel(mu_ms=20.0, seed=9)
    charged_all = simulate_comm_delay(order, 2, model)
    partitioned = simulate_comm_delay(order, 2, model, nodes=10)
    single_node = simulate_comm_delay(order, 2, model, nodes=1)
    assert partitioned <= charged_all
    assert single_node == 0.0


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel(mu_ms=-1.0)


@pytest.mark.parametrize(
    "fields",
    [{"mu_ms": float("nan")}, {"mu_ms": float("inf")}],
)
def test_delay_model_rejects_values_that_are_not_finite(fields):
    with pytest.raises(ValueError, match="nan|inf"):
        DelayModel(**fields)


@pytest.mark.parametrize(
    "passes, nodes, named", [(2, 0, "nodes"), (2, -2, "nodes"), (-1, None, "passes")]
)
def test_comm_delay_rejects_negative_passes_and_empty_partitions(passes, nodes, named):
    order = network_order(build_grid(3, 3))
    with pytest.raises(ValueError, match=f"{named} must be"):
        simulate_comm_delay(order, passes, DelayModel(mu_ms=20.0), nodes=nodes)


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
    model = DelayModel(mu_ms=0.0, seed=4)
    rounds = 2 * order.diameter
    total = simulate_comm_delay(order, passes=2, model=model)
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

"""Guarantees on a roadnet that is not a grid.

The network is a 2x3 grid loaded from JSON with intersection ids 10, 20,
..., 60 and one extra diagonal internal link from 10 to 50, fed by its own
entry link. The diagonal closes the triangles 10-20-50 and 10-40-50, so the
coordination graph has odd cycles and agent ids are not row numbers.
"""
import json

import numpy as np
import pytest

import oracle
from conftest import forward_messages, random_macro_state, random_turning
from netsignal import harness
from netsignal.controllers import phase_pressures
from netsignal.coordination import build_cg, global_cost
from netsignal.harness import CONTROLLERS, Scenario, network_order, run_experiment
from netsignal.improvement import PlannerConfig
from netsignal.messaging import CoorBudget, coordinate, message_plan
from netsignal.network import Phase, build_grid, load_network
from netsignal.ordering import min_diameter_dag
from netsignal.simulation import SimConfig, balance_index, generate_uniform_flow, predict_next_queues

IDS = (10, 20, 30, 40, 50, 60)


def write_roadnet(path):
    doc = build_grid(2, 3).to_dict()
    new_id = {k: IDS[k] for k in range(len(IDS))}
    for d in doc["intersections"]:
        d["id"] = new_id[d["id"]]
    for d in doc["links"]:
        for end in ("start", "end"):
            if end in d:
                d[end] = new_id[d[end]]
    for d in doc["movements"]:
        d["intersection"] = new_id[d["intersection"]]
    links = {d["id"]: d for d in doc["links"]}
    exit_50 = next(l for l, d in links.items() if d["kind"] == "exit" and d["start"] == 50)
    link_50_60 = next(
        l for l, d in links.items() if d["kind"] == "internal" and (d["start"], d["end"]) == (50, 60)
    )
    feed, diagonal = max(links) + 1, max(links) + 2
    doc["links"] += [
        {"id": feed, "kind": "entry", "end": 10, "length_m": 300.0, "speed_mps": 10.0},
        {"id": diagonal, "kind": "internal", "start": 10, "end": 50, "length_m": 424.0, "speed_mps": 10.0},
    ]
    doc["movements"] += [
        {"from": feed, "to": diagonal, "intersection": 10, "phase": int(Phase.SN_LEFT), "sat_flow": 5.0},
        {"from": diagonal, "to": exit_50, "intersection": 50, "phase": int(Phase.WE_LEFT), "sat_flow": 5.0},
        {"from": diagonal, "to": link_50_60, "intersection": 50, "sat_flow": 3.0},
    ]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def net(tmp_path):
    return load_network(write_roadnet(tmp_path / "roadnet.json"))


def random_cgs(net, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        state = random_macro_state(net, rng)
        turning = random_turning(net, rng)
        yield state, turning, build_cg(state, net, turning), rng


def test_graph_has_the_diagonal_and_an_odd_cycle(net):
    cg = next(random_cgs(net, 0, 1))[2]
    assert cg.agents == IDS
    assert {(10, 20), (20, 50), (10, 50)} <= set(cg.edges)
    assert cg.edges == tuple(sorted(cg.edges))
    # the diagonal's table depends on both ends' phases
    table = cg.edge_costs[cg.edges.index((10, 50))]
    assert np.ptp(table, axis=0).any() and np.ptp(table, axis=1).any()


def test_cost_decomposition_exact(net):
    for state, turning, cg, rng in random_cgs(net, 1, 40):
        x = {i: Phase(int(rng.integers(4))) for i in IDS}
        expected = balance_index(predict_next_queues(state, x, net, turning))
        assert global_cost(cg, x) == pytest.approx(expected, rel=1e-9)


def test_diameter_is_the_longest_directed_path(net):
    order = network_order(net)
    assert order.diameter == oracle.longest_directed_path(order)
    cg = next(random_cgs(net, 2, 1))[2]
    assert min_diameter_dag(cg) == order
    assert message_plan(order).edges == cg.edges


def test_one_level_pass_is_a_fixpoint(net):
    order = network_order(net)
    for _, _, cg, _ in random_cgs(net, 3, 10):
        table = forward_messages(cg, order)
        again = forward_messages(cg, order, sync_rounds=1)
        reference = oracle.ScalarGraph(cg).sync_round(order.edges, table)
        for pair in order.edges:
            assert np.allclose(again[pair], table[pair], rtol=0.0, atol=1e-9)
            assert np.allclose(reference[pair], table[pair], rtol=0.0, atol=1e-9)


def test_decisions_map_rows_to_ids(net):
    order = network_order(net)
    for _, _, cg, _ in random_cgs(net, 4, 5):
        result = coordinate(cg, order, CoorBudget(rounds=0))
        assert result.assignment == {
            a: Phase(int(np.argmin(cg.individual[k]))) for k, a in enumerate(cg.agents)
        }
        result = coordinate(cg, order, CoorBudget(rounds=4 * order.diameter))
        assert result.passes == 2
        assert set(result.assignment) == set(IDS)


def test_phase_pressures_equal_oracle(net):
    for state, turning, _, _ in random_cgs(net, 6, 20):
        expected = oracle.phase_pressure_table(state, net, turning)
        assert np.array_equal(phase_pressures(state, net, turning), expected)


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_run_experiment_decides_every_intersection(net, controller, monkeypatch):
    decisions = []
    step = harness.step

    def recording_step(state, decision, *args, **kwargs):
        decisions.append(dict(decision))
        return step(state, decision, *args, **kwargs)

    monkeypatch.setattr(harness, "step", recording_step)
    horizon = 40
    metrics = run_experiment(
        Scenario(
            network=net,
            flow=generate_uniform_flow(net, 0.6, horizon * 10.0, 5),
            sim=SimConfig(tau=10.0, horizon=horizon, seed=5),
            controller=controller,
            planner=PlannerConfig(budget=CoorBudget(rounds=64, wall_ms=3000.0)),
        )
    )
    assert len(metrics.rows) == len(decisions) == horizon
    for decision in decisions:
        assert sorted(decision) == list(IDS)
        assert all(isinstance(p, Phase) for p in decision.values())
    assert metrics.throughput > 0

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported (non-asserted) diagnostics.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

import oracle
from conftest import (
    forward_messages,
    random_cg,
    random_connected_edges,
    random_macro_state,
    random_tree_edges,
    random_turning,
)
from netsignal.controllers import max_pressure
from netsignal.coordination import build_cg, global_cost
from netsignal.harness import (
    DelayModel,
    RateSpec,
    Scenario,
    modeled_delay_ms,
    network_order,
    resolve_flow,
    run_experiment,
)
from netsignal.improvement import PlannerConfig, local_improvement, plan_phases_detailed
from netsignal.messaging import CoorBudget, coordinate
from netsignal.network import Phase, build_grid
from netsignal.ordering import min_diameter_dag
from netsignal.prediction import period_model
from netsignal.simulation import (
    Flow,
    SimConfig,
    balance_index,
    estimate_turning,
    initial_state,
    predict_next_queues,
    step,
)

T_CRIT_95_DF9 = 1.833  # one-sided Student t, 95%, 9 degrees of freedom


def scenario(rows, cols, rate, controller, seed, horizon=360):
    return Scenario(
        network=build_grid(rows, cols),
        flow=RateSpec(rate_vps=rate, duration_s=horizon * 10.0, seed=seed),
        sim=SimConfig(tau=10.0, horizon=horizon, seed=seed),
        controller=controller,
        planner=PlannerConfig(budget=CoorBudget(rounds=10**6, wall_ms=3000.0)),
    )


def test_criterion_01_cost_decomposition_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grids = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    nets = {dims: build_grid(*dims) for dims in grids}
    worst = 0.0
    for k in range(200):
        net = nets[grids[k % len(grids)]]
        state = random_macro_state(net, rng)
        turning = random_turning(net, rng)
        x = {i: Phase(int(rng.integers(4))) for i in net.intersections}
        expected = balance_index(predict_next_queues(state, x, net, turning))
        got = global_cost(build_cg(state, net, turning), x)
        rel = abs(got - expected) / max(abs(expected), 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS - cost tables reproduce predicted balance: "
        f"worst relative error {worst:.2e} over 200 states ({elapsed:.1f}s)"
    )


def test_criterion_02_exact_on_acyclic_graphs():
    start = time.perf_counter()
    worst_gap = 0.0
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        n = 8 if seed % 2 == 0 else int(rng.integers(2, 9))
        cg = random_cg(rng, n, random_tree_edges(rng, n))
        order = min_diameter_dag(cg)
        result = coordinate(cg, order, CoorBudget(rounds=2 * max(order.diameter, 1)))
        _, best = oracle.brute_force_optimum(cg)
        got = global_cost(cg, result.assignment)
        worst_gap = max(worst_gap, abs(got - best))
        assert got == pytest.approx(best, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS - optimal on 50 random acyclic graphs "
        f"(up to 4^8 enumeration, worst gap {worst_gap:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_03_fixpoint_in_diameter_rounds():
    rng = np.random.default_rng(303)
    checked = 0
    for rows in range(2, 6):
        for cols in range(2, 6):
            net = build_grid(rows, cols)
            cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
            order = min_diameter_dag(cg)
            at_dia = forward_messages(cg, order)
            extra = forward_messages(cg, order, sync_rounds=1)
            for key in at_dia:
                assert np.allclose(at_dia[key], extra[key], atol=1e-9)
            checked += 1
    print(f"ACCEPTANCE 3 PASS - message fixpoint within diameter rounds on {checked} grids")


def test_criterion_04_sink_has_minimum_eccentricity():
    checked = 0
    for rows in range(1, 6):
        for cols in range(1, 6):
            net = build_grid(rows, cols)
            cg = build_cg(
                random_macro_state(net, np.random.default_rng(7)),
                net,
                random_turning(net, np.random.default_rng(7)),
            )
            order = min_diameter_dag(cg)
            eccs = [oracle.eccentricity(cg, a) for a in cg.agents]
            assert oracle.eccentricity(cg, order.sink) == min(eccs)
            assert order.diameter == min(eccs)
            checked += 1
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 31))
        cg = random_cg(rng, n, random_connected_edges(rng, n, extra=int(rng.integers(0, n // 2 + 1))))
        order = min_diameter_dag(cg)
        eccs = [oracle.eccentricity(cg, a) for a in cg.agents]
        assert oracle.eccentricity(cg, order.sink) == min(eccs)
        checked += 1
    print(f"ACCEPTANCE 4 PASS - minimum-eccentricity sink on {checked} graphs")


def test_criterion_05_worked_example_reproduced(fig_two):
    cg = build_cg(fig_two.state, fig_two.net, fig_two.turning)
    optimum, cost = oracle.brute_force_optimum(cg)
    assert optimum[fig_two.i] == Phase.WE_LEFT
    assert cost == pytest.approx(16.0)

    actions = {fig_two.i: Phase.WE_LEFT, fig_two.j: Phase.WE_STRAIGHT}
    args = (fig_two.state, fig_two.net, fig_two.turning)
    choice = local_improvement(actions, *args, budget=CoorBudget(rounds=1))[fig_two.i]
    assert choice == Phase.WE_STRAIGHT
    assert choice == oracle.best_response(fig_two.i, actions, *args)
    model = period_model(fig_two.net, fig_two.state, fig_two.turning)
    row = model.arrays.agent_ids.index(fig_two.i)
    picks = np.array([int(actions[a]) for a in model.arrays.agent_ids], dtype=np.intp)
    own = model.sweep_scores(picks)[Phase.WE_STRAIGHT, row]
    assert own == pytest.approx(4.0)
    assert own == pytest.approx(
        oracle.predicted_own_balance(fig_two.i, Phase.WE_STRAIGHT, actions, *args)
    )

    cfg = PlannerConfig(budget=CoorBudget(rounds=64), epsilon=0.8)
    final = plan_phases_detailed(fig_two.state, fig_two.net, fig_two.turning, cfg).assignment
    assert final[fig_two.i] == Phase.WE_STRAIGHT
    print(
        "ACCEPTANCE 5 PASS - worked two-intersection example: "
        "network optimum WE-Left (balance 16), best response WE-Straight (own balance 4), "
        "full pipeline WE-Straight"
    )


def test_criterion_06_balance_dominance():
    # The validated property is the drift comparison: from each visited
    # state, the coordinated decision's next-period balance is at most
    # MaxPressure's. Measured along both controllers' own trajectories on
    # the 4x4 scenario. The two-run closed-loop means are reported for
    # reference; at this load the simulator leaves them inverted (see the
    # decisions ledger).
    net = build_grid(4, 4)
    order = network_order(net)
    closed_loop = {}
    drift = {}
    for driver in ("nlcoor", "maxpressure"):
        sc = scenario(4, 4, 1.76, driver, seed=0)
        vehicles = resolve_flow(sc)
        flow = Flow(vehicles, 10.0, net)
        cfg = sc.sim
        state = initial_state(net)
        realized = []
        nl_next = []
        mp_next = []
        for t in range(cfg.horizon):
            turning = estimate_turning(state, net, flow)
            cg = build_cg(state, net, turning)
            nl_dec = coordinate(cg, order, CoorBudget(rounds=2 * order.diameter)).assignment
            mp_dec = max_pressure(state, net, turning)
            nl_next.append(balance_index(predict_next_queues(state, nl_dec, net, turning)))
            mp_next.append(balance_index(predict_next_queues(state, mp_dec, net, turning)))
            decision = nl_dec if driver == "nlcoor" else mp_dec
            state = step(state, decision, net, cfg, flow=flow)
            realized.append(balance_index(state))
        closed_loop[driver] = float(np.mean(realized))
        nl_mean, mp_mean = float(np.mean(nl_next)), float(np.mean(mp_next))
        frac = float(np.mean(np.array(nl_next) <= np.array(mp_next) + 1e-9))
        drift[driver] = (nl_mean, mp_mean, frac)
        assert nl_mean <= mp_mean
        assert frac >= 0.95
    print(
        "ACCEPTANCE 6 PASS - balance dominance (next-period balance from common states): "
        f"on own trajectory {drift['nlcoor'][0]:.1f} <= {drift['nlcoor'][1]:.1f} "
        f"(pointwise {drift['nlcoor'][2]:.3f}), on greedy trajectory "
        f"{drift['maxpressure'][0]:.1f} <= {drift['maxpressure'][1]:.1f} "
        f"(pointwise {drift['maxpressure'][2]:.3f})"
    )
    print(
        "  reported closed-loop mean balance (separate runs): "
        f"coordinated {closed_loop['nlcoor']:.1f} vs greedy {closed_loop['maxpressure']:.1f}"
    )


def _confirmed_gap(differences):
    d = np.array(differences, dtype=float)
    mean = d.mean()
    half_width = T_CRIT_95_DF9 * d.std(ddof=1) / np.sqrt(len(d))
    return mean, mean - half_width


def test_criterion_07_travel_time_ordering():
    start = time.perf_counter()
    cases = {(4, 4): 1.76, (15, 15): 0.80}
    lines = []
    for dims, rate in cases.items():
        results = {c: [] for c in ("emc", "maxpressure", "fixedtime")}
        for seed in range(10):
            for controller in results:
                m = run_experiment(scenario(dims[0], dims[1], rate, controller, seed))
                results[controller].append(m.avg_travel_time_s)
        emc = np.array(results["emc"])
        mp = np.array(results["maxpressure"])
        ft = np.array(results["fixedtime"])
        gap1_mean, gap1_low = _confirmed_gap(mp - emc)
        gap2_mean, gap2_low = _confirmed_gap(ft - mp)
        assert gap1_low > 0, f"{dims}: coordination vs greedy gap not confirmed ({gap1_mean:.2f})"
        assert gap2_low > 0, f"{dims}: greedy vs fixed gap not confirmed ({gap2_mean:.2f})"
        lines.append(
            f"{dims[0]}x{dims[1]}: {emc.mean():.1f} < {mp.mean():.1f} < {ft.mean():.1f} s "
            f"(gaps {gap1_mean:.2f}/{gap2_mean:.2f}, 95% lower bounds {gap1_low:.2f}/{gap2_low:.2f})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 7 PASS - travel-time ordering over 10 seeds: {'; '.join(lines)} ({elapsed:.0f}s)")


def test_ablation_message_passing_against_the_sweeps_alone():
    # What message passing buys on top of the sweeps. Sweeps-only is the
    # planner with no message rounds: each agent starts from the argmin of
    # its own cost and the sweeps run to their cap. Asserted is only what
    # holds at every seed: emc and sweeps-only each beat max-pressure, and
    # nlcoor (message passing, no sweeps) loses to it. The emc gain over
    # sweeps-only is printed, not bounded: on these grids it is a fraction
    # of a percent, which points at the one-step balance objective, more
    # than at the solver, as what limits what coordination buys.
    start = time.perf_counter()
    sweeps_only = PlannerConfig(budget=CoorBudget(rounds=4), epsilon=0.0)
    lines = []
    for rows, cols, rate in ((4, 4, 1.76), (10, 10, 1.0)):
        runs = []
        for seed in range(3):
            runs_of = {c: scenario(rows, cols, rate, c, seed) for c in ("maxpressure", "emc", "nlcoor")}
            runs_of["sweeps"] = replace(runs_of["emc"], planner=sweeps_only)
            tt = {c: run_experiment(sc).avg_travel_time_s for c, sc in runs_of.items()}
            assert tt["emc"] < tt["maxpressure"] and tt["sweeps"] < tt["maxpressure"], (rows, cols, seed, tt)
            assert tt["nlcoor"] > tt["maxpressure"], (rows, cols, seed, tt)
            runs.append(tt)
        mean = {c: float(np.mean([tt[c] for tt in runs])) for c in runs[0]}
        lines.append(
            f"{rows}x{cols} @ {rate}: max-pressure {mean['maxpressure']:.1f}, emc {mean['emc']:.1f}, "
            f"sweeps-only {mean['sweeps']:.1f}, nlcoor {mean['nlcoor']:.1f} s "
            f"(emc - sweeps-only {mean['emc'] - mean['sweeps']:+.2f} s)"
        )
    print(
        f"ACCEPTANCE ablation PASS - mean travel time over seeds 0-2: {'; '.join(lines)} "
        f"({time.perf_counter() - start:.1f}s)"
    )


def test_criterion_08_real_time_budget_on_400_agents():
    sc = scenario(20, 20, 0.77, "emc", seed=0, horizon=100)
    metrics = run_experiment(sc)
    mean_ms = metrics.mean_decision_ms
    worst_ms = max(r.decision_ms for r in metrics.rows)
    assert mean_ms <= 3000.0
    print(
        f"ACCEPTANCE 8 PASS - 400-agent decision time: mean {mean_ms:.0f} ms, "
        f"worst {worst_ms:.0f} ms (bound 3000 ms, 100 periods)"
    )


def _quarter_means(rows):
    q = np.array([r.total_queue for r in rows])
    n = len(q)
    return q[n // 4 : n // 2].mean(), q[3 * n // 4 :].mean()


def test_criterion_09_stability_soak():
    start = time.perf_counter()

    def fixed_time_saturated(rate):
        m = run_experiment(scenario(4, 4, rate, "fixedtime", seed=0, horizon=900))
        q2, q4 = _quarter_means(m.rows)
        return q4 >= 1.3 * max(q2, 1.0) and q4 > 400

    lo, hi = 1.0, 2.0
    while not fixed_time_saturated(hi):
        lo, hi = hi, hi * 2
        assert hi <= 64, "fixed-time controller never saturated"
    for _ in range(5):
        mid = 0.5 * (lo + hi)
        if fixed_time_saturated(mid):
            hi = mid
        else:
            lo = mid
    soak_rate = 0.8 * hi

    m = run_experiment(scenario(4, 4, soak_rate, "emc", seed=0, horizon=3600))
    q2, q4 = _quarter_means(m.rows)
    ratio = q4 / max(q2, 1e-9)
    assert ratio < 1.10
    print(
        f"ACCEPTANCE 9 PASS - stability soak at rate {soak_rate:.2f} veh/s "
        f"(80% of saturation {hi:.2f}): quarter means {q2:.1f} -> {q4:.1f}, "
        f"ratio {ratio:.3f} < 1.10 ({time.perf_counter() - start:.0f}s)"
    )


def _anytime_profile(size, rate, seed, caps):
    """Along an emc run on a size x size grid, each period's coordinate
    decision under each rounds cap of `caps(diameter)`, scored by its
    predicted balance over max-pressure's, as the mean over periods 5-39."""
    sc = scenario(size, size, rate, "emc", seed=seed, horizon=40)
    net = sc.network
    flow = Flow(resolve_flow(sc), sc.sim.tau, net)
    order = network_order(net)
    budgets = [CoorBudget(rounds=cap) for cap in caps(order.diameter)]
    ratios = []
    state = initial_state(net)
    for t in range(sc.sim.horizon):
        turning = estimate_turning(state, net, flow)
        if t >= 5:
            cg = build_cg(state, net, turning)
            greedy = global_cost(cg, max_pressure(state, net, turning))
            ratios.append([global_cost(cg, coordinate(cg, order, budget).assignment) / greedy for budget in budgets])
        state = step(state, plan_phases_detailed(state, net, turning, sc.planner).assignment, net, sc.sim, flow)
    return np.mean(ratios, axis=0)


def test_anytime_decisions_improve_within_a_pass():
    # The paper's agents decide from the current messages when the time
    # limit is reached. Along an emc run on 10x10, the decision at the end
    # of pass 1 and at each quarter of pass 2: every level run must count,
    # so no quarter may be worse than the one before it.
    start = time.perf_counter()
    profile = _anytime_profile(10, 1.0, 0, lambda dia: [dia + round(q * dia / 4) for q in range(5)])
    assert all(b <= a for a, b in zip(profile, profile[1:]))
    print(
        "ACCEPTANCE anytime - predicted balance over max-pressure's on 10x10, periods 5-39: "
        f"end of pass 1 {profile[0]:.3f}, pass 2 at 25/50/75/100% "
        + " / ".join(f"{r:.3f}" for r in profile[1:])
        + f" ({time.perf_counter() - start:.2f}s)"
    )


def test_anytime_decisions_improve_at_every_quarter_on_20x20():
    # The same profile on the 400-agent grid at each quarter of both passes.
    start = time.perf_counter()
    profile = _anytime_profile(20, 0.77, 1, lambda dia: [round(q * dia / 4) for q in range(1, 9)])
    assert all(b <= a for a, b in zip(profile, profile[1:]))
    print(
        "ACCEPTANCE anytime - predicted balance over max-pressure's on 20x20, periods 5-39: "
        "pass 1 at 25/50/75/100% "
        + " / ".join(f"{r:.3f}" for r in profile[:4])
        + ", pass 2 at 25/50/75/100% "
        + " / ".join(f"{r:.3f}" for r in profile[4:])
        + f" ({time.perf_counter() - start:.2f}s)"
    )


def test_criterion_10_comm_delay_model():
    orders = {dims: network_order(build_grid(*dims)) for dims in ((3, 3), (4, 4), (15, 15), (20, 20))}
    model = DelayModel(mu_ms=20.0)

    def two_passes(order, model):
        return modeled_delay_ms(order, 2 * order.diameter, model, 0, nodes=10)

    total = two_passes(orders[(20, 20)], model)
    assert 0.5 * 1230.0 <= total <= 1.5 * 1230.0

    by_mu = [two_passes(orders[(20, 20)], DelayModel(mu_ms=mu)) for mu in (0.0, 10.0, 20.0)]
    assert by_mu[0] <= by_mu[1] <= by_mu[2]
    by_size = [two_passes(orders[dims], model) for dims in ((3, 3), (4, 4), (15, 15), (20, 20))]
    assert all(a <= b for a, b in zip(by_size, by_size[1:]))
    print(
        f"ACCEPTANCE 10 PASS - modeled delay {total:.0f} ms vs 1230 ms reference (+/-50%); "
        f"monotone in mu {['%.0f' % v for v in by_mu]} and grid size {['%.0f' % v for v in by_size]}"
    )

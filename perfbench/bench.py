"""Workload set-up, timed runs, correctness checks and metrics.

Imported by `run.py` after it has pinned the numeric libraries to one
thread and put the checkout's `src` on the import path.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from netsignal.coordination import build_cg, global_cost
from netsignal.harness import Metrics, Scenario, network_order, run_experiment
from netsignal.improvement import PlannerConfig
from netsignal.messaging import CoorBudget
from netsignal.network import build_grid
from netsignal.simulation import SimConfig, balance_index, generate_uniform_flow, predict_next_queues
from probe import SpeedProbe
from tracer import Tracer

TAU = 10.0
# Set-ups made before the first run; one more is made before every cycle.
SETUPS_BEFORE_RUNS = 3
# Periods between exact cost-decomposition checks in a traced emc run.
DECOMPOSITION_EVERY = 10
DECOMPOSITION_RTOL = 1e-6  # the tolerance of acceptance criterion 1
OUT_DIR = ".bench_out"


@dataclass(frozen=True)
class Workload:
    """One entry of `workloads.json`."""

    name: str
    rows: int
    cols: int
    rate_vps: float
    controller: str
    horizon: int
    spans_required: list
    spans_absent: list


@dataclass
class Setup:
    net: object
    vehicles: list
    diameter: int


def set_up(w: Workload, seed: int) -> tuple[Setup, dict]:
    """The grid and uniform flow of the acceptance suite, plus the orientation.

    `network_order` also fills the network's cached movement arrays, so the
    timed runs start warm. Returns the inputs and the time of each step.
    """
    t0 = time.perf_counter()
    net = build_grid(w.rows, w.cols)
    t1 = time.perf_counter()
    vehicles = generate_uniform_flow(net, w.rate_vps, w.horizon * TAU, seed)
    t2 = time.perf_counter()
    order = network_order(net)
    t3 = time.perf_counter()
    times = {"grid_ms": (t1 - t0) * 1e3, "flow_ms": (t2 - t1) * 1e3, "order_ms": (t3 - t2) * 1e3}
    return Setup(net, vehicles, order.diameter), times


def _keep_plan(args, kwargs, result):
    state, turning = args[0], args[2]
    sample = (state, turning) if state.period % DECOMPOSITION_EVERY == 0 else None
    return result.assignment, sample


KEEPERS = {
    "step": lambda args, kwargs, result: len(result.transit),
    "max_pressure": lambda args, kwargs, result: (result, None),
    "plan_phases_detailed": _keep_plan,
    "network_order": lambda args, kwargs, result: result.diameter,
    "build_cg": lambda args, kwargs, result: len(result.edges),
    "coordinate": lambda args, kwargs, result: (result.rounds, result.passes, result.converged),
    "local_improvement": lambda args, kwargs, result: (args[0], result),
}


@dataclass
class RunResult:
    metrics: Metrics
    wall_s: float
    fingerprint: str
    errors: list[str]
    tracer: Optional[Tracer] = None
    probe: Optional[SpeedProbe] = None
    counts: dict = field(default_factory=dict)
    decisions: str = ""

    @property
    def quality(self) -> tuple:
        m = self.metrics
        return (m.avg_travel_time_s, m.mean_balance, m.throughput)


def fingerprint(vehicles, metrics: Metrics) -> str:
    """Hash of every vehicle's exit time and the per-period queue rows."""
    h = hashlib.sha256()
    h.update(np.array([np.nan if v.exit_time is None else v.exit_time for v in vehicles]).tobytes())
    h.update(np.array([(r.total_queue, r.balance) for r in metrics.rows]).tobytes())
    return h.hexdigest()[:16]


def run_once(w: Workload, setup: Setup, seed: int, traced: bool) -> RunResult:
    for v in setup.vehicles:
        v.enter_time = None
        v.exit_time = None
    scenario = Scenario(
        network=setup.net,
        flow=setup.vehicles,
        sim=SimConfig(tau=TAU, horizon=w.horizon, seed=seed),
        controller=w.controller,
        planner=PlannerConfig(budget=CoorBudget(rounds=10**6, wall_ms=3000.0)),
    )
    # The probe goes in last, so that it runs outside every span.
    tracer = Tracer(KEEPERS) if traced else None
    probe = SpeedProbe()
    with tracer.installed() if tracer else nullcontext(), probe.installed():
        t0 = time.perf_counter()
        metrics = run_experiment(scenario)
        wall = time.perf_counter() - t0
    wall -= sum(end - start for start, end in probe.samples[1:-1])
    run = RunResult(metrics, wall, fingerprint(setup.vehicles, metrics), [], tracer, probe)
    if len(metrics.rows) != w.horizon:
        run.errors.append(f"{len(metrics.rows)} period rows, expected {w.horizon}")
    early = sum(1 for v in setup.vehicles if v.exit_time is not None and v.exit_time < v.depart_s)
    if early:
        run.errors.append(f"{early} vehicles exit before they depart")
    if tracer:
        check_traced(w, setup, run)
    return run


def check_traced(w: Workload, setup: Setup, run: RunResult) -> None:
    """Checks and counts that need the per-call records of a traced run."""
    kept, errors, horizon = run.tracer.kept, run.errors, w.horizon

    # Vehicle conservation after every period: departed - exited = queued + in transit.
    transit = np.array(kept["step"], dtype=float)
    if len(transit) != horizon:
        errors.append(f"{len(transit)} step calls, expected {horizon}")
    else:
        depart_p = np.array([int(v.depart_s // TAU) for v in setup.vehicles], dtype=np.intp)
        exit_p = np.array(
            [round(v.exit_time / TAU) - 1 for v in setup.vehicles if v.exit_time is not None], dtype=np.intp
        )
        departed = np.bincount(depart_p, minlength=horizon)[:horizon].cumsum()
        exited = np.bincount(exit_p, minlength=horizon)[:horizon].cumsum()
        queued = np.array([r.total_queue for r in run.metrics.rows])
        bad = np.nonzero(departed - exited != queued + transit)[0]
        if len(bad):
            errors.append(f"vehicles not conserved in {len(bad)} periods, first {int(bad[0])}")

    # Every decision covers every intersection; hash the decisions.
    decisions = kept["plan_phases_detailed"] + kept["max_pressure"]
    agents = sorted(setup.net.intersections)
    everyone = set(agents)
    h = hashlib.sha256()
    incomplete = 0
    for x, _ in decisions:
        incomplete += x.keys() != everyone
        h.update(bytes(int(x.get(a, 255)) for a in agents))
    run.decisions = h.hexdigest()[:16]
    if len(decisions) != horizon or incomplete:
        errors.append(f"{len(decisions)} decisions for {horizon} periods, {incomplete} incomplete")

    # Exact cost decomposition on sampled periods, with the tracer removed.
    for x, sample in decisions:
        if sample is None:
            continue
        state, turning = sample
        got = global_cost(build_cg(state, setup.net, turning), x)
        want = balance_index(predict_next_queues(state, x, setup.net, turning))
        if abs(got - want) > DECOMPOSITION_RTOL * max(abs(want), 1.0):
            errors.append(f"period {state.period}: global_cost {got!r} != predicted balance {want!r}")

    seen = run.tracer.layers_seen()
    if set(w.spans_required) - seen:
        errors.append(f"no spans for layers {sorted(set(w.spans_required) - seen)}")
    if set(w.spans_absent) & seen:
        errors.append(f"unexpected spans for layers {sorted(set(w.spans_absent) & seen)}")

    coordinate = kept["coordinate"]
    run.counts = {
        "rounds": sum(c[0] for c in coordinate),
        "passes": sum(c[1] for c in coordinate),
        "converged": sum(c[2] for c in coordinate),
        "coordinate_calls": len(coordinate),
        "flips": sum(sum(init[a] != final[a] for a in init) for init, final in kept["local_improvement"]),
        "period_model_calls": sum(1 for span in run.tracer.spans if span[0] == "period_model"),
        "diameter": kept["network_order"][0] if kept["network_order"] else 0,
        "edges": kept["build_cg"][0] if kept["build_cg"] else 0,
    }


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def across_runs(per_run) -> np.ndarray:
    """Element-wise median over runs of the same inputs.

    Every run of one invocation does the same work, call for call (the
    fingerprint and count checks hold it to that), so the k-th sample of
    each run times the same work; the median over runs keeps the variation
    between periods, which is the program's own.
    """
    n = min(len(x) for x in per_run)
    return np.median([x[:n] for x in per_run], axis=0)


def end_to_end(w, setups, plain, attempted, failed) -> dict:
    decision = across_runs(
        [run.probe.scaled_ms([r.decision_ms for r in run.metrics.rows]) for run in plain]
    )
    first = plain[0].metrics
    return {
        "decision_ms_p50": p50(decision),
        "decision_ms_p90": p90(decision),
        "periods_per_s": statistics.median(w.horizon / run.probe.scaled_s() for run in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "avg_travel_time_s": first.avg_travel_time_s,
        "mean_balance": first.mean_balance,
        "throughput_veh": first.throughput,
        "success_ratio": (attempted - failed) / attempted,
    }


def per_layer(w, setup, setups, plain, traced) -> dict:
    def spans(name):
        return across_runs([run.tracer.durations_ms(name, run.probe.scale_at) for run in traced])

    def per_period(count):
        return traced[0].counts[count] / w.horizon

    counts = traced[0].counts
    coordinate_ms = spans("coordinate")
    step_ms = spans("step")
    return {
        "messaging.coordinate_ms_p50": p50(coordinate_ms),
        "messaging.coordinate_ms_p90": p90(coordinate_ms),
        "messaging.ms_per_round": float(coordinate_ms.sum()) / counts["rounds"] if counts["rounds"] else 0.0,
        "messaging.rounds_per_period": per_period("rounds"),
        "messaging.passes_per_period": per_period("passes"),
        "messaging.converged_ratio": (
            counts["converged"] / counts["coordinate_calls"] if counts["coordinate_calls"] else 0.0
        ),
        "coordination.build_cg_ms_p50": p50(spans("build_cg")),
        "coordination.edges": counts["edges"],
        "prediction.period_model_ms_p50": p50(spans("period_model")),
        "prediction.period_model_calls_per_period": per_period("period_model_calls"),
        "improvement.local_improvement_ms_p50": p50(spans("local_improvement")),
        "improvement.flips_per_period": per_period("flips"),
        "improvement.plan_self_ms_p50": p50(
            across_runs([run.tracer.self_ms("plan_phases_detailed", run.probe.scale_at) for run in traced])
        ),
        "controllers.max_pressure_ms_p50": p50(spans("max_pressure")),
        "simulation.step_ms_p50": p50(step_ms),
        "simulation.step_ms_p90": p90(step_ms),
        "simulation.estimate_turning_ms_p50": p50(spans("estimate_turning")),
        "simulation.queued_veh_mean": float(np.mean([r.total_queue for r in plain[0].metrics.rows])),
        "simulation.generate_uniform_flow_ms": statistics.median(s["flow_ms"] for s in setups),
        "ordering.network_order_ms": statistics.median(s["order_ms"] for s in setups),
        "ordering.diameter": setup.diameter,
        "network.build_grid_ms": statistics.median(s["grid_ms"] for s in setups),
        "harness.self_ms_per_period": statistics.median(
            (run.probe.scaled_s() - run.tracer.top_level_s(run.probe.scale_at)) * 1e3 / w.horizon
            for run in traced
        ),
        "harness.trace_overhead_pct": 100.0 * (
            statistics.median(run.probe.scaled_s() for run in traced)
            / statistics.median(run.probe.scaled_s() for run in plain)
            - 1.0
        ),
    }


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(args, root: Path, spec: dict) -> int:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    w = Workload(name=args.workload, **spec["workloads"][args.workload])
    record = {
        "workload": w.name,
        "seed": args.seed,
        "held_out_seed": spec["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    for key, value in record.items():
        print(f"# {key}: {value}")

    # Set-up is short next to a run, so it is repeated in every cycle as
    # well as up front, and each cycle runs on the inputs it just built.
    # Its times are scaled to the reference speed by probes on either side.
    setups: list[dict] = []

    def fresh_setup() -> Setup:
        probe = SpeedProbe()
        probe.sample()
        setup, times = set_up(w, args.seed)
        probe.sample()
        scale = probe.scale_at(probe.samples[0][1])
        setups.append({**{k: ms * scale for k, ms in times.items()}, "setup_s": probe.scaled_s()})
        return setup

    for _ in range(SETUPS_BEFORE_RUNS):
        fresh_setup()

    # Untraced runs give the end-to-end figures; with --trace 1 each is
    # followed by a traced run of the same inputs.
    modes = (False, True) if args.trace else (False,)
    plain: list[RunResult] = []
    traced: list[RunResult] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        cycle_start = time.perf_counter()
        setup = fresh_setup()
        for mode in modes:
            attempted += 1
            gc.collect()
            try:
                run = run_once(w, setup, args.seed, mode)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            reference = (plain or [run])[0].fingerprint
            if run.fingerprint != reference:
                run.errors.append(f"fingerprint {run.fingerprint} differs from {reference}")
            if run.errors:
                failed += 1
                print(f"run {attempted} failed: {'; '.join(run.errors)}", file=sys.stderr)
            (traced if mode else plain).append(run)
        cycle = time.perf_counter() - cycle_start
        if time.perf_counter() + cycle > deadline:
            break

    complete = bool(plain) and (bool(traced) or not args.trace)
    divergent = []
    if complete:
        if len({run.quality for run in plain + traced}) > 1:
            divergent.append("quality metrics")
        if len({tuple(run.counts.values()) for run in traced}) > 1:
            divergent.append("counts")
        if len({run.decisions for run in traced}) > 1:
            divergent.append("decisions")
    for what in divergent:
        print(f"{what} differ between runs of one workload and seed", file=sys.stderr)
    correct = complete and failed == 0 and not divergent

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    values = {}
    if complete:
        values.update(end_to_end(w, setups, plain, attempted, failed))
        if args.trace:
            values.update(per_layer(w, setup, setups, plain, traced))
    wanted = [m["name"] for m in declared[kind]]
    if complete and set(wanted) - values.keys():
        raise RuntimeError(f"metrics not computed: {sorted(set(wanted) - values.keys())}")

    print(f"# runs: {len(plain)} untraced, {len(traced)} traced")
    print(f"# error_rate: {failed / attempted!r} ({failed} of {attempted} runs)")
    print(f"# run wall s: untraced {[round(r.wall_s, 3) for r in plain]}")
    print(f"# run s at reference speed: untraced {[round(r.probe.scaled_s(), 3) for r in plain]}")
    print(f"# run wall s: traced {[round(r.wall_s, 3) for r in traced]}")
    print(f"# run s at reference speed: traced {[round(r.probe.scaled_s(), 3) for r in traced]}")
    if complete:
        print(f"# fingerprint: {plain[0].fingerprint}" + (f", decisions {traced[0].decisions}" if traced else ""))
        if traced:
            print(f"# counts per traced run: {traced[0].counts}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    detail = {
        "record": record,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "divergent": divergent,
        "metrics": values,
        "runs": [
            {
                "traced": run.tracer is not None,
                "wall_s": run.wall_s,
                "decision_ms": [r.decision_ms for r in run.metrics.rows],
                "probe": run.probe.samples,
                "decision_starts": run.probe.marks,
            }
            for run in plain + traced
        ],
        "fingerprints": [run.fingerprint for run in plain + traced],
        "decisions": [run.decisions for run in traced],
        "counts": [run.counts for run in traced],
        "errors": [run.errors for run in plain + traced],
        "spans": [[k, *span] for k, run in enumerate(traced) for span in run.tracer.spans],
    }
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(detail))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in wanted},
    }
    print(json.dumps(result))
    return 0

"""Command-line entry points: run experiments, generate inputs, model delay."""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from netsignal.harness import (
    CONTROLLERS,
    BudgetOverrunError,
    DelayModel,
    Metrics,
    RateSpec,
    Scenario,
    modeled_delay_ms,
    network_order,
    resolve_flow,
    run_experiment,
    write_comparison_csv,
    write_metrics_csv,
)
from netsignal.improvement import PlannerConfig
from netsignal.messaging import CoorBudget
from netsignal.network import LoadError, build_grid, load_network, save_network
from netsignal.simulation import MetricsError, SimConfig, generate_uniform_flow, load_flow, save_flow


def grid_spec(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        rows, cols = int(rows), int(cols)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 4x4, got {text!r}") from exc
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError(f"grid dimensions must be >= 1, got {text!r}")
    return rows, cols


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--roadnet", help="roadnet JSON file")
    group.add_argument("--grid", type=grid_spec, help="synthetic grid, e.g. 4x4")


def _add_flow_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--flow", help="flow JSON file")
    group.add_argument("--rate", type=float, help="uniform arrival rate, vehicles/s")
    parser.add_argument("--duration", type=float, help="flow duration in seconds")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_network_args(parser)
    _add_flow_args(parser)
    parser.add_argument("--budget-ms", type=float, default=3000.0, help="decision budget per period")
    parser.add_argument("--epsilon", type=float, default=0.8, help="budget share for message passing")
    parser.add_argument("--tau", type=float, default=10.0, help="seconds per signal period")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mu", type=float, default=None, help="model per-message delay N(mu, 3^2) ms")
    parser.add_argument("--out", help="write per-period metrics CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsignal", description="Decentralized traffic-signal coordination experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one controller on one scenario")
    _add_run_args(run)
    run.add_argument("--controller", choices=CONTROLLERS, default="emc")

    compare = sub.add_parser("compare", help="run every controller on one scenario")
    _add_run_args(compare)

    gen_grid = sub.add_parser("gen-grid", help="write a synthetic grid roadnet file")
    gen_grid.add_argument("--grid", type=grid_spec, required=True)
    gen_grid.add_argument("--h-len", type=float, default=300.0)
    gen_grid.add_argument("--v-len", type=float, default=300.0)
    gen_grid.add_argument("--sat-flow", type=float, default=5.0)
    gen_grid.add_argument("--out", required=True)

    gen_flow = sub.add_parser("gen-flow", help="write a uniform flow file")
    _add_network_args(gen_flow)
    gen_flow.add_argument("--rate", type=float, required=True)
    gen_flow.add_argument("--duration", type=float, required=True)
    gen_flow.add_argument("--seed", type=int, default=0)
    gen_flow.add_argument("--out", required=True)

    delay = sub.add_parser("comm-delay", help="model the communication delay of one message cycle")
    _add_network_args(delay)
    delay.add_argument("--mu", type=float, required=True, help="mean per-message delay, ms")
    delay.add_argument("--nodes", type=int, default=None, help="partition agents over N nodes")
    delay.add_argument("--seed", type=int, default=0)

    return parser


def _load_net(args):
    if args.roadnet:
        return load_network(args.roadnet)
    rows, cols = args.grid
    return build_grid(rows, cols)


def _build_scenario(args, controller: str) -> Scenario:
    if args.duration is not None and not 0 < args.duration < math.inf:
        raise LoadError(f"--duration must be positive and finite, got {args.duration}")
    if not 0 < args.tau < math.inf:
        raise LoadError(f"--tau must be positive and finite, got {args.tau}")
    net = _load_net(args)
    if args.rate is not None:
        if args.duration is None:
            raise LoadError("--rate needs --duration")
        flow = RateSpec(rate_vps=args.rate, duration_s=args.duration, seed=args.seed)
        duration = args.duration
    else:
        vehicles = load_flow(args.flow, net, seed=args.seed)
        if not vehicles:
            raise LoadError(f"flow file {args.flow} holds no vehicles")
        flow = vehicles
        duration = args.duration or max(v.depart_s for v in vehicles) + 600.0
    if not duration / args.tau < math.inf:
        raise LoadError(f"duration {duration} s / --tau {args.tau} s gives no finite number of periods")
    horizon = max(1, math.ceil(duration / args.tau))
    return Scenario(
        network=net,
        flow=flow,
        sim=SimConfig(tau=args.tau, horizon=horizon, seed=args.seed),
        controller=controller,
        planner=PlannerConfig(budget=CoorBudget(wall_ms=args.budget_ms), epsilon=args.epsilon),
        delay=None if args.mu is None else DelayModel(mu_ms=args.mu),
    )


def _print_metrics(name: str, m: Metrics) -> None:
    print(
        f"{name:12s} travel_time {m.avg_travel_time_s:8.1f} s   throughput {m.throughput:6d}   "
        f"mean_balance {m.mean_balance:10.1f}   decision {m.mean_decision_ms:7.2f} ms"
    )


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            scenario = _build_scenario(args, args.controller)
            metrics = run_experiment(scenario)
            _print_metrics(args.controller, metrics)
            if args.out:
                write_metrics_csv(metrics, args.out)
                print(f"wrote {args.out}")
        elif args.command == "compare":
            scenario = _build_scenario(args, CONTROLLERS[0])
            # one vehicle list for every controller: each run clears its exit times
            scenario = replace(scenario, flow=resolve_flow(scenario))
            results = {}
            for controller in CONTROLLERS:
                results[controller] = run_experiment(replace(scenario, controller=controller))
                _print_metrics(controller, results[controller])
            if args.out:
                write_comparison_csv(results, args.out)
                print(f"wrote {args.out}")
        elif args.command == "gen-grid":
            rows, cols = args.grid
            net = build_grid(rows, cols, args.h_len, args.v_len, args.sat_flow)
            save_network(net, args.out)
            print(f"wrote {args.out}")
        elif args.command == "gen-flow":
            net = _load_net(args)
            vehicles = generate_uniform_flow(net, args.rate, args.duration, args.seed)
            save_flow(vehicles, args.out)
            print(f"wrote {args.out} ({len(vehicles)} vehicles)")
        elif args.command == "comm-delay":
            net = _load_net(args)
            order = network_order(net)
            rounds = 2 * order.diameter  # the one cycle `coordinate` runs
            total = modeled_delay_ms(order, rounds, DelayModel(mu_ms=args.mu), args.seed, nodes=args.nodes)
            print(f"agents {len(net.intersections)}  rounds {rounds}  modeled delay {total / 1e3:.3f} s")
    except (LoadError, MetricsError, ValueError, OSError, BudgetOverrunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

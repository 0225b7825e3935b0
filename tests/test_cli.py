import json
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import memory_runs_out_at_link, shifted_grid_doc
from netsignal import harness
from netsignal.cli import cli_main, grid_spec
from netsignal.network import build_grid, load_network, movement_arrays, save_network
from netsignal.simulation import SimConfig


def test_run_happy_path(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli_main(
        [
            "run",
            "--grid",
            "2x2",
            "--rate",
            "0.5",
            "--duration",
            "300",
            "--controller",
            "emc",
            "--budget-ms",
            "3000",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert "travel_time" in capsys.readouterr().out


def test_run_on_a_single_row_grid(capsys):
    # a 1xN grid's entries cannot reach the exit on their own side
    code = cli_main(["run", "--grid", "1x2", "--rate", "0.5", "--duration", "200"])
    assert code == 0
    assert "travel_time" in capsys.readouterr().out


def test_zero_grid_is_usage_error(capsys):
    code = cli_main(["run", "--grid", "0x4", "--rate", "1", "--duration", "100"])
    capsys.readouterr()
    assert code == 2


def test_conflicting_network_flags(capsys):
    code = cli_main(
        ["run", "--grid", "2x2", "--roadnet", "x.json", "--rate", "1", "--duration", "100"]
    )
    capsys.readouterr()
    assert code == 2


def test_unknown_flag(capsys):
    code = cli_main(["run", "--grid", "2x2", "--rate", "1", "--duration", "100", "--warp", "9"])
    capsys.readouterr()
    assert code == 2


def test_rate_without_duration(capsys):
    code = cli_main(["run", "--grid", "2x2", "--rate", "1"])
    capsys.readouterr()
    assert code == 1


def test_missing_flow_source(capsys):
    code = cli_main(["run", "--grid", "2x2"])
    capsys.readouterr()
    assert code == 2


def test_grid_spec_parsing():
    assert grid_spec("4x4") == (4, 4)
    assert grid_spec("1X8") == (1, 8)
    with pytest.raises(Exception):
        grid_spec("4by4")


@pytest.mark.parametrize("flag, value", [("--h-len", "nan"), ("--v-len", "inf"), ("--sat-flow", "nan")])
def test_gen_grid_rejects_values_that_are_not_finite(tmp_path, capsys, flag, value):
    net_path = tmp_path / "net.json"
    assert cli_main(["gen-grid", "--grid", "2x2", flag, value, "--out", str(net_path)]) == 1
    assert "must be" in capsys.readouterr().err
    assert not net_path.exists()


def test_gen_grid_and_flow_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    flow_path = tmp_path / "flow.json"
    assert cli_main(["gen-grid", "--grid", "3x3", "--out", str(net_path)]) == 0
    assert cli_main(
        [
            "gen-flow",
            "--roadnet",
            str(net_path),
            "--rate",
            "0.5",
            "--duration",
            "200",
            "--seed",
            "3",
            "--out",
            str(flow_path),
        ]
    ) == 0
    assert len(json.loads(flow_path.read_text())) == 100
    capsys.readouterr()
    code = cli_main(
        [
            "run",
            "--roadnet",
            str(net_path),
            "--flow",
            str(flow_path),
            "--controller",
            "maxpressure",
            "--seed",
            "3",
        ]
    )
    assert code == 0


def test_run_rejects_a_flow_file_with_a_bad_vehicle(tmp_path, capsys):
    net = build_grid(2, 2)
    net_path, flow_path = tmp_path / "net.json", tmp_path / "flow.json"
    save_network(net, str(net_path))
    internal = net.internal_links()[0]
    flow_path.write_text(
        json.dumps([{"id": 3, "origin": internal, "depart_s": 0.0, "destination": net.exit_links()[0]}])
    )
    code = cli_main(["run", "--roadnet", str(net_path), "--flow", str(flow_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"origin {internal} is not an entry link" in err
    assert "'id': 3" in err


@pytest.mark.parametrize("doc", [3, None])
def test_run_rejects_a_flow_file_that_is_no_array_or_object(tmp_path, capsys, doc):
    net_path, flow_path = tmp_path / "net.json", tmp_path / "flow.json"
    save_network(build_grid(2, 2), str(net_path))
    flow_path.write_text(json.dumps(doc))
    code = cli_main(["run", "--roadnet", str(net_path), "--flow", str(flow_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "vehicle array or a rate spec object" in err[0]


def test_run_rejects_a_flow_file_without_vehicles(tmp_path, capsys):
    flow_path = tmp_path / "flow.json"
    flow_path.write_text("[]")
    assert cli_main(["run", "--grid", "2x2", "--flow", str(flow_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: flow file {flow_path} holds no vehicles"]


def test_missing_roadnet_file(capsys):
    code = cli_main(["run", "--roadnet", "missing.json", "--rate", "1", "--duration", "50"])
    capsys.readouterr()
    assert code == 1


def test_compare_emits_table(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = cli_main(
        [
            "compare",
            "--grid",
            "2x2",
            "--rate",
            "0.4",
            "--duration",
            "200",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + one row per controller
    printed = capsys.readouterr().out
    for name in ("fixedtime", "maxpressure", "nlcoor", "emc"):
        assert name in printed


def test_comm_delay_command(capsys):
    # one cycle, 2 * diameter rounds, as `coordinate` runs it
    code = cli_main(["comm-delay", "--grid", "3x3", "--mu", "20", "--seed", "2"])
    assert code == 0
    assert capsys.readouterr().out == "agents 9  rounds 4  modeled delay 0.100 s\n"


def test_comm_delay_takes_more_nodes_than_agents(capsys):
    # from one node per agent on, every agent is its own node, however many
    # nodes there are, beyond the int64 range too
    printed = []
    for nodes in (9, 10, 10**6, 10**30):
        assert cli_main(["comm-delay", "--grid", "3x3", "--mu", "2", "--seed", "4", "--nodes", str(nodes)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed == ["agents 9  rounds 4  modeled delay 0.022 s\n"] * 4


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen-flow", "--grid", "2x2", "--rate", "inf", "--duration", "100"], "inf"),
        (["gen-flow", "--grid", "2x2", "--rate", "nan", "--duration", "100"], "nan"),
        (["gen-flow", "--grid", "2x2", "--rate", "1", "--duration", "inf"], "inf"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "inf"], "inf"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "nan"], "nan"),
        (["run", "--grid", "2x2", "--rate", "inf", "--duration", "100"], "inf"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "100", "--tau", "0"], "0.0"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "100", "--budget-ms", "nan"], "nan"),
        (["comm-delay", "--grid", "3x3", "--mu", "nan"], "nan"),
        (["comm-delay", "--grid", "3x3", "--mu", "20", "--nodes", "-1"], "-1"),
        (["comm-delay", "--grid", "3x3", "--mu", "20", "--nodes", "0"], "0"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "-100"], "-100"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "0"], "0.0"),
        (["gen-flow", "--grid", "2x2", "--rate", "1", "--duration", "-100"], "-100"),
        (["gen-flow", "--grid", "2x2", "--rate", "1", "--duration", "0"], "0.0"),
        (["run", "--grid", "2x2", "--rate", "1", "--duration", "100", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
        (["gen-flow", "--grid", "2x2", "--rate", "1", "--duration", "100", "--seed", "-3"],
         "seed must be an integer >= 0, got -3"),
        (["comm-delay", "--grid", "3x3", "--mu", "20", "--seed", "-2"],
         "seed must be an integer >= 0, got -2"),
        (["gen-flow", "--grid", "2x2", "--rate", "1e200", "--duration", "1e200"],
         "rate 1e+200 times duration 1e+200"),
        (["run", "--grid", "2x2", "--rate", "1e200", "--duration", "1e200"],
         "rate 1e+200 times duration 1e+200"),
    ],
)
def test_values_that_switch_a_check_off_exit_with_one_line(tmp_path, capsys, argv, named):
    if argv[0] == "gen-flow":
        argv = argv + ["--out", str(tmp_path / "flow.json")]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
    assert "modeled delay" not in captured.out
    assert not (tmp_path / "flow.json").exists()


def test_budget_overrun_exits_with_one_line(capsys):
    argv = ["run", "--grid", "2x2", "--rate", "1", "--duration", "100", "--budget-ms", "0"]
    assert cli_main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: controller took")


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--rate", "0.5", "--duration", "100", "--controller", "emc"],
        ["run", "--rate", "0.5", "--duration", "100", "--controller", "nlcoor"],
        ["comm-delay", "--mu", "1.0"],
    ],
    ids=["emc", "nlcoor", "comm-delay"],
)
def test_intersection_ids_outside_int64_are_a_load_error(tmp_path, capsys, command):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(shifted_grid_doc(2, 2, 10**20)))
    code = cli_main([*command, "--roadnet", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"intersection {10**20}: id is outside the int64 range" in err


def test_a_huge_saturation_flow_loads_and_runs(tmp_path, capsys):
    # a sat_flow above any intp: every queued vehicle may leave each period
    doc = build_grid(2, 2).to_dict()
    for d in doc["movements"]:
        d["sat_flow"] = 1e20
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    arr = movement_arrays(load_network(str(path)))
    assert (arr.release_cap == 2**53).all()
    code = cli_main(["run", "--roadnet", str(path), "--rate", "0.5", "--duration", "200", "--controller", "emc"])
    assert code == 0
    assert "travel_time" in capsys.readouterr().out


def test_run_rejects_a_departure_whose_period_overflows(tmp_path, capsys):
    net = build_grid(2, 2)
    net_path, flow_path = tmp_path / "net.json", tmp_path / "flow.json"
    save_network(net, str(net_path))
    assert cli_main(["gen-flow", "--roadnet", str(net_path), "--rate", "0.1", "--duration", "20", "--out", str(flow_path)]) == 0
    doc = json.loads(flow_path.read_text())
    doc[-1]["depart_s"] = 1e308
    flow_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_main(["run", "--roadnet", str(net_path), "--flow", str(flow_path), "--tau", "0.1", "--duration", "100"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: vehicle {doc[-1]['id']}: ") and "finite period depart_s / tau" in err[0]


@pytest.mark.parametrize(
    "flags",
    [
        ["run", "--flow", "late.json", "--tau", "0.1"],
        ["compare", "--flow", "late.json", "--tau", "0.1"],
        ["run", "--rate", "0.3", "--duration", "100", "--tau", "1e-320"],
        ["run", "--rate", "0.3", "--duration", "1e308", "--tau", "1e-10"],
        ["run", "--flow", "f.json", "--tau", "1e-320"],
    ],
)
def test_a_horizon_of_infinitely_many_periods_exits_with_one_line(tmp_path, capsys, monkeypatch, flags):
    # duration / tau overflows to inf before any period is counted
    monkeypatch.chdir(tmp_path)
    save_network(build_grid(2, 2), "g.json")
    assert cli_main(["gen-flow", "--roadnet", "g.json", "--rate", "0.1", "--duration", "20", "--out", "f.json"]) == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    doc[-1]["depart_s"] = 1e308
    (tmp_path / "late.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main([*flags, "--roadnet", "g.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: duration ") and "gives no finite number of periods" in err[0]
    assert f"--tau {float(flags[-1])}" in err[0]


@pytest.mark.parametrize("command, depart_s", [("run", 1e17), ("compare", 1e17), ("run", 1e18)])
def test_a_horizon_too_long_for_its_metrics_exits_with_one_line(tmp_path, capsys, monkeypatch, command, depart_s):
    # a finite number of periods whose four metric columns fit in no memory
    monkeypatch.chdir(tmp_path)
    save_network(build_grid(2, 2), "g.json")
    assert cli_main(["gen-flow", "--roadnet", "g.json", "--rate", "0.1", "--duration", "20", "--out", "f.json"]) == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    doc[-1]["depart_s"] = depart_s
    (tmp_path / "far.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main([command, "--roadnet", "g.json", "--flow", "far.json", "--tau", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    horizon = math.ceil(depart_s + 600.0)
    assert err == [f"error: a horizon of {horizon} periods leaves no room for its per-period metrics"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", ["--rate", "1", "--duration", "10"]),
        ("compare", ["--rate", "1", "--duration", "10"]),
        ("gen-flow", ["--rate", "1", "--duration", "10", "--out", "f.json"]),
        ("gen-grid", ["--out", "g.json"]),
        ("comm-delay", ["--mu", "20"]),
    ],
)
def test_a_grid_too_large_for_memory_exits_with_one_line(tmp_path, capsys, monkeypatch, command, flags):
    monkeypatch.chdir(tmp_path)
    memory_runs_out_at_link(monkeypatch, 40)
    assert cli_main([command, "--grid", "30x30", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: a 30x30 grid is 900 intersections, more than fit in memory"]


def test_compare_shares_one_flow_and_prints_what_four_runs_print(tmp_path, capsys, monkeypatch):
    # a clock that advances 1 ms a call makes every decision_ms 1.0, so
    # the printed rows and the CSV are the same bytes run after run
    ticks = iter(range(10**9))
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3))
    generated = []
    generate = harness.generate_uniform_flow
    monkeypatch.setattr(harness, "generate_uniform_flow", lambda *a: generated.append(a) or generate(*a))
    flags = ["--grid", "2x2", "--rate", "0.4", "--duration", "200", "--seed", "5"]
    out = tmp_path / "cmp.csv"
    assert cli_main(["compare", *flags, "--out", str(out)]) == 0
    assert len(generated) == 1
    printed = capsys.readouterr().out.splitlines()

    rows = []
    for controller in harness.CONTROLLERS:
        assert cli_main(["run", *flags, "--controller", controller]) == 0
        rows += capsys.readouterr().out.splitlines()
    assert len(generated) == 5
    assert printed == rows + [f"wrote {out}"]
    # the comparison table of four runs that each generate their own flow
    net, spec = build_grid(2, 2), harness.RateSpec(rate_vps=0.4, duration_s=200.0, seed=5)
    scenario = harness.Scenario(network=net, flow=spec, sim=SimConfig(tau=10.0, horizon=20, seed=5))
    separate = {c: harness.run_experiment(replace(scenario, controller=c)) for c in harness.CONTROLLERS}
    harness.write_comparison_csv(separate, str(tmp_path / "separate.csv"))
    assert out.read_bytes() == (tmp_path / "separate.csv").read_bytes()

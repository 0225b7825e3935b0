"""What the benchmark in `perfbench/` reads from the package still works.

Runs one traced benchmark run per workload on a small grid, with the
controller, demand and layer expectations of the real workload. A traced run checks vehicle
conservation after every period, one complete decision per period, exact
cost decomposition on sampled planner states and the traced layers, so a
change to the simulator's or the planner's state that breaks any of them
fails here rather than in the benchmark. Each run's behaviour fingerprint
and decision hash are pinned, so a change meant to keep behaviour (a new
table layout, a faster kernel) that alters any decision fails here too.
"""
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


# (fingerprint, decision hash) of each workload's run on 3x3, 40 periods, seed 1
PINNED = {
    "grid20_emc": ("dfb30c844c45088c", "d88b4738f0487e4e"),
    "grid15_maxpressure": ("059fd265c6815ed5", "fdb35b36eb2df22e"),
    "grid4_peak_emc": ("a1e0592a5b07ad67", "81a8a70f9cab44bd"),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_run_passes_the_bench_checks(bench, workload):
    spec = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"][workload]
    w = bench.Workload(name=workload, **{**spec, "rows": 3, "cols": 3, "horizon": 40})
    setup, _ = bench.set_up(w, seed=1)
    run = bench.run_once(w, setup, seed=1, traced=True)
    assert run.errors == []
    assert len(run.metrics.rows) == 40
    assert len(run.tracer.kept["step"]) == 40
    assert (run.fingerprint, run.decisions) == PINNED[workload]

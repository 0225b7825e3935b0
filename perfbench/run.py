#!/usr/bin/env python3
"""Benchmark of netsignal's decision period, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid20_emc --seed 1 --seconds 30 --trace 0

Workloads, the layer map and the held-out seed are in `workloads.json`;
metric names, units and bounds are in `BENCHMARK.json` at the root.

The benchmark builds the workload's grid and flow from `--seed` several
times (the median is `setup_s`), then repeats `run_experiment` on those
inputs for `--seconds`, starting no run it expects to overrun. Host times
are reported at a reference machine speed: a probe times a fixed kernel
between periods, and each stretch of time is scaled by how fast the probe
ran around it (see `probe.py`), because the speed of a shared vCPU drifts
by up to 2x over seconds and minutes. Every run does the same work, so a
period's time is the median over the runs before percentiles are formed.

* `--trace 0` runs untraced and reports the end-to-end metrics.
* `--trace 1` alternates untraced and traced runs and reports the per-layer
  metrics; it also prints the end-to-end ones from its untraced runs. The
  traced runs check vehicle conservation, complete decisions, the exact
  cost decomposition and which layers have spans.

Every run must reproduce the first run's behaviour fingerprint, and all
runs of one invocation must agree on the quality metrics and counts.
Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Spans and the run record
are written to `.bench_out/` in the checkout.

To print every metric for every workload:

    for w in grid20_emc grid15_maxpressure grid4_peak_emc; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 1
    done
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description="netsignal decision-period benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "netsignal" / "__init__.py").is_file():
        print(f"error: no netsignal sources under {src}", file=sys.stderr)
        return 2
    # One process with one numeric thread, whatever the machine offers.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import bench

    return bench.main(args, ROOT, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Re-measure the ROADMAP baseline table: the A1 config at several grid sizes.

    python3 bench/baseline.py                  # n = 128, 512, 2048
    python3 bench/baseline.py --sizes 128,512 --repeats 5

A one-off command, separate from the workloads: it prints, per grid size,
the best and median wall time of precompute, one right-hand-side call,
``simulate`` over 21 snapshots and ``emit_outputs``, with the integrator's
step and RHS counts.  Times are raw wall seconds (no speed gauge), as in the
ROADMAP table.  At n = 2048 one ``simulate`` takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from time import perf_counter

from run import BENCH_DIR, import_program

A1 = """\
kernel.lambda1 = 0.6
kernel.lambda2 = 0.6
daughter.nu = -1.2
daughter.k0 = 0.5
grid.x_min = 1e-4
grid.x_max = 10
grid.n_cells = {n}
init.kind = exponential
init.mass = 1.0
init.mean = 1.0
time.t_end = 1.0
time.snapshots = 21
"""


def _fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds:.3g} s"


def _times(func, repeats):
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        func()
        out.append(perf_counter() - t0)
    return min(out), statistics.median(out)


def measure(n, repeats, out_dir):
    from collbreak import config, grid, integrate, output, scheme
    from probes import Probe

    cfg = config.parse_config_text(A1.format(n=n))
    size_grid = grid.build_grid(cfg.x_min, cfg.x_max, cfg.n_cells)
    row = {"n_cells": n}
    row["precompute_s"] = _times(lambda: scheme.precompute(size_grid, cfg.kernel, cfg.law), repeats)
    workspace, state0 = config.build_problem(cfg)
    calls = 20
    best, median = _times(lambda: [scheme.rhs_arrays(workspace, state0.contents) for _ in range(calls)], repeats)
    row["rhs_s"] = (best / calls, median / calls)
    runs = []

    def simulate():
        runs.append(integrate.simulate(workspace, state0, cfg.snapshot_times))

    with Probe(traced=True) as probe:
        simulate()
    layers = probe.layer_metrics()
    row["steps_accepted"] = layers["integrate.steps_accepted"]
    row["steps_rejected"] = layers["integrate.steps_rejected"]
    row["rhs_calls"] = layers["scheme.rhs_calls"]
    row["simulate_s"] = _times(simulate, repeats)
    run = runs[-1]
    run.config = cfg
    row["emit_s"] = _times(lambda: output.emit_outputs(run, out_dir), repeats)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="128,512,2048")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    import_program()
    out_dir = BENCH_DIR / "_work" / "baseline"
    rows = []
    try:
        for n in (int(tok) for tok in args.sizes.split(",")):
            rows.append(measure(n, args.repeats, out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"best / median of {args.repeats}, raw wall time")
    print("| n_cells | precompute | one RHS | simulate | emit 21 snapshots | steps (rejected) | RHS calls |")
    print("| ---: | ---: | ---: | ---: | ---: | ---: | ---: |")
    for r in rows:
        cells = [f"{_fmt(r[k][0])} / {_fmt(r[k][1])}" for k in ("precompute_s", "rhs_s", "simulate_s", "emit_s")]
        print(f"| {r['n_cells']} | " + " | ".join(cells) + f" | {r['steps_accepted']} ({r['steps_rejected']}) | {r['rhs_calls']} |")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: simulate, bounds, verify, distance, shatter-study, crossval.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(step-size collapse, no Picard contraction, or a run beyond ``verify``'s
mass budget, which ``simulate`` still writes and ``shatter-study`` still
prints), 4 failed verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import diagnostics
from .config import build_problem, parse_config, run as run_config
from .errors import CollbreakError, ConfigError, ContractionError, InputError, StiffnessError
from .grid import moment
from .output import emit_outputs, load_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


def _emit_json(payload) -> None:
    try:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float), flush=True)
    except BrokenPipeError:
        # the reader closed early (`| head`): drop the rest, here and at exit,
        # and let the command keep its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _numerical_failure(reason) -> int:
    print(f"numerical failure: {reason}", file=sys.stderr)
    return EXIT_NUMERICAL


def _check_out_dir(out_dir) -> None:
    """Refuse, before the run, a run directory that a file on its path blocks."""
    path = Path(out_dir)
    try:
        existing = next((p for p in (path, *path.parents) if p.exists()), path)
    except OSError as exc:
        raise InputError(f"cannot write run directory {out_dir}: {exc.strerror}") from None
    if not existing.is_dir():
        raise InputError(f"cannot write run directory {out_dir}: {existing} is not a directory")


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    if not (out_dir := args.out):
        raise ConfigError("no output directory: pass --out DIR")
    _check_out_dir(out_dir)
    run = run_config(config)
    try:
        manifest = emit_outputs(run, out_dir)
    except OSError as exc:  # what the check cannot see: permissions, a full disk
        raise InputError(f"cannot write run directory {out_dir}: {exc}") from None
    _emit_json(
        {
            "out_dir": str(out_dir),
            "snapshots": run.times.size,
            "final_time": float(run.times[-1]),
            "mass_on_grid": float(run.moments(1.0)[-1]),
            "dust_mass": float(run.dust[-1]),
            "content_hash": manifest["content_hash"],
        }
    )
    ok, drift = diagnostics.mass_budget_check(run)
    return EXIT_OK if ok else _numerical_failure(diagnostics.budget_excess(drift, run.rho))


def _cmd_bounds(args) -> int:
    config = parse_config(args.config)
    workspace, state0 = build_problem(config)
    grid, k0 = workspace.grid, config.law.k0
    payload = bounds_mod.initial_bounds(config.kernel, config.law, grid, state0).entry()
    payload["initial_moments"] = {
        "rho": moment(grid, state0, 1.0),
        "M_k0": moment(grid, state0, k0),
        "M_1+k0": moment(grid, state0, 1.0 + k0),
    }
    _emit_json(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    run = load_run(args.run_dir)
    verdicts = diagnostics.run_verification(run)
    _emit_json({"run_dir": str(args.run_dir), "checks": verdicts})
    return EXIT_OK if all(v["passed"] for v in verdicts) else EXIT_VERIFICATION


def _cmd_distance(args) -> int:
    run_a = load_run(args.run_dir_a)
    run_b = load_run(args.run_dir_b)
    # the Gronwall envelope bounds two solutions of one equation on one grid
    if (run_a.grid, run_a.kernel, run_a.law) != (run_b.grid, run_b.kernel, run_b.law):
        raise InputError("runs differ in grid, kernel or daughter law")
    if not np.array_equal(run_a.times, run_b.times):
        raise InputError("runs have different snapshot meshes")
    k0 = run_a.law.k0
    distances = diagnostics.weighted_distance(run_a, run_b, run_a.grid, k0)
    m_k0 = run_a.moments(k0) + run_b.moments(k0)
    k_high = 1.0 + k0 + run_a.kernel.lambda2
    m_high = run_a.moments(k_high) + run_b.moments(k_high)
    envelope = bounds_mod.gronwall_envelope(run_a.law, run_a.times, m_k0, m_high, distances[0])
    rows = [
        {"t": float(t), "distance": float(d), "envelope": bounds_mod._json_number(float(e))}
        for t, d, e in zip(run_a.times, distances, envelope)
    ]
    # the slack divides the distance, so an envelope near the largest double cannot overflow
    _emit_json({"rows": rows, "within_envelope": bool(np.all(distances / (1.0 + 1e-12) <= envelope))})
    return EXIT_OK


def _cmd_shatter_study(args) -> int:
    config = parse_config(args.config)
    try:
        study = diagnostics.shattering_study(config, [tok for tok in args.xmins.split(",") if tok.strip()])
    except ConfigError as exc:  # a refused cut list, under the library's name for it
        if exc.key != "x_mins":
            raise
        raise ConfigError(exc.reason, key="--xmins") from None
    _emit_json(study.to_dict())
    return EXIT_OK if study.over_budget is None else _numerical_failure(study.over_budget)


def _cmd_crossval(args) -> int:
    _emit_json({"rows": diagnostics.crossval(parse_config(args.config))})
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by every later one.

    It names no command function: ``main`` looks ``_cmd_<command>`` up in
    this module's globals when it runs, so a rebound ``_cmd_*`` is the one
    that runs.
    """
    parser = argparse.ArgumentParser(
        prog="collbreak",
        description="Sectional solver and theorem-level diagnostics for "
        "collision-induced fragmentation with power-law daughter spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a configuration and emit a run directory")
    p.add_argument("config")
    p.add_argument("--out", help="output directory (required)")

    p = sub.add_parser("bounds", help="regime, hypothesis checklist and constants of a configuration")
    p.add_argument("config")

    p = sub.add_parser("verify", help="run the check battery on an emitted run")
    p.add_argument("run_dir")

    p = sub.add_parser("distance", help="weighted distance between two runs")
    p.add_argument("run_dir_a")
    p.add_argument("run_dir_b")

    p = sub.add_parser("shatter-study", help="dust fraction under x_min refinement")
    p.add_argument("config")
    p.add_argument("--xmins", required=True, help="comma list of grid cutoffs")

    p = sub.add_parser("crossval", help="chained Picard windows against one RK run")
    p.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StiffnessError, ContractionError) as exc:
        return _numerical_failure(exc)
    except CollbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

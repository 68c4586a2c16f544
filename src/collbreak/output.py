"""Bit-stable run serialization: delimited series, snapshots, and a manifest.

All floats are written in their shortest round-trip decimal form, so two
identical runs produce byte-identical files and content hashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .config import parse_config_text
from .errors import InputError
from .grid import State, build_grid
from .integrate import RunOutput

__all__ = ["emit_outputs", "load_run"]


def _fmt(value) -> str:
    return repr(float(value))


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _moment_columns(run: RunOutput):
    if run.config is not None:
        return list(run.config.moment_orders)
    k0 = run.law.k0
    return [k0, 1.0, 1.0 + k0]


def _snapshot_name(t: float) -> str:
    return f"snapshot_{_fmt(t)}.csv"


def emit_outputs(run: RunOutput, out_dir) -> dict:
    """Write moments.csv, one snapshot CSV per time, and manifest.json.

    Returns the manifest dictionary (also written to disk), which echoes
    the resolved configuration, the regime classification with its
    constants, and a content hash over the delimited files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = run.grid

    orders = _moment_columns(run)
    header = ["t"] + [f"M_{_fmt(k)}" for k in orders] + ["dust_mass", "clip_mass"]
    lines = [",".join(header)]
    series = [run.moments(k) for k in orders]
    for row, t in enumerate(run.times):
        cells = [_fmt(t)]
        cells += [_fmt(col[row]) for col in series]
        cells += [_fmt(run.states[row].dust_mass), _fmt(run.states[row].clip_mass)]
        lines.append(",".join(cells))
    moments_path = out / "moments.csv"
    moments_path.write_text("\n".join(lines) + "\n")

    widths = grid.widths()
    # The grid columns are the same in every snapshot: format them once.
    grid_columns = zip(grid.edges[:-1].tolist(), grid.edges[1:].tolist(), grid.reps.tolist())
    prefixes = [f"{i},{lo!r},{hi!r},{rep!r}" for i, (lo, hi, rep) in enumerate(grid_columns)]
    snapshot_files = []
    for state, t in zip(run.states, run.times):
        name = _snapshot_name(t)
        rows = ["cell_index,edge_lo,edge_hi,rep,content,density"]
        rows += [
            f"{prefix},{content!r},{density!r}"
            for prefix, content, density in zip(
                prefixes, state.contents.tolist(), (state.contents / widths).tolist()
            )
        ]
        (out / name).write_text("\n".join(rows) + "\n")
        snapshot_files.append({"t": float(t), "file": name})

    files = {"moments.csv": _file_sha256(moments_path)}
    for entry in snapshot_files:
        files[entry["file"]] = _file_sha256(out / entry["file"])
    combined = hashlib.sha256(
        "\n".join(f"{name}:{digest}" for name, digest in sorted(files.items())).encode()
    ).hexdigest()

    manifest = {
        "config": run.config.resolved() if run.config is not None else None,
        "rho": run.rho,
        "bounds": bounds_mod.initial_bounds(
            run.kernel, run.law, grid, run.states[0], run.times
        ).entry(),
        "snapshots": snapshot_files,
        "files": files,
        "content_hash": combined,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _verified_lines(run_dir: Path, name: str, files: dict) -> list:
    """Lines of an emitted file whose SHA-256 matches the manifest's entry."""
    try:
        data = (run_dir / name).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from None
    if hashlib.sha256(data).hexdigest() != files.get(name):
        raise InputError(f"{name} does not match its SHA-256 in manifest.json")
    return data.decode().splitlines()


def load_run(run_dir) -> RunOutput:
    """Reconstruct a RunOutput from an emitted run directory.

    Every file is checked against its SHA-256 in the manifest before it is
    parsed, so a truncated or edited run is refused with ``InputError``.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise InputError(f"{run_dir} has no manifest.json")
    manifest = json.loads(manifest_path.read_text())
    if not manifest.get("config"):
        raise InputError(f"{manifest_path} carries no configuration echo")
    text = "\n".join(f"{k} = {v}" for k, v in manifest["config"].items())
    config = parse_config_text(text, name=str(manifest_path), base_dir=str(run_dir))
    grid = build_grid(config.x_min, config.x_max, config.n_cells)
    files = manifest.get("files", {})

    lines = _verified_lines(run_dir, "moments.csv", files)
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    moments = dict(zip(lines[0].split(","), data.T))
    if data.shape[0] != len(manifest["snapshots"]):
        raise InputError("moments.csv and the manifest list different snapshot counts")

    times = []
    states = []
    for row, entry in enumerate(manifest["snapshots"]):
        lines = _verified_lines(run_dir, entry["file"], files)
        # only the content column is kept; the rest is derived from the grid
        contents = np.loadtxt(lines[1:], delimiter=",", usecols=4, ndmin=1)
        if contents.size != grid.n_cells:
            raise InputError(f"{entry['file']} does not match the manifest grid")
        states.append(
            State(
                contents=contents,
                dust_mass=float(moments["dust_mass"][row]),
                time=float(entry["t"]),
                clip_mass=float(moments["clip_mass"][row]),
            )
        )
        times.append(float(entry["t"]))
    return RunOutput(
        grid=grid,
        kernel=config.kernel,
        law=config.law,
        times=np.asarray(times),
        states=states,
        config=config,
    )

"""Bit-stable run serialization: a moment series, a contents table, and a manifest.

All floats are written in their shortest round-trip decimal form, so two
identical runs produce byte-identical files and content hashes.  Only what
the grid cannot derive is stored: the edges and representatives follow from
the grid settings in the manifest's configuration echo.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .config import parse_config_text
from .errors import InputError
from .grid import State, build_grid
from .integrate import RunOutput

__all__ = ["emit_outputs", "load_run"]

# Layout version of a run directory; ``load_run`` reads this one only.
FORMAT = 2


def _fmt(value) -> str:
    return repr(float(value))


def _moment_columns(run: RunOutput):
    if run.config is not None:
        return list(run.config.moment_orders)
    k0 = run.law.k0
    return [k0, 1.0, 1.0 + k0]


def _content_hash(manifest: dict) -> str:
    """SHA-256 over what ``load_run`` reads: the format, the config echo and the file digests."""
    covered = [manifest.get("format"), manifest.get("config"), manifest.get("files")]
    return hashlib.sha256(json.dumps(covered, sort_keys=True).encode()).hexdigest()


def emit_outputs(run: RunOutput, out_dir) -> dict:
    """Write moments.csv, contents.csv and manifest.json.

    ``moments.csv`` has one row per snapshot: its time, the moments, the
    dust and the clipped mass.  ``contents.csv`` has the cell contents of
    the same snapshots, one row each, in the same order.  Returns the
    manifest dictionary (also written to disk), which echoes the resolved
    configuration, the regime classification with its constants, the
    SHA-256 of each file, and a content hash over the echo and the digests.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    orders = _moment_columns(run)
    header = ["t"] + [f"M_{_fmt(k)}" for k in orders] + ["dust_mass", "clip_mass"]
    lines = [",".join(header)]
    series = [run.moments(k) for k in orders]
    for row, t in enumerate(run.times):
        cells = [_fmt(t)]
        cells += [_fmt(col[row]) for col in series]
        cells += [_fmt(run.states[row].dust_mass), _fmt(run.states[row].clip_mass)]
        lines.append(",".join(cells))
    moments = ("\n".join(lines) + "\n").encode()
    (out / "moments.csv").write_bytes(moments)
    files = {"moments.csv": hashlib.sha256(moments).hexdigest()}

    # Written and hashed a row at a time, never as one whole-file string.
    digest = hashlib.sha256()
    with open(out / "contents.csv", "wb") as handle:
        for state in run.states:
            row = (",".join(map(repr, state.contents.tolist())) + "\n").encode()
            handle.write(row)
            digest.update(row)
    files["contents.csv"] = digest.hexdigest()

    manifest = {
        "format": FORMAT,
        "config": run.config.resolved() if run.config is not None else None,
        "rho": run.rho,
        "bounds": bounds_mod.initial_bounds(
            run.kernel, run.law, run.grid, run.states[0], run.times
        ).entry(),
        "files": files,
    }
    manifest["content_hash"] = _content_hash(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _verified(run_dir: Path, name: str, files: dict) -> io.BytesIO:
    """An emitted file as a stream of lines, once its SHA-256 matches the manifest's entry."""
    try:
        data = (run_dir / name).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from None
    if hashlib.sha256(data).hexdigest() != files.get(name):
        raise InputError(f"{name} does not match its SHA-256 in manifest.json")
    return io.BytesIO(data)


def load_run(run_dir) -> RunOutput:
    """Reconstruct a RunOutput from an emitted run directory.

    The manifest is checked against its content hash and every file against
    its SHA-256 before anything is parsed, so a truncated or edited run, or
    one written in another format, is refused with ``InputError``.  Times,
    contents, dust and clipped mass come back bitwise as they were emitted.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"{run_dir} has no readable manifest.json: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise InputError(f"{manifest_path} is not a format-{FORMAT} run manifest; re-run simulate")
    if manifest.get("content_hash") != _content_hash(manifest):
        raise InputError(f"{manifest_path} does not match its content_hash")
    if not manifest.get("config"):
        raise InputError(f"{manifest_path} carries no configuration echo")
    text = "\n".join(f"{k} = {v}" for k, v in manifest["config"].items())
    config = parse_config_text(text, name=str(manifest_path), base_dir=str(run_dir))
    grid = build_grid(config.x_min, config.x_max, config.n_cells)
    files = manifest.get("files") or {}

    series = _verified(run_dir, "moments.csv", files)
    rows = _verified(run_dir, "contents.csv", files)
    header = series.readline().decode().rstrip("\n").split(",")
    try:
        moments = dict(zip(header, np.loadtxt(series, delimiter=",", ndmin=2).T))
        times = moments["t"]
        states = [
            State(np.array(row.split(b","), dtype=float), float(dust), float(t), float(clip))
            for t, dust, clip, row in zip(times, moments["dust_mass"], moments["clip_mass"], rows)
        ]
    except (KeyError, ValueError) as exc:
        raise InputError(f"{run_dir} holds malformed run files: {exc}") from None
    if len(states) != times.size or rows.readline():
        raise InputError("contents.csv and moments.csv hold different snapshot counts")
    if any(state.contents.size != grid.n_cells for state in states):
        raise InputError("contents.csv does not match the manifest grid")
    return RunOutput(grid, config.kernel, config.law, times, states, config)

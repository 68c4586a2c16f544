"""Bit-stable run serialization: a moment series, a contents array, and a manifest.

Moments are written in shortest round-trip decimal form and contents as raw
doubles under a fixed header, so two identical runs produce byte-identical
files and content hashes.  Only what the grid cannot derive is stored: the
edges and representatives follow from the grid settings in the manifest's
configuration echo.
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
FORMAT = 3


def _fmt(value) -> str:
    return repr(float(value))


def _content_hash(manifest: dict) -> str:
    """SHA-256 over what ``load_run`` reads: the format, the config echo and the file digests."""
    covered = [manifest.get("format"), manifest.get("config"), manifest.get("files")]
    return hashlib.sha256(json.dumps(covered, sort_keys=True).encode()).hexdigest()


def emit_outputs(run: RunOutput, out_dir) -> dict:
    """Write moments.csv, contents.npy and manifest.json.

    ``moments.csv`` has one row per snapshot: its time, the moments, the
    dust and the clipped mass.  ``contents.npy``, a C-order ``<f8`` array of
    shape (snapshots, n_cells), has their cell contents.  Returns the
    manifest dictionary (also written to disk), which echoes the resolved
    configuration, the regime classification with its constants, the
    SHA-256 of each file, and a content hash over the echo and the digests.
    A run without a configuration (a bare ``simulate`` result) is refused
    before any file is written: ``load_run`` could not read it back.
    """
    if run.config is None:
        raise InputError("the run carries no configuration, so load_run could not read it back")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    orders = run.config.moment_orders
    header = ["t"] + [f"M_{_fmt(k)}" for k in orders] + ["dust_mass", "clip_mass"]
    lines = [",".join(header)]
    columns = [run.times, *(run.moments(k) for k in orders), run.dust, run.clip]
    lines += [",".join(map(_fmt, row)) for row in zip(*columns)]
    moments = ("\n".join(lines) + "\n").encode()
    (out / "moments.csv").write_bytes(moments)
    files = {"moments.csv": hashlib.sha256(moments).hexdigest()}

    # header version 1.0 whatever numpy would pick; rows streamed, never stacked
    head = io.BytesIO()
    shape = (len(run.states), run.grid.n_cells)
    np.lib.format.write_array_header_1_0(head, {"descr": "<f8", "fortran_order": False, "shape": shape})
    digest = hashlib.sha256(head.getvalue())
    with open(out / "contents.npy", "wb") as handle:
        handle.write(head.getvalue())
        for state in run.states:
            row = np.ascontiguousarray(state.contents, dtype="<f8")
            handle.write(row)
            digest.update(row)
    files["contents.npy"] = digest.hexdigest()

    manifest = {
        "format": FORMAT,
        "config": run.config.resolved(),
        "rho": run.rho,
        "bounds": bounds_mod.initial_bounds(
            run.kernel, run.law, run.grid, run.states[0], run.times
        ).entry(),
        "files": files,
    }
    manifest["content_hash"] = _content_hash(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _verified(run_dir: Path, name: str, files: dict) -> bytes:
    """An emitted file's bytes, once their SHA-256 matches the manifest's entry."""
    try:
        data = (run_dir / name).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from None
    if hashlib.sha256(data).hexdigest() != files.get(name):
        raise InputError(f"{name} does not match its SHA-256 in manifest.json")
    return data


def load_run(run_dir) -> RunOutput:
    """Reconstruct a RunOutput from an emitted run directory.

    The manifest is checked against its content hash and every file against
    its SHA-256 before anything is parsed, so a truncated or edited run, or
    one written in another format, is refused with ``InputError``.  Times,
    contents, dust and clipped mass come back bitwise as they were emitted,
    the contents as read-only rows of one view of the file's bytes.
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
    echo, files = manifest.get("config"), manifest.get("files")
    if not (echo and isinstance(echo, dict) and isinstance(files, dict)):
        raise InputError(f"{manifest_path} carries no configuration echo or no file digests")
    text = "\n".join(f"{k} = {v}" for k, v in echo.items())
    config = parse_config_text(text, name=str(manifest_path), base_dir=str(run_dir))
    grid = build_grid(config.x_min, config.x_max, config.n_cells)

    series = io.BytesIO(_verified(run_dir, "moments.csv", files))
    data = _verified(run_dir, "contents.npy", files)
    stream = io.BytesIO(data)
    try:
        header = series.readline().decode().rstrip("\n").split(",")
        moments = dict(zip(header, np.loadtxt(series, delimiter=",", ndmin=2).T))
        times = moments["t"]
        shape = (times.size, grid.n_cells)
        found = (np.lib.format.read_magic(stream), *np.lib.format.read_array_header_1_0(stream))
        if found != ((1, 0), shape, False, np.dtype("<f8")):
            raise ValueError(f"contents.npy header {found} is not that of <f8 rows of shape {shape}")
        contents = np.frombuffer(data, dtype="<f8", offset=stream.tell()).reshape(shape)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{run_dir} holds malformed run files: {exc}") from None
    states = [
        State(row, float(dust), float(t), float(clip))
        for t, dust, clip, row in zip(times, moments["dust_mass"], moments["clip_mass"], contents)
    ]
    return RunOutput(grid, config.kernel, config.law, times, states, config)

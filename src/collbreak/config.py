"""Flat key-value configuration: parsing, validation, problem assembly and runs.

Grammar: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines ignored.  Every key has a documented default, so an empty file
is a valid configuration.  Validation failures cite the offending key, the
line number, and the hypothesis they violate.

Every refusal of a setting is a ``DomainError`` naming its parameter:
ranges are checked by the owner of each parameter, and this module's own
rules (the init kind, a table's path, the horizon, the snapshot mesh)
raise one too.  Only this module knows the key names, and ``_cited``
reports each refusal under the key, and line, that set it.
``with_x_min`` holds the grid it makes to the same checks, ``MAX_CELLS``
and ``MAX_RECORD`` included.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .daughter import DaughterLaw
from .errors import ConfigError, DomainError, InputError
from .grid import (
    SizeGrid,
    build_grid,
    check_grid,
    check_initial_data,
    exponential_state,
    monodisperse_state,
    table_state,
)
from .integrate import RunOutput, Tolerances, check_picard, simulate
from .kernel import KernelSpec
from .scheme import precompute

__all__ = ["SimConfig", "parse_config", "parse_config_text", "build_problem", "run", "with_x_min"]

# init.kind -> the one SimConfig field of init.size, init.mean and init.path it reads
_INIT_FIELDS = {"monodisperse": "init_size", "exponential": "init_mean", "table": "init_path"}


def _init_field(kind: str) -> str:
    """The field of ``_INIT_FIELDS`` that ``kind`` reads; any other kind is refused."""
    if kind not in _INIT_FIELDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {tuple(_INIT_FIELDS)}", param="kind")
    return _INIT_FIELDS[kind]


# Largest snapshot mesh, 0 and t_end included, and largest run record
# (snapshots x n_cells doubles) a configuration may ask for.
MAX_SNAPSHOTS = 10**5
MAX_RECORD = 10**8

# key -> (parser, default, SimConfig attribute it sets and is echoed from);
# None defaults are resolved contextually.
_KEYS = {
    "kernel.lambda1": (float, 0.5, "kernel.lambda1"),
    "kernel.lambda2": (float, 0.5, "kernel.lambda2"),
    "kernel.truncation_n": (int, None, "kernel.truncation"),
    "daughter.nu": (float, -1.2, "law.nu"),
    "daughter.k0": (float, 0.5, "law.k0"),
    "grid.x_min": (float, 1e-3, "x_min"),
    "grid.x_max": (float, 10.0, "x_max"),
    "grid.n_cells": (int, 64, "n_cells"),
    "init.kind": (str, "exponential", "init_kind"),
    "init.size": (float, 1.0, "init_size"),
    "init.mass": (float, None, "init_mass"),
    "init.mean": (float, 1.0, "init_mean"),
    "init.path": (str, None, "init_path"),
    "time.t_end": (float, 1.0, "t_end"),
    "time.snapshots": (str, "11", "snapshot_times"),
    "time.rel_tol": (float, Tolerances.rel_tol, "rel_tol"),
    "time.abs_tol": (float, Tolerances.abs_tol, "abs_tol"),
    "picard.max_iter": (int, 40, "picard_max_iter"),
    "picard.tol": (float, 1e-10, "picard_tol"),
}

# DomainError.param -> the key that sets it: the key whose last segment is
# the param, or kernel.truncation_n, whose owner names it otherwise.
_PARAM_KEYS = {key.rpartition(".")[2]: key for key in _KEYS} | {"truncation": "kernel.truncation_n"}


@contextmanager
def _cited(line_of=lambda key: None):
    """Re-raise a DomainError from the block as a ConfigError under its key and line."""
    try:
        yield
    except DomainError as exc:
        key = _PARAM_KEYS[exc.param]
        raise ConfigError(str(exc), key=key, line=line_of(key)) from None


@dataclass(frozen=True)
class SimConfig:
    """Fully validated simulation configuration.

    ``init_size``, ``init_mean`` and ``init_path`` are None unless ``init_kind``
    reads them, however the config is made (``dataclasses.replace`` included).
    """

    kernel: KernelSpec
    law: DaughterLaw
    x_min: float
    x_max: float
    n_cells: int
    init_kind: str
    init_size: float | None
    init_mass: float | None
    init_mean: float | None
    init_path: str | None
    t_end: float
    snapshot_times: tuple
    rel_tol: float
    abs_tol: float
    picard_max_iter: int
    picard_tol: float

    def __post_init__(self):
        read = _init_field(self.init_kind)
        for name in _INIT_FIELDS.values():
            if name != read:
                object.__setattr__(self, name, None)

    def resolved(self) -> dict:
        """Flat key -> value echo of every setting that is not None, defaults included.

        The snapshot mesh is echoed as its count when a count gives it bit
        for bit, so the echo does not grow with the mesh; otherwise as the
        list of its times.
        """
        out = {}
        for key, (_, _, name) in _KEYS.items():
            if (value := attrgetter(name)(self)) is not None:
                out[key] = value
        times = np.array(self.snapshot_times)
        uniform = np.linspace(0.0, self.t_end, times.size)
        if np.array_equal(times.view(np.int64), uniform.view(np.int64)):
            out["time.snapshots"] = str(times.size)
        else:
            out["time.snapshots"] = ",".join(repr(t) for t in self.snapshot_times)
        return out


def _finite_float(token: str) -> float:
    """float(token), refusing inf and nan with ValueError."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _parse_lines(text: str, name: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key in {name}", key=key, line=lineno)
        parser = _KEYS[key][0]
        if parser is str:
            parsed = value
        else:
            try:
                parsed = _finite_float(value) if parser is float else parser(value)
            except ValueError:
                raise ConfigError(
                    f"expected a finite {parser.__name__}, got {value!r}", key=key, line=lineno
                ) from None
        values[key] = (parsed, lineno)
    return values


def _check_mesh(size: int, n_cells: int) -> None:
    """Refuse a snapshot mesh of more than MAX_SNAPSHOTS times, or one whose
    record of ``size`` rows of ``n_cells`` contents exceeds MAX_RECORD doubles."""
    if size > MAX_SNAPSHOTS:
        raise DomainError(f"{size} snapshot times exceed the limit of {MAX_SNAPSHOTS}", param="snapshots")
    if size * n_cells > MAX_RECORD:
        raise DomainError(
            f"{size} snapshots of {n_cells} cells are a record of {size * n_cells} doubles, "
            f"above the limit of {MAX_RECORD}",
            param="snapshots",
        )


def _snapshot_times(raw: str, t_end: float, n_cells: int) -> tuple:
    raw = raw.strip()
    try:
        count = int(raw) if raw.isdigit() else None
        if count is None:  # a comma list of times, possibly of one
            times = sorted(_finite_float(tok) for tok in raw.split(",") if tok.strip())
        elif count < 1:
            raise ValueError
    except ValueError:
        raise DomainError(f"expected a count or comma list of times, got {raw!r}", param="snapshots") from None
    if count is not None:
        size = 1 if t_end == 0.0 else max(count, 2)
        _check_mesh(size, n_cells)  # before the mesh is built
        times = np.linspace(0.0, t_end, size).tolist()
    if any(t < 0.0 or t > t_end * (1.0 + 1e-12) for t in times):
        raise DomainError(f"snapshot times must lie within [0, t_end={t_end}]", param="snapshots")
    if not times or times[0] > 0.0:
        times.insert(0, 0.0)
    if times[-1] < t_end:
        times.append(t_end)
    mesh = tuple(sorted({float(t) for t in times}))
    _check_mesh(len(mesh), n_cells)  # a list's mesh is known once built
    return mesh


def parse_config_text(text: str, name: str = "<config>", base_dir: str | None = None) -> SimConfig:
    """Parse and validate ``text``, in this module's grammar, into a ``SimConfig``.

    ``_KEYS`` gives each key its parser, its default and the field it sets.
    The checks run in a fixed order, and the first that fails is reported as
    a ``ConfigError`` under its key and line.  A relative ``init.path`` is
    taken from ``base_dir``; ``name`` names the text in errors.
    """
    values = _parse_lines(text, name)

    def get(key):
        return values[key][0] if key in values else _KEYS[key][1]

    def line_of(key):
        return values[key][1] if key in values else None

    x_min, x_max, n_cells = get("grid.x_min"), get("grid.x_max"), get("grid.n_cells")
    kind, mass = get("init.kind"), get("init.mass")
    with _cited(line_of):  # the checks in order: the first failing one is reported
        law = DaughterLaw(get("daughter.nu"), get("daughter.k0"))
        kernel = KernelSpec(get("kernel.lambda1"), get("kernel.lambda2"), get("kernel.truncation_n"))
        check_grid(x_min, x_max, n_cells)
        Tolerances(get("time.rel_tol"), get("time.abs_tol"))
        check_picard(get("picard.max_iter"), get("picard.tol"))
        _init_field(kind)
        if mass is None and kind != "table":
            mass = 1.0
        size = get("init.size") if kind == "monodisperse" else None
        check_initial_data(x_min, x_max, mass, size=size, mean=get("init.mean"))
        if kind == "table" and get("init.path") is None:
            raise DomainError("table initial data needs init.path", param="path")
        t_end = get("time.t_end")
        if t_end < 0.0:
            raise DomainError("t_end must be non-negative", param="t_end")
        snapshots = _snapshot_times(get("time.snapshots"), t_end, n_cells)

    path = get("init.path")  # a relative one is taken from the configuration file's directory
    if path is not None and base_dir is not None and not Path(path).is_absolute():
        path = str(Path(base_dir) / path)
    # each field a key sets as parsed, then the five this parse derives
    fields = {name: get(key) for key, (_, _, name) in _KEYS.items() if "." not in name}
    derived = dict(kernel=kernel, law=law, init_mass=mass, init_path=path, snapshot_times=snapshots)
    return SimConfig(**fields | derived)


def parse_config(path) -> SimConfig:
    """Parse and validate a configuration file.

    A relative ``init.path`` is taken from the file's directory, so the
    file means the same from any working directory.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config_text(text, name=str(path), base_dir=str(path.parent))


def _read_table(path: str):
    """(sizes, densities) of a two-column CSV whose first line may be a header."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read init.path {path}: {exc}", param="path") from None
    sizes, densities = [], []
    for lineno, line in enumerate(lines, start=1):
        cells = line.split("#", 1)[0].split(",")
        if not "".join(cells).strip():
            continue  # blank or comment line
        try:
            size, density = map(float, cells[:2])
        except ValueError:
            if lineno == 1:
                continue  # a header
            message = f"{path} line {lineno}: expected a size and a density, got {line!r}"
            raise DomainError(message, param="path") from None
        sizes.append(size)
        densities.append(density)
    return sizes, densities


def initial_state(config: SimConfig, grid: SizeGrid):
    if config.init_kind == "monodisperse":
        return monodisperse_state(grid, config.init_size, config.init_mass)
    if config.init_kind == "exponential":
        return exponential_state(grid, config.init_mass, config.init_mean)
    if not Path(config.init_path).is_dir():
        return table_state(grid, *_read_table(config.init_path), mass=config.init_mass)
    from .output import load_run  # output imports this module

    try:
        run = load_run(config.init_path)
    except InputError as exc:
        raise DomainError(str(exc), param="path") from None
    # restart from the run's last snapshot, a step density on its own grid
    densities = run.contents[-1] / run.grid.widths()
    return table_state(grid, run.grid.reps, densities, mass=config.init_mass)


def build_problem(config: SimConfig):
    """Grid + workspace + initial state for a configuration.

    Refusals cite their key; initial data whose moments overflow double
    precision is refused, key ``init.mass`` (``init.path`` if that is unset).
    """
    with _cited():
        grid = build_grid(config.x_min, config.x_max, config.n_cells)
        workspace = precompute(grid, config.kernel, config.law)
        state = initial_state(config, grid)
        # sum max(reps^k0, reps^(1+k0)) c bounds every moment of order k0..1+k0;
        # a dot product, since only its finiteness matters, and its overflow is
        # the answer here, not a warning
        with np.errstate(over="ignore"):
            total = workspace.error_weights @ state.contents
        if not math.isfinite(total):
            param = "path" if config.init_mass is None else "mass"
            raise DomainError("initial data overflows double precision", param=param)
    return workspace, state


def run(config: SimConfig) -> RunOutput:
    """Build every component from a ``SimConfig`` and integrate it.

    The run is ``simulate`` with the Dormand-Prince 5(4) step at the
    config's ``rel_tol`` and ``abs_tol``.
    """
    workspace, state0 = build_problem(config)
    tol = Tolerances(rel_tol=config.rel_tol, abs_tol=config.abs_tol)
    out = simulate(workspace, state0, config.snapshot_times, tol)
    out.config = config
    return out


def with_x_min(config: SimConfig, x_min: float) -> SimConfig:
    """Same physics on a grid cut at ``x_min``, cells per decade preserved.

    The grid it makes is held to ``check_grid``'s limits, ``MAX_CELLS``
    among them, and its run record to ``MAX_RECORD``.
    """
    with _cited():
        check_grid(x_min, config.x_max, config.n_cells)
        decades_old = math.log10(config.x_max / config.x_min)
        per_decade = config.n_cells / decades_old
        decades_new = math.log10(config.x_max / x_min)
        n_cells = max(8, round(per_decade * decades_new))
        check_grid(x_min, config.x_max, n_cells)
        _check_mesh(len(config.snapshot_times), n_cells)
    return dataclasses.replace(config, x_min=float(x_min), n_cells=n_cells)

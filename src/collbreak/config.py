"""Flat key-value configuration: parsing, validation, problem assembly and runs.

Grammar: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines ignored.  Every key has a documented default, so an empty file
is a valid configuration.  Validation failures cite the offending key, the
line number, and the hypothesis they violate.

Ranges are checked by the owner of each parameter, which raises a
``DomainError`` naming it; only this module knows the key names, and
``_cited`` reports the error under the key, and line, that set it.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .daughter import DaughterLaw, check_moment_order
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

_INIT_KINDS = ("monodisperse", "exponential", "table")

# Largest snapshot mesh, 0 and t_end included, and largest run record
# (snapshots x n_cells doubles) a configuration may ask for.
MAX_SNAPSHOTS = 10**5
MAX_RECORD = 10**8

# key -> (parser, default, SimConfig attribute it is echoed from); None
# defaults are resolved contextually.
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
    "output.dir": (str, None, "out_dir"),
    "output.moments": (str, None, "moment_orders"),
}

# DomainError.param of the owning types' checks -> the key that sets it.
_PARAM_KEYS = {
    "nu": "daughter.nu",
    "k0": "daughter.k0",
    "lambda1": "kernel.lambda1",
    "lambda2": "kernel.lambda2",
    "truncation": "kernel.truncation_n",
    "x_min": "grid.x_min",
    "x_max": "grid.x_max",
    "n_cells": "grid.n_cells",
    "rel_tol": "time.rel_tol",
    "abs_tol": "time.abs_tol",
    "max_iter": "picard.max_iter",
    "tol": "picard.tol",
    "size": "init.size",
    "mean": "init.mean",
    "mass": "init.mass",
    "path": "init.path",
    "k": "output.moments",
}


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

    ``init_size``, ``init_mean`` and ``init_path`` are None unless ``init_kind`` reads them.
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
    moment_orders: tuple
    out_dir: str | None

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
        out["output.moments"] = ",".join(repr(k) for k in self.moment_orders)
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


def _check_mesh(size: int, n_cells: int, line) -> None:
    """Refuse a snapshot mesh of more than MAX_SNAPSHOTS times, or one whose
    record of ``size`` rows of ``n_cells`` contents exceeds MAX_RECORD doubles."""
    if size > MAX_SNAPSHOTS:
        message = f"{size} snapshot times exceed the limit of {MAX_SNAPSHOTS}"
    elif size * n_cells > MAX_RECORD:
        message = (
            f"{size} snapshots of {n_cells} cells are a record of {size * n_cells} doubles, "
            f"above the limit of {MAX_RECORD}"
        )
    else:
        return
    raise ConfigError(message, key="time.snapshots", line=line)


def _snapshot_times(raw: str, t_end: float, n_cells: int, line) -> tuple:
    raw = raw.strip()
    try:
        count = int(raw) if raw.isdigit() else None
        if count is None:  # a comma list of times, possibly of one
            times = sorted(_finite_float(tok) for tok in raw.split(",") if tok.strip())
        elif count < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"expected a count or comma list of times, got {raw!r}",
            key="time.snapshots",
            line=line,
        ) from None
    if count is not None:
        size = 1 if t_end == 0.0 else max(count, 2)
        _check_mesh(size, n_cells, line)  # before the mesh is built
        times = np.linspace(0.0, t_end, size).tolist()
    if any(t < 0.0 or t > t_end * (1.0 + 1e-12) for t in times):
        raise ConfigError(
            f"snapshot times must lie within [0, t_end={t_end}]",
            key="time.snapshots",
            line=line,
        )
    if not times or times[0] > 0.0:
        times.insert(0, 0.0)
    if times[-1] < t_end:
        times.append(t_end)
    mesh = tuple(sorted({float(t) for t in times}))
    _check_mesh(len(mesh), n_cells, line)  # a list's mesh is known once built
    return mesh


def parse_config_text(text: str, name: str = "<config>", base_dir: str | None = None) -> SimConfig:
    values = _parse_lines(text, name)

    def get(key):
        if key in values:
            return values[key][0]
        return _KEYS[key][1]

    def line_of(key):
        return values[key][1] if key in values else None

    def located(path):
        """A relative ``path`` taken from the configuration file's directory."""
        if path is None or base_dir is None or Path(path).is_absolute():
            return path
        return str(Path(base_dir) / path)

    x_min, x_max, n_cells = get("grid.x_min"), get("grid.x_max"), get("grid.n_cells")
    rel_tol, abs_tol = get("time.rel_tol"), get("time.abs_tol")
    with _cited(line_of):
        law = DaughterLaw(get("daughter.nu"), get("daughter.k0"))
        kernel = KernelSpec(
            get("kernel.lambda1"), get("kernel.lambda2"), get("kernel.truncation_n")
        )
        check_grid(x_min, x_max, n_cells)
        Tolerances(rel_tol, abs_tol)
        check_picard(get("picard.max_iter"), get("picard.tol"))

    kind = get("init.kind")
    if kind not in _INIT_KINDS:
        raise ConfigError(
            f"unknown kind {kind!r}; expected one of {_INIT_KINDS}",
            key="init.kind",
            line=line_of("init.kind"),
        )
    size = float(get("init.size")) if kind == "monodisperse" else None
    mean, mass = get("init.mean"), get("init.mass")
    if mass is None and kind != "table":
        mass = 1.0
    with _cited(line_of):
        check_initial_data(x_min, x_max, mass, size=size, mean=mean)
    path = None
    if kind == "table":
        path = get("init.path")
        if path is None:
            raise ConfigError(
                "table initial data needs init.path", key="init.path", line=None
            )
        path = located(path)

    t_end = get("time.t_end")
    if t_end < 0.0:
        raise ConfigError("t_end must be non-negative", key="time.t_end", line=line_of("time.t_end"))
    snapshots = _snapshot_times(get("time.snapshots"), t_end, n_cells, line_of("time.snapshots"))

    raw_orders = get("output.moments")
    if raw_orders is None:
        orders = (law.k0, 1.0, 1.0 + law.k0)
    else:
        try:
            orders = tuple(_finite_float(tok) for tok in raw_orders.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                f"expected comma list of floats, got {raw_orders!r}",
                key="output.moments",
                line=line_of("output.moments"),
            ) from None
    with _cited(line_of):
        for k in orders:
            check_moment_order(law, k)

    return SimConfig(
        kernel=kernel,
        law=law,
        x_min=float(x_min),
        x_max=float(x_max),
        n_cells=int(n_cells),
        init_kind=kind,
        init_size=size,
        init_mass=None if mass is None else float(mass),
        init_mean=float(mean) if kind == "exponential" else None,
        init_path=path,
        t_end=float(t_end),
        snapshot_times=snapshots,
        rel_tol=float(rel_tol),
        abs_tol=float(abs_tol),
        picard_max_iter=int(get("picard.max_iter")),
        picard_tol=float(get("picard.tol")),
        moment_orders=tuple(float(k) for k in orders),
        out_dir=located(get("output.dir")),
    )


def parse_config(path) -> SimConfig:
    """Parse and validate a configuration file.

    A relative ``init.path`` or ``output.dir`` is taken from the file's
    directory, so the file means the same from any working directory.
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
        raise ConfigError(f"cannot read init.path {path}: {exc}", key="init.path") from None
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
            raise ConfigError(
                f"{path} line {lineno}: expected a size and a density, got {line!r}",
                key="init.path",
            ) from None
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
        raise ConfigError(str(exc), key="init.path") from None
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
        key = "init.path" if config.init_mass is None else "init.mass"
        raise ConfigError("initial data overflows double precision", key=key)
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
    """Same physics on a grid cut at ``x_min``, cells per decade preserved."""
    with _cited():
        check_grid(x_min, config.x_max, config.n_cells)
    decades_old = math.log10(config.x_max / config.x_min)
    per_decade = config.n_cells / decades_old
    decades_new = math.log10(config.x_max / x_min)
    n_cells = max(8, round(per_decade * decades_new))
    _check_mesh(len(config.snapshot_times), n_cells, None)
    return dataclasses.replace(config, x_min=float(x_min), n_cells=int(n_cells))

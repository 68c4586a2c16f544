"""Geometric size grid, discrete states, and initial-data ingestion.

``check_grid`` and ``check_initial_data`` own the ranges of the grid and of
the initial data; the builders and the config parser both call them.  Every
refusal is a ``DomainError`` naming its parameter (``path`` for a table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "MAX_CELLS",
    "SIZE_RANGE",
    "SizeGrid",
    "State",
    "check_grid",
    "check_initial_data",
    "build_grid",
    "moment",
    "weight_vector",
    "monodisperse_state",
    "exponential_state",
    "table_state",
]


# Largest grid accepted.  The workspace and the state take 48 bytes a cell,
# and a ``simulate`` about 112 more at its peak: the stage stack, the scratch,
# the RHS temporaries and 16 for a 2-snapshot record (tracemalloc, A1's physics
# at 1e4 and 1e5 cells).  Every snapshot writes 8 more: 8 MB per snapshot at 1e6 cells.
MAX_CELLS = 10**6

# Smallest and largest sizes a grid, an exponential mean or a table may
# hold.  Representative sizes and table bin bounds are geometric means of
# two sizes, and moments go up to order 2, so the product of two sizes has
# to stay a normal double.
SIZE_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class SizeGrid:
    """Geometric partition of [x_min, x_max] into n_cells cells.

    Representative sizes are the geometric means of the cell edges, the
    standard sectional choice on a logarithmic grid.
    """

    x_min: float
    x_max: float
    n_cells: int
    # derived deterministically from the scalars, so excluded from equality
    edges: np.ndarray = field(repr=False, compare=False)
    reps: np.ndarray = field(repr=False, compare=False)

    def widths(self) -> np.ndarray:
        return self.edges[1:] - self.edges[:-1]


def check_grid(x_min: float, x_max: float, n_cells: int) -> None:
    """Refuse grid parameters ``build_grid`` cannot use, without building the grid."""
    if not 0.0 < x_min < x_max:
        raise DomainError(f"need 0 < x_min < x_max, got ({x_min}, {x_max})", param="x_min")
    lo, hi = SIZE_RANGE
    if x_min < lo:
        raise DomainError(f"need x_min >= {lo}, got {x_min}", param="x_min")
    if x_max > hi:
        raise DomainError(f"need x_max <= {hi}, got {x_max}", param="x_max")
    if n_cells < 2:
        raise DomainError(f"need n_cells >= 2, got {n_cells}", param="n_cells")
    if n_cells > MAX_CELLS:
        raise DomainError(f"need n_cells <= {MAX_CELLS}, got {n_cells}", param="n_cells")


def build_grid(x_min: float, x_max: float, n_cells: int) -> SizeGrid:
    """Geometric grid with n_cells cells between x_min and x_max."""
    check_grid(x_min, x_max, n_cells)
    edges = np.geomspace(x_min, x_max, n_cells + 1)
    reps = np.sqrt(edges[:-1] * edges[1:])
    edges.flags.writeable = False
    reps.flags.writeable = False
    return SizeGrid(float(x_min), float(x_max), int(n_cells), edges, reps)


@dataclass
class State:
    """Cell particle counts plus the accumulated sub-grid dust mass.

    ``clip_mass`` tracks the mass created when the integrator clips
    negative counts back to zero, at most 1e-12 of the mass per accepted step;
    the clip of an interpolated snapshot is not capped (ROADMAP item 15).
    """

    contents: np.ndarray
    dust_mass: float = 0.0
    time: float = 0.0
    clip_mass: float = 0.0

    def copy(self) -> "State":
        return State(self.contents.copy(), self.dust_mass, self.time, self.clip_mass)


def moment(grid: SizeGrid, state: State, k: float) -> float:
    """k-th moment of the discrete solution: sum of reps^k * contents."""
    return float(np.sum(grid.reps**k * state.contents))


def weight_vector(grid: SizeGrid, k0: float) -> np.ndarray:
    """Per-cell weights max(reps^k0, reps^(1+k0)) of the uniqueness metric."""
    return np.maximum(grid.reps**k0, grid.reps ** (1.0 + k0))


def check_initial_data(x_min: float, x_max: float, mass, size, mean) -> None:
    """Refuse initial data the state builders cannot use, without building a state.

    The mass must be finite and positive (None keeps a table's own), a size
    must lie on the grid and a mean within ``SIZE_RANGE``; a None size or
    mean is not checked.
    """
    if size is not None and not x_min <= size <= x_max:
        raise DomainError(f"size {size} outside the grid [{x_min}, {x_max}]", param="size")
    lo, hi = SIZE_RANGE
    if mean is not None and not lo <= mean <= hi:
        raise DomainError(f"mean size must lie in [{lo}, {hi}], got {mean}", param="mean")
    if mass is not None and not 0.0 < mass < np.inf:
        raise DomainError(f"mass must be finite and positive, got {mass}", param="mass")


def _rescaled(state: State, factor: float) -> State:
    """``state`` with its contents times ``factor``, refused (key ``mass``) if they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        state.contents *= factor
    if not np.isfinite(state.contents).all():
        raise DomainError("initial data overflows double precision", param="mass")
    return state


def monodisperse_state(grid: SizeGrid, size: float, mass: float) -> State:
    """All mass in the cell [lo, hi) holding ``size`` (x_max in the last); M_1 = mass.

    A mass whose content in that cell underflows to zero or overflows is refused.
    """
    check_initial_data(grid.x_min, grid.x_max, mass, size=size, mean=None)
    i = min(int(np.searchsorted(grid.edges, size, side="right")) - 1, grid.n_cells - 1)
    state = State(np.zeros(grid.n_cells))
    state.contents[i] = 1.0
    state = _rescaled(state, mass / float(grid.reps[i]))  # Python's division: inf on overflow, no warning
    if state.contents[i] == 0.0:
        raise DomainError(f"mass {mass} underflows to zero in the cell holding size {size}", param="mass")
    return state


def exponential_state(grid: SizeGrid, mass: float, mean: float) -> State:
    """Exponential density with the given mean size, normalised to ``mass``.

    Each cell holds the exact integral of ``scale * exp(-x / mean)`` over
    it, written with ``expm1`` so that narrow cells lose no digits; the
    contents are then rescaled so the grid mass M_1 equals ``mass``.  A
    mass whose M_1 or contents overflow is refused, with no floating-point warning.
    """
    check_initial_data(grid.x_min, grid.x_max, mass, size=None, mean=mean)
    scale = mass / mean**2
    lo = grid.edges[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        state = State(scale * mean * np.exp(-lo / mean) * -np.expm1(-grid.widths() / mean))
        raw = moment(grid, state, 1.0)
    if not np.isfinite(raw):
        raise DomainError("the grid mass M_1 overflows double precision", param="mass")
    if raw <= 0.0:
        raise DomainError("initial density carries no mass on the grid", param="mean")
    return _rescaled(state, mass / raw)


def table_state(grid, sizes, densities, mass: float | None = None) -> State:
    """Piecewise-constant density read from (size, density) samples.

    Each sample extends over a bin bounded by the geometric midpoints of
    neighbouring sample sizes (end bins reuse the adjacent ratio).  On the
    grid the table was emitted from this reproduces the original contents;
    on any other grid the step density is integrated exactly, as the sum of
    density times overlap length over the bins each cell meets, in
    O(cells + rows).  A table with no mass on the grid or an overflowing M_1
    is refused, with or without ``mass``; refusals of the table name ``path``,
    and contents that overflow on the rescale to ``mass`` name ``mass``.
    """
    check_initial_data(grid.x_min, grid.x_max, mass, size=None, mean=None)
    sizes = np.asarray(sizes, dtype=float)
    densities = np.asarray(densities, dtype=float)
    if sizes.ndim != 1 or sizes.shape != densities.shape or sizes.size < 1:
        raise DomainError("table must be two equal-length columns (size, density)", param="path")
    if not (np.all(np.isfinite(sizes)) and np.all(np.isfinite(densities))):
        raise DomainError("table sizes and densities must be finite", param="path")
    lo, hi = SIZE_RANGE
    if np.any(sizes < lo) or np.any(sizes > hi):
        raise DomainError(f"table sizes must lie in [{lo}, {hi}]", param="path")
    if np.any(np.diff(sizes) <= 0.0):
        raise DomainError("table sizes must be strictly increasing", param="path")
    if np.any(densities < 0.0):
        raise DomainError("table densities must be non-negative", param="path")

    # bin k is [bounds[k], bounds[k+1])
    if sizes.size == 1:
        bounds = np.array([sizes[0] * 0.5, sizes[0] * 2.0])
    else:
        mids = np.sqrt(sizes[:-1] * sizes[1:])
        bounds = np.concatenate(([sizes[0] ** 2 / mids[0]], mids, [sizes[-1] ** 2 / mids[-1]]))

    # Merge the sorted cell edges with the sorted bin bounds (a stable sort
    # of two sorted runs is linear).  Each gap between neighbouring points
    # lies in one cell and one bin, or off the grid or the table, and its
    # length is exactly that cell's overlap with that bin.
    points = np.concatenate((grid.edges, bounds))
    order = np.argsort(points, kind="stable")
    from_grid = order <= grid.n_cells
    cell = np.cumsum(from_grid)[:-1] - 1
    row = np.cumsum(~from_grid)[:-1] - 1
    inside = (cell >= 0) & (cell < grid.n_cells) & (row >= 0) & (row < sizes.size)
    overlap = np.diff(points[order])[inside]
    with np.errstate(over="ignore", invalid="ignore"):
        state = State(np.bincount(cell[inside], densities[row[inside]] * overlap, grid.n_cells))
        raw = moment(grid, state, 1.0)
    if not np.isfinite(raw):
        raise DomainError("table contents overflow double precision", param="path")
    if raw <= 0.0:
        raise DomainError("table carries no mass on the grid", param="path")
    return state if mass is None else _rescaled(state, mass / raw)

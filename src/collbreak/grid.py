"""Geometric size grid, discrete states, and initial-data ingestion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "MAX_CELLS",
    "SIZE_RANGE",
    "SizeGrid",
    "State",
    "check_grid",
    "build_grid",
    "moment",
    "tail_moment",
    "weight_vector",
    "monodisperse_state",
    "exponential_state",
    "table_state",
]


# Largest grid accepted.  The workspace and the state are O(n_cells) (about
# 50 bytes a cell), but every snapshot writes about 20 bytes a cell, so a
# 1e6-cell run makes tens of megabytes per snapshot.
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

    def locate(self, x: float) -> int:
        """Index of the cell whose half-open interval [lo, hi) contains x."""
        if not self.x_min <= x <= self.x_max:
            raise DomainError(f"size {x} outside grid [{self.x_min}, {self.x_max}]")
        i = int(np.searchsorted(self.edges, x, side="right") - 1)
        return min(max(i, 0), self.n_cells - 1)

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

    ``clip_mass`` tracks the (round-off scale) mass created when the
    integrator clips tiny negative counts back to zero.
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


def tail_moment(grid: SizeGrid, state: State, k: float, x: float) -> float:
    """k-th moment restricted to cells with representative size >= x."""
    mask = grid.reps >= x
    return float(np.sum(grid.reps[mask] ** k * state.contents[mask]))


def weight_vector(grid: SizeGrid, k0: float) -> np.ndarray:
    """Per-cell weights max(reps^k0, reps^(1+k0)) of the uniqueness metric."""
    return np.maximum(grid.reps**k0, grid.reps ** (1.0 + k0))


def monodisperse_state(grid: SizeGrid, size: float, mass: float) -> State:
    """All mass in the cell enclosing ``size``; count chosen so M_1 = mass."""
    if mass < 0.0:
        raise ConfigError(f"mass must be non-negative, got {mass}")
    i = grid.locate(size)
    contents = np.zeros(grid.n_cells)
    contents[i] = mass / grid.reps[i]
    return State(contents)


def exponential_state(grid: SizeGrid, mass: float, mean: float) -> State:
    """Exponential density with the given mean size, normalised to ``mass``.

    Each cell holds the exact integral of ``scale * exp(-x / mean)`` over
    it, written with ``expm1`` so that narrow cells lose no digits; the
    contents are then rescaled so the grid mass M_1 equals ``mass``.
    """
    lo, hi = SIZE_RANGE
    if not lo <= mean <= hi:
        raise ConfigError(f"mean size must lie in [{lo}, {hi}], got {mean}", key="init.mean")
    if mass <= 0.0:
        raise ConfigError(f"mass must be positive, got {mass}")
    scale = mass / mean**2
    lo = grid.edges[:-1]
    state = State(scale * mean * np.exp(-lo / mean) * -np.expm1(-grid.widths() / mean))
    raw = moment(grid, state, 1.0)
    if raw <= 0.0:
        raise ConfigError("initial density carries no mass on the grid")
    state.contents *= mass / raw
    return state


def table_state(grid, sizes, densities, mass: float | None = None) -> State:
    """Piecewise-constant density read from (size, density) samples.

    Each sample extends over a bin bounded by the geometric midpoints of
    neighbouring sample sizes (end bins reuse the adjacent ratio).  On the
    grid the table was emitted from this reproduces the original contents;
    on any other grid the step density is integrated exactly, as the sum of
    density times overlap length over the bins each cell meets, in
    O(cells + rows).  A table that puts no mass on the grid is refused, with
    or without ``mass``.
    """
    sizes = np.asarray(sizes, dtype=float)
    densities = np.asarray(densities, dtype=float)
    if sizes.ndim != 1 or sizes.shape != densities.shape or sizes.size < 1:
        raise ConfigError("table must be two equal-length columns (size, density)")
    if not (np.all(np.isfinite(sizes)) and np.all(np.isfinite(densities))):
        raise ConfigError("table sizes and densities must be finite", key="init.path")
    lo, hi = SIZE_RANGE
    if np.any(sizes < lo) or np.any(sizes > hi):
        raise ConfigError(f"table sizes must lie in [{lo}, {hi}]", key="init.path")
    if np.any(np.diff(sizes) <= 0.0):
        raise ConfigError("table sizes must be strictly increasing")
    if np.any(densities < 0.0):
        raise ConfigError("table densities must be non-negative")

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
    contents = np.bincount(cell[inside], densities[row[inside]] * overlap, grid.n_cells)
    state = State(contents)
    raw = moment(grid, state, 1.0)
    if raw <= 0.0:
        raise ConfigError("table carries no mass on the grid", key="init.path")
    if mass is not None:
        state.contents *= mass / raw
    return state

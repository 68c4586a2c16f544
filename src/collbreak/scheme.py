"""Conservative sectional right-hand side with exact mass bookkeeping.

Fragment counts are defined mass-first: the mass a breaking parent deposits
into a cell, divided by the cell's representative size, with everything
falling below the smallest cell routed to an explicit dust accumulator.

Both factors of the model have low rank, so no pair tensor is ever formed.
The kernel is a sum of two products, Phi c = a1 (a2.c) + a2 (a1.c) with
a_k = mask * reps^lambda_k, which gives the event-mass vector
w = c * (Phi c) in O(N).  A parent of size x deposits x^(-nu-1)
(b^a - a'^a) of fragment mass into any size interval (a', b) below it,
a = nu + 2.  With p_j = reps_j^(-nu-1), edges e and p_j reps_j^a = reps_j,
a breakup in cell j changes

    cell i < j   by  g_i p_j,  g_i = (e_{i+1}^a - e_i^a) / reps_i
    cell j       by  -p_j e_j^a / reps_j   (fragments kept, minus the parent)
    dust         by  p_j e_0^a,

so d_contents_i = g_i sum_{j>i} p_j w_j - (p_i e_i^a / reps_i) w_i: two dot
products and one reversed cumulative sum.  Weighted by reps, the deposits
into cells below j telescope to p_j (e_j^a - e_0^a), which with the dust
balances the own-cell loss p_j e_j^a term by term, so
sum_i reps_i d_contents_i + d_dust = 0 holds to round-off.  Every reduction
is numpy's own pairwise or cumulative sum, never BLAS, so identical inputs
give bitwise identical rates whatever the thread settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .daughter import DaughterLaw, partial_moment, upsilon_power
from .grid import SizeGrid, State, weight_vector
from .kernel import KernelSpec, kernel_factors

__all__ = [
    "RhsWorkspace",
    "precompute",
    "rhs",
    "rhs_arrays",
    "weak_form_residual",
    "subgrid_moment_flux",
]


@dataclass(frozen=True)
class RhsWorkspace:
    """Length-N factors of the kernel and of the fragment deposits.

    Per breakup of a parent in cell j, ``lower_counts[i] * parent_factor[j]``
    fragments land in each cell i < j, the count in cell j changes by
    ``own_change[j]`` (fragments kept minus the parent itself), and
    ``dust_row[j]`` of mass falls below the grid.  ``error_weights`` are the
    weights max(reps^k0, reps^(1+k0)) of the integrator's error norm.
    Memory is O(N).
    """

    grid: SizeGrid
    kernel: KernelSpec
    law: DaughterLaw
    kernel_lo: np.ndarray = field(repr=False)  # mask * reps^lambda1
    kernel_hi: np.ndarray = field(repr=False)  # mask * reps^lambda2
    parent_factor: np.ndarray = field(repr=False)  # p_j = reps_j^(-nu-1)
    lower_counts: np.ndarray = field(repr=False)  # g_i
    own_change: np.ndarray = field(repr=False)  # -p_j e_j^a / reps_j
    dust_row: np.ndarray = field(repr=False)  # mass below x_min per break of j
    error_weights: np.ndarray = field(repr=False)  # weight_vector(grid, law.k0)


def precompute(grid: SizeGrid, kernel: KernelSpec, law: DaughterLaw) -> RhsWorkspace:
    """Kernel factors, parent factor, fragment counts, dust row and error weights."""
    reps = grid.reps
    a = law.nu + 2.0
    edge_mass = grid.edges**a
    parent = reps ** (-law.nu - 1.0)
    vectors = (
        *kernel_factors(kernel, reps),
        parent,
        np.diff(edge_mass) / reps,
        -parent * edge_mass[:-1] / reps,
        parent * edge_mass[0],
        weight_vector(grid, law.k0),
    )
    for vec in vectors:
        vec.flags.writeable = False
    return RhsWorkspace(grid, kernel, law, *vectors)


def _event_mass(workspace: RhsWorkspace, contents: np.ndarray) -> np.ndarray:
    """w = c * (Phi c): per cell, the rate of collisions its particles undergo."""
    lo, hi = workspace.kernel_lo, workspace.kernel_hi
    return contents * (lo * (hi * contents).sum() + hi * (lo * contents).sum())


def rhs_arrays(workspace: RhsWorkspace, contents: np.ndarray):
    """Time derivative (d_contents, d_dust) for a raw contents vector.

    Every collision breaks both partners, so the particles of cell j break
    up at rate w[j] and send their fragments down from there.
    """
    w = _event_mass(workspace, contents)
    # above[i] = sum_{j>i} p_j w_j for i < N-1
    above = (workspace.parent_factor * w)[:0:-1].cumsum()[::-1]
    d_contents = workspace.own_change * w
    d_contents[:-1] += workspace.lower_counts[:-1] * above
    return d_contents, float((workspace.dust_row * w).sum())


def rhs(workspace: RhsWorkspace, state: State):
    """Time derivative of a State; see ``rhs_arrays``."""
    return rhs_arrays(workspace, state.contents)


def weak_form_residual(workspace: RhsWorkspace, state: State, k: float) -> float:
    """Gap between the scheme's k-th moment production and the continuum form.

    Compares sum reps^k d_contents against the closed power test-function
    rate (1/2) sum Upsilon_k(reps_j, reps_l) R[j,l], R[j,l] = Phi c_j c_l.
    The gap is the cell discretisation error plus the k-th moment flux below
    x_min (the latter is ``subgrid_moment_flux``; subtracting it isolates the
    part that vanishes under grid refinement).  At k = 1 the residual equals
    minus the dust production exactly.  Requires k > |nu| - 1.
    """
    reps_k = workspace.grid.reps**k
    d_contents, _ = rhs(workspace, state)
    produced = float(np.sum(reps_k * d_contents))
    # (1/2) sum_{j,l} (r_j^k + r_l^k) R_{jl} = sum_j r_j^k w_j by symmetry.
    coeff = upsilon_power(workspace.law, k, 1.0, 1.0) / 2.0
    continuum = coeff * float(np.sum(reps_k * _event_mass(workspace, state.contents)))
    return produced - continuum


def subgrid_moment_flux(workspace: RhsWorkspace, state: State, k: float) -> float:
    """Rate at which k-th moment is deposited below the smallest cell.

    Exact per-event closed form summed over all collision pairs; finite
    for k > |nu| - 1.
    """
    grid, p = workspace.grid, workspace.parent_factor
    # Per breakup, the k-th moment falling below e_0 scales with the parent as p_j.
    first = partial_moment(workspace.law, k, grid.reps[0], 0.0, grid.edges[0])
    return float(np.sum(first * p / p[0] * _event_mass(workspace, state.contents)))

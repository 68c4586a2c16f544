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

so d_contents_i = g_i sum_{j>i} p_j w_j - (p_i e_i^a / reps_i) w_i: per
state, two dot products and one reversed cumulative sum.  When lambda1 =
lambda2 the kernel has rank 1, Phi c = 2 a (a.c), and one dot product does.
Weighted by reps, the deposits into cells below j telescope to
p_j (e_j^a - e_0^a), which with the dust balances the own-cell loss
p_j e_j^a term by term, so sum_i reps_i d_contents_i + d_dust = 0 holds to
round-off.

States are rows along the last axis, so ``rhs_arrays`` takes one state of
shape (N,) or a batch of shape (..., N) in one call, reducing and
accumulating over the last axis only.  Every reduction is numpy's own
pairwise or cumulative sum, never BLAS, and numpy applies it to a
contiguous last axis row by row in the same order as to a single vector,
so identical inputs give bitwise identical rates whatever the thread
settings, and a batched row equals the same state evaluated alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .daughter import DaughterLaw
from .grid import SizeGrid, weight_vector
from .kernel import KernelSpec, kernel_factors

__all__ = ["RhsWorkspace", "precompute", "rhs_arrays"]


@dataclass(frozen=True)
class RhsWorkspace:
    """Length-N factors of the kernel and of the fragment deposits.

    Per breakup of a parent in cell j, ``lower_counts[i] * parent_factor[j]``
    fragments land in each cell i < j, the count in cell j changes by
    ``own_change[j]`` (fragments kept minus the parent itself), and
    ``dust_row[j]`` of mass falls below the grid.  ``error_weights`` are the
    weights max(reps^k0, reps^(1+k0)) of the integrator's error norm.
    When lambda1 = lambda2 the two kernel factors are equal, and the
    right-hand side reduces the contents against ``kernel_hi`` alone.
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
    """w = c * (Phi c) per row: the rate of collisions each cell's particles undergo."""
    lo, hi = workspace.kernel_lo, workspace.kernel_hi
    batch = contents.ndim > 1
    # A single state's sums stay scalars, which numpy multiplies faster than
    # (1,)-shaped arrays; a batch's get a trailing axis to broadcast per row.
    hi_sum = np.add.reduce(hi * contents, -1)
    w = lo * (hi_sum[..., None] if batch else hi_sum)
    if workspace.kernel.lambda1 == workspace.kernel.lambda2:
        # rank 1, lo == hi: a s + a s is bitwise the rank-2 sum below, which
        # (2a) s is not where a s is subnormal
        w += w
    else:
        lo_sum = np.add.reduce(lo * contents, -1)
        w += hi * (lo_sum[..., None] if batch else lo_sum)
    w *= contents
    return w


def rhs_arrays(workspace: RhsWorkspace, contents: np.ndarray):
    """Time derivative (d_contents, d_dust) of raw contents of shape (..., N).

    Every collision breaks both partners, so the particles of cell j break
    up at rate w[j] and send their fragments down from there.  Each row
    along the last axis is an independent state, so a batch of states costs
    one call.  In a batch laid out row by row (C order) every row comes out
    bitwise equal to a call on that row alone, because numpy reduces and
    accumulates a contiguous last axis row by row in the same order; other
    layouts agree to round-off.  ``d_contents`` has the shape of
    ``contents``; ``d_dust`` has its leading shape, and is a Python float
    for a single state.
    """
    w = _event_mass(workspace, contents)
    # tail[..., k] = sum_{j >= N-1-k} p_j w_j, so reversed it reads
    # above[i] = sum_{j>i} p_j w_j for i < N-1
    tail = np.add.accumulate((workspace.parent_factor * w)[..., :0:-1], -1)
    d_dust = np.add.reduce(workspace.dust_row * w, -1)
    d_contents = w  # w's last use was above; reuse its buffer
    d_contents *= workspace.own_change
    tail *= workspace.lower_counts[-2::-1]
    d_contents[..., :-1] += tail[..., ::-1]
    return d_contents, float(d_dust) if d_dust.ndim == 0 else d_dust

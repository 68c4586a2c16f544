"""Slow dense reference for the factored right-hand side.

Builds the N x N kernel matrix and fragment-count tensor entry by entry from
the closed forms, the way the scheme was first written, and reduces them with
plain matrix-vector products.  O(N^2) memory and an O(N^2) Python loop: use
it on small grids only.
"""

import numpy as np

from collbreak import DomainError


def kernel_matrix(spec, sizes):
    """Dense symmetric matrix of collision rates over a vector of sizes.

    Assembled as A + A.T from one outer product so the result is exactly
    symmetric in floating point.
    """
    sizes = np.asarray(sizes, dtype=float)
    if np.any(sizes <= 0.0):
        raise DomainError("kernel arguments must be positive sizes")
    a = np.outer(sizes**spec.lambda1, sizes**spec.lambda2)
    mat = a + a.T
    if spec.truncation is not None:
        n = float(spec.truncation)
        mask = ((sizes > 1.0 / n) & (sizes < n)).astype(float)
        mat = mat * np.outer(mask, mask)
    return mat


def deposit_counts(grid, law):
    """(counts, dust): counts[i, j] fragments into cell i per break of a parent in j.

    Counts are the fragment mass a parent of size reps[j] deposits into cell
    i <= j, over reps[i]; ``dust[j]`` is the mass it sends below the grid.
    A parent x deposits x^(-nu-1) (b^(nu+2) - a^(nu+2)) of mass into (a, b),
    the integral of s (nu+2) s^nu x^(-nu-1).
    """
    n = grid.n_cells
    reps, edges = grid.reps, grid.edges
    nu = law.nu

    def mass(x, a, b):
        return x ** (-nu - 1.0) * (b ** (nu + 2.0) - a ** (nu + 2.0))

    counts = np.zeros((n, n))
    dust = np.empty(n)
    for j in range(n):
        parent = reps[j]
        dust[j] = mass(parent, 0.0, edges[0])
        for i in range(j + 1):
            hi = min(edges[i + 1], parent)
            counts[i, j] = mass(parent, edges[i], hi) / reps[i]
    return counts, dust


def expanded_counts(workspace):
    """The N x N count tensor spelled out from a workspace's factored vectors."""
    counts = np.triu(np.outer(workspace.lower_counts, workspace.parent_factor), 1)
    return counts + np.diag(1.0 + workspace.own_change)


class DenseRhs:
    """rhs_arrays computed through the dense tensors of one problem."""

    def __init__(self, grid, kernel, law):
        self.kernel_mat = kernel_matrix(kernel, grid.reps)
        self.counts, self.dust = deposit_counts(grid, law)

    def __call__(self, contents, out=None):
        """(d_contents, d_dust); d_contents is written into ``out`` when it is given."""
        w = contents * (self.kernel_mat @ contents)
        d_contents = self.counts @ w - w
        if out is not None:
            out[...] = d_contents
            d_contents = out
        return d_contents, float(np.sum(self.dust * w))

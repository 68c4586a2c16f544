"""Slow reference for the batched Picard solver: one node at a time.

Builds its own Chebyshev-Lobatto integration matrix, entry by entry in
Python floats from the closed forms (the Lagrange basis in Chebyshev
polynomials by discrete orthogonality, each polynomial integrated by the
antiderivative recurrence), not imported from ``integrate``.  Evaluates the
right-hand side one node at a time, nine calls per iteration on a tiled
initial state, and builds each new node from fresh temporaries, summed over
the nodes' rates in node order.  It stops when successive trajectories
differ by at most ``tol`` in the weighted norm sum max(x^k0, x^(1+k0)) |c_i|,
or when the ratio q of the last two differences is below 1 and the geometric
bound diff q / (1 - q) on the distance left is at most ``tol``.  The dust
integrates the dust rates of the converging iteration's calls with the
weights of the last node.  Its arithmetic on every value that reaches the
result is the same as ``integrate.picard_solve``'s, so the two must agree
bit for bit.  RHS calls go to ``scheme.rhs_arrays`` directly, so a counter
on ``integrate.rhs_arrays`` does not see them.
"""

import math

import numpy as np

from collbreak import ContractionError, State
from collbreak.scheme import rhs_arrays

DEGREE = 8


def integration_matrix(n=DEGREE):
    """W[i][j] = integral from 0 to theta_i of l_j, theta_i = (1 - cos(pi i / n)) / 2.

    In x = 2 theta - 1: x_i = cos(pi (n - i) / n), l_j = sum_m 2 T_m(x_j) T_m
    / (n c_j c_m) with c = 2 at the ends, 1 inside, d theta = dx / 2, and
    int T_m = T_(m+1) / (2 (m+1)) - T_(m-1) / (2 (m-1)) from T_m(-1) = (-1)^m.
    """

    def cheb(m, i):  # T_m(x_i), from the sine of the angle reflected into [0, pi]
        k = (m * (n - i)) % (2 * n)
        return math.sin(math.pi * (n - 2 * min(k, 2 * n - k)) / (2 * n))

    def antiderivative(m, i):  # integral from -1 to x_i of T_m
        if m == 0:
            return cheb(1, i) + 1.0
        if m == 1:
            return (cheb(2, i) - 1.0) / 4.0
        sign = -1.0 if m % 2 else 1.0
        return ((cheb(m + 1, i) + sign) / (m + 1) - (cheb(m - 1, i) + sign) / (m - 1)) / 2.0

    def c(k):
        return 2.0 if k in (0, n) else 1.0

    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            total = antiderivative(0, i) * (cheb(0, j) / (n * (c(0) * c(j))))
            for m in range(1, n + 1):
                total += antiderivative(m, i) * (cheb(m, j) / (n * (c(m) * c(j))))
            row.append(total)
        rows.append(row)
    return rows


def oracle_picard(workspace, state0, t_end, max_iter=40, tol=1e-10):
    """(state, diffs, iterations) of the per-node Picard iteration."""
    reps, k0 = workspace.grid.reps, workspace.law.k0
    norm_weights = np.maximum(reps**k0, reps ** (1.0 + k0))  # the uniqueness metric's weights
    weights = [[t_end * w for w in row] for row in integration_matrix()]
    m = len(weights)
    c0 = state0.contents

    traj = np.tile(c0, (m, 1))
    diffs = []
    for iteration in range(1, max_iter + 1):
        derivs = np.empty_like(traj)
        dust_rates = np.empty(m)
        for node in range(m):
            derivs[node], dust_rates[node] = rhs_arrays(workspace, traj[node])
        new_traj = np.empty_like(traj)
        for node in range(m):
            total = weights[node][0] * derivs[0]
            for j in range(1, m):
                total = total + weights[node][j] * derivs[j]
            new_traj[node] = total + c0
        diff = float(np.max(np.sum(norm_weights * np.abs(new_traj - traj), axis=1)))
        diffs.append(diff)
        traj = new_traj
        if not np.isfinite(diff):
            raise ContractionError(diff, iteration)
        # stop on the geometric bound of the distance left to the fixed
        # point: diff q / (1 - q) with q the ratio of the last two diffs
        converged = diff <= tol
        if len(diffs) > 1:
            q = diff / diffs[-2]
            converged = converged or (q < 1.0 and diff * q / (1.0 - q) <= tol)
        if converged:
            dust_step = 0.0
            for w, d in zip(weights[-1], dust_rates):
                dust_step += w * float(d)
            dust = state0.dust_mass + dust_step
            final = State(traj[-1].copy(), dust, state0.time + t_end, state0.clip_mass)
            return final, diffs, iteration
    raise ContractionError(diffs[-1], max_iter)

"""Slow reference for the batched Picard solver: the per-node loop it replaced.

Evaluates the right-hand side one trapezoid node at a time, 65 calls per
iteration, builds each new trajectory from fresh temporaries and, after
convergence, makes a second 65-call pass for the dust rates, the way the
solver was first written.  Its arithmetic on every value that reaches the
result is the same as ``integrate.picard_solve``'s, so the two must agree
bit for bit.  RHS calls go to ``scheme.rhs_arrays`` directly, so a counter
on ``integrate.rhs_arrays`` does not see them.
"""

import numpy as np

from collbreak import ContractionError, State
from collbreak.scheme import rhs_arrays

PANELS = 64


def oracle_picard(workspace, state0, t_end, max_iter=40, tol=1e-10):
    """(state, diffs, iterations) of the per-node Picard iteration."""
    grid = workspace.grid
    norm_weights = grid.reps**workspace.law.k0 + grid.reps
    mesh = np.linspace(0.0, t_end, PANELS + 1)
    h = mesh[1] - mesh[0]
    m = mesh.size
    c0 = state0.contents

    traj = np.tile(c0, (m, 1))
    diffs = []
    for iteration in range(1, max_iter + 1):
        derivs = np.empty_like(traj)
        for node in range(m):
            derivs[node], _ = rhs_arrays(workspace, traj[node])
        new_traj = np.empty_like(traj)
        new_traj[0] = c0
        new_traj[1:] = c0 + np.cumsum((h / 2.0) * (derivs[:-1] + derivs[1:]), axis=0)
        diff = float(np.max(np.sum(norm_weights * np.abs(new_traj - traj), axis=1)))
        diffs.append(diff)
        traj = new_traj
        if not np.isfinite(diff):
            raise ContractionError(diff, iteration)
        if diff <= tol:
            dust_rates = np.empty(m)
            for node in range(m):
                _, dust_rates[node] = rhs_arrays(workspace, traj[node])
            dust = state0.dust_mass + float(np.sum((h / 2.0) * (dust_rates[:-1] + dust_rates[1:])))
            final = State(traj[-1].copy(), dust, state0.time + t_end, state0.clip_mass)
            return final, diffs, iteration
    raise ContractionError(diffs[-1], max_iter)

"""Slow reference for the run record: the per-snapshot loops it replaced.

``RunOutput.moments``, ``tail_monotonicity_check`` and ``weighted_distance``
pass over the (snapshots, n_cells) contents matrix in row blocks of at most
``integrate.BLOCK_DOUBLES`` doubles, and ``emit_outputs`` writes that matrix
in one call.  Here every series is built one snapshot at a time, as the
record was first written: a moment by ``grid.moment`` per state, the whole
tail table by one cumsum per row, and ``contents.npy`` streamed row by row;
the distance is the one expression over whole arrays that the blocks
replaced.  numpy reduces and accumulates a contiguous last axis row by row
exactly as it does one row alone, so whatever the blocking, the two must
agree bit for bit.
"""

import hashlib
import io

import numpy as np

from collbreak.diagnostics import _TAIL_TOL
from collbreak.grid import moment, weight_vector


def moments(run, k):
    """M_k of each snapshot state, one ``grid.moment`` call each."""
    return np.array([moment(run.grid, state, k) for state in run.states])


def rho(run):
    first = run.states[0]
    return moment(run.grid, first, 1.0) + first.dust_mass


def tail_check(run, k):
    """``diagnostics.tail_monotonicity_check``, its tails one cumsum per row."""
    grid = run.grid
    reps_k = grid.reps**k
    tails = np.zeros((len(run.states), grid.n_cells + 1))
    for row, state in enumerate(run.states):
        tails[row, :-1] = np.cumsum((reps_k * state.contents)[::-1])[::-1]
    allowance = _TAIL_TOL * rho(run) * grid.edges ** (k - 1.0)
    allowance[0] = min(allowance[0], _TAIL_TOL * rho(run))
    worst = float(np.max((tails - tails[0]) / allowance))
    return worst <= 1.0, worst


def weighted_distance(a, b, grid, k0):
    """``diagnostics.weighted_distance`` as one expression over whole arrays."""
    return np.sum(weight_vector(grid, k0) * np.abs(a.contents - b.contents), axis=-1)


def moments_csv(run) -> bytes:
    """The bytes of ``moments.csv``: one row per state, in shortest round-trip form,
    with the moments of orders k0, 1 and 1 + k0."""
    orders = (run.law.k0, 1.0, 1.0 + run.law.k0)
    lines = [",".join(["t"] + [f"M_{float(k)!r}" for k in orders] + ["dust_mass", "clip_mass"])]
    series = [moments(run, k) for k in orders]
    for i, state in enumerate(run.states):
        row = [state.time] + [m[i] for m in series] + [state.dust_mass, state.clip_mass]
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode()


def contents_npy(run) -> bytes:
    """The bytes of ``contents.npy``: a version 1.0 header, then each state's row."""
    shape = (len(run.states), run.grid.n_cells)
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": "<f8", "fortran_order": False, "shape": shape})
    for state in run.states:
        out.write(np.ascontiguousarray(state.contents, dtype="<f8").tobytes())
    return out.getvalue()


def file_digests(run) -> dict:
    """The manifest's ``files`` entry of the run, from the two files above."""
    return {
        "moments.csv": hashlib.sha256(moments_csv(run)).hexdigest(),
        "contents.npy": hashlib.sha256(contents_npy(run)).hexdigest(),
    }

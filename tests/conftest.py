import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import collbreak as cb


def quad_oracle(f, a, b, dps=30):
    """Independent quadrature reference, accurate for algebraic singularities at 0.

    Away from the origin this is plain tanh-sinh.  For integrals starting at
    zero the interval is split dyadically toward the endpoint and the
    geometric tail of the slice sums is accelerated from the measured slice
    ratio, which converges for any integrable power singularity.
    """
    with mp.workdps(dps):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if a > 0:
            return float(mp.quad(f, [a, b]))
        tol = mp.mpf(10) ** (-(dps - 10))
        total = mp.mpf(0)
        hi = b
        inc_prev = None
        estimate = None
        for _ in range(200):
            lo = hi / 2
            inc = mp.quad(f, [lo, hi])
            total += inc
            if inc_prev is not None and inc_prev != 0:
                ratio = inc / inc_prev
                if 0 < ratio < 1:
                    candidate = total + inc * ratio / (1 - ratio)
                    if estimate is not None and abs(candidate - estimate) <= tol * abs(
                        candidate
                    ):
                        return float(candidate)
                    estimate = candidate
            inc_prev = inc
            hi = lo
        return float(estimate if estimate is not None else total)


def config_text(config):
    """Configuration text of ``config``'s resolved echo, one ``key = value`` a line.

    str of a float is its shortest round-trip repr, so the text parses back
    to ``config``.
    """
    return "".join(f"{key} = {value}\n" for key, value in config.resolved().items())


# Prints a digest of one right-hand-side evaluation; run it here and in a
# fresh process to compare the two bit for bit.
RHS_DIGEST = """
import hashlib
import numpy as np
import collbreak as cb
grid = cb.build_grid(1e-3, 10.0, 200)
ws = cb.precompute(grid, cb.KernelSpec(0.6, 0.6), cb.DaughterLaw(-1.2, 0.5))
dc, dd = cb.rhs_arrays(ws, np.random.default_rng(4).uniform(size=200))
print(hashlib.sha256(dc.tobytes()).hexdigest(), dd.hex())
"""


def run_in_fresh_process(code):
    """Standard output of ``code`` run by a new Python interpreter.

    The child imports the same collbreak sources but runs with different
    BLAS/OpenMP thread settings, so equal output shows results depend on
    neither the process nor the thread configuration.
    """
    src = str(Path(cb.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


@pytest.fixture(scope="session")
def small_problem():
    """Cheap exponential-data problem used by several unit tests."""
    grid = cb.build_grid(1e-3, 10.0, 48)
    kernel = cb.KernelSpec(0.6, 0.6)
    law = cb.DaughterLaw(-1.2, 0.5)
    workspace = cb.precompute(grid, kernel, law)
    state0 = cb.exponential_state(grid, 1.0, 1.0)
    return workspace, state0


@pytest.fixture(scope="session")
def small_run(small_problem):
    workspace, state0 = small_problem
    return cb.simulate(workspace, state0, np.linspace(0.0, 0.4, 9))

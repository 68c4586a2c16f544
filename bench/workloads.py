"""The three workloads: seeded inputs, one job each, and its checks.

A job is what a user of collbreak runs, from config text to a checked
result.  The seed draws initial-data parameters from narrow ranges; collbreak
only ever sees the generated config text.  Every check compares against a
computation made here, apart from the program, or against a property the
method must have -- never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil

import numpy as np

from collbreak import cli, integrate, output, scheme
from collbreak import config as config_mod

FINE_GRID = """\
kernel.lambda1 = 0.6
kernel.lambda2 = 0.6
daughter.nu = -1.2
daughter.k0 = 0.5
grid.x_min = 1e-4
grid.x_max = 10
grid.n_cells = {n_cells}
init.kind = exponential
init.mass = {mass!r}
init.mean = {mean!r}
time.t_end = 1.0
time.snapshots = 41
"""

SHATTER = """\
kernel.lambda1 = {lam}
kernel.lambda2 = {lam}
daughter.nu = {nu}
daughter.k0 = 0.6
grid.x_min = 1e-2
grid.x_max = 2
grid.n_cells = 56
init.kind = monodisperse
init.size = {size!r}
init.mass = {mass!r}
time.t_end = 0.5
time.snapshots = 11
"""

CROSSVAL = """\
kernel.lambda1 = 0.6
kernel.lambda2 = 0.6
kernel.truncation_n = 4
daughter.nu = -1.2
daughter.k0 = 0.5
grid.x_min = 0.25
grid.x_max = 4
grid.n_cells = {n_cells}
init.kind = exponential
init.mass = {mass!r}
init.mean = {mean!r}
time.t_end = {t_end!r}
time.rel_tol = 1e-11
time.abs_tol = 1e-14
picard.max_iter = 40
picard.tol = 1e-12
"""


class JobFailed(RuntimeError):
    """A collbreak command of the job did not complete."""


def _draw(rng, lo, hi):
    """Uniform draw on [lo, hi], kept to 4 decimals so the config text is short."""
    return round(rng.uniform(lo, hi), 4)


def _cli(argv):
    """Run one collbreak command in this process; (exit code, JSON payload)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return code, err.getvalue().strip()
    return code, json.loads(out.getvalue())


def _run_cli(argv):
    code, payload = _cli(argv)
    if code != 0:
        raise JobFailed(f"collbreak {argv[0]} exited {code}: {payload}")
    return payload


def _mass_drift(run, mass):
    """Worst |M_1 + dust - mass| over the snapshots, from the states alone."""
    reps = run.grid.reps
    return max(abs(float(np.sum(reps * s.contents)) + s.dust_mass - mass) for s in run.states)


class Workload:
    name = ""
    # Set-up passes timed after each job, apart from it: short set-up spans
    # need several passes to cover about ten speed-gauge slices.
    SETUP_REPEATS = 1

    def setup(self):
        """Build every problem the job builds, from its config text, and nothing more."""
        raise NotImplementedError

    def reset(self):
        """Clear what the previous job emitted; not timed."""

    def job(self):
        raise NotImplementedError

    def check(self, result, probe) -> list:
        """Failed checks of one job, as messages; empty when correct."""
        raise NotImplementedError

    def signature(self, result, probe):
        """What must repeat exactly when the job is repeated."""
        return probe.rhs_calls

    def bytes_written(self):
        """Size of the run directory the last job emitted, if any."""
        return 0


class FineGrid(Workload):
    """A1 physics on a fine grid: ``collbreak simulate`` then ``collbreak verify``."""

    name = "fine-grid"
    IDENTITY_ORDERS = (0.5, 0.8, 1.5)

    def __init__(self, seed, work_dir, smoke=False):
        rng = random.Random(seed)
        self.mass = _draw(rng, 0.99, 1.01)
        self.mean = _draw(rng, 0.98, 1.02)
        self.text = FINE_GRID.format(n_cells=256 if smoke else 1024, mass=self.mass, mean=self.mean)
        self.cfg = work_dir / "fine-grid.cfg"
        self.cfg.write_text(self.text)
        self.out = work_dir / "fine-grid-run"

    def setup(self):
        config_mod.build_problem(config_mod.parse_config(self.cfg))

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def job(self):
        simulated = _run_cli(["simulate", str(self.cfg), "--out", str(self.out)])
        verify_code, verified = _cli(["verify", str(self.out)])
        return {"simulate": simulated, "verify_code": verify_code, "verify": verified}

    def signature(self, result, probe):
        return probe.rhs_calls, result["simulate"]["content_hash"]

    def bytes_written(self):
        return sum(path.stat().st_size for path in self.out.iterdir())

    def check(self, result, probe):
        failures = []
        if result["verify_code"] != 0:
            failures.append(f"collbreak verify exited {result['verify_code']}: {result['verify']}")
        run, workspace = probe.runs[-1], probe.workspaces[-1]
        reps = run.grid.reps

        worst = 0.0
        for state in run.states:
            d_contents, d_dust = scheme.rhs_arrays(workspace, state.contents)
            scale = float(np.sum(reps * np.abs(d_contents)))
            worst = max(worst, abs(float(np.sum(reps * d_contents)) + d_dust) / scale)
        if not worst <= 1e-12:
            failures.append(f"per-RHS mass identity off by {worst:.3e} relative (> 1e-12)")

        drift = _mass_drift(run, self.mass)
        if not drift <= 1e-6 * self.mass:
            failures.append(f"M_1 + dust drifts {drift:.3e} from rho = {self.mass} (> 1e-6 rho)")

        for k in self.IDENTITY_ORDERS:
            rel = moment_identity_gap(run, k)
            if not rel <= 0.01:
                failures.append(f"moment identity at k={k} off by {rel:.3e} relative (> 1%)")

        loaded = output.load_run(self.out)
        same = np.array_equal(loaded.times, run.times) and all(
            np.array_equal(a.contents, b.contents) and a.dust_mass == b.dust_mass and a.clip_mass == b.clip_mass
            for a, b in zip(loaded.states, run.states)
        )
        if not same or len(loaded.states) != len(run.states):
            failures.append("loaded run differs from the in-memory states")
        return failures


def moment_identity_gap(run, k):
    """Relative L2 gap of dM_k/dt = (1-k)/(k+nu+1)[M_{k+l1} M_{l2} + M_{k+l2} M_{l1}].

    Moments come from the snapshot states, dM_k/dt from central differences
    on the snapshot mesh.  The k-moment falling below x_min is added back:
    a parent deposits (nu+2)/(k+nu+1) x_min^(k-1) of k-moment per unit of
    mass it sends below x_min, whatever its size.
    """
    reps = run.grid.reps
    l1, l2 = run.kernel.lambda1, run.kernel.lambda2
    nu = run.law.nu

    def m(p):
        return np.array([float(np.sum(reps**p * s.contents)) for s in run.states])

    times = np.asarray(run.times)
    dust = np.array([s.dust_mass for s in run.states])
    dmdt = np.gradient(m(k), times)
    production = (1.0 - k) / (k + nu + 1.0) * (m(k + l1) * m(l2) + m(k + l2) * m(l1))
    leak = np.gradient(dust, times) * (nu + 2.0) / (k + nu + 1.0) * run.grid.x_min ** (k - 1.0)
    residual = dmdt - production + leak
    return float(np.linalg.norm(residual[1:-1]) / np.linalg.norm(dmdt[1:-1]))


class Shatter(Workload):
    """``collbreak shatter-study`` on the A5 config and on its control."""

    name = "shatter"
    SETUP_REPEATS = 4

    def __init__(self, seed, work_dir, smoke=False):
        rng = random.Random(seed)
        self.mass = _draw(rng, 0.98, 1.02)
        size = _draw(rng, 0.9, 1.1)
        self.xmins = "1e-2,1e-3,1e-4" if smoke else "1e-2,1e-3,1e-4,1e-5"
        self.cfg = work_dir / "shatter.cfg"
        self.cfg.write_text(SHATTER.format(lam=0, nu=-1.5, size=size, mass=self.mass))
        self.control_cfg = work_dir / "shatter-control.cfg"
        self.control_cfg.write_text(SHATTER.format(lam=1, nu=-0.5, size=size, mass=self.mass))

    def setup(self):
        for path in (self.cfg, self.control_cfg):
            config = config_mod.parse_config(path)
            for x_min in self.xmins.split(","):
                config_mod.build_problem(config_mod.with_x_min(config, float(x_min)))

    def job(self):
        study = _run_cli(["shatter-study", str(self.cfg), "--xmins", self.xmins])
        control = _run_cli(["shatter-study", str(self.control_cfg), "--xmins", self.xmins])
        return {"study": study, "control": control}

    def check(self, result, probe):
        failures = []
        study, control = result["study"], result["control"]
        rows = sorted(study["rows"], key=lambda r: -r["x_min"])
        fractions = [r["dust_fraction"] for r in rows]
        if study["verdict"] != "shattering":
            failures.append(f"A5 verdict {study['verdict']!r}, expected 'shattering'")
        if not min(fractions) >= 0.05:
            failures.append(f"A5 dust fractions {fractions} not all >= 0.05")
        if any(b < a for a, b in zip(fractions, fractions[1:])):
            failures.append(f"A5 dust fractions {fractions} decrease as x_min falls")
        if control["verdict"] != "conservative":
            failures.append(f"control verdict {control['verdict']!r}, expected 'conservative'")
        drop = per_decade_drop(control["rows"])
        if not drop >= 2.0:
            failures.append(f"control dust drops {drop:.3g}x per decade (< 2x)")
        expected_runs = 2 * len(self.xmins.split(","))
        if len(probe.runs) != expected_runs:
            failures.append(f"{len(probe.runs)} solver runs, expected {expected_runs}")
        for run in probe.runs:
            drift = _mass_drift(run, self.mass)
            if not drift <= 1e-6 * self.mass:
                failures.append(f"M_1 + dust drifts {drift:.3e} at x_min={run.grid.x_min}")
        return failures


def per_decade_drop(rows):
    """Factor by which the dust fraction falls per decade of x_min (least squares)."""
    x = np.array([math.log10(r["x_min"]) for r in rows])
    y = np.array([math.log10(r["dust_fraction"]) for r in rows])
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    return 10.0**slope


class Crossval(Workload):
    """A8 truncated kernel: chained Picard windows against an RK reference."""

    name = "crossval"
    SETUP_REPEATS = 4
    WINDOW = 0.1

    def __init__(self, seed, work_dir, smoke=False):
        rng = random.Random(seed)
        self.mass = _draw(rng, 0.19, 0.21)
        mean = _draw(rng, 0.95, 1.05)
        self.windows = 2 if smoke else 10
        self.text = CROSSVAL.format(
            n_cells=64 if smoke else 256, mass=self.mass, mean=mean, t_end=self.windows * self.WINDOW
        )

    def setup(self):
        config_mod.build_problem(config_mod.parse_config_text(self.text))

    def job(self):
        config = config_mod.parse_config_text(self.text)
        workspace, state0 = config_mod.build_problem(config)
        picard = []
        state = state0
        for _ in range(self.windows):
            result = integrate.picard_solve(workspace, state, self.WINDOW, config.picard_max_iter, config.picard_tol)
            picard.append(result)
            state = result.state
        tolerances = integrate.Tolerances(rel_tol=config.rel_tol, abs_tol=config.abs_tol)
        ends = [state0.time] + [r.state.time for r in picard]
        reference = integrate.simulate(workspace, state0, ends, tolerances)
        return {"picard": picard, "reference": reference, "k0": config.law.k0}

    def check(self, result, probe):
        failures = []
        reference = result["reference"]
        reps = reference.grid.reps
        k0 = result["k0"]
        weights = np.maximum(reps**k0, reps ** (1.0 + k0))
        for i, (window, ref) in enumerate(zip(result["picard"], reference.states[1:])):
            gap = float(np.sum(weights * np.abs(window.state.contents - ref.contents)))
            if not gap <= 1e-6:
                failures.append(f"window {i}: Picard vs RK weighted distance {gap:.3e} (> 1e-6)")
            diffs = window.diffs
            if any(b > a for a, b in zip(diffs[1:], diffs[2:])):
                failures.append(f"window {i}: Picard differences rise after iteration 1: {diffs}")
        drift = _mass_drift(reference, self.mass)
        if not drift <= 1e-6 * self.mass:
            failures.append(f"RK reference M_1 + dust drifts {drift:.3e} (> 1e-6 rho)")
        return failures


WORKLOADS = {w.name: w for w in (FineGrid, Shatter, Crossval)}

"""collbreak benchmark: one workload per invocation, one JSON line of results.

    python3 bench/run.py --workload fine-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  The program is imported from ``src/`` next to
this directory and from nowhere else.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics; ``--smoke``
runs every workload at a tiny size, with all checks, in well under a minute.
The last line of standard output is the result object.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Fewest timed jobs (traced runs: untraced-traced pairs) per run, whatever
# --seconds says, so that a median exists.
MIN_JOBS = 3


def import_program():
    """Import collbreak from ROOT/src; exit with a message when it is not there."""
    src = ROOT / "src"
    if not (src / "collbreak" / "__init__.py").is_file():
        sys.exit(f"bench: no collbreak sources under {src}")
    sys.path.insert(0, str(src))
    import collbreak

    if Path(collbreak.__file__).resolve().parent != src / "collbreak":
        sys.exit(f"bench: imported collbreak from {collbreak.__file__}, not {src}")


class SpeedGauge:
    """Samples the host's speed all through a job and hides what it costs.

    On a shared virtual machine a job's CPU time, not only its wall time,
    can swing by 1.5x within seconds: the virtual CPU itself runs faster or
    slower.  A fixed reference computation that never calls collbreak, timed
    right before and after a job, does not follow those swings; timed every
    ``INTERVAL_S`` during the job, it does.  So a SIGALRM timer interrupts the
    job at that interval and runs one short reference slice.  ``now()`` is a
    clock that leaves the slices out, and a job's figures are its ``now()``
    seconds times ``NOMINAL_S / (mean slice time during the job)``: seconds
    at the speed at which a slice takes NOMINAL_S (see README.md).

    A slice holds the three kinds of work the workloads do: dense row
    reductions on a cache-resident block (the right-hand side on small
    grids), row reductions streamed from an array far larger than L2 (the
    right-hand side on 1024 cells), and scalar Python arithmetic (the
    precompute loop, the integrator's bookkeeping).
    """

    INTERVAL_S = 0.02
    NOMINAL_S = 6.0e-4
    STREAM_ROWS = 32

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._mat = rng.random((64, 128))
        self._vec = rng.random(128)
        self._big = rng.random((4096, 1024))  # 32 MB
        self._big_vec = rng.random(1024)
        self._row = 0
        self.slice_s = 0.0  # summed slice times
        self.slices = 0
        self._hidden = 0.0  # time spent in the handler, left out of now()
        self._previous = None

    def _slice(self):
        np = self._np
        acc = 0.0
        for _ in range(20):
            acc += float(np.sum(self._mat * self._vec, axis=1)[0])
        for _ in range(2):
            rows = self._big[self._row : self._row + self.STREAM_ROWS]
            self._row = (self._row + self.STREAM_ROWS) % len(self._big)
            acc += float(np.sum(rows * self._big_vec, axis=1)[0])
        for i in range(1, 1500):
            acc += (i * 1e-3) ** 1.3
        return acc

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._slice()
        self.slice_s += perf_counter() - t0
        self.slices += 1
        self._hidden += perf_counter() - t0

    def now(self) -> float:
        """perf_counter() without the time spent in reference slices."""
        return perf_counter() - self._hidden

    def mark(self):
        return self.slice_s, self.slices

    def factor(self, mark) -> float:
        """NOMINAL_S over the mean slice time since ``mark``."""
        if self.slices == mark[1]:
            self._tick(None, None)
        return self.NOMINAL_S * (self.slices - mark[1]) / (self.slice_s - mark[0])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Runner:
    """Repeats one workload's job and turns the repeats into metrics."""

    def __init__(self, workload, gauge, seed, min_jobs=MIN_JOBS):
        self.workload = workload
        self.gauge = gauge
        self.min_jobs = min_jobs
        self._layout_rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed checks: the run is not correct
        self.signatures = set()

    def one_job(self, traced=False, peak=False):
        """Run one job; (probe, raw job seconds, peak MB) or None if it failed."""
        from probes import Probe

        self.workload.reset()
        padding = self._shuffle_heap()
        gc.collect()
        self.attempted += 1
        clock = self.gauge.now
        probe = Probe(traced, clock)
        peak_mb = None
        try:
            if peak:
                tracemalloc.start()
            with probe:
                t0 = clock()
                result = self.workload.job()
                job_s = clock() - t0
            if peak:
                peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        except Exception as exc:  # noqa: BLE001 - a job boundary: record it and go on
            return self._fail(exc)
        finally:
            if peak:
                tracemalloc.stop()
            del padding
        if probe.rhs_calls == 0:
            return self._fail(RuntimeError("job recorded no right-hand-side evaluations"))
        self.problems += self.workload.check(result, probe)
        self.signatures.add(self.workload.signature(result, probe))
        return probe, job_s, peak_mb

    def _shuffle_heap(self):
        """Random live and freed blocks, so the job's arrays land elsewhere.

        How fast a job runs depends on where its arrays sit in memory by up
        to 10% here, and one process tends to put them in the same places
        job after job.  Shuffling the heap before every job makes a run's
        median an average over layouts instead of one process's draw.
        """
        rng = self._layout_rng
        blocks = [bytearray(rng.randrange(16, 300_000)) for _ in range(rng.randrange(1, 200))]
        return blocks[::2]

    def _fail(self, exc):
        self.failed += 1
        print(f"bench: {self.workload.name}: job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None

    def timed(self, traced=False):
        """One job under the speed gauge; (probe, speed factor, job_s) or None."""
        mark = self.gauge.mark()
        done = self.one_job(traced)
        if done is None:
            return None
        probe, job_s, _ = done
        return probe, self.gauge.factor(mark), job_s

    def setup_sample(self):
        """Seconds of one set-up pass, timed over SETUP_REPEATS passes.

        Set-up spans are short (50 ms on shatter and crossval), so they are
        repeated apart from the job and scaled by the gauge slices that
        fell inside the repeats themselves.
        """
        repeats = self.workload.SETUP_REPEATS
        mark = self.gauge.mark()
        t0 = self.gauge.now()
        for _ in range(repeats):
            self.workload.setup()
        elapsed = (self.gauge.now() - t0) / repeats
        return elapsed * self.gauge.factor(mark)

    def end_to_end(self, seconds):
        warm = self.one_job(peak=True)  # also pays first-call costs
        peak_mb = warm[2] if warm else None
        rows = []
        deadline = perf_counter() + seconds
        with self.gauge:
            while len(rows) < self.min_jobs or perf_counter() < deadline:
                done = self.timed()
                if done is None:
                    if self.failed >= self.attempted:
                        break
                    continue
                probe, factor, job_s = done
                rows.append((self.setup_sample(), factor * probe.solve_s, factor * job_s, probe.rhs_calls))
                print(
                    f"bench: {self.workload.name} job {len(rows)}: {job_s:.4f} s at speed factor {factor:.4f}; "
                    "setup/solve/job %.4f/%.4f/%.4f s" % rows[-1][:3],
                    file=sys.stderr,
                )
        if not rows or peak_mb is None:
            return None
        return {
            "setup_s": statistics.median(r[0] for r in rows),
            "solve_s": statistics.median(r[1] for r in rows),
            "job_s": statistics.median(r[2] for r in rows),
            "rhs_evals": rows[-1][3],
            "peak_alloc_mb": peak_mb,
        }

    def per_layer(self, seconds):
        self.one_job()  # first-call costs
        plain, traced, tables = [], [], []
        deadline = perf_counter() + seconds
        with self.gauge:
            while len(traced) < self.min_jobs or perf_counter() < deadline:
                done_plain = self.timed()
                done_traced = self.timed(traced=True)
                if done_plain is None or done_traced is None:
                    if self.failed >= self.attempted:
                        break
                    continue
                plain.append(done_plain[1] * done_plain[2])
                probe, factor, job_s = done_traced
                layers = probe.layer_metrics()
                layers = {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}
                layers["trace.job_s"] = factor * job_s
                traced.append(layers)
                tables.append(probe.span_table())
        if not traced:
            return None
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["output.bytes_written"] = self.workload.bytes_written()
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - statistics.median(plain)
        return metrics, tables


def _measure(workload, seed, seconds, trace, min_jobs=MIN_JOBS):
    runner = Runner(workload, SpeedGauge(), seed, min_jobs)
    tables = None
    if trace:
        measured = runner.per_layer(seconds)
        if measured is not None:
            measured, tables = measured
    else:
        measured = runner.end_to_end(seconds)
    if len(runner.signatures) > 1:
        runner.problems.append(f"repeated jobs differ: {sorted(map(str, runner.signatures))}")
    return runner, measured, tables


def _result_line(runner, metrics):
    return json.dumps(
        {
            "correct": not runner.problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
    )


def _main_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"bench: unknown workload {args.workload!r}; expected one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import_program()
    from workloads import WORKLOADS

    work_dir = BENCH_DIR / "_work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        runner, measured, tables = _measure(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in runner.problems:
        print(f"bench: {args.workload}: check failed: {problem}", file=sys.stderr)
    if measured is None:
        print(_result_line(runner, {}))
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit(f"bench: {args.workload} does not compute {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    if tables is not None:
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        path = results / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "jobs": tables}, indent=1) + "\n")
    print(_result_line(runner, metrics))
    return 0


def _main_smoke(args):
    """Every workload at tiny size, untraced and traced, with every check."""
    import_program()
    from workloads import WORKLOADS

    summary = {}
    ok = True
    for name, cls in WORKLOADS.items():
        work_dir = BENCH_DIR / "_work" / f"smoke-{name}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        t0 = perf_counter()
        try:
            for trace in (False, True):
                runner, measured, _ = _measure(cls(args.seed, work_dir, smoke=True), args.seed, 0, trace, min_jobs=1)
                for problem in runner.problems:
                    print(f"bench: smoke {name}: check failed: {problem}", file=sys.stderr)
                ok = ok and measured is not None and not runner.problems and runner.failed == 0
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        summary[name] = round(perf_counter() - t0, 2)
    print(json.dumps({"smoke": "pass" if ok else "fail", "seconds": summary}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, tiny, with checks")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if args.smoke:
        return _main_smoke(args)
    if not args.workload:
        parser.error("--workload is required unless --smoke is given")
    return _main_workload(args)


if __name__ == "__main__":
    sys.exit(main())

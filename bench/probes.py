"""Timers, counters and spans wrapped around collbreak's functions.

Nothing here edits the program: a ``Probe`` rebinds module attributes of the
already imported ``collbreak`` package for the length of one job and puts the
originals back afterwards.  A function is rebound under every name that holds
it, so ``integrate.rhs_arrays`` (the name the integrator calls) is wrapped
together with ``scheme.rhs_arrays``.

Untraced jobs wrap only what the end-to-end metrics and the checks need:
``config.build_problem`` (to keep the workspace), the two solvers, and a bare
counter on the right-hand side.  Traced jobs record a span around every
public function of the eight layers.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from time import perf_counter

import numpy as np

LAYERS = ("config", "grid", "scheme", "integrate", "output", "diagnostics", "bounds", "cli")

# (module, attribute) pairs an untraced job wraps.  A job whose program lacks
# one of them fails instead of reporting a silently smaller figure.
BUILD_NAME = ("config", "build_problem")
SOLVE_NAMES = (("integrate", "simulate"), ("integrate", "picard_solve"))
RHS_NAME = ("integrate", "rhs_arrays")

# Spans of these functions make up the per-layer times of the traced run.
INIT_STATE = {"grid." + n for n in ("exponential_state", "monodisperse_state", "table_state", "density_state")}


class ProbeError(RuntimeError):
    """The program does not expose a name the probes must wrap."""


def _module(layer):
    return importlib.import_module(f"collbreak.{layer}")


def _lookup(layer, attr):
    func = getattr(_module(layer), attr, None)
    if not callable(func):
        raise ProbeError(f"collbreak.{layer} has no function {attr}")
    return func


def _traced_functions():
    """(span name, function) for the public functions of every layer.

    The CLI's only public function is ``main``; its subcommands ``_cmd_*``
    are what a user runs, so they are spanned as ``cli.<command>``.
    """
    found = []
    for layer in LAYERS:
        mod = _module(layer)
        for attr, func in vars(mod).items():
            if not inspect.isfunction(func) or func.__module__ != mod.__name__:
                continue
            if attr.startswith("_cmd_"):
                found.append((f"cli.{attr[5:]}", func))
            elif not attr.startswith("_"):
                found.append((f"{layer}.{attr}", func))
    return found


class Probe:
    """Instruments one job; use as a context manager around it.

    Untraced: ``solve_s`` from clock pairs around the solver entry points,
    ``rhs_calls`` from a counter on the right-hand side.  Traced: every
    wrapped call is a span ``(name, parent, start, end)`` kept in ``spans``;
    see ``layer_metrics``.
    """

    def __init__(self, traced: bool, clock=perf_counter):
        self.traced = traced
        self._clock = clock
        self.solve_s = 0.0
        self.rhs_calls = 0
        self.workspaces = []  # every workspace built, for the checks
        self.runs = []  # every RunOutput returned by integrate.simulate
        self.picard = []  # every PicardResult
        self.spans = []
        self.rejected = 0
        self._names = []
        self._stack = []
        self._saved = []

    # -- wrappers ----------------------------------------------------------
    def _capture(self, name, result):
        if name == "config.build_problem":
            self.workspaces.append(result[0])
        elif name == "integrate.simulate":
            self.runs.append(result)
        elif name == "integrate.picard_solve":
            self.picard.append(result)

    def _timed(self, name, func):
        clock = self._clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = func(*args, **kwargs)
            self.solve_s += clock() - t0
            self._capture(name, result)
            return result

        return wrapper

    def _kept(self, name, func):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            self._capture(name, result)
            return result

        return wrapper

    def _counted(self, func):
        def wrapper(*args, **kwargs):
            self.rhs_calls += 1
            return func(*args, **kwargs)

        return wrapper

    def _spanned(self, name, func):
        self._names.append(name)
        name_id = len(self._names) - 1
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name_id, parent, t0, t1)
            self._capture(name, result)
            if name == "integrate.step":
                # Each rejected attempt halves dt, so dt_target / dt_used = 2**rejections.
                self.rejected += round(math.log2(args[2] / result[1]))
            return result

        return wrapper

    # -- binding -------------------------------------------------------------
    def _rebind(self, func, wrapper):
        """Replace ``func`` under every collbreak name that holds it."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._saved.append((mod, attr, func))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        build = _lookup(*BUILD_NAME)
        solvers = {f"{layer}.{attr}": _lookup(layer, attr) for layer, attr in SOLVE_NAMES}
        rhs = _lookup(*RHS_NAME)
        try:
            if self.traced:
                for name, func in _traced_functions():
                    self._rebind(func, self._spanned(name, func))
            else:
                self._rebind(build, self._kept("config.build_problem", build))
                for name, func in solvers.items():
                    self._rebind(func, self._timed(name, func))
                self._rebind(rhs, self._counted(rhs))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        if self.traced:
            rhs = self._names.index("scheme.rhs_arrays") if "scheme.rhs_arrays" in self._names else -1
            self.rhs_calls = sum(1 for span in self.spans if span is not None and span[0] == rhs)
        return False

    def _restore(self):
        for mod, attr, func in reversed(self._saved):
            setattr(mod, attr, func)
        self._saved.clear()

    # -- traced-run aggregation ---------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer figures of one traced job, times in raw seconds."""
        spans = self.spans
        n = len(spans)
        name_of = [self._names[s[0]] for s in spans]
        duration = [s[3] - s[2] for s in spans]
        child = self._child_times()

        def outermost(pred):
            """Total time of spans matching pred whose parent does not match."""
            return sum(
                duration[i]
                for i in range(n)
                if pred(name_of[i]) and not (spans[i][1] >= 0 and pred(name_of[spans[i][1]]))
            )

        def total(name):
            return sum(duration[i] for i in range(n) if name_of[i] == name)

        def self_time(name):
            return sum(duration[i] - child[i] for i in range(n) if name_of[i] == name)

        def calls(name):
            return sum(1 for i in range(n) if name_of[i] == name)

        def under(i, name):
            parent = spans[i][1]
            while parent >= 0:
                if name_of[parent] == name:
                    return True
                parent = spans[parent][1]
            return False

        rhs = [i for i in range(n) if name_of[i] == "scheme.rhs_arrays"]
        rhs_s = sum(duration[i] for i in rhs)
        steps = calls("integrate.step")
        picard_rhs = sum(1 for i in rhs if under(i, "integrate.picard_solve"))
        simulate_rhs = sum(1 for i in rhs if under(i, "integrate.simulate"))
        cells = sum(ws.grid.n_cells for ws in self.workspaces)
        workspace_bytes = max(
            (sum(v.nbytes for v in vars(ws).values() if isinstance(v, np.ndarray)) for ws in self.workspaces),
            default=0,
        )
        return {
            "config.parse_s": total("config.parse_config_text"),
            "grid.init_state_s": outermost(lambda s: s in INIT_STATE),
            "grid.cells": cells,
            "scheme.precompute_s": total("scheme.precompute"),
            "scheme.precompute_calls": calls("scheme.precompute"),
            "scheme.workspace_mb": workspace_bytes / 1e6,
            "scheme.rhs_calls": len(rhs),
            "scheme.rhs_s": rhs_s,
            "scheme.rhs_us_per_call": 1e6 * rhs_s / len(rhs) if rhs else 0.0,
            "integrate.simulate_s": total("integrate.simulate"),
            "integrate.step_self_s": self_time("integrate.step"),
            "integrate.steps_accepted": steps,
            "integrate.steps_rejected": self.rejected,
            "integrate.rhs_per_step": simulate_rhs / steps if steps else 0.0,
            "integrate.picard_s": total("integrate.picard_solve"),
            "integrate.picard_iterations": sum(r.iterations for r in self.picard),
            "integrate.picard_rhs_calls": picard_rhs,
            "output.emit_s": total("output.emit_outputs"),
            "output.load_s": total("output.load_run"),
            "diagnostics.verify_s": total("diagnostics.run_verification"),
            "diagnostics.study_self_s": self_time("diagnostics.shattering_study"),
            "bounds.report_s": outermost(lambda s: s.startswith("bounds.")),
            "cli.simulate_s": total("cli.simulate"),
            "cli.verify_s": total("cli.verify"),
            "cli.shatter_study_s": total("cli.shatter_study"),
        }

    def _child_times(self):
        """Per span, the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def span_table(self) -> dict:
        """Calls, total and self seconds per span name (for the trace file)."""
        table = {}
        child = self._child_times()
        for i, (name_id, _, t0, t1) in enumerate(self.spans):
            row = table.setdefault(self._names[name_id], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(table.items())}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items()) if name == "collbreak" or name.startswith("collbreak.")]

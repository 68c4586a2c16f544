"""The benchmark's jobs still run against the program, with every check.

Loads ``bench/workloads.py`` and ``bench/probes.py`` as they are and runs
every job at smoke size inside a ``Probe``, plain and traced.  A renamed
function the probes wrap, or a workspace field they read, fails here instead
of in a benchmark run; so does a solver that bypasses ``integrate.step`` or
hides right-hand-side calls from the probe, or a Picard solve that goes back
to one call per node.  No timing is asserted.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


workloads = _load("workloads")
probes = _load("probes")


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", ["crossval", "fine-grid", "shatter"])
def test_smoke_job_passes_its_checks(name, traced, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path, smoke=True)
    workload.setup()
    with probes.Probe(traced) as probe:
        result = workload.job()
    assert probe.rhs_calls > 0
    assert workload.check(result, probe) == []
    if traced:
        layers = probe.layer_metrics()
        assert layers["scheme.precompute_calls"] >= 1
        assert layers["scheme.rhs_calls"] == probe.rhs_calls
        assert layers["grid.cells"] > 0
        # FSAL: six RHS per accepted step, plus one to start each run
        assert layers["integrate.steps_accepted"] > 0
        assert 6.0 <= layers["integrate.rhs_per_step"] < 7.0
        if name == "crossval":
            # Picard: one batched call per iteration, which also gives the dust
            assert layers["integrate.picard_iterations"] > 0
            assert layers["integrate.picard_rhs_calls"] == layers["integrate.picard_iterations"]

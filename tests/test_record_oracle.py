"""The run record's matrix reductions against the per-snapshot oracle, bit for bit."""

import contextlib
import io
import json

import numpy as np
import pytest

import collbreak as cb
import record_oracle
from collbreak.cli import main
from collbreak.output import FORMAT, _content_hash
from test_acceptance import A1_CONFIG, A5_CONFIG, A8_CONFIG

RUNS = pytest.mark.parametrize(
    "text, x_min",
    [(A1_CONFIG, None), (A5_CONFIG, 1e-4), (A8_CONFIG, None)],
    ids=["A1-n128", "A5-xmin1e-4", "A8"],
)


def _run(text, x_min):
    config = cb.parse_config_text(text)
    if x_min is not None:
        config = cb.with_x_min(config, x_min)
    return cb.run(config)


def _orders(run):
    """The emitted orders and every order ``run_verification`` and ``distance`` read."""
    l1, l2, k0 = run.kernel.lambda1, run.kernel.lambda2, run.law.k0
    return sorted({*run.config.moment_orders, 1.0, k0, 1.0 + k0, l1, l2, 1.0 + l1, 1.0 + l2, 1.0 + k0 + l2})


def _assert_matches_oracle(run):
    for k in _orders(run):
        assert run.moments(k).tobytes() == record_oracle.moments(run, k).tobytes(), k
    assert run.rho == record_oracle.rho(run)
    for k in (1.0, 1.0 + run.law.k0):
        assert cb.tail_monotonicity_check(run, k) == record_oracle.tail_check(run, k)


@RUNS
def test_record_reductions_bitwise_equal_per_snapshot_oracle(text, x_min):
    run = _run(text, x_min)
    assert run.contents.shape == (run.times.size, run.grid.n_cells)
    assert not run.contents.flags.writeable
    _assert_matches_oracle(run)
    # repeated orders come back from the record, not from a second reduction
    assert run.moments(1.0) is run.moments(1.0)


@RUNS
def test_emitted_files_and_hash_bitwise_equal_row_by_row_oracle(tmp_path, text, x_min):
    run = _run(text, x_min)
    manifest = cb.emit_outputs(run, tmp_path)
    assert (tmp_path / "contents.npy").read_bytes() == record_oracle.contents_npy(run)
    assert (tmp_path / "moments.csv").read_bytes() == record_oracle.moments_csv(run)
    files = record_oracle.file_digests(run)
    assert manifest["files"] == files
    oracle_manifest = {"format": FORMAT, "config": run.config.resolved(), "files": files}
    assert manifest["content_hash"] == _content_hash(oracle_manifest)


@RUNS
def test_load_run_round_trip_bitwise_equal_oracle(tmp_path, text, x_min):
    run = _run(text, x_min)
    cb.emit_outputs(run, tmp_path)
    loaded = cb.load_run(tmp_path)
    # the file's read-only matrix, and its rows are the states' contents
    assert not loaded.contents.flags.writeable
    assert all(np.shares_memory(state.contents, loaded.contents) for state in loaded.states)
    assert record_oracle.contents_npy(loaded) == (tmp_path / "contents.npy").read_bytes()
    _assert_matches_oracle(loaded)
    for k in _orders(run):
        assert loaded.moments(k).tobytes() == run.moments(k).tobytes()


def test_cli_distance_equals_per_snapshot_weighted_distance(tmp_path):
    runs = []
    for name, mass in (("a", "1.0"), ("b", "1.001")):
        run = cb.run(cb.parse_config_text(A1_CONFIG.replace("init.mass = 1.0", f"init.mass = {mass}")))
        cb.emit_outputs(run, tmp_path / name)
        runs.append(run)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["distance", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    rows = json.loads(out.getvalue())["rows"]
    a, b = runs
    want = [cb.weighted_distance(sa, sb, a.grid, a.law.k0) for sa, sb in zip(a.states, b.states)]
    assert [row["distance"] for row in rows] == want
    assert want[-1] > 0.0

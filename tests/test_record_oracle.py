"""The run record's matrix reductions against the per-snapshot oracle, bit for bit."""

import contextlib
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

import collbreak as cb
import record_oracle
from collbreak.cli import main
from collbreak.integrate import BLOCK_DOUBLES, row_blocks
from collbreak.output import FORMAT, _content_hash
from test_acceptance import A1_CONFIG, A5_CONFIG, A8_CONFIG


def _a1(cells, snapshots):
    text = A1_CONFIG.replace("grid.n_cells = 128", f"grid.n_cells = {cells}")
    return text.replace("time.snapshots = 21", f"time.snapshots = {snapshots}")


# The first three records fit in one row block of BLOCK_DOUBLES = 4096; A1 on
# 200 snapshots of 128 cells takes six blocks of 32 rows and a last of 8,
# and on 9000 cells each row is wider than a block, so each block is one row.
RUNS = pytest.mark.parametrize(
    "text, x_min",
    [(A1_CONFIG, None), (A5_CONFIG, 1e-4), (A8_CONFIG, None), (_a1(128, 200), None), (_a1(9000, 3), None)],
    ids=["A1-n128", "A5-xmin1e-4", "A8", "A1-n128-s200-blocks", "A1-n9000-wide-rows"],
)


def _run(text, x_min):
    config = cb.parse_config_text(text)
    if x_min is not None:
        config = cb.with_x_min(config, x_min)
    return cb.run(config)


def test_block_cases_cover_what_they_claim():
    assert BLOCK_DOUBLES == 4096
    assert [(r.start, r.stop) for r, _ in row_blocks(200, 128)] == [
        (0, 32), (32, 64), (64, 96), (96, 128), (128, 160), (160, 192), (192, 200)
    ]
    blocks = list(row_blocks(3, 9000))
    assert [(r.start, r.stop) for r, _ in blocks] == [(0, 1), (1, 2), (2, 3)]
    assert all(scratch.shape == (1, 9000) for _, scratch in blocks)


def _orders(run):
    """The emitted orders k0, 1 and 1 + k0, and every order ``run_verification`` and ``distance`` read."""
    l1, l2, k0 = run.kernel.lambda1, run.kernel.lambda2, run.law.k0
    return sorted({k0, 1.0, 1.0 + k0, l1, l2, 1.0 + l1, 1.0 + l2, 1.0 + k0 + l2})


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
    first, want = loaded.state(0), loaded.states[0]
    assert first.contents.tobytes() == want.contents.tobytes()
    assert (first.dust_mass, first.time, first.clip_mass) == (want.dust_mass, want.time, want.clip_mass)
    _assert_matches_oracle(loaded)
    for k in _orders(run):
        assert loaded.moments(k).tobytes() == run.moments(k).tobytes()


@RUNS
def test_weighted_distance_bitwise_equal_whole_array_formula(text, x_min):
    run = _run(text, x_min)
    other = cb.State(np.ascontiguousarray(run.contents[::-1]))  # the snapshots reversed
    grid, k0 = run.grid, run.law.k0
    got = cb.weighted_distance(run, other, grid, k0)
    want = record_oracle.weighted_distance(run, other, grid, k0)
    assert got.shape == (run.times.size,) and got.tobytes() == want.tobytes()
    assert got[0] > 0.0
    for state, row in zip(run.states, other.contents):
        one = cb.State(row)
        got = cb.weighted_distance(state, one, grid, k0)
        want = record_oracle.weighted_distance(state, one, grid, k0)
        assert type(got) is type(want) is np.float64 and got == want


def test_record_passes_hold_a_fraction_of_the_record_beyond_their_inputs(tmp_path):
    # each pass may hold its output and O(n_cells + block) scratch, not a
    # temporary the size of the record.  Rows of 4096 cells keep what scales
    # with the snapshots alone apart from the record: the manifest's C1 table
    # costs emit_outputs about 1 KB a snapshot in the JSON encoder.
    run = _run(_a1(4096, 257), None)
    record = run.contents.nbytes
    assert record >= 8e6
    reversed_run = cb.State(np.ascontiguousarray(run.contents[::-1]))

    def extra_peak(call):
        fresh = dataclasses.replace(run)  # no moments computed yet
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(fresh)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    passes = {
        "run_verification": cb.run_verification,
        "emit_outputs": lambda fresh: cb.emit_outputs(fresh, tmp_path / "run"),
        "weighted_distance": lambda fresh: cb.weighted_distance(fresh, reversed_run, run.grid, run.law.k0),
    }
    for name, call in passes.items():
        assert extra_peak(call) < record / 8, name


def test_row_block_passes_hold_one_old_block_on_a_fine_grid_record():
    # numpy 2.4 gives a broadcasting ufunc on a 2-D block an iteration buffer of
    # min(8192, block) doubles, so a pass holds two blocks.  On a (41, 1024)
    # record, blocks of 4096 doubles keep a moments pass at 76 KB and a tail
    # check at 102 KB beyond the record; blocks of 8192 took 142 and 200 KB.
    run = _run(_a1(1024, 41), None)
    assert run.contents.shape == (41, 1024)
    assert run.rho > 0.0  # the tail check's M_1 pass, made before its own pass is measured

    def extra_peak(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert extra_peak(lambda: dataclasses.replace(run).moments(0.5)) <= 90_000
    assert extra_peak(lambda: cb.tail_monotonicity_check(run, 1.0 + run.law.k0)) <= 120_000


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

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collbreak as cb
from collbreak import cli
from collbreak.cli import main
from collbreak.output import _content_hash
import test_acceptance
from conftest import config_text, run_in_fresh_process
from test_diagnostics import A8_CROSSVAL, F8_FLOOR_EXCESS, with_dust_excess
from test_integrate import F2_CONFIG, F8_CONFIG, PICARD_OVERFLOW_CONFIG

BASE_CONFIG = """
kernel.lambda1 = 0.6
kernel.lambda2 = 0.6
daughter.nu = -1.2
daughter.k0 = 0.5
grid.x_min = 1e-3
grid.x_max = 10
grid.n_cells = 48
init.kind = exponential
init.mass = 1.0
init.mean = 1.0
time.t_end = 0.2
time.snapshots = 3
"""


@pytest.fixture(scope="module")
def emitted_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    config = cb.parse_config_text(BASE_CONFIG)
    run = cb.run(config)
    manifest = cb.emit_outputs(run, out_dir)
    return config, run, manifest, out_dir


def test_emit_files_exist_with_headers(emitted_run):
    _, run, manifest, out_dir = emitted_run
    assert sorted(p.name for p in out_dir.iterdir()) == ["contents.npy", "manifest.json", "moments.csv"]
    moments = (out_dir / "moments.csv").read_text().splitlines()
    assert moments[0] == "t,M_0.5,M_1.0,M_1.5,dust_mass,clip_mass"
    assert len(moments) == 1 + len(run.times)
    # one row of contents per snapshot, in moments.csv row order, under a
    # version 1.0 header
    raw = (out_dir / "contents.npy").read_bytes()
    assert raw[:8] == b"\x93NUMPY\x01\x00"
    contents = np.load(out_dir / "contents.npy")
    assert contents.dtype == np.dtype("<f8") and contents.flags.c_contiguous
    assert contents.shape == (len(run.times), run.grid.n_cells)
    for row, state in zip(contents, run.states):
        assert row.tobytes() == state.contents.tobytes()
    assert raw.endswith(b"".join(state.contents.tobytes() for state in run.states))
    payload = json.loads((out_dir / "manifest.json").read_text())
    assert payload == manifest
    assert payload["format"] == 4
    assert sorted(payload["files"]) == ["contents.npy", "moments.csv"]
    assert "snapshots" not in payload
    assert payload["bounds"]["regime"] == "GlobalExistence"


def test_emit_load_round_trip(emitted_run):
    _, run, _, out_dir = emitted_run
    loaded = cb.load_run(out_dir)
    _assert_same_snapshots(loaded, run)
    assert loaded.grid == run.grid
    assert loaded.kernel == run.kernel
    assert loaded.law == run.law


def _assert_same_snapshots(loaded, run):
    """Times, contents, dust and clipped mass equal bit for bit."""
    assert loaded.times.tobytes() == run.times.tobytes()
    assert len(loaded.states) == len(run.states)
    for a, b in zip(loaded.states, run.states):
        assert a.contents.tobytes() == b.contents.tobytes()
        assert (a.time, a.dust_mass, a.clip_mass) == (b.time, b.dust_mass, b.clip_mass)


@pytest.mark.parametrize("name", ["A1_CONFIG", "A5_CONFIG", "A8_CONFIG"])
def test_acceptance_runs_load_back_bitwise(tmp_path, name):
    run = cb.run(cb.parse_config_text(getattr(test_acceptance, name)))
    cb.emit_outputs(run, tmp_path)
    loaded = cb.load_run(tmp_path)
    _assert_same_snapshots(loaded, run)
    assert not loaded.states[-1].contents.flags.writeable  # a view of the file's bytes


def test_identical_runs_identical_hashes(emitted_run, tmp_path):
    config, _, manifest, _ = emitted_run
    rerun = cb.run(config)
    manifest2 = cb.emit_outputs(rerun, tmp_path / "again")
    assert manifest2["content_hash"] == manifest["content_hash"]
    assert manifest2["files"] == manifest["files"]


def test_table_init_round_trips_moments(emitted_run, tmp_path):
    # a run directory as init.path restarts from its last snapshot
    _, run, _, out_dir = emitted_run
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    text = text.replace("init.mass = 1.0", "")
    text += f"init.path = {out_dir}\n"
    rebuilt_cfg = cb.parse_config_text(text)
    workspace, state = cb.build_problem(rebuilt_cfg)
    for k in (0.5, 1.0, 1.5):
        want = cb.moment(run.grid, run.states[-1], k)
        got = cb.moment(workspace.grid, state, k)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("source", ["csv", "restart"])
def test_table_start_is_rescaled_to_init_mass(emitted_run, tmp_path, source):
    # a CSV table, or a run directory to restart from, with init.mass = 2
    if source == "csv":
        path = tmp_path / "t.csv"
        path.write_text("size,density\n0.5,1.0\n1.0,2.0\n2.0,0.5\n")
    else:
        path = emitted_run[3]
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    config = cb.parse_config_text(text.replace("init.mass = 1.0", f"init.mass = 2\ninit.path = {path}"))
    workspace, state = cb.build_problem(config)
    assert cb.moment(workspace.grid, state, 1.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    cb.emit_outputs(cb.run(config), tmp_path / "run")
    assert cb.load_run(tmp_path / "run").config == config


def test_wide_self_restart_builds_fast(tmp_path):
    # table_state is O(cells + rows) and load_run parses no snapshot: a
    # 1e4-cell run of 41 snapshots restarts from its own run directory, one
    # table row per cell, in well under 0.1 s of set-up
    text = BASE_CONFIG.replace("grid.n_cells = 48", "grid.n_cells = 10000")
    text = text.replace("time.t_end = 0.2\ntime.snapshots = 3", "time.t_end = 0.01\ntime.snapshots = 41")
    config = cb.parse_config_text(text)
    run = cb.run(config)
    assert len(run.states) == 41
    cb.emit_outputs(run, tmp_path / "run")
    # no init.mass: the restart keeps the mass the run left on the grid
    restart = dataclasses.replace(config, init_kind="table", init_path=str(tmp_path / "run"), init_mass=None)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        workspace, state = cb.build_problem(restart)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    original = run.states[-1].contents
    assert np.max(np.abs(state.contents - original)) <= 1e-13 * np.max(original)
    assert cb.moment(workspace.grid, state, 1.0) == pytest.approx(cb.moment(run.grid, run.states[-1], 1.0), rel=1e-12)


def test_keys_the_kind_ignores_load_back_and_change_no_manifest_byte(tmp_path):
    # an exponential start reads neither init.size nor init.path
    stray = BASE_CONFIG + "init.size = 5\ninit.path = nowhere.csv\n"
    run = cb.run(cb.parse_config_text(stray))
    cb.emit_outputs(run, tmp_path / "stray")
    cb.emit_outputs(cb.run(cb.parse_config_text(BASE_CONFIG)), tmp_path / "plain")
    assert cb.load_run(tmp_path / "stray").config == run.config
    assert (tmp_path / "stray" / "manifest.json").read_bytes() == (tmp_path / "plain" / "manifest.json").read_bytes()


def test_table_run_emits_load_emits_the_same_manifest(tmp_path, monkeypatch):
    # init.path = t.csv beside cfgdir/a.cfg, simulated from its parent: the
    # echo holds cfgdir/t.csv, and load_run must not resolve it again
    # against the run directory
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "cfgdir" / "t.csv").write_text("size,density\n0.5,1.0\n1.0,2.0\n2.0,0.5\n")
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    (tmp_path / "cfgdir" / "a.cfg").write_text(text.replace("init.mass = 1.0", "init.path = t.csv"))
    monkeypatch.chdir(tmp_path)
    config = cb.parse_config("cfgdir/a.cfg")
    assert config.init_path == str(Path("cfgdir") / "t.csv")
    first = cb.emit_outputs(cb.run(config), "run1")
    loaded = cb.load_run("run1")
    assert loaded.config == config
    assert cb.emit_outputs(loaded, "run2") == first
    for name in ("manifest.json", "moments.csv", "contents.npy"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_emit_refuses_run_without_config(emitted_run, tmp_path):
    # load_run could not read back a run without its configuration echo
    _, run, _, _ = emitted_run
    with pytest.raises(cb.InputError):
        cb.emit_outputs(dataclasses.replace(run, config=None), tmp_path / "bare")
    assert not (tmp_path / "bare").exists()


def test_emit_refuses_a_run_with_no_mass_before_any_file(emitted_run, tmp_path):
    # the manifest's bounds entry is built before the run directory is made
    _, run, _, _ = emitted_run
    empty = dataclasses.replace(run, contents=np.zeros_like(run.contents))
    with pytest.raises(cb.DomainError, match=r"^rho and initial moments must be positive$"):
        cb.emit_outputs(empty, tmp_path / "empty")
    assert not (tmp_path / "empty").exists()


def test_zero_horizon_emits_single_snapshot(tmp_path):
    config = cb.parse_config_text("time.t_end = 0\ngrid.n_cells = 8\n")
    run = cb.run(config)
    cb.emit_outputs(run, tmp_path)
    assert (tmp_path / "moments.csv").read_text().count("\n") == 2
    assert np.load(tmp_path / "contents.npy").shape == (1, 8)
    assert len(cb.load_run(tmp_path).states) == 1


def _a1_16(snapshots, t_end="1.0"):
    """A1's physics on 16 cells, with ``time.snapshots`` and ``time.t_end`` as given."""
    return (
        test_acceptance.A1_CONFIG.replace("grid.n_cells = 128", "grid.n_cells = 16")
        .replace("time.snapshots = 21", f"time.snapshots = {snapshots}")
        .replace("time.t_end = 1.0", f"time.t_end = {t_end}")
    )


def test_manifest_size_does_not_depend_on_the_snapshot_count(tmp_path):
    sizes = {}
    for count in (11, 10000):
        cb.emit_outputs(cb.run(cb.parse_config_text(_a1_16(count))), tmp_path / str(count))
        manifest = (tmp_path / str(count) / "manifest.json").read_bytes()
        assert json.loads(manifest)["config"]["time.snapshots"] == str(count)
        sizes[count] = len(manifest)
    # the two differ by the digits of the echoed count and nothing else
    assert sizes[10000] - sizes[11] == len("10000") - len("11")
    assert sizes[10000] < 4096


def test_moments_csv_is_streamed_in_row_blocks(tmp_path):
    # 1e5 snapshots of full-precision values: an 11.5 MB moments.csv over many row
    # blocks; the one-string build (the list of lines, their join and its bytes,
    # held together) peaked at three and a half times the file
    config = cb.parse_config_text(_a1_16(100_000))
    rng = np.random.default_rng(7)
    times = np.array(config.snapshot_times)
    contents = rng.random((times.size, config.n_cells))
    dust, clip = rng.random(times.size), rng.random(times.size) * 1e-20
    grid = cb.build_grid(config.x_min, config.x_max, config.n_cells)
    run = cb.RunOutput(grid, config.kernel, config.law, times, contents, dust, clip, config)
    orders = (config.law.k0, 1.0, 1.0 + config.law.k0)
    columns = [times, *(run.moments(k) for k in orders), dust, clip]
    tracemalloc.start()
    try:
        manifest = cb.emit_outputs(run, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = (tmp_path / "moments.csv").read_bytes()
    header = "t," + ",".join(f"M_{float(k)!r}" for k in orders) + ",dust_mass,clip_mass"
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    assert written == ("\n".join(lines) + "\n").encode()
    assert manifest["files"]["moments.csv"] == hashlib.sha256(written).hexdigest()
    assert len(written) > 11e6
    # a bound far below the one-string build's 40.3 MB; the peak, 2.4 MB, is the
    # snapshot echo's mesh check in SimConfig.resolved, and a row block's text 0.8 MB
    assert peak < 4e6, f"emit_outputs peaked at {peak / 1e6:.2f} MB"


_UNIFORM_11 = ",".join(map(repr, np.linspace(0.0, 1.0, 11)[1:-1].tolist()))
# not the mesh of a count of 11: 0.3 is not 0.30000000000000004
_TENTHS = ",".join(f"0.{i}" for i in range(1, 10))


@pytest.mark.parametrize(
    "snapshots, t_end, echo",
    [
        ("5", "1.0", "5"),
        ("0.1,0.35,0.7", "1.0", "0.0,0.1,0.35,0.7,1.0"),
        (_UNIFORM_11, "1.0", "11"),
        (_TENTHS, "1.0", f"0.0,{_TENTHS},1.0"),
        ("7", "0", "1"),
    ],
    ids=["count", "list", "list-of-a-count", "tenths", "zero-horizon"],
)
def test_snapshot_echo_loads_back_bitwise(tmp_path, snapshots, t_end, echo):
    # a mesh that a count gives bit for bit is echoed as the count, any other
    # as its list; either way load_run rebuilds the same times and a rerun
    # writes the same bytes
    text = _a1_16(snapshots, t_end)
    run = cb.run(cb.parse_config_text(text))
    manifest = cb.emit_outputs(run, tmp_path / "first")
    assert manifest["config"]["time.snapshots"] == echo
    loaded = cb.load_run(tmp_path / "first")
    assert loaded.times.tobytes() == run.times.tobytes()
    assert loaded.config == run.config
    cb.emit_outputs(cb.run(cb.parse_config_text(text)), tmp_path / "rerun")
    for name in ("manifest.json", "moments.csv", "contents.npy"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "rerun" / name).read_bytes()
    # a manifest that echoes the mesh as its full list still loads
    manifest["config"]["time.snapshots"] = ",".join(map(repr, run.times.tolist()))
    _resign(tmp_path / "first", manifest)
    assert cb.load_run(tmp_path / "first").times.tobytes() == run.times.tobytes()


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _cli_env():
    src = str(Path(cb.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli_in_fresh_process(*argv):
    """The finished ``python -m collbreak.cli`` process run on ``argv``."""
    return subprocess.run([sys.executable, "-m", "collbreak.cli", *argv], env=_cli_env(), capture_output=True, text=True)


def _cli_read_by_nobody(*argv):
    """(exit code, stderr) of a fresh CLI process whose stdout reader closes before it writes."""
    with subprocess.Popen(
        [sys.executable, "-m", "collbreak.cli", *argv],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        child.stdout.close()
        stderr = child.stderr.read()
    return child.returncode, stderr


# A5 physics on 16 cells at t_end = 0: one snapshot and no dust
ZERO_HORIZON_A5 = test_acceptance.A5_CONFIG.replace("grid.n_cells = 56", "grid.n_cells = 16").replace(
    "time.t_end = 0.5", "time.t_end = 0"
)


def test_cli_verifies_a_one_snapshot_run_in_a_fresh_process(tmp_path):
    cfg, out_dir = _write(tmp_path, ZERO_HORIZON_A5), str(tmp_path / "out")
    simulated = _cli_in_fresh_process("simulate", cfg, "--out", out_dir)
    assert simulated.returncode == 0 and json.loads(simulated.stdout)["snapshots"] == 1
    verified = _cli_in_fresh_process("verify", out_dir)
    assert (verified.returncode, verified.stderr) == (0, "")
    checks = json.loads(verified.stdout)["checks"]
    assert checks and all(check["passed"] for check in checks)


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    loaded = run_in_fresh_process(
        "import sys\nimport collbreak.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert loaded == "[]\n"


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_cli_refuses_a_run_directory_blocked_by_a_file(tmp_path, out):
    # a regular file on the path is named in one line, with exit 2
    cfg = _write(tmp_path, BASE_CONFIG)
    (tmp_path / "afile").write_text("not a directory\n")
    done = _cli_in_fresh_process("simulate", cfg, "--out", str(tmp_path / out))
    assert (done.returncode, done.stdout) == (2, "")
    blocker = tmp_path / "afile"
    assert done.stderr == f"error: cannot write run directory {tmp_path / out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "not a directory\n"


def test_cli_simulate_verify_ok(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out", out_dir]) == 0
    capsys.readouterr()
    assert main(["verify", out_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(check["passed"] for check in payload["checks"])


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # one ArgumentParser for collbreak and one per command, on the first call only
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["bounds", cfg]) == 0
    assert main(["bounds", cfg]) == 0
    assert len(built) == 7 and built[0] == "collbreak"
    out = capsys.readouterr().out
    assert out[: len(out) // 2] * 2 == out


def test_cli_runs_the_command_rebound_after_the_parser_is_built(tmp_path, capsys, monkeypatch):
    assert main(["bounds", _write(tmp_path, BASE_CONFIG)]) == 0
    seen = []
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(args.run_dir) or 4)
    assert main(["verify", "some-run"]) == 4
    assert seen == ["some-run"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["nosuch"],
            "collbreak: error: argument command: invalid choice: 'nosuch' (choose from "
            "'simulate', 'bounds', 'verify', 'distance', 'shatter-study', 'crossval')",
        ),
        (
            ["regime", "case.cfg"],
            "collbreak: error: argument command: invalid choice: 'regime' (choose from "
            "'simulate', 'bounds', 'verify', 'distance', 'shatter-study', 'crossval')",
        ),
        (
            ["shatter-study", "case.cfg"],
            "collbreak shatter-study: error: the following arguments are required: --xmins",
        ),
    ],
    ids=["unknown-command", "regime-is-bounds", "no-xmins"],
)
def test_cli_usage_error_exits_2_and_the_next_command_runs(tmp_path, capsys, argv, message):
    cfg = _write(tmp_path, BASE_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: collbreak")
    assert captured.err.endswith(message + "\n")
    assert main(["bounds", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "GlobalExistence"


@pytest.mark.parametrize(
    "command", [None, "simulate", "bounds", "verify", "distance", "shatter-study", "crossval"]
)
def test_cli_help_of_the_reused_parser_is_that_of_a_fresh_one(tmp_path, capsys, monkeypatch, command):
    # help after the process's parser has parsed a command and refused a
    # usage error, byte for byte as a newly built parser prints it
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([command] if command else []) + ["--help"]
    assert main(["bounds", _write(tmp_path, BASE_CONFIG)]) == 0
    with pytest.raises(SystemExit):
        main(["nosuch"])
    capsys.readouterr()
    printed = []
    for parse in (main, cli._parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].err == "" and printed[0].out.startswith("usage: collbreak")


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "daughter.nu = -3\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "daughter.nu" in err


SMALL_CONFIG = "grid.n_cells = 16\ntime.t_end = 0.1\n"


def _distance_across_meshes(tmp_path):
    """``distance`` argv for two runs of 2 and 3 snapshots."""
    for count in (2, 3):
        config = cb.parse_config_text(SMALL_CONFIG + f"time.snapshots = {count}\n")
        cb.emit_outputs(cb.run(config), tmp_path / f"run{count}")
    return ["distance", str(tmp_path / "run2"), str(tmp_path / "run3")]


UNDERFLOW_CONFIG = "init.kind = monodisperse\ninit.size = 5\ninit.mass = 5e-324\ntime.t_end = 0.1\n"


def _empty_table(d):
    (d / "empty.csv").write_text("")
    return ["simulate", _write(d, "init.kind = table\ninit.path = empty.csv\n"), "--out", str(d / "x")]


MISSING_TABLE_CONFIG = "grid.n_cells = 16\ninit.kind = table\ninit.path = missing.csv\n"
MISSING_TABLE = (
    "configuration error: init.path: cannot read init.path {d}/missing.csv: "
    "[Errno 2] No such file or directory: '{d}/missing.csv'"
)


def _verify_without_contents(d):
    cb.emit_outputs(cb.run(cb.parse_config_text(SMALL_CONFIG)), d / "run")
    (d / "run" / "contents.npy").unlink()
    return ["verify", str(d / "run")]


def _resigned_run(d, edit):
    """``verify`` argv of a run in ``d``/run whose manifest ``edit`` changed, then signed again."""
    out = d / "run"
    cb.emit_outputs(cb.run(cb.parse_config_text(SMALL_CONFIG)), out)
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    manifest["content_hash"] = _content_hash(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return ["verify", str(out)]


def _echoing_one_cell(manifest):
    manifest["config"]["grid.n_cells"] = 1  # the third line of the echo


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            lambda d: ["simulate", _write(d, "grid.n_cells = 16\nnonsense\n"), "--out", str(d / "x")],
            "configuration error: line 2: expected 'section.key = value'",
        ),
        (
            lambda d: ["simulate", _write(d, "time.t_end = -1\n"), "--out", str(d / "x")],
            "configuration error: line 1: time.t_end: t_end must be non-negative",
        ),
        (
            lambda d: ["simulate", str(d / "none.cfg"), "--out", str(d / "x")],
            "configuration error: cannot read {d}/none.cfg: [Errno 2] No such file or directory: '{d}/none.cfg'",
        ),
        (
            lambda d: ["shatter-study", _write(d, SMALL_CONFIG), "--xmins", "1e-2,abc"],
            "configuration error: --xmins: could not convert string to float: 'abc'",
        ),
        (
            lambda d: ["shatter-study", _write(d, SMALL_CONFIG), "--xmins", "1e-2,,1e-3, "],
            "configuration error: --xmins: need at least 3 distinct x_min values for a refinement trend",
        ),
        (
            lambda d: ["simulate", _write(d, SMALL_CONFIG)],
            "configuration error: no output directory: pass --out DIR",
        ),
        (
            lambda d: ["simulate", _write(d, SMALL_CONFIG), "--out", ""],
            "configuration error: no output directory: pass --out DIR",
        ),
        (_distance_across_meshes, "error: runs have different snapshot meshes"),
        (
            lambda d: ["simulate", _write(d, UNDERFLOW_CONFIG), "--out", str(d / "x")],
            "configuration error: init.mass: mass 5e-324 underflows to zero in the cell holding size 5.0",
        ),
        (
            lambda d: ["bounds", _write(d, UNDERFLOW_CONFIG)],
            "configuration error: init.mass: mass 5e-324 underflows to zero in the cell holding size 5.0",
        ),
        (
            lambda d: ["simulate", _write(d, "time.snapshots = 0\n"), "--out", str(d / "x")],
            "configuration error: line 1: time.snapshots: expected a count or comma list of times, got '0'",
        ),
        (
            lambda d: ["simulate", _write(d, "grid.x_min = 1e-3\ninit.mean = 1e-149\n"), "--out", str(d / "x")],
            "configuration error: init.mean: initial density carries no mass on the grid",
        ),
        (_empty_table, "configuration error: init.path: table must be two equal-length columns (size, density)"),
        (lambda d: ["simulate", _write(d, MISSING_TABLE_CONFIG), "--out", str(d / "x")], MISSING_TABLE),
        # a config error that is not a refused cut keeps its own key, not --xmins
        (lambda d: ["shatter-study", _write(d, MISSING_TABLE_CONFIG), "--xmins", "1e-2,1e-3,1e-4"], MISSING_TABLE),
        (
            lambda d: ["simulate", _write(d, SMALL_CONFIG), "--out", str(d / ("x" * 300) / "run")],
            "error: cannot write run directory {d}/" + "x" * 300 + "/run: File name too long",
        ),
        (
            _verify_without_contents,
            "error: cannot read contents.npy: [Errno 2] No such file or directory: '{d}/run/contents.npy'",
        ),
        (
            lambda d: ["verify", str(d)],
            "error: {d} has no readable manifest.json: [Errno 2] No such file or directory: '{d}/manifest.json'",
        ),
        (
            lambda d: _resigned_run(d, lambda manifest: manifest.update(format=3)),
            "error: {d}/run/manifest.json is not a format-4 run manifest; re-run simulate",
        ),
        (
            lambda d: _resigned_run(d, _echoing_one_cell),
            "error: {d}/run/manifest.json echoes a configuration that does not parse: "
            "grid.n_cells: need n_cells >= 2, got 1",
        ),
    ],
    ids=[
        "no-equals",
        "negative-t-end",
        "missing-file",
        "bad-xmins",
        "two-xmins",
        "no-out-dir",
        "empty-out-dir",
        "different-meshes",
        "underflowing-mass",
        "underflowing-mass-bounds",
        "zero-snapshots",
        "no-mass-on-grid",
        "empty-table",
        "missing-table",
        "shatter-study-missing-table",
        "long-out-name",
        "verify-without-contents",
        "verify-without-manifest",
        "verify-format-3",
        "verify-unparsable-echo",
    ],
)
def test_cli_refusal_exits_2_with_one_stderr_line(tmp_path, capsys, monkeypatch, argv, message):
    # refused before any right-hand side, and no file or directory is made
    argv = argv(tmp_path)
    made = sorted(tmp_path.rglob("*"))
    calls = []
    monkeypatch.setattr(cb.integrate, "rhs_arrays", lambda *a: calls.append(a))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(d=tmp_path) + "\n"
    assert calls == [] and sorted(tmp_path.rglob("*")) == made


def test_cli_simulate_refuses_a_failed_write_in_one_line(tmp_path, capsys, monkeypatch):
    # a write that fails after the run, as on a full disk, which the check
    # before the run cannot see, exits 2 and names the run directory
    def full_disk(run, out_dir):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_outputs", full_disk)
    out_dir = tmp_path / "out"
    assert main(["simulate", _write(tmp_path, SMALL_CONFIG), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write run directory {out_dir}: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "segment, value, out", [("dir", "run", []), ("moments", "0.5", ["--out", "x"])], ids=["dir", "moments"]
)
def test_cli_refuses_the_output_section_as_unknown_keys(tmp_path, capsys, segment, value, out):
    # the output section is gone: moments.csv holds orders k0, 1 and 1 + k0, and
    # --out alone says where a run is written; a config still setting either key
    # is refused under its key and line before anything is written
    key = f"output.{segment}"
    cfg = _write(tmp_path, f"{SMALL_CONFIG}{key} = {value}\n")
    assert main(["simulate", cfg, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: line 3: {key}: unknown key in {cfg}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["case.cfg"]


def test_restart_from_a_run_whose_echo_does_not_parse_cites_init_path(tmp_path, capsys):
    # the echo's refusal is the run directory's, not one of the restarting config's lines
    _resigned_run(tmp_path, _echoing_one_cell)
    cfg = _write(tmp_path, "grid.n_cells = 16\ninit.kind = table\ninit.path = run\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: init.path: {tmp_path}/run/manifest.json echoes a configuration "
        "that does not parse: grid.n_cells: need n_cells >= 2, got 1\n"
    )
    assert not (tmp_path / "x").exists()


def test_cli_regime_and_bounds(tmp_path, capsys):
    # bounds prints the regime beside the constants it implies
    assert main(["bounds", _write(tmp_path, BASE_CONFIG)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "GlobalExistence"
    assert payload["existence"]["c1"] > 0.0
    assert "initial_moments" in payload


# A4's physics (tests/test_acceptance.py) on A1's grid and data: LocalExistence
A4_CONFIG = (
    test_acceptance.A1_CONFIG.replace("lambda1 = 0.6", "lambda1 = 0.3")
    .replace("lambda2 = 0.6", "lambda2 = 0.3")
    .replace("nu = -1.2", "nu = -1.1")
    .replace("k0 = 0.5", "k0 = 0.2")
)


@pytest.mark.parametrize(
    "text, regime",
    [
        (test_acceptance.A1_CONFIG, "GlobalExistence"),
        (A4_CONFIG, "LocalExistence"),
        (test_acceptance.A5_CONFIG, "NonExistence"),
    ],
    ids=["A1", "A4", "A5"],
)
def test_cli_regime_prints_the_regime_and_its_checklist(tmp_path, capsys, text, regime):
    # bounds' regime and checklist keys: the bytes of regime_report's regime
    # beside hypothesis_checklist, as JSON
    config = cb.parse_config_text(text)
    expected = {
        "regime": cb.regime_report(config.kernel, config.law).regime.value,
        "checklist": cb.hypothesis_checklist(config.kernel, config.law),
    }
    assert expected["regime"] == regime
    assert main(["bounds", _write(tmp_path, text)]) == 0
    payload = json.loads(capsys.readouterr().out)
    printed = {key: payload[key] for key in expected}
    assert json.dumps(printed, indent=2, sort_keys=True) == json.dumps(expected, indent=2, sort_keys=True)


def _break_mass_budget(out):
    """Inflate the final snapshot of run ``out`` and re-sign it, so it loads but fails verify."""
    manifest = json.loads((out / "manifest.json").read_text())
    rows = np.load(out / "contents.npy")
    rows[-1] *= 3.0
    np.save(out / "contents.npy", rows)
    # re-sign the doctored file and the manifest so they pass the load-time
    # integrity checks and reach the verification battery
    _resign(out, manifest)


def test_cli_verify_detects_tampering(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "out")
    main(["simulate", cfg, "--out", out_dir])
    capsys.readouterr()
    _break_mass_budget(tmp_path / "out")
    assert main(["verify", out_dir]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert any(not check["passed"] for check in payload["checks"])


def test_cli_keeps_its_exit_code_when_the_reader_closes_early(tmp_path):
    # as in `collbreak simulate a.cfg | head -2`: nothing more is printed,
    # stderr stays empty and each command's own exit code stands
    cfg, out = _write(tmp_path, BASE_CONFIG), tmp_path / "out"
    assert _cli_read_by_nobody("simulate", cfg, "--out", str(out)) == (0, "")
    _break_mass_budget(out)
    assert _cli_read_by_nobody("verify", str(out)) == (4, "")


def test_content_hash_does_not_depend_on_where_the_run_is_written(tmp_path, monkeypatch, capsys):
    (tmp_path / "cfgdir").mkdir()
    _write(tmp_path / "cfgdir", BASE_CONFIG, "a.cfg")

    def content_hash(*argv):
        capsys.readouterr()
        assert main(["simulate", *argv]) == 0
        return json.loads(capsys.readouterr().out)["content_hash"]

    monkeypatch.chdir(tmp_path)
    hashes = {
        content_hash("cfgdir/a.cfg", "--out", "other"),
        content_hash("cfgdir/a.cfg", "--out", str(tmp_path / "absolute")),
    }
    monkeypatch.chdir(tmp_path / "cfgdir")
    hashes.add(content_hash("a.cfg", "--out", "myrun"))
    assert len(hashes) == 1
    manifests = [(tmp_path / d / "manifest.json").read_bytes() for d in ("other", "absolute", "cfgdir/myrun")]
    assert manifests[0] == manifests[1] == manifests[2]


@pytest.mark.parametrize("name", ["moments.csv", "contents.npy"])
def test_cli_verify_rejects_truncated_file(tmp_path, capsys, name):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    path = out / name
    path.write_bytes(path.read_bytes()[:150])
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert f"{name} does not match its SHA-256" in capsys.readouterr().err
    with pytest.raises(cb.InputError):
        cb.load_run(out)


@pytest.mark.parametrize(
    "line",
    [
        "time.t_end = inf",
        "time.rel_tol = nan",
        "init.mass = inf",
        "init.mean = inf",
        "grid.x_max = inf",
        "time.snapshots = 0,nan",
    ],
)
def test_cli_rejects_non_finite_floats(tmp_path, capsys, line):
    cfg = _write(tmp_path, BASE_CONFIG + line + "\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (lambda, nu, k0) of one configuration per regime
REGIMES = {
    "GlobalExistence": (0.6, -1.2, 0.5),
    "LocalExistence": (0.3, -1.1, 0.2),
    "NonExistence": (0.0, -1.5, 0.6),
    "Uncovered": (0.2, -1.2, 0.5),
}


def _regime_config(regime):
    lam, nu, k0 = REGIMES[regime]
    return BASE_CONFIG.replace(
        "kernel.lambda1 = 0.6\nkernel.lambda2 = 0.6\ndaughter.nu = -1.2\ndaughter.k0 = 0.5",
        f"kernel.lambda1 = {lam}\nkernel.lambda2 = {lam}\ndaughter.nu = {nu}\ndaughter.k0 = {k0}",
    )


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_cli_bounds_matches_manifest(tmp_path, capsys, regime):
    cfg = _write(tmp_path, _regime_config(regime))
    assert main(["bounds", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["initial_moments"]
    assert report["regime"] == regime
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["bounds"] == report


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("regime", ["GlobalExistence", "Uncovered"])
def test_cli_refuses_table_without_mass_on_grid(tmp_path, capsys, command, regime):
    table = tmp_path / "above.csv"
    table.write_text("20.0,1.0\n40.0,1.0\n")  # every bin lies above x_max = 10
    text = _regime_config(regime).replace("init.kind = exponential", "init.kind = table")
    cfg = _write(tmp_path, text.replace("init.mass = 1.0", f"init.path = {table}"))
    out = tmp_path / "out"
    argv = [command, cfg, "--out", str(out)] if command == "simulate" else [command, cfg]
    assert main(argv) == 2
    assert "init.path: table carries no mass on the grid" in capsys.readouterr().err
    assert not out.exists()


def test_cli_distance_same_run_is_zero(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    main(["simulate", cfg, "--out", a])
    main(["simulate", cfg, "--out", b])
    capsys.readouterr()
    assert main(["distance", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_envelope"] is True
    assert all(row["distance"] == 0.0 for row in payload["rows"])


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, as JSON itself does."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


# F8's first row at x_min = 1e-4 to t = 0.618, ten horizons T_k0 = 0.0618, and
# a start 1% larger in mean: the Gronwall envelope passes the largest double
F8_DISTANCE_CONFIG = (
    F8_CONFIG.replace("grid.x_min = 1e-10", "grid.x_min = 1e-4")
    .replace("grid.n_cells = 220", "grid.n_cells = 100")
    .replace("time.t_end = 0.6175", "time.t_end = 0.618")
    .replace("time.snapshots = 2", "time.snapshots = 11")
)


@pytest.mark.filterwarnings("error")
def test_cli_distance_prints_an_overflowing_envelope_as_strict_json(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    shifted = F8_DISTANCE_CONFIG.replace("init.mean = 1\n", "init.mean = 1.01\n")
    assert main(["simulate", _write(tmp_path, F8_DISTANCE_CONFIG, "a.cfg"), "--out", a]) == 0
    assert main(["simulate", _write(tmp_path, shifted, "b.cfg"), "--out", b]) == 0
    capsys.readouterr()
    assert main(["distance", a, b]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = _strict_json(captured.out)
    envelopes = [row["envelope"] for row in payload["rows"]]
    assert envelopes[-1] == "inf" and all(isinstance(e, float) for e in envelopes[:5])
    assert envelopes[0] > 0.0 and envelopes[0] == pytest.approx(payload["rows"][0]["distance"], rel=1e-15)
    assert payload["within_envelope"] is True
    # the same run against itself: every distance and envelope 0
    assert main(["distance", a, a]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["within_envelope"] is True
    assert all(row["distance"] == row["envelope"] == 0.0 for row in payload["rows"])


def test_cli_distance_refuses_runs_of_different_physics(tmp_path, capsys):
    # same grid and snapshot mesh, but another daughter exponent and kernel
    other = BASE_CONFIG.replace("daughter.nu = -1.2", "daughter.nu = -1.3").replace(
        "kernel.lambda2 = 0.6", "kernel.lambda2 = 0.7"
    )
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", _write(tmp_path, BASE_CONFIG, "a.cfg"), "--out", a]) == 0
    assert main(["simulate", _write(tmp_path, other, "b.cfg"), "--out", b]) == 0
    capsys.readouterr()
    assert main(["distance", a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "runs differ in grid, kernel or daughter law" in captured.err


def test_cli_stiffness_exit_code(tmp_path, capsys):
    # A5 cut at x_min = 1e-50: dt falls below the spacing of doubles near t
    cfg = _write(tmp_path, test_acceptance.A5_CONFIG.replace("grid.x_min = 1e-2", "grid.x_min = 1e-50"))
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: time step collapse at t=")
    assert captured.err.endswith("): halving dt no longer moves the time\n")
    assert not out.exists()


def _f8_beyond_the_mass_budget(monkeypatch):
    """Make the runs of F8's first row at x_min = 1e-10 come back with the 2.097e-5 rho that the
    old negative-content floor let them clip, added to the dust, so the record breaks the budget."""
    real_run = cli.run_config

    def doctored(config):
        run = real_run(config)
        return with_dust_excess(run, *F8_FLOOR_EXCESS) if config.x_min == 1e-10 else run

    monkeypatch.setattr(cli, "run_config", doctored)
    monkeypatch.setattr(cb.diagnostics, "run_config", doctored)


def test_cli_simulate_exits_3_on_a_run_beyond_the_mass_budget(tmp_path, capsys, monkeypatch):
    # a record with 2.097e-5 rho of mass beyond the budget: simulate keeps the
    # run directory and its summary for verify, and exits 3
    _f8_beyond_the_mass_budget(monkeypatch)
    out = tmp_path / "out"
    assert main(["simulate", _write(tmp_path, F8_CONFIG), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "numerical failure: max |M_1 + dust - rho| = 2.097e-05, beyond the mass budget 1e-06 rho = 1.000e-06\n"
    )
    summary = json.loads(captured.out)
    assert summary["content_hash"] == json.loads((out / "manifest.json").read_text())["content_hash"]
    assert main(["verify", str(out)]) == 4
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [check["check"] for check in checks if not check["passed"]] == ["mass-budget"]


def test_cli_simulate_exits_0_on_partial_shattering_within_the_mass_budget(tmp_path, capsys):
    # F2 at x_min = 1e-8 clips on most steps and drifts 9.6e-13 rho
    config = cb.with_x_min(cb.parse_config_text(F2_CONFIG), 1e-8)
    assert main(["simulate", _write(tmp_path, config_text(config)), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_shatter_study_output(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kernel.lambda1 = 1\nkernel.lambda2 = 1\n"
        "daughter.nu = -0.5\ndaughter.k0 = 0.6\n"
        "grid.x_min = 1e-2\ngrid.x_max = 2\ngrid.n_cells = 40\n"
        "init.kind = monodisperse\ninit.size = 1\ninit.mass = 1\n"
        "time.t_end = 0.2\ntime.snapshots = 2\n",
    )
    assert main(["shatter-study", cfg, "--xmins", "1e-2,3e-3,1e-3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "conservative"
    assert len(payload["rows"]) == 3


def test_cli_shatter_study_exits_3_naming_the_first_cut_beyond_the_mass_budget(tmp_path, capsys, monkeypatch):
    # F8's first row with 2.097e-5 rho beyond the budget at the 1e-10 cut, the record simulate exits 3 on
    _f8_beyond_the_mass_budget(monkeypatch)
    assert main(["shatter-study", _write(tmp_path, F8_CONFIG), "--xmins", "1e-4,1e-7,1e-10"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "numerical failure: x_min=1e-10: max |M_1 + dust - rho| = 2.097e-05, "
        "beyond the mass budget 1e-06 rho = 1.000e-06\n"
    )
    study = json.loads(captured.out)
    assert study["verdict"] == "shattering"
    assert [row["mass_drift"] > 1e-6 for row in study["rows"]] == [False, False, True]


@pytest.mark.parametrize("text", [test_acceptance.A5_CONFIG, test_acceptance.A5_CONTROL_CONFIG], ids=["a5", "control"])
def test_cli_shatter_study_exits_0_when_every_cut_keeps_the_mass_budget(tmp_path, capsys, text):
    assert main(["shatter-study", _write(tmp_path, text), "--xmins", "1e-2,1e-3,1e-4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(row["mass_drift"] <= 1e-14 for row in json.loads(captured.out)["rows"])


def test_cli_crossval_prints_the_rows_of_diagnostics_crossval(tmp_path, capsys):
    assert main(["crossval", _write(tmp_path, A8_CROSSVAL)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == cb.diagnostics.crossval(cb.parse_config_text(A8_CROSSVAL))


def test_cli_crossval_exits_3_when_picard_does_not_contract(tmp_path, capsys):
    assert main(["crossval", _write(tmp_path, A8_CROSSVAL + "picard.max_iter = 2\n")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: no contraction after 2 iterations (residual 3.402e-02)\n"


def test_cli_crossval_overflow_prints_one_line_and_exits_3(tmp_path, capsys):
    assert main(["crossval", _write(tmp_path, PICARD_OVERFLOW_CONFIG)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: no contraction after 2 iterations (residual nan)\n"


def test_cli_crossval_refuses_an_untruncated_kernel_before_any_rhs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cb.integrate, "rhs_arrays", lambda *a: calls.append(a))
    assert main(["crossval", _write(tmp_path, A8_CROSSVAL.replace("kernel.truncation_n = 4\n", ""))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: kernel.truncation_n: picard mode requires a kernel with a truncation index\n"
    )
    assert calls == []


def test_cli_crossval_refuses_an_untruncated_kernel_at_a_zero_horizon(tmp_path, capsys, monkeypatch):
    # no window to run, yet the config names no Picard problem: refused as at any horizon
    calls = []
    monkeypatch.setattr(cb.integrate, "rhs_arrays", lambda *a: calls.append(a))
    untruncated = test_acceptance.A8_CONFIG.replace("kernel.truncation_n = 4\n", "")
    assert main(["crossval", _write(tmp_path, untruncated.replace("time.t_end = 0.1", "time.t_end = 0"))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: kernel.truncation_n: picard mode requires a kernel with a truncation index\n"
    )
    assert calls == []


def test_cli_shatter_study_refuses_runs_without_dust(tmp_path, capsys):
    cfg = _write(tmp_path, ZERO_HORIZON_A5)
    assert main(["shatter-study", cfg, "--xmins", "1e-2,1e-3,1e-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dust fraction 0 at x_min=0.01" in captured.err



@pytest.mark.parametrize(
    "cut, reason",
    [
        ("1e-300", "need x_min >= 1e-150, got 1e-300"),
        ("nan", "need 0 < x_min < x_max, got (nan, 2.0)"),
        ("inf", "need 0 < x_min < x_max, got (inf, 2.0)"),
        ("0", "need 0 < x_min < x_max, got (0.0, 2.0)"),
        ("-1", "need 0 < x_min < x_max, got (-1.0, 2.0)"),
        ("5", "need 0 < x_min < x_max, got (5.0, 2.0)"),
    ],
)
def test_cli_shatter_study_refuses_a_bad_cut_under_xmins(tmp_path, capsys, monkeypatch, cut, reason):
    # A5's own grid.x_min is valid: a cut that with_x_min refuses is the --xmins list's
    # fault, refused on one line before any run
    calls = []
    monkeypatch.setattr(cb.integrate, "rhs_arrays", lambda *a: calls.append(a))
    assert main(["shatter-study", _write(tmp_path, test_acceptance.A5_CONFIG), "--xmins", f"1e-2,1e-3,{cut}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: --xmins: {reason}\n"
    assert calls == []


@pytest.mark.parametrize(
    "table, message",
    [
        pytest.param("1.0,2.0\nabc,3\n", "line 2: expected a size and a density", id="malformed-row"),
        pytest.param("size,density\n1.0,2.0\n3.0\n", "line 3: expected", id="one-column"),
        pytest.param("1.0,nan\n2.0,1.0\n", "must be finite", id="nan-density"),
        pytest.param("inf,1.0\n", "must be finite", id="inf-size"),
        pytest.param("0.5,1.0\n1.0,-inf\n", "must be finite", id="minus-inf-density"),
        pytest.param("1.0,1.0\n0.5,1.0\n", "strictly increasing", id="decreasing-size"),
        pytest.param("0.5,1.0\n1.0,-2.0\n", "non-negative", id="negative-density"),
    ],
)
@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_cli_refuses_malformed_or_non_finite_table(tmp_path, capsys, command, table, message):
    path = tmp_path / "table.csv"
    path.write_text(table)
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    cfg = _write(tmp_path, text.replace("init.mass = 1.0", f"init.path = {path}"))
    out = tmp_path / "out"
    argv = [command, cfg, "--out", str(out)] if command == "simulate" else [command, cfg]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "init.path: " in captured.err and message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_cli_refuses_overflowing_table_naming_its_path(tmp_path, command):
    # densities of 1e308 over bins about 3 wide overflow the cell contents;
    # the table is at fault, not init.mass, which the config never sets
    table = tmp_path / "huge.csv"
    table.write_text("5.0,1e308\n8.0,1e308\n")
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    text = text.replace("init.mass = 1.0", f"init.path = {table}").replace("n_cells = 48", "n_cells = 16")
    cfg, out = _write(tmp_path, text), tmp_path / "out"
    argv = [command, cfg, "--out", str(out)] if command == "simulate" else [command, cfg]
    done = _cli_in_fresh_process(*argv)
    assert done.returncode == 2
    assert done.stderr == "configuration error: init.path: table contents overflow double precision\n"
    assert done.stdout == ""
    assert not out.exists()


def test_table_header_and_comments_are_skipped(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("size,density\n# a comment\n0.5,1.0\n\n1.0,2.0  # inline\n")
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    config = cb.parse_config_text(text.replace("init.mass = 1.0", f"init.path = {path}"))
    _, state = cb.build_problem(config)
    plain = tmp_path / "plain.csv"
    plain.write_text("0.5,1.0\n1.0,2.0\n")
    _, want = cb.build_problem(dataclasses.replace(config, init_path=str(plain)))
    assert np.array_equal(state.contents, want.contents)


def _simulated(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    return out, json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("key, value", [("grid.n_cells", 24), ("kernel.lambda1", 0.5)])
def test_load_run_refuses_edited_config_echo(tmp_path, capsys, key, value):
    out, manifest = _simulated(tmp_path, capsys)
    manifest["config"][key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", str(out)]) == 2
    assert "does not match its content_hash" in capsys.readouterr().err
    with pytest.raises(cb.InputError):
        cb.load_run(out)


@pytest.mark.parametrize("field, value", [("config", ["x"]), ("config", {}), ("files", ["x"]), ("files", None)])
def test_load_run_refuses_a_signed_manifest_without_echo_or_digests(tmp_path, capsys, field, value):
    # a manifest whose content_hash matches but whose echo or digests are
    # not a mapping is refused, not a traceback
    out, manifest = _simulated(tmp_path, capsys)
    manifest[field] = value
    manifest["content_hash"] = _content_hash(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", str(out)]) == 2
    assert "carries no configuration echo or no file digests" in capsys.readouterr().err


def _format_2(out, manifest):
    """Rewrite a run directory as format 2 wrote it: its contents as repr text rows."""
    rows = np.load(out / "contents.npy")
    (out / "contents.npy").unlink()
    text = "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows).encode()
    (out / "contents.csv").write_bytes(text)
    files = {"moments.csv": manifest["files"]["moments.csv"], "contents.csv": hashlib.sha256(text).hexdigest()}
    return dict(manifest, format=2, files=files)


def test_load_run_refuses_other_formats(tmp_path, capsys):
    out, manifest = _simulated(tmp_path, capsys)
    unversioned = dict(manifest)
    del unversioned["format"]  # as in the per-snapshot layout, which had no field
    for old in (unversioned, dict(manifest, format=3), _format_2(out, manifest)):
        old["content_hash"] = _content_hash(old)
        for text in (json.dumps(old), "[]"):
            (out / "manifest.json").write_text(text)
            assert main(["verify", str(out)]) == 2
            assert "is not a format-4 run manifest; re-run simulate" in capsys.readouterr().err
            with pytest.raises(cb.InputError):
                cb.load_run(out)


def _resign(out, manifest, name="contents.npy"):
    """Sign the file ``name`` now in ``out`` in its manifest, as emit_outputs would."""
    manifest["files"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest["content_hash"] = _content_hash(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "doctor",
    [
        pytest.param(lambda rows: rows.astype("<f4"), id="float32"),
        pytest.param(lambda rows: rows.astype(">f8"), id="big-endian"),
        pytest.param(lambda rows: rows.view("<i8"), id="int64"),
        pytest.param(lambda rows: rows[:-1], id="row-missing"),
        pytest.param(lambda rows: rows[:, :-1], id="cell-missing"),
        pytest.param(lambda rows: rows.T, id="transposed"),
        pytest.param(lambda rows: np.asfortranarray(rows), id="fortran-order"),
        pytest.param(lambda rows: rows.ravel(), id="flat"),
    ],
)
def test_load_run_refuses_resigned_contents_of_another_shape_or_dtype(tmp_path, capsys, doctor):
    # a matching SHA-256 only says the file is the one signed; the header
    # must still describe <f8 snapshots on the manifest's grid
    out, manifest = _simulated(tmp_path, capsys)
    np.save(out / "contents.npy", doctor(np.load(out / "contents.npy")))
    _resign(out, manifest)
    assert main(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "holds malformed run files: contents.npy header" in captured.err
    with pytest.raises(cb.InputError):
        cb.load_run(out)


def test_load_run_refuses_resigned_moments_that_are_not_text(tmp_path, capsys):
    out, manifest = _simulated(tmp_path, capsys)
    (out / "moments.csv").write_bytes(b"\xff\xfe" + (out / "moments.csv").read_bytes())
    _resign(out, manifest, "moments.csv")
    assert main(["verify", str(out)]) == 2
    assert "holds malformed run files" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doctor",
    [
        pytest.param(lambda data: data + b"\0" * 8, id="trailing-row-bytes"),
        pytest.param(lambda data: data[:-8], id="short-payload"),
        pytest.param(lambda data: data[:-3], id="ragged-payload"),
        pytest.param(lambda data: data[:20], id="cut-header"),
        pytest.param(lambda data: b"\x93NUMPY\x02\x00" + data[8:], id="version-2"),
        pytest.param(lambda data: b"not an npy file", id="no-magic"),
    ],
)
def test_load_run_refuses_resigned_contents_of_another_length(tmp_path, capsys, doctor):
    out, manifest = _simulated(tmp_path, capsys)
    path = out / "contents.npy"
    path.write_bytes(doctor(path.read_bytes()))
    _resign(out, manifest)
    assert main(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "holds malformed run files" in captured.err
    with pytest.raises(cb.InputError):
        cb.load_run(out)


@pytest.mark.parametrize(
    "line, code, key",
    [
        ("init.mass = 67.0", 0, None),  # the C1 envelope overflows: "inf", not a traceback
        ("init.mean = 1e200", 2, "init.mean"),
        ("init.mean = 5e-324", 2, "init.mean"),
        ("init.mass = 1.7e308", 2, "init.mass"),  # M_0.5 overflows
    ],
)
def test_cli_bounds_extreme_initial_data(tmp_path, capsys, line, code, key):
    text = BASE_CONFIG.replace("time.t_end = 0.2", "time.t_end = 1.0") + line + "\n"
    assert main(["bounds", _write(tmp_path, text)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        # the printed report's C1 envelope at the last snapshot time
        config = cb.parse_config_text(text)
        workspace, state0 = cb.build_problem(config)
        report = cb.initial_bounds(config.kernel, config.law, workspace.grid, state0)
        assert report.entry()["existence"] == payload["existence"]
        assert report.c1_of(config.snapshot_times[-1]) == math.inf
    else:
        # the exit-2 message is all of stderr: no numpy warning before it;
        # the mean is refused at parse time, under its line, and the
        # overflowing moment once the state is built
        last_line = text.count("\n")
        cited = f"line {last_line}: {key}" if key == "init.mean" else key
        assert out == "" and err.startswith(f"configuration error: {cited}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "lines, key",
    [
        (["init.mass = 1.7e308"], "init.mass"),
        # one row whose density times its bin width is finite but whose moments are not
        (["grid.x_max = 1e11", "init.kind = table", "init.path = big.csv"], "init.path"),
        # a finite mass whose contents overflow once the builder puts it on the grid
        (["grid.x_min = 1e-70", "init.kind = monodisperse", "init.size = 1e-60", "init.mass = 1e300"], "init.mass"),
        (["grid.x_min = 1e-70", "init.kind = table", "init.path = tiny.csv", "init.mass = 1e300"], "init.mass"),
    ],
    ids=["mass", "table", "monodisperse-rescale", "table-rescale"],
)
def test_build_problem_refuses_overflowing_initial_data_under_the_key_that_set_it(tmp_path, capsys, lines, key):
    (tmp_path / "big.csv").write_text("1e10,7e284\n")
    (tmp_path / "tiny.csv").write_text("1e-69,1\n2e-69,1\n")
    cfg, out = _write(tmp_path, "\n".join(["grid.n_cells = 16", *lines]) + "\n"), tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"configuration error: {key}: initial data overflows double precision\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_cli_refuses_near_maximal_exponential_mass(tmp_path, capsys, command):
    # the grid's M_1 sum overflows: refused under init.mass, no numpy warning
    cfg = _write(tmp_path, "grid.n_cells = 16\ninit.kind = exponential\ninit.mass = 1.7976931348623157e308\n")
    out = tmp_path / "out"
    argv = [command, cfg, "--out", str(out)] if command == "simulate" else [command, cfg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr() == ("", "configuration error: init.mass: the grid mass M_1 overflows double precision\n")
    assert not out.exists()


def test_restart_refuses_tampered_run(tmp_path, capsys):
    out, _ = _simulated(tmp_path, capsys)
    contents = out / "contents.npy"
    data = bytearray(contents.read_bytes())
    data[-1] ^= 1  # one bit of the last cell of the last snapshot
    contents.write_bytes(bytes(data))
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    cfg = _write(tmp_path, text + f"init.path = {out}\n", name="restart.cfg")
    assert main(["bounds", cfg]) == 2
    assert "init.path: contents.npy does not match its SHA-256" in capsys.readouterr().err


# a run on a small grid whose snapshots after the first (the configured
# initial data, which the manifest's bounds are computed from) are arbitrary
# non-negative floats: the layout must carry each through and back bit for
# bit, subnormals included
_cells = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def _runs(draw):
    n_cells = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["exponential", "monodisperse"]))
    config = cb.parse_config_text(
        BASE_CONFIG.replace("grid.n_cells = 48", f"grid.n_cells = {n_cells}").replace(
            "init.kind = exponential", f"init.kind = {kind}"
        )
    )
    workspace, state0 = cb.build_problem(config)
    times = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True)))
    rows = draw(st.lists(_cells, min_size=n_cells * (len(times) - 1), max_size=n_cells * (len(times) - 1)))
    contents = np.vstack([state0.contents, np.reshape(rows, (-1, n_cells))])
    dust = np.array([state0.dust_mass] + [draw(_cells) for _ in times[1:]])
    clip = np.array([state0.clip_mass] + [draw(_cells) for _ in times[1:]])
    return cb.RunOutput(workspace.grid, config.kernel, config.law, np.array(times), contents, dust, clip, config)


@settings(max_examples=30, deadline=None, database=None)
@given(run=_runs())
def test_emit_load_emit_is_byte_identical(run):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        manifest = cb.emit_outputs(run, first)
        loaded = cb.load_run(first)
        assert cb.emit_outputs(loaded, second) == manifest
        for name in ("manifest.json", "moments.csv", "contents.npy"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
    _assert_same_snapshots(loaded, run)



def test_run_directory_is_byte_identical_in_a_fresh_process(emitted_run, tmp_path):
    # a new interpreter, with other BLAS/OpenMP thread settings, writes the
    # same three files byte for byte
    _, _, _, out_dir = emitted_run
    child = tmp_path / "child"
    run_in_fresh_process(
        "import collbreak as cb\n"
        f"cb.emit_outputs(cb.run(cb.parse_config_text({BASE_CONFIG!r})), {str(child)!r})\n"
    )
    assert sorted(p.name for p in child.iterdir()) == ["contents.npy", "manifest.json", "moments.csv"]
    for name in ("contents.npy", "manifest.json", "moments.csv"):
        assert (child / name).read_bytes() == (out_dir / name).read_bytes()

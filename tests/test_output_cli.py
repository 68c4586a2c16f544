import hashlib
import json

import numpy as np
import pytest

import collbreak as cb
from collbreak.cli import main

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
    moments = (out_dir / "moments.csv").read_text().splitlines()
    assert moments[0] == "t,M_0.5,M_1.0,M_1.5,dust_mass,clip_mass"
    assert len(moments) == 1 + len(run.times)
    snap = (out_dir / manifest["snapshots"][0]["file"]).read_text().splitlines()
    assert snap[0] == "cell_index,edge_lo,edge_hi,rep,content,density"
    assert len(snap) == 1 + run.grid.n_cells
    payload = json.loads((out_dir / "manifest.json").read_text())
    assert payload["content_hash"] == manifest["content_hash"]
    assert payload["bounds"]["regime"] == "GlobalExistence"


def test_emit_load_round_trip(emitted_run):
    _, run, _, out_dir = emitted_run
    loaded = cb.load_run(out_dir)
    assert np.array_equal(loaded.times, run.times)
    for a, b in zip(loaded.states, run.states):
        assert np.array_equal(a.contents, b.contents)
        assert a.dust_mass == b.dust_mass
    assert loaded.kernel == run.kernel
    assert loaded.law == run.law


def test_identical_runs_identical_hashes(emitted_run, tmp_path):
    config, _, manifest, _ = emitted_run
    rerun = cb.run(config)
    manifest2 = cb.emit_outputs(rerun, tmp_path / "again")
    assert manifest2["content_hash"] == manifest["content_hash"]
    assert manifest2["files"] == manifest["files"]


def test_table_init_round_trips_moments(emitted_run, tmp_path):
    config, run, manifest, out_dir = emitted_run
    snap = manifest["snapshots"][-1]["file"]
    text = BASE_CONFIG.replace("init.kind = exponential", "init.kind = table")
    text = text.replace("init.mass = 1.0", "")
    text += f"init.path = {out_dir / snap}\n"
    rebuilt_cfg = cb.parse_config_text(text)
    workspace, state = cb.build_problem(rebuilt_cfg)
    for k in (0.5, 1.0, 1.5):
        want = cb.moment(run.grid, run.states[-1], k)
        got = cb.moment(workspace.grid, state, k)
        assert got == pytest.approx(want, rel=1e-10)


def test_zero_horizon_emits_single_snapshot(tmp_path):
    config = cb.parse_config_text("time.t_end = 0\ngrid.n_cells = 8\n")
    run = cb.run(config)
    manifest = cb.emit_outputs(run, tmp_path)
    assert len(manifest["snapshots"]) == 1
    assert (tmp_path / "moments.csv").read_text().count("\n") == 2


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_simulate_verify_ok(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out", out_dir]) == 0
    capsys.readouterr()
    assert main(["verify", out_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(check["passed"] for check in payload["checks"])


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "daughter.nu = -3\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "daughter.nu" in err


def test_cli_regime_and_bounds(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["regime", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "GlobalExistence"
    assert main(["bounds", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["existence"]["c1"] > 0.0
    assert "initial_moments" in payload


def test_cli_verify_detects_tampering(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "out")
    main(["simulate", cfg, "--out", out_dir])
    capsys.readouterr()
    # inflate the final snapshot contents: mass budget must break
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    snap = tmp_path / "out" / manifest["snapshots"][-1]["file"]
    lines = snap.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    doctored = [header]
    for row in rows:
        cells = row.split(",")
        cells[4] = repr(float(cells[4]) * 3.0)
        doctored.append(",".join(cells))
    snap.write_text("\n".join(doctored) + "\n")
    # re-sign the doctored file so it passes the load-time integrity check
    # and reaches the verification battery
    manifest["files"][snap.name] = hashlib.sha256(snap.read_bytes()).hexdigest()
    (tmp_path / "out" / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", out_dir]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert any(not check["passed"] for check in payload["checks"])


@pytest.mark.parametrize("target", ["moments.csv", "last snapshot"])
def test_cli_verify_rejects_truncated_file(tmp_path, capsys, target):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    name = "moments.csv" if target == "moments.csv" else manifest["snapshots"][-1]["file"]
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
        "output.moments = 0.5,nan",
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


def test_cli_stiffness_exit_code(tmp_path, capsys):
    # enormous rates force the step controller below its floor
    cfg = _write(
        tmp_path,
        "kernel.lambda1 = 2\nkernel.lambda2 = 2\n"
        "daughter.nu = -1.2\ndaughter.k0 = 0.5\n"
        "grid.x_min = 0.1\ngrid.x_max = 20\ngrid.n_cells = 16\n"
        "init.kind = monodisperse\ninit.size = 10\ninit.mass = 1e9\n"
        "time.t_end = 1.0\ntime.snapshots = 2\n",
    )
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


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

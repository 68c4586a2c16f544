
import tracemalloc

import pytest

import collbreak as cb
from collbreak import ConfigError


def test_empty_file_gives_documented_defaults():
    config = cb.parse_config_text("")
    assert config.kernel.lambda1 == 0.5
    assert config.law.nu == -1.2
    assert config.law.k0 == 0.5
    assert config.n_cells == 64
    assert config.init_kind == "exponential"
    assert config.init_mass == 1.0
    assert config.t_end == 1.0
    assert config.snapshot_times[0] == 0.0
    assert config.snapshot_times[-1] == 1.0
    assert config.moment_orders == (0.5, 1.0, 1.5)


def test_comments_and_blank_lines_ignored():
    config = cb.parse_config_text(
        "# leading comment\n\nkernel.lambda1 = 0.7 # trailing\nkernel.lambda2 = 0.9\n"
    )
    assert config.kernel.lambda1 == 0.7
    assert config.kernel.lambda2 == 0.9


def test_unknown_key_cites_line():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text("kernel.lambda1 = 0.5\nbogus.key = 1\n")
    assert "line 2" in str(info.value)
    assert "bogus.key" in str(info.value)


def test_type_mismatch_cites_line_and_key():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text("grid.n_cells = sixty\n")
    message = str(info.value)
    assert "grid.n_cells" in message and "line 1" in message


def test_nu_range_violation_cites_hypothesis():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text("daughter.nu = -2.5\n")
    message = str(info.value)
    assert "daughter.nu" in message
    assert "(-2, 0]" in message


def test_k0_violation_cites_hypothesis():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text("daughter.nu = -1.5\ndaughter.k0 = 0.4\n")
    message = str(info.value)
    assert "daughter.k0" in message
    assert "k0 > |nu|-1" in message


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("daughter.nu = -2.5\n", "daughter.nu", 1),
        ("daughter.nu = -1.5\ndaughter.k0 = 0.4\n", "daughter.k0", 2),
        ("kernel.lambda1 = 3\n", "kernel.lambda1", 1),
        ("kernel.lambda2 = 0.1\nkernel.lambda1 = 2.5\n", "kernel.lambda1", 2),
        ("# comment\nkernel.lambda2 = -3\n", "kernel.lambda2", 2),
        ("kernel.truncation_n = 0\n", "kernel.truncation_n", 1),
        ("grid.x_min = 20\n", "grid.x_min", 1),
        ("grid.n_cells = 1\n", "grid.n_cells", 1),
        ("time.rel_tol = -1e-8\n", "time.rel_tol", 1),
        ("time.rel_tol = 0\ntime.abs_tol = -1\n", "time.abs_tol", 2),
        ("grid.n_cells = 1000001\n", "grid.n_cells", 1),
        ("picard.max_iter = 0\n", "picard.max_iter", 1),
        ("\npicard.tol = 0\n", "picard.tol", 2),
        ("picard.tol = -1e-10\n", "picard.tol", 1),
    ],
)
def test_range_violation_cites_key_and_line(text, key, line):
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text(text)
    assert (info.value.key, info.value.line) == (key, line)


def test_huge_grid_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            cb.parse_config_text("grid.n_cells = 1000000000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.key, info.value.line) == ("grid.n_cells", 1)
    assert f"n_cells <= {cb.grid.MAX_CELLS}" in str(info.value)
    assert peak < 1e6
    cb.parse_config_text(f"grid.n_cells = {cb.grid.MAX_CELLS}\n")


def test_moment_orders_validated_against_divergence_threshold():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text("daughter.nu = -1.5\ndaughter.k0 = 0.6\noutput.moments = 0.4,1\n")
    assert "k > |nu|-1" in str(info.value)


def test_snapshot_count_and_list_forms():
    config = cb.parse_config_text("time.t_end = 2.0\ntime.snapshots = 5\n")
    assert config.snapshot_times == (0.0, 0.5, 1.0, 1.5, 2.0)
    config = cb.parse_config_text("time.t_end = 1.0\ntime.snapshots = 0.25,0.5\n")
    assert config.snapshot_times == (0.0, 0.25, 0.5, 1.0)


def test_snapshots_outside_horizon_rejected():
    with pytest.raises(ConfigError):
        cb.parse_config_text("time.t_end = 1.0\ntime.snapshots = 0.5,2.0\n")


def test_monodisperse_size_must_sit_on_grid():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text(
            "init.kind = monodisperse\ninit.size = 50\ngrid.x_max = 10\n"
        )
    assert "init.size" in str(info.value)


def test_zero_horizon_single_snapshot():
    config = cb.parse_config_text("time.t_end = 0\n")
    assert config.snapshot_times == (0.0,)


def test_round_trip_is_fixed_point():
    text = (
        "kernel.lambda1 = 0.6\nkernel.lambda2 = 0.8\nkernel.truncation_n = 3\n"
        "daughter.nu = -1.3\ndaughter.k0 = 0.55\n"
        "grid.x_min = 2e-4\ngrid.x_max = 7\ngrid.n_cells = 96\n"
        "init.kind = monodisperse\ninit.size = 1.5\ninit.mass = 2.0\n"
        "time.t_end = 0.75\ntime.snapshots = 7\n"
        "output.moments = 0.7,1,1.9\n"
    )
    first = cb.parse_config_text(text)
    second = cb.parse_config_text(first.to_text())
    assert first == second
    third = cb.parse_config_text(second.to_text())
    assert second == third


def test_with_x_min_preserves_cells_per_decade():
    config = cb.parse_config_text("grid.x_min = 1e-2\ngrid.x_max = 10\ngrid.n_cells = 60\n")
    finer = cb.with_x_min(config, 1e-4)
    assert finer.x_min == 1e-4
    assert finer.n_cells == 100  # 20 cells/decade over 5 decades
    assert finer.kernel == config.kernel
    with pytest.raises(ConfigError):
        cb.with_x_min(config, 20.0)


def test_build_problem_round_trip():
    config = cb.parse_config_text("grid.n_cells = 16\ninit.kind = monodisperse\ninit.size = 1\n")
    workspace, state0 = cb.build_problem(config)
    assert workspace.grid.n_cells == 16
    assert cb.moment(workspace.grid, state0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_table_init_requires_path():
    with pytest.raises(ConfigError) as info:
        cb.parse_config_text("init.kind = table\n")
    assert "init.path" in str(info.value)


import contextlib
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collbreak as cb
from collbreak import ConfigError
from collbreak.cli import main
from collbreak.config import _KEYS, _PARAM_KEYS
from conftest import config_text


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
        ("grid.x_min = 1e-151\n", "grid.x_min", 1),
        ("grid.x_max = 1e151\n", "grid.x_max", 1),
        ("picard.max_iter = 0\n", "picard.max_iter", 1),
        ("\npicard.tol = 0\n", "picard.tol", 2),
        ("picard.tol = -1e-10\n", "picard.tol", 1),
        ("init.mass = -1\n", "init.mass", 1),
        ("init.mean = 1e-151\n", "init.mean", 1),
        ("init.kind = monodisperse\ninit.size = 50\n", "init.size", 2),
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


def test_smallest_admitted_k0_is_a_valid_moment_order(tmp_path):
    # k0 one ulp above |nu| - 1, where (k0 + nu) + 1 rounds to 0 but
    # k0 + (nu + 1) does not: DaughterLaw admits it, so the moment of order
    # k0 that moments.csv writes must be admitted too
    config = cb.parse_config_text(
        "daughter.nu = -1.4375\ndaughter.k0 = 0.43750000000000006\ntime.t_end = 0\ngrid.n_cells = 8\n"
    )
    assert cb.check_moment_order(config.law, config.law.k0) > 0.0
    cb.emit_outputs(cb.run(config), tmp_path)
    header = (tmp_path / "moments.csv").read_text().splitlines()[0]
    assert header == "t,M_0.43750000000000006,M_1.0,M_1.4375,dust_mass,clip_mass"


def test_snapshot_count_and_list_forms():
    config = cb.parse_config_text("time.t_end = 2.0\ntime.snapshots = 5\n")
    assert config.snapshot_times == (0.0, 0.5, 1.0, 1.5, 2.0)
    config = cb.parse_config_text("time.t_end = 1.0\ntime.snapshots = 0.25,0.5\n")
    assert config.snapshot_times == (0.0, 0.25, 0.5, 1.0)


_TIMES_0_01_TO_0_99 = ",".join(str(i / 100) for i in range(1, 100))  # with 0 and t_end, 101 times


@pytest.mark.parametrize(
    "text, message",
    [
        ("time.snapshots = 100001\n", "100001 snapshot times exceed the limit of 100000"),
        ("time.snapshots = " + "9" * 30 + "\n", "snapshot times exceed the limit of 100000"),
        ("grid.n_cells = 1001\ntime.snapshots = 100000\n", "a record of 100100000 doubles"),
        (f"grid.n_cells = 1000000\ntime.snapshots = {_TIMES_0_01_TO_0_99}\n", "a record of 101000000 doubles"),
    ],
)
def test_snapshot_mesh_bounded_before_it_is_built(text, message):
    # the count, or the listed mesh, is refused under its key and line
    # without building the mesh or the record it would ask for
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            cb.parse_config_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.key, info.value.line) == ("time.snapshots", text.count("\n"))
    assert message in str(info.value)
    assert peak < 1e6


def test_largest_snapshot_mesh_and_record_parse():
    config = cb.parse_config_text(f"grid.n_cells = 16\ntime.snapshots = {cb.config.MAX_SNAPSHOTS}\n")
    assert len(config.snapshot_times) == cb.config.MAX_SNAPSHOTS
    config = cb.parse_config_text("grid.n_cells = 1000\ntime.snapshots = 100000\n")
    assert len(config.snapshot_times) * config.n_cells == cb.config.MAX_RECORD
    # the resolved echo lists every time, 0 and t_end included, and parses back
    assert cb.parse_config_text(config_text(config)) == config


def test_with_x_min_bounds_the_record_it_widens():
    config = cb.parse_config_text("grid.x_min = 1e-2\ngrid.x_max = 10\ngrid.n_cells = 600\ntime.snapshots = 100000\n")
    assert cb.with_x_min(config, 1e-4).n_cells == 1000  # a record of exactly MAX_RECORD
    with pytest.raises(ConfigError) as info:
        cb.with_x_min(config, 1e-5)  # 1200 cells
    assert info.value.key == "time.snapshots"
    assert "a record of 120000000 doubles" in str(info.value)


def test_param_keys_derive_from_the_key_table():
    # the explicit table the derivation replaced, and the params of config's own refusals
    explicit = {
        "nu": "daughter.nu",
        "k0": "daughter.k0",
        "lambda1": "kernel.lambda1",
        "lambda2": "kernel.lambda2",
        "truncation": "kernel.truncation_n",
        "x_min": "grid.x_min",
        "x_max": "grid.x_max",
        "n_cells": "grid.n_cells",
        "rel_tol": "time.rel_tol",
        "abs_tol": "time.abs_tol",
        "max_iter": "picard.max_iter",
        "tol": "picard.tol",
        "size": "init.size",
        "mean": "init.mean",
        "mass": "init.mass",
        "path": "init.path",
        "kind": "init.kind",
        "t_end": "time.t_end",
        "snapshots": "time.snapshots",
    }
    assert {param: _PARAM_KEYS[param] for param in explicit} == explicit
    # the rest are the keys no check names: a param for every key, a key for every param
    assert set(_PARAM_KEYS) - set(explicit) == {"truncation_n"}
    assert set(_PARAM_KEYS.values()) == set(_KEYS)


def test_replacing_the_init_kind_drops_the_fields_the_new_kind_ignores():
    exponential = cb.parse_config_text("init.mean = 2.0\n")
    table = cb.parse_config_text("init.kind = table\ninit.path = run\n")
    replaced = dataclasses.replace(exponential, init_kind="table", init_path="run", init_mass=None)
    assert replaced.init_mean is None
    assert replaced == table
    assert replaced.resolved() == table.resolved()


@pytest.mark.parametrize("kind", ["Table", "bogus"])
def test_a_config_made_with_an_unknown_kind_is_refused_under_kind(kind):
    # the parser's rule, held by every construction: not a bare KeyError
    with pytest.raises(cb.DomainError) as info:
        dataclasses.replace(cb.parse_config_text(""), init_kind=kind)
    assert info.value.param == "kind"
    assert str(info.value) == f"unknown kind {kind!r}; expected one of ('monodisperse', 'exponential', 'table')"


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
    )
    first = cb.parse_config_text(text)
    second = cb.parse_config_text(config_text(first))
    assert first == second
    third = cb.parse_config_text(config_text(second))
    assert second == third


@st.composite
def _config_texts(draw):
    """Config text whose every value lies inside its documented range."""
    nu = draw(st.floats(-2.0, 0.0, exclude_min=True))
    threshold = abs(nu) - 1.0
    x_min = draw(st.floats(1e-8, 1.0))
    x_max = draw(st.floats(x_min, 1e3, exclude_min=True))
    t_end = draw(st.floats(0.0, 1e3))
    kind = draw(st.sampled_from(["monodisperse", "exponential", "table"]))
    lines = {
        "kernel.lambda1": draw(st.floats(-2.0, 2.0)),
        "kernel.lambda2": draw(st.floats(-2.0, 2.0)),
        "daughter.nu": nu,
        "daughter.k0": draw(st.floats(max(0.0, threshold), 1.0, exclude_min=True, exclude_max=True)),
        "grid.x_min": x_min,
        "grid.x_max": x_max,
        "grid.n_cells": draw(st.integers(2, cb.grid.MAX_CELLS)),
        "init.kind": kind,
        "time.t_end": t_end,
        "time.rel_tol": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "time.abs_tol": draw(st.floats(0.0, 1.0)),
        "picard.max_iter": draw(st.integers(1, 1000)),
        "picard.tol": draw(st.floats(0.0, 1.0, exclude_min=True)),
    }
    if draw(st.booleans()):
        lines["kernel.truncation_n"] = draw(st.integers(1, 100))
    # each kind reads one of init.size, init.mean and init.path; a key the
    # kind ignores is sometimes set too, and must not change the config
    if kind == "monodisperse" or draw(st.booleans()):
        lines["init.size"] = draw(st.floats(x_min, x_max))
    if kind == "exponential" or draw(st.booleans()):
        lines["init.mean"] = draw(st.floats(1e-6, 1e6))
    if kind == "table" or draw(st.booleans()):
        lines["init.path"] = "table.csv"
    if kind != "table" or draw(st.booleans()):
        lines["init.mass"] = draw(st.floats(1e-6, 1e6))
    if draw(st.booleans()):
        lines["time.snapshots"] = str(draw(st.integers(1, 50)))
    else:
        times = draw(st.lists(st.floats(0.0, t_end), min_size=1, max_size=6))
        lines["time.snapshots"] = ",".join(repr(t) for t in times)
    return "".join(
        f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
        for key, value in lines.items()
    )


@settings(max_examples=200, deadline=None, database=None)
@given(text=_config_texts())
def test_to_text_round_trips_generated_configs(text):
    first = cb.parse_config_text(text)
    second = cb.parse_config_text(config_text(first))
    assert second == first
    assert config_text(second) == config_text(first)


_FLOAT_KEYS = sorted(key for key, (parser, *_) in _KEYS.items() if parser is float)
_LIST_KEYS = ["time.snapshots"]
_float_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "-0.0", "5e-324", "1.7976931348623157e308"]),
)


@settings(max_examples=150, deadline=None, database=None)
@given(values=st.dictionaries(st.sampled_from(_FLOAT_KEYS + _LIST_KEYS), _float_tokens, min_size=1, max_size=4))
# a drawn case: the exponential start's rescale to the mass overflows its contents
@example(values={"init.mass": "1.7976931348623157e308", "grid.x_min": "9.337473528892326e-68"})
def test_any_float_values_exit_0_or_2(values):
    # a small grid keeps each example cheap; every other value is random
    text = "grid.n_cells = 16\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.cfg"
        path.write_text(text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["bounds", str(path)])
    assert code in (0, 2), stderr.getvalue()
    if code == 0:
        # strict JSON: NaN or Infinity in the report fails to parse
        json.loads(stdout.getvalue(), parse_constant=lambda name: pytest.fail(f"{name} in output"))
    else:
        assert stdout.getvalue() == ""


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

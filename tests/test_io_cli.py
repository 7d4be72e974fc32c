import argparse
import contextlib
import dataclasses
import filecmp
import glob
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (HYPOTHESIS_REPORT_WARNING, c2c_ifft, nyquist_noise_state,
                      random_div_free_full_cube)
from strainflow import (cli, config as config_mod, diagnostics, initial_data, snapshots,
                        solver, spectral, verify)
from strainflow.exceptions import ConfigError, InvalidInputError


class TestSnapshots:
    def test_roundtrip_bit_exact(self, tmp_path, grid8):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3,) + (grid8.n,) * 3)
        path = tmp_path / "field.snap"
        snapshots.save_snapshot(path, "velocity", time=0.6251,
                                viscosity=0.875, data=data)
        snap = snapshots.load_snapshot(path)
        assert snap.kind == "velocity" and snap.n == grid8.n
        assert snap.time == 0.6251 and snap.viscosity == 0.875
        assert np.array_equal(snap.data, data)

    def test_save_load_save_identical_bytes(self, tmp_path, grid8):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((3,) + (grid8.n,) * 3)
        first = tmp_path / "a.snap"
        second = tmp_path / "b.snap"
        snapshots.save_snapshot(first, "velocity", 1.0 / 3.0, 1.0, data)
        snap = snapshots.load_snapshot(first)
        snapshots.save_snapshot(second, snap.kind, snap.time, snap.viscosity, snap.data)
        assert first.read_bytes() == second.read_bytes()

    def test_strain_kind(self, tmp_path, grid8):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5,) + (grid8.n,) * 3)
        path = tmp_path / "s.snap"
        snapshots.save_snapshot(path, "strain", 0.0, 1.0, data)
        snap = snapshots.load_snapshot(path)
        assert snap.kind == "strain" and np.array_equal(snap.data, data)

    def test_x_fastest_layout(self, tmp_path):
        n = 8
        data = np.zeros((3, n, n, n))
        data[0] = np.arange(n ** 3).reshape((n, n, n), order="F")  # value = ix + n*iy + n^2*iz
        path = tmp_path / "layout.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0, data)
        blob = path.read_bytes()
        payload = blob.split(b"---\n", 1)[1]
        first_vals = np.frombuffer(payload[:8 * n], dtype="<f8")
        assert np.array_equal(first_vals, np.arange(n, dtype=float))  # x varies fastest

    def test_whole_payload_layout(self, tmp_path):
        # every component x fastest, one after the other, whatever the
        # memory order, float type or byte order of the input
        n = 6
        data = np.random.default_rng(2).standard_normal((3, n, n, n))
        path = tmp_path / "c.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0, data)
        blob = path.read_bytes()
        payload = blob.split(b"---\n", 1)[1]
        assert payload == b"".join(comp.T.tobytes() for comp in data.astype("<f8"))
        values = np.frombuffer(payload, "<f8")
        assert values[2 * n ** 3 + 1 + n * 4 + n * n * 3] == data[2, 1, 4, 3]
        for variant in (np.asfortranarray(data), data.astype(np.float32), data.astype(">f8")):
            reference = tmp_path / "reference.snap"
            snapshots.save_snapshot(reference, "velocity", 0.0, 1.0,
                                    np.ascontiguousarray(variant, dtype=np.float64))
            snapshots.save_snapshot(path, "velocity", 0.0, 1.0, variant)
            assert path.read_bytes() == reference.read_bytes()
        path.write_bytes(blob)
        loaded = snapshots.load_snapshot(path).data
        assert loaded.flags.writeable and np.array_equal(loaded, data)
        assert loaded.dtype == np.float64 and loaded.strides[1] == 8

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 20, 24, 32, 48, 64])
    def test_loaded_layout_transforms_like_c_order(self, tmp_path, n):
        # the r2c of a loaded field (x fastest in memory) has the bits of
        # the r2c of the same values in C order
        data = np.random.default_rng(n).standard_normal((3, n, n, n))
        path = tmp_path / "f.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0, data)
        loaded = snapshots.load_snapshot(path).data
        grid = spectral.Grid(n)
        assert data.flags.c_contiguous and not loaded.flags.c_contiguous
        assert grid.fft(loaded).tobytes() == grid.fft(data).tobytes()

    @pytest.mark.parametrize("key, value", [
        ("time", math.nan), ("time", math.inf), ("viscosity", -1.0),
        ("viscosity", 0.0), ("viscosity", math.inf), ("viscosity", math.nan)])
    def test_save_refuses_header_values_load_rejects(self, tmp_path, grid8, key, value):
        path = tmp_path / "bad.snap"
        header = {"time": 0.5, "viscosity": 1.0, key: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {key} must be"):
            snapshots.save_snapshot(path, "velocity", header["time"], header["viscosity"],
                                    np.zeros((3,) + (grid8.n,) * 3))
        assert not path.exists()

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"not a snapshot\n---\n")
        with pytest.raises(ConfigError):
            snapshots.load_snapshot(bad)
        with pytest.raises(ConfigError):
            snapshots.load_snapshot(tmp_path / "missing.snap")

    def test_truncated_payload(self, tmp_path, grid8):
        path = tmp_path / "t.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0,
                                np.zeros((3,) + (grid8.n,) * 3))
        blob = path.read_bytes()
        (tmp_path / "t.snap").write_bytes(blob[:-16])
        with pytest.raises(ConfigError):
            snapshots.load_snapshot(path)


_HEADER_TIMES = (0.0, 0.125, 0.25, 0.375, 0.5)
_header_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
_HEADER_VALUES = {
    "kind": st.sampled_from(["strain", "Velocity", ""]) | _header_text,
    "n": st.integers(-9, 70).map(str) | _header_text,
    "time": st.floats().map(repr) | _header_text,
    "viscosity": st.floats().map(repr) | _header_text,
    "components": st.integers(-2, 8).map(str) | _header_text,
}


@pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING)
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, len(_HEADER_TIMES) - 1),
       st.sampled_from(sorted(_HEADER_VALUES)).flatmap(
           lambda key: st.tuples(st.just(key), _HEADER_VALUES[key])))
def test_diagnose_reads_or_rejects_any_header_field(index, mutation):
    # one header field of one of five valid n=8 snapshots is rewritten: diagnose
    # either reads the series at the header times or exits 1 with one error line
    key, value = mutation
    grid = spectral.Grid(8)
    u_phys = grid.ifft(initial_data.random_div_free(grid, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"s{i}.snap") for i in range(len(_HEADER_TIMES))]
        for path, t in zip(paths, _HEADER_TIMES):
            snapshots.save_snapshot(path, "velocity", t, 1.0, u_phys)
        valid = {"kind": "velocity", "n": "8", "time": repr(_HEADER_TIMES[index]),
                 "viscosity": "1.0", "components": "3"}[key]
        with open(paths[index], "rb") as fh:
            blob = fh.read()
        with open(paths[index], "wb") as fh:
            fh.write(blob.replace(f"\n{key} = {valid}\n".encode(),
                                  f"\n{key} = {value}\n".encode(), 1))
        csv = os.path.join(tmp, "series.csv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["diagnose", "--csv", csv, *paths])
        if code == 0:
            times = list(_HEADER_TIMES)
            if key == "time":
                times[index] = float(value)
            with open(csv) as fh:
                rows = fh.read().splitlines()
            column = rows[0].split(",").index("t")
            assert [float(row.split(",")[column]) for row in rows[1:]] == sorted(times)
            assert err.getvalue() == ""
        else:
            assert code == 1
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
            assert not os.path.exists(csv)


_q_item = (st.floats().map(repr)
           | st.sampled_from(["inf", "Infinity", "qinf", " INF ", "2", "1.5", "3", ""])
           | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))
_q_list_text = st.lists(_q_item, max_size=4).map(",".join)


@pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING)
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.sampled_from(["flag", "config file", "environment"]), _q_list_text)
def test_diagnose_q_list_never_changes_the_csv(layer, text):
    # the q list reaches diagnose through one layer: the run either writes the
    # CSV of the default q list or exits 1 with one error line
    grid = spectral.Grid(8)
    u_phys = grid.ifft(initial_data.random_div_free(grid, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"s{i}.snap") for i in range(len(_HEADER_TIMES))]
        for i, (path, t) in enumerate(zip(paths, _HEADER_TIMES)):
            snapshots.save_snapshot(path, "velocity", t, 1.0, (1.0 + 0.5 * i) * u_phys)
        default_csv = os.path.join(tmp, "default.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["diagnose", "--csv", default_csv, *paths]) == 0
        csv = os.path.join(tmp, "series.csv")
        argv = ["diagnose", "--csv", csv, *paths]
        environ = {}
        if layer == "flag":
            argv.insert(1, f"--q-list={text}")
        elif layer == "config file":
            cfg = os.path.join(tmp, "q.cfg")
            with open(cfg, "w") as fh:
                fh.write(f"q_list = {text}\n")
            argv[1:1] = ["--config", cfg]
        else:
            environ["STRAINFLOW_Q_LIST"] = text
        err = io.StringIO()
        with (mock.patch.dict(os.environ, environ), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = cli.main(argv)
        if code == 0:
            assert err.getvalue() == ""
            with open(csv) as fh, open(default_csv) as default:
                rows = fh.read()
                assert rows == default.read()
            assert len(rows.splitlines()[0].split(",")) == 16
        else:
            assert code == 1
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
            assert not os.path.exists(csv)


@pytest.mark.parametrize("components, message", [
    ("x*(-8)**(1/3);0;0", "error: force expression is complex at t=0.0"),
    ("sqrt(x-1);0;0", "error: force expression is not finite at t=0.0"),
    ("1e200*sin(y);0;0", "error: force is too large: n^3 times its energy or enstrophy "
                         "overflows when squared")],
    ids=["complex_on_grid", "invalid_value", "overflowing_record"])
def test_expr_force_rejected_without_warning(tmp_path, capsys, components, message):
    # the first ran with its real part, the second printed a numpy warning
    # before its error line, the third overflowed in the first record and
    # exited 2
    csv = tmp_path / "series.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["simulate", "--n", "8", "--t-end", "0.01", "--csv", str(csv),
                         "--force", f"expr:{components}"])
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not csv.exists()


def _expr_of_depth(depth):
    """Strategy for expr: components of at most `depth` nested operations,
    drawn from the grammar of solver._parse_force_component."""
    sign = st.sampled_from(["", "-"])  # unary minus
    leaf = st.tuples(sign, st.sampled_from(["0", "0.5", "3", "1e3", "1e200", "2.5e-3",
                                            "x", "y", "z", "t", "pi"])).map("".join)
    if depth == 0:
        return leaf
    inner = _expr_of_depth(depth - 1)
    node = (st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(
                lambda parts: "({}{}{})".format(*parts))
            | st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "sqrt"]), inner).map(
                lambda parts: "{}({})".format(*parts)))
    return leaf | st.tuples(sign, node).map("".join)


_expr_component = (_expr_of_depth(4)
                   | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8))


@pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING)
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.tuples(_expr_component, _expr_component, _expr_component))
def test_simulate_runs_or_rejects_any_expr_force(components):
    # exit 0 with the two records, exit 1 with one error line, or exit 2
    # with one line naming a failed step; no exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "series.csv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--n", "8", "--t-end", "0.01", "--csv", csv,
                             "--force", "expr:" + ";".join(components)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            with open(csv) as fh:
                rows = fh.read().splitlines()
            assert len(rows) == 3 and all(len(row.split(",")) == 16 for row in rows)
        elif code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not os.path.exists(csv)
        else:
            assert code == 2 and len(lines) == 1
            step = re.match(r"numerical failure: .* after step (\d+) ", lines[0])
            assert step and int(step.group(1)) >= 1


_ENV_KEYS = sorted(config_mod._PARSERS)
_env_name = (st.sampled_from(_ENV_KEYS).map(str.upper)
             | st.sampled_from(_ENV_KEYS) | st.sampled_from(_ENV_KEYS).map(str.title)
             | st.text(st.sampled_from("ABQXZ_019"), max_size=8))
_env_value = st.sampled_from(["auto", "none", "nan", "inf", "", "0", "1", "-1", "5", "2.5",
                              "1e300", "true", "x"])
_ENV_COMMANDS = {
    "simulate": ["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.01",
                 "--record-every", "5", "--csv", "out.csv"],
    "diagnose": ["diagnose", "--csv", "out.csv", "s0.snap", "s1.snap"],
    "verify": ["verify", "--n", "8", "--dt", "1e-3", "--t-end", "0.04"],
    "toy-ode": ["toy-ode", "--lambda3", "1", "--r", "0.7", "--t-end", "1",
                "--trajectory-out", "out.csv"],
}
_ENV_READ = {"simulate": {key.upper() for key in _ENV_KEYS}, "diagnose": {"Q_LIST", "CSV"},
             "verify": set(), "toy-ode": set()}


@pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING)
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.sampled_from(sorted(_ENV_COMMANDS)), _env_name, _env_value)
def test_every_command_runs_or_rejects_any_env_setting(command, name, value):
    # one STRAINFLOW_<name>=<value> under each command, run in a scratch
    # directory: exit 0 with its output if the command reads the setting,
    # exit 1 with one error line and no output, or (simulate only) exit 2
    # with one numerical failure line
    grid = spectral.Grid(8)
    u_phys = grid.ifft(initial_data.random_div_free(grid, seed=3))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i in range(2):
                snapshots.save_snapshot(f"s{i}.snap", "velocity", 0.1 * i, 1.0, u_phys)
            err = io.StringIO()
            with (mock.patch.dict(os.environ, {"STRAINFLOW_" + name: value}),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                code = cli.main(_ENV_COMMANDS[command])
            lines = err.getvalue().splitlines()
            written = os.path.exists("out.csv")
        finally:
            os.chdir(cwd)
    if code == 0:
        assert name in _ENV_READ[command] and lines == [] and written
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ") and not written
    else:
        assert command == "simulate" and code == 2 and len(lines) == 1
        assert lines[0].startswith("numerical failure: ")


# (values a run takes, values it rejects) of each setting in a drawn config
# file; those of n, dt and t_end keep every run at n <= 16 and at most 20 steps
_FILE_VALUES = {
    "n": (["8", "12", "16"], ["9", "0", "x", ""]),
    "viscosity": (["1", "0.05"], ["0", "-1", "nan", "x"]),
    "dt": (["1e-3", "2e-3", "auto", " AUTO "], ["0", "nan", "x"]),
    "t_end": (["0.01", "0.02"], ["0", "inf", "x"]),
    "dealias": (["true", "false", "off", "1"], ["maybe", ""]),
    "record_every": (["1", "2", "5", "10"], ["0", "x"]),
    "initial_data": (["taylor_green", "shear", "random_div_free", "file:u8.snap"],
                     ["file:", "file:missing.snap", "bogus"]),
    "seed": (["0", "3"], ["-1", "x"]),
    "max_wavenumber": (["none", "", "1", "2"], ["0", "99", "x"]),
    "amplitude": (["1", "0.5", "0", "2"], ["1e300", "inf", "x"]),
    "force": (["none", "expr:sin(y);0;0"], ["expr:x", "files:", "bogus"]),
    "q_list": (["inf,2", "1.5", "3, inf"], ["", "1.2", "x"]),
    "csv": (["series.csv", "other.csv"], []),
    "snapshot_dir": (["none", "", "snaps"], []),
    "snapshot_every": (["0", "10", "20"], ["-1", "5", "x"]),
}
_SMALL_RUN_KEYS = ("n", "dt", "t_end")
_NOT_A_SETTING = ["", "   ", "# n = 8", "#", "wibble = 3", "N = 8", "n 8", "= 3"]


def _file_value(key):
    # one value in four from the rejected ones
    valid, invalid = _FILE_VALUES[key]
    return st.integers(0, 3).flatmap(
        lambda pick: st.sampled_from(invalid if pick == 0 and invalid else valid))


@st.composite
def _config_file(draw):
    """(setting lines as (key, value), file text): n, dt and t_end, up to
    three other settings, in one file of four one of the keys set a second
    time and in one of four a line that sets nothing (blank, comment,
    unknown key, malformed), in any order."""
    keys = [*_SMALL_RUN_KEYS, *draw(st.lists(st.sampled_from(
        sorted(set(_FILE_VALUES) - set(_SMALL_RUN_KEYS))), unique=True, max_size=3))]
    if draw(st.integers(0, 3)) == 0:
        keys.append(draw(st.sampled_from(keys)))
    settings = [(key, draw(_file_value(key))) for key in keys]
    layout = st.sampled_from(["{} = {}", "{}={}", "  {}  =  {}  # note"])
    lines = [draw(layout).format(key, value) for key, value in settings]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(_NOT_A_SETTING)))
    return settings, "".join(line + "\n" for line in draw(st.permutations(lines)))


@pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING)
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(_config_file())
def test_simulate_runs_or_rejects_any_config_file(drawn):
    # simulate --config <file> in a scratch directory: exit 0 with the CSV
    # the file names, exit 1 with one error line and no CSV (always, when a
    # key is set twice), or exit 2 with one numerical failure line
    settings, text = drawn
    keys = [key for key, _ in settings]
    grid = spectral.Grid(8)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            snapshots.save_snapshot("u8.snap", "velocity", 0.0, 1.0,
                                    grid.ifft(initial_data.taylor_green(grid)))
            with open("run.cfg", "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["simulate", "--config", "run.cfg"])
            lines = err.getvalue().splitlines()
            written = glob.glob("*.csv")
            expected = dict(settings).get("csv", "diagnostics.csv")
        finally:
            os.chdir(cwd)
    if len(set(keys)) < len(keys):
        assert code == 1
    if code == 0:
        assert lines == [] and written == [expected]
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ") and written == []
    else:
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("numerical failure: ")


class TestInitialData:
    def test_taylor_green_divergence_free(self, grid16):
        u_hat = initial_data.taylor_green(grid16)
        assert spectral.divergence_residual(grid16, u_hat) < 1e-13
        assert np.max(np.abs(u_hat[:, 0, 0, 0])) == 0.0

    def test_shear_single_mode_pair(self, grid16):
        u_hat = initial_data.shear(grid16)
        nonzero = np.argwhere(np.abs(u_hat) > 1e-9)
        assert len(nonzero) == 2  # xi = (0, 1, 0) and (0, -1, 0), component 1 only
        assert all(idx[0] == 0 for idx in nonzero)

    def test_random_div_free_deterministic(self, grid16):
        a = initial_data.random_div_free(grid16, seed=1)
        b = initial_data.random_div_free(grid16, seed=1)
        assert np.array_equal(a, b)
        c = initial_data.random_div_free(grid16, seed=2)
        assert not np.array_equal(a, c)

    def test_random_div_free_contract(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=3, amplitude=2.5)
        assert spectral.divergence_residual(grid16, u_hat) < 1e-13
        assert spectral.hermitian_residual(grid16, u_hat) < 1e-13
        norm = np.sqrt(spectral.sobolev_norm_sq(grid16, u_hat))
        assert norm == pytest.approx(2.5, rel=1e-12)

    def test_random_div_free_is_the_half_of_the_full_cube_draw(self, grid16):
        # the Hermitian part of the full-cube draw, built by flip and roll
        # on the cube and then cut to its half: a seed names one field
        n, kmax = grid16.n, grid16.dealias_kmax
        rng = np.random.default_rng(3)
        shape = (3, n, n, n)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        xi = np.abs(np.fft.fftfreq(n, 1.0 / n))
        coeffs *= ((xi[:, None, None] <= kmax) & (xi[None, :, None] <= kmax)
                   & (xi[None, None, :] <= kmax))
        axes = (-3, -2, -1)
        mirror = np.roll(np.flip(coeffs, axis=axes), shift=(1, 1, 1), axis=axes)
        half = (0.5 * (coeffs + np.conj(mirror)))[..., :n // 2 + 1]
        half[:, 0, 0, 0] = 0.0
        spectral.zero_nyquist(grid16, half)
        expected = spectral.project_divergence_free(grid16, half)
        expected = expected * (2.5 / np.sqrt(spectral.sobolev_norm_sq(grid16, expected)))
        assert np.array_equal(initial_data.random_div_free(grid16, seed=3, amplitude=2.5),
                              expected)

    @pytest.mark.parametrize("seed", [3, 20171015])
    @pytest.mark.parametrize("n", [8, 24, 64])
    def test_random_div_free_is_the_full_cube_construction(self, n, seed):
        # built one component's half at a time from the same two draws
        grid = spectral.Grid(n)
        assert initial_data.random_div_free(grid, seed).tobytes() \
            == random_div_free_full_cube(grid, seed).tobytes()
        if n == 24:
            assert initial_data.random_div_free(grid, seed, 5, 0.3).tobytes() \
                == random_div_free_full_cube(grid, seed, 5, 0.3).tobytes()

    def test_band_limit(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=4, max_wavenumber=2)
        outside = ~((np.abs(grid16.kx) <= 2) & (np.abs(grid16.ky) <= 2)
                    & (np.abs(grid16.kz) <= 2))
        assert np.max(np.abs(u_hat[:, outside])) == 0.0

    def test_from_file(self, tmp_path, grid8):
        u_hat = initial_data.taylor_green(grid8)
        path = tmp_path / "u.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0, grid8.ifft(u_hat))
        back = initial_data.from_file(grid8, path)
        assert np.max(np.abs(back - u_hat)) < 1e-12 * np.max(np.abs(u_hat))

    def test_unknown_name(self, grid8):
        with pytest.raises(InvalidInputError):
            initial_data.generate_initial(grid8, "vortex_sheet")

    def test_negative_seed_rejected(self, tmp_path, capsys, grid8, monkeypatch):
        # --seed -1 ended in a numpy traceback, and STRAINFLOW_SEED=-3 with
        # taylor_green ran with the value ignored
        for seed in (-1, 1.5):
            with pytest.raises(InvalidInputError, match="seed"):
                initial_data.random_div_free(grid8, seed=seed)
        csv = tmp_path / "never.csv"
        small = ["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.01", "--csv", str(csv)]
        assert cli.main([*small, "--initial-data", "random_div_free", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be") and err.count("\n") == 1
        monkeypatch.setenv("STRAINFLOW_SEED", "-3")
        assert cli.main(small) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be") and err.count("\n") == 1
        assert not csv.exists()


class TestConfig:
    def test_file_env_cli_precedence(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "n = 16\n"
            "t_end = 2.0   # trailing comment\n"
            "dealias = false\n")
        monkeypatch.setenv("STRAINFLOW_T_END", "3.0")
        cfg = config_mod.build_config(cfg_file, {"viscosity": "0.25"})
        assert cfg.n == 16
        assert cfg.t_end == 3.0          # env beats file
        assert cfg.viscosity == 0.25     # cli beats everything
        assert cfg.dealias is False

    def test_unread_settings_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("csv = a.csv\n")
        cfg = config_mod.build_config(cfg_file, {"q_list": "inf"}, environ={},
                                      keys=("csv", "q_list"))
        assert cfg.csv == "a.csv" and cfg.q_list == (np.inf,)
        with pytest.raises(ConfigError, match="STRAINFLOW_SEED"):
            config_mod.build_config(None, None, environ={"STRAINFLOW_SEED": "3"},
                                    keys=("csv",))
        cfg_file.write_text("seed = 3\n")
        with pytest.raises(ConfigError, match="seed"):
            config_mod.build_config(cfg_file, None, environ={}, keys=("csv",))

    def test_dt_auto_enables_cfl(self):
        cfg = config_mod.build_config(None, {"dt": "auto"})
        assert cfg.dt is None

    def test_unknown_env_setting_rejected(self):
        # a removed setting given in the environment is not ignored
        for name in ("STRAINFLOW_ADAPTIVE_CFL", "STRAINFLOW_INITIAL_FILE",
                     "STRAINFLOW_t_end"):
            with pytest.raises(ConfigError, match=name):
                config_mod.build_config(None, None, environ={name: "1"})

    def test_q_list_parsing(self):
        cfg = config_mod.build_config(None, {"q_list": "inf,2,1.5"})
        assert cfg.q_list == (np.inf, 2.0, 1.5)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wibble = 3\n")
        with pytest.raises(ConfigError):
            config_mod.parse_config_file(bad)

    def test_invalid_values_rejected(self):
        for key, value in (("n", "7"), ("dt", "banana"), ("q_list", "1.2"),
                           ("t_end", "inf"), ("dt", "nan"), ("viscosity", "nan"),
                           ("t_end", "0.0305"), ("q_list", "1.6,nan"),
                           ("amplitude", "inf"), ("amplitude", "-inf")):
            with pytest.raises(ConfigError):
                config_mod.build_config(None, {key: value})


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path, grid8):
        csv = tmp_path / "out.csv"
        snaps = tmp_path / "snaps"
        code = cli.main(["simulate", "--n", "8", "--dt", "1e-3", "--t-end",
                         "0.03", "--record-every", "5", "--csv", str(csv),
                         "--snapshot-dir", str(snaps), "--snapshot-every", "15"])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("t,E,diss_H1")
        assert len(lines) == 8  # header + records at steps 0,5,...,30
        files = sorted(os.listdir(snaps))
        assert "state_final.snap" in files
        snap = snapshots.load_snapshot(snaps / "state_final.snap")
        assert snap.time == pytest.approx(0.03)
        # written from the half-spectrum by c2r; the c2c inverse of the full
        # cube agrees
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.03, record_every=5)
        final = solver.run(config, initial_data.taylor_green(grid8), grid=grid8).final_state
        u_phys = c2c_ifft(spectral.expand_half(grid8, final.u_hat))
        assert np.max(np.abs(snap.data - u_phys)) <= 1e-13 * np.max(np.abs(u_phys))

    def test_simulate_deterministic(self, tmp_path):
        args_common = ["simulate", "--n", "8", "--dt", "2e-3", "--t-end", "0.02",
                       "--initial-data", "random_div_free", "--seed", "7",
                       "--record-every", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args_common + ["--csv", str(a)]) == 0
        assert cli.main(args_common + ["--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_no_partial_csv(self, tmp_path, capsys, grid8):
        csv = tmp_path / "never.csv"
        snap = tmp_path / "u.snap"
        snapshots.save_snapshot(snap, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.shear(grid8)))
        small = ["--n", "8", "--dt", "1e-3", "--t-end", "0.01"]
        for flags in (["--n", "9"], ["--t-end", "inf"], ["--dt", "nan"],
                      ["--viscosity", "nan"],
                      # snapshots come from record steps: 15 and 45 would never be written
                      ["--n", "8", "--dt", "1e-3", "--t-end", "0.06",
                       "--record-every", "10", "--snapshot-every", "15"],
                      # no snapshot_dir to write them to
                      [*small, "--snapshot-every", "10"],
                      # dt = auto is the one way to ask for adaptive steps
                      ["--n", "8", "--t-end", "0.01", "--dt", "auto",
                       "--adaptive-cfl", "false"],
                      # initial data from a file is initial_data = file:<path>
                      [*small, "--initial-file", str(snap)],
                      [*small, "--initial-data", "from_file"],
                      [*small, "--initial-data", "file:"],
                      # the last record would be off the record grid
                      ["--n", "8", "--dt", "1e-3", "--t-end", "0.065"]):
            code = cli.main(["simulate", *flags, "--csv", str(csv)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert not csv.exists()

    def test_non_finite_inputs_rejected_quietly(self, tmp_path):
        # NaN passed the q >= 3/2 check, an infinite amplitude printed a
        # numpy warning before its error line, and a finite amplitude too
        # large to square, or to cube in the first record, printed overflow
        # warnings and failed as a numerical failure (with dt = auto, 1e150
        # asked for ~1e147 steps); a child process shows the stderr a user sees
        csv = tmp_path / "never.csv"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
        for flags in (["--q-list", "1.6,nan"], ["--amplitude", "inf"],
                      ["--amplitude", "1e300"], ["--amplitude", "1e150"],
                      ["--amplitude", "1e100"], ["--amplitude", "1e150", "--dt", "auto"]):
            proc = subprocess.run(
                [sys.executable, "-m", "strainflow.cli", "simulate", "--n", "8",
                 "--dt", "1e-3", "--t-end", "0.01", "--initial-data", "random_div_free",
                 *flags, "--csv", str(csv)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert not csv.exists()

    def test_initial_data_from_file(self, tmp_path, grid8):
        snap = tmp_path / "u0.snap"
        snapshots.save_snapshot(snap, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.random_div_free(grid8, seed=5)))
        csv, expected = tmp_path / "run.csv", tmp_path / "expected.csv"
        assert cli.main(["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.02",
                         "--record-every", "5", "--initial-data", f"file:{snap}",
                         "--csv", str(csv)]) == 0
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.02, record_every=5)
        _, records = diagnostics.run_with_diagnostics(
            config, initial_data.from_file(grid8, snap), grid=grid8)
        diagnostics.write_csv(records, expected)
        assert csv.read_bytes() == expected.read_bytes()

    def test_initial_data_settings_it_does_not_read_rejected(self, tmp_path, capsys, grid8,
                                                             monkeypatch):
        # --seed 5 with taylor_green exited 0 with the default run's CSV, the
        # setting silently ignored; so did max_wavenumber and amplitude
        snap = tmp_path / "u0.snap"
        snapshots.save_snapshot(snap, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.taylor_green(grid8)))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("max_wavenumber = 2\n")
        csv = tmp_path / "never.csv"
        small = ["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.01", "--csv", str(csv)]
        for flags, env, key, name in (
                (["--seed", "5"], {}, "seed", "taylor_green"),
                (["--initial-data", "shear"], {"STRAINFLOW_MAX_WAVENUMBER": "2"},
                 "max_wavenumber", "shear"),
                (["--initial-data", f"file:{snap}", "--amplitude", "2"], {}, "amplitude",
                 f"file:{snap}"),
                (["--config", str(cfg_file)], {}, "max_wavenumber", "taylor_green")):
            with monkeypatch.context() as m:
                for var, value in env.items():
                    m.setenv(var, value)
                assert cli.main([*small, *flags]) == 1
            assert capsys.readouterr().err == f"error: {key}: not read by initial_data = {name}\n"
            assert not csv.exists()
        monkeypatch.setenv("STRAINFLOW_MAX_WAVENUMBER", "2")
        assert cli.main([*small, "--initial-data", "random_div_free", "--seed", "5",
                         "--amplitude", "2"]) == 0
        assert csv.exists()

    def test_snapshot_readers_reject_wrong_kind_and_grid(self, tmp_path, capsys, grid8):
        good = tmp_path / "good.snap"
        snapshots.save_snapshot(good, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.shear(grid8)))
        strain = tmp_path / "strain.snap"
        snapshots.save_snapshot(strain, "strain", 0.0, 1.0, np.zeros((5, 8, 8, 8)))
        wrong_n = tmp_path / "n16.snap"
        snapshots.save_snapshot(wrong_n, "velocity", 0.0, 1.0, np.zeros((3, 16, 16, 16)))
        csv = tmp_path / "never.csv"
        small = ["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.01", "--csv", str(csv)]
        for bad, message in ((strain, "expected a velocity snapshot, got strain"),
                             (wrong_n, "snapshot grid 16 != expected grid 8")):
            for argv in ([*small, "--initial-data", f"file:{bad}"],
                         [*small, "--force", f"file:{bad}"],
                         [*small, "--force", f"files:{good},{bad}"],
                         ["diagnose", "--csv", str(csv), str(good), str(bad)]):
                assert cli.main(argv) == 1
                assert capsys.readouterr().err == f"error: {bad}: {message}\n"
                assert not csv.exists()

    def test_long_decaying_run_completes(self, tmp_path):
        # Taylor-Green decays as exp(-3t), rounding noise at |xi| = 1 as exp(-t):
        # unless u0 is projected, its divergence trips the record check by t=10
        csv = tmp_path / "long.csv"
        assert cli.main(["simulate", "--n", "8", "--dt", "1e-2", "--t-end", "10",
                         "--csv", str(csv)]) == 0
        assert len(csv.read_text().splitlines()) == 102

    def test_usage_error_exit_code(self):
        assert cli.main(["simulate", "--no-such-flag", "1"]) == 1
        assert cli.main(["toy-ode"]) == 1  # needs --matrix or reduced pair

    def test_numerical_failure_exit_code(self, tmp_path):
        csv = tmp_path / "blowup.csv"
        code = cli.main(["simulate", "--n", "8", "--viscosity", "1e-6",
                         "--dt", "5", "--t-end", "50", "--record-every", "1",
                         "--initial-data", "random_div_free", "--amplitude", "1e4",
                         "--csv", str(csv)])
        assert code == 2

    def test_numerical_failure_names_last_stable_time_once(self, tmp_path, capsys):
        code = cli.main(["simulate", "--n", "8", "--dt", "0.05", "--t-end", "5",
                         "--record-every", "10", "--viscosity", "0.001",
                         "--initial-data", "random_div_free", "--amplitude", "1e3",
                         "--csv", str(tmp_path / "unstable.csv")])
        assert code == 2
        assert capsys.readouterr().err.count("last stable time") == 1

    def test_diagnose_roundtrip(self, tmp_path, grid8):
        snaps = tmp_path / "snaps"
        csv = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.05",
                         "--record-every", "10", "--csv", str(csv),
                         "--snapshot-dir", str(snaps), "--snapshot-every", "10"]) == 0
        snap_files = sorted(str(snaps / f) for f in os.listdir(snaps)
                            if not f.endswith("final.snap"))
        out = tmp_path / "diag.csv"
        assert cli.main(["diagnose", "--csv", str(out)] + snap_files) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == len(snap_files) + 1
        sim_lines = csv.read_text().splitlines()
        # per-snapshot columns match the ones written during the run
        sim_first = sim_lines[1].split(",")
        diag_first = lines[1].split(",")
        for column in (1, 2):  # E, diss_H1
            assert float(diag_first[column]) == pytest.approx(float(sim_first[column]),
                                                              rel=1e-12)

    def test_final_state_written_once(self, tmp_path):
        # the final state is recorded at step 100 and written there; the
        # final snapshot is a copy of that file, not a second transform
        snaps = tmp_path / "snaps"
        with mock.patch.object(snapshots, "save_snapshot",
                               wraps=snapshots.save_snapshot) as save:
            assert cli.main(["simulate", "--n", "16", "--t-end", "0.1",
                             "--snapshot-every", "20", "--snapshot-dir", str(snaps),
                             "--csv", str(tmp_path / "sim.csv")]) == 0
        written = [Path(call.args[0]).name for call in save.call_args_list]
        assert written == [f"state_{k:08d}.snap" for k in range(0, 101, 20)]
        assert sorted(os.listdir(snaps)) == sorted(written + ["state_final.snap"])
        assert filecmp.cmp(snaps / "state_00000100.snap", snaps / "state_final.snap",
                           shallow=False)

    def test_diagnose_matches_simulate_in_lambda2(self, tmp_path):
        # the arccos closed form moved lam2p_L32 by 1.3e-12 of its largest
        # value between a run's records and diagnose of its snapshots
        snaps, csv, out = tmp_path / "snaps", tmp_path / "sim.csv", tmp_path / "diag.csv"
        assert cli.main(["simulate", "--n", "16", "--t-end", "0.1",
                         "--force", "expr:sin(7*y);cos(6*z)*t;sin(7*x)",
                         "--snapshot-every", "10", "--record-every", "10",
                         "--snapshot-dir", str(snaps), "--csv", str(csv)]) == 0
        assert cli.main(["diagnose", "--csv", str(out),
                         *sorted(glob.glob(str(snaps / "state_0*")))]) == 0
        columns = diagnostics.CSV_COLUMNS
        sim = np.loadtxt(csv, delimiter=",", skiprows=1)
        diag = np.loadtxt(out, delimiter=",", skiprows=1)
        assert sim.shape == diag.shape == (11, len(columns))
        for name in ("lam2p_L2", "lam2p_L32"):
            col = columns.index(name)
            assert np.all(np.abs(sim[:, col] - diag[:, col])
                          <= 1e-14 * np.abs(sim[:, col]).max()), name

    def test_diagnose_matches_full_spectrum_path(self, tmp_path, grid8):
        # diagnose transforms each snapshot to the half-spectrum by an rfft;
        # the c2c transform of the full cube it replaced gives the same
        # per-snapshot columns
        paths = []
        for i in range(2):
            paths.append(str(tmp_path / f"s{i}.snap"))
            u_phys = grid8.ifft(initial_data.random_div_free(grid8, seed=30 + i))
            snapshots.save_snapshot(paths[-1], "velocity", 0.1 * i, 1.0, u_phys)
        out = tmp_path / "diag.csv"
        assert cli.main(["diagnose", "--csv", str(out)] + paths) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        collector = diagnostics.RecordCollector(grid8)
        for index, (path, row) in enumerate(zip(paths, rows)):
            snap = snapshots.load_snapshot(path)
            u_hat = grid8.fft(snap.data)
            u_hat[:, 0, 0, 0] = 0.0
            r = collector(solver.SolverState(u_hat, snap.time, index))
            expected = (r.t, r.enstrophy, r.dissipation, r.det_integral, r.tr3_integral,
                        r.vortex_stretch, r.lambda2_norms[np.inf], r.lambda2_norms[2.0],
                        r.lambda2_norms[1.5])
            for got, want in zip(row, expected):
                assert float(got) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_diagnose_zeroes_nyquist_planes(self, tmp_path, grid8):
        # diagnose reads a snapshot as initial_data = file:<path> does
        path = tmp_path / "noise.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0,
                                grid8.ifft(nyquist_noise_state(grid8)))
        out = tmp_path / "diag.csv"
        assert cli.main(["diagnose", "--csv", str(out), str(path)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        r = diagnostics.RecordCollector(grid8)(
            solver.SolverState(initial_data.from_file(grid8, path)))
        for got, want in zip(row[1:6], (r.enstrophy, r.dissipation, r.det_integral,
                                        r.tr3_integral, r.vortex_stretch)):
            assert float(got) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_diagnose_rejects_snapshots_too_large_to_record(self, tmp_path, capsys, grid8):
        # these printed 20 RuntimeWarnings, wrote NaN in det_int through
        # lam2p_L32 and exited 0; each snapshot now meets the rule of u0,
        # forces and recorded states before any record is made
        u_phys = 1e120 * grid8.ifft(initial_data.random_div_free(grid8, seed=3))
        paths = [str(tmp_path / f"s{i}.snap") for i in range(5)]
        for i, path in enumerate(paths):
            snapshots.save_snapshot(path, "velocity", 0.1 * i, 1.0, u_phys)
        out = tmp_path / "diag.csv"
        assert cli.main(["diagnose", "--csv", str(out), *paths[::-1]]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[0]}: velocity is too large: {solver._TOO_LARGE}"]
        assert not out.exists()

    def test_diagnose_mixed_viscosity_rejected(self, tmp_path, capsys, grid8):
        u_phys = grid8.ifft(initial_data.taylor_green(grid8))
        paths = [str(tmp_path / f"s{i}.snap") for i in range(2)]
        for i, (path, viscosity) in enumerate(zip(paths, (1.0, 0.5))):
            snapshots.save_snapshot(path, "velocity", 0.1 * i, viscosity, u_phys)
        out = tmp_path / "diag.csv"
        assert cli.main(["diagnose", "--csv", str(out)] + paths) == 1
        assert "mixed viscosities" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_memory_does_not_grow_with_the_snapshot_count(self, tmp_path, capsys):
        # every field and its half-spectrum were held before the first
        # record: the traced peak at n = 32 was 7.8 MB for 2 snapshots and
        # 17.1 MB for 8
        grid = spectral.Grid(32)
        paths = [str(tmp_path / f"s{i}.snap") for i in range(8)]
        for i, path in enumerate(paths):
            u_phys = grid.ifft(initial_data.random_div_free(grid, seed=i))
            snapshots.save_snapshot(path, "velocity", 0.1 * i, 1.0, u_phys)

        def traced_peak(count):
            tracemalloc.start()
            try:
                assert cli.main(["diagnose", "--csv", str(tmp_path / "diag.csv"),
                                 *paths[:count]]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(2)  # the one-time caches of a first run are not measured
        assert traced_peak(8) <= 1.25 * traced_peak(2)

    def test_readme_workflow_gives_finite_series_columns(self, tmp_path, capsys):
        # t_end on the snapshot grid: state_final.snap repeats the time of
        # the last state_<step>.snap, so state_* holds a repeated time
        snaps = tmp_path / "snaps"
        assert cli.main(["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.05",
                         "--csv", str(tmp_path / "run.csv"), "--snapshot-dir", str(snaps),
                         "--snapshot-every", "10"]) == 0
        capsys.readouterr()
        out = tmp_path / "diag.csv"
        every = sorted(glob.glob(str(snaps / "state_*.snap")))
        assert cli.main(["diagnose", "--csv", str(out), *every]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {snaps / 'state_00000050.snap'} and "
                       f"{snaps / 'state_final.snap'} hold the same time 0.05\n")
        assert not out.exists()
        steps = sorted(glob.glob(str(snaps / "state_0*.snap")))
        assert cli.main(["diagnose", "--csv", str(out), *steps]) == 0
        header, *rows = out.read_text().splitlines()
        assert len(rows) == 6
        columns = header.split(",")
        for name in ("budget_resid", "gcon_margin", "cubic_margin"):
            values = [float(row.split(",")[columns.index(name)]) for row in rows]
            assert all(math.isfinite(v) for v in values), name

    @pytest.mark.parametrize("key, value", [
        ("time", math.nan), ("time", math.inf), ("viscosity", -1.0),
        ("viscosity", 0.0), ("viscosity", math.inf), ("viscosity", math.nan)])
    @pytest.mark.parametrize("reader", ["diagnose", "file_force", "files_force",
                                        "initial_data"])
    def test_snapshot_header_values_rejected(self, tmp_path, capsys, grid8, key, value,
                                             reader):
        u_phys = grid8.ifft(initial_data.shear(grid8))
        good, bad = tmp_path / "good.snap", tmp_path / "bad.snap"
        snapshots.save_snapshot(good, "velocity", 0.0, 1.0, u_phys)
        # save refuses these values, so the bad header is written over a good one
        snapshots.save_snapshot(bad, "velocity", 0.5, 1.0, u_phys)
        valid = {"time": 0.5, "viscosity": 1.0}[key]
        bad.write_bytes(bad.read_bytes().replace(f"\n{key} = {valid!r}\n".encode(),
                                                 f"\n{key} = {value!r}\n".encode(), 1))
        csv = tmp_path / "never.csv"
        small = ["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.01", "--csv", str(csv)]
        argv = {"diagnose": ["diagnose", "--csv", str(csv), str(good), str(bad)],
                "file_force": [*small, "--force", f"file:{bad}"],
                "files_force": [*small, "--force", f"files:{good},{bad}"],
                "initial_data": [*small, "--initial-data", f"file:{bad}"]}[reader]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {key} must be") and err.count("\n") == 1
        assert not csv.exists()

    def test_large_q_does_not_overflow(self, tmp_path, grid8):
        # |lambda2+|^200 overflowed for a field of amplitude 1e4
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
        csv = tmp_path / "q.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "strainflow.cli", "simulate", "--n", "8",
             "--dt", "auto", "--t-end", "0.01", "--initial-data", "random_div_free",
             "--amplitude", "1e4", "--q-list", "200", "--csv", str(csv)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        c = 1e3
        got = diagnostics.lq_norm(grid8, np.full((8, 8, 8), c), 200.0)
        assert got == pytest.approx(c * (2.0 * np.pi) ** (3.0 / 200.0), rel=1e-14)

    def test_diagnose_rejects_settings_it_ignores(self, tmp_path, capsys, grid8):
        path = str(tmp_path / "s.snap")
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.taylor_green(grid8)))
        out = tmp_path / "diag.csv"
        for flags in (["--viscosity", "0.5"], ["--n", "64"], ["--force", "expr:1;0;0"]):
            assert cli.main(["diagnose", *flags, "--csv", str(out), path]) == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()
        assert cli.main(["diagnose", "--q-list", "inf,2", "--csv", str(out), path]) == 0
        assert out.exists()

    def test_diagnose_rejects_env_settings_it_ignores(self, tmp_path, capsys, grid8,
                                                       monkeypatch):
        path = str(tmp_path / "s.snap")
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.taylor_green(grid8)))
        out = tmp_path / "diag.csv"
        for key, value in (("VISCOSITY", "0.5"), ("N", "64"), ("FORCE", "expr:1;0;0")):
            with monkeypatch.context() as env:
                env.setenv("STRAINFLOW_" + key, value)
                assert cli.main(["diagnose", "--csv", str(out), path]) == 1
            assert f"STRAINFLOW_{key}" in capsys.readouterr().err
            assert not out.exists()
        monkeypatch.setenv("STRAINFLOW_Q_LIST", "inf,2")
        assert cli.main(["diagnose", "--csv", str(out), path]) == 0
        assert out.exists()

    def test_diagnose_rejects_config_file_settings_it_ignores(self, tmp_path, capsys, grid8):
        path = str(tmp_path / "s.snap")
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.taylor_green(grid8)))
        out = tmp_path / "diag.csv"
        cfg = tmp_path / "c.cfg"
        for lines in ("viscosity = 0.5\n", "n = 64\n", "q_list = inf\nn = 64\n"):
            cfg.write_text(lines)
            assert cli.main(["diagnose", "--config", str(cfg), "--csv", str(out), path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "config file" in err
            assert not out.exists()
        cfg.write_text(f"q_list = inf,2\ncsv = {out}\n")
        assert cli.main(["diagnose", "--config", str(cfg), path]) == 0
        assert out.exists()

    def test_toy_ode_subcommand(self, tmp_path):
        traj = tmp_path / "traj.csv"
        code = cli.main(["toy-ode", "--matrix=-2,1,0,0,0", "--t-end", "5",
                         "--trajectory-out", str(traj)])
        assert code == 0
        assert traj.read_text().splitlines()[0] == "t,lambda1,lambda2,lambda3,r,inv_lambda3"

    def test_toy_ode_large_matrix_quiet(self):
        # stages that overflow only shrink the step, yet each printed
        # RuntimeWarnings from the right-hand side
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
        # (the thresholds lie above the starts, which are rejected otherwise)
        for entry, threshold, code, out, err in (
                ("1e13", "1e14", 0, "blew_up", ""),
                ("1e200", "1e300", 2, "", "numerical failure: step size underflow at t=0\n")):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "strainflow.cli", "toy-ode",
                 f"--matrix={entry},{entry},0,0,0", "--blowup-threshold", threshold],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == code, proc.stderr
            assert proc.stdout.startswith(out) and proc.stderr == err

    def test_toy_ode_bad_flags_rejected(self, tmp_path, capsys):
        # bad numbers ended in tracebacks, and --t-end nan ran with no horizon
        out = tmp_path / "sweep.csv"
        for flags in (["--matrix", "1,2,x,0,0"], ["--matrix", "1,2,0,0"],
                      ["--matrix=-2,1,0,0,inf"],
                      ["--matrix=-2,1,0,0,0", "--t-end", "nan"],
                      ["--matrix=-2,1,0,0,0", "--t-end", "0"],
                      ["--lambda3", "1", "--r", "1", "--blowup-threshold", "-1"],
                      ["--sweep", "--sweep-r", "0.5,2,x"],
                      ["--sweep", "--sweep-lambda3", "0.5,2,0"],
                      ["--sweep", "--sweep-lambda3", "0.5,nan,2"],
                      ["--sweep", "--sweep-t-end", "inf"]):
            assert cli.main(["toy-ode", *flags, "--sweep-out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: argument --") and err.count("\n") == 1
            assert not out.exists()

    def test_toy_ode_bad_cells_rejected(self, tmp_path, capsys):
        # these ran and failed as numerics (exit 2) instead of being rejected;
        # each run writes to the output flag it reads, so the value is what
        # is rejected, not the flag
        out = tmp_path / "out.csv"
        for flags, message in (
                (["--sweep", "--sweep-r", "3,4,2"], "ratio r=3.0 outside [1/2, 2]"),
                (["--sweep", "--sweep-lambda3=-1,0,2"],
                 "lambda3 must be positive and finite, got -1.0"),
                (["--sweep", "--sweep-r", "0.3,3,3"], "ratio r=0.3 outside [1/2, 2]"),
                (["--lambda3", "inf", "--r", "1"], "lambda3 must be positive and finite, got inf"),
                (["--lambda3", "1", "--r", "3"], "ratio r=3.0 outside [1/2, 2]")):
            out_flag = "--sweep-out" if "--sweep" in flags else "--trajectory-out"
            assert cli.main(["toy-ode", *flags, out_flag, str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_toy_ode_start_at_threshold_rejected(self, tmp_path, capsys):
        # --lambda3 1e13 --r 1 reported blew_up after one step, and 1e200
        # ended in a step size underflow at t=0
        out = tmp_path / "sweep.csv"
        for flags, error in (
                (["--lambda3", "1e13", "--r", "1"],
                 "initial lambda3=1e+13 is not below blowup_threshold=1e+12"),
                (["--lambda3", "1e200", "--r", "1"],
                 "initial lambda3=1e+200 is not below blowup_threshold=1e+12"),
                (["--lambda3", "2", "--r", "1", "--blowup-threshold", "2"],
                 "initial lambda3=2 is not below blowup_threshold=2"),
                (["--matrix=1e13,1e13,0,0,0"],
                 "initial matrix has lambda3 at or above blowup_threshold=1e+12"),
                (["--matrix=1e200,1e200,0,0,0"],
                 "initial matrix has lambda3 at or above blowup_threshold=1e+12"),
                (["--sweep", "--sweep-lambda3", "1,20,2", "--sweep-r", "1,2,2",
                  "--blowup-threshold", "10", "--sweep-out", str(out)],
                 "initial lambda3=20 is not below blowup_threshold=10")):
            assert cli.main(["toy-ode", *flags]) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
            assert not out.exists()

    def test_toy_ode_rejects_flags_its_mode_does_not_read(self, tmp_path, capsys):
        # each ran, exited 0 and ignored the flags its error line names
        traj, sweep = tmp_path / "traj.csv", tmp_path / "sweep.csv"
        small = ["--sweep-lambda3", "0.5,2,2", "--sweep-r", "0.6,2,2", "--sweep-out", str(sweep)]
        for flags, error in (
                (["--sweep", *small, "--lambda3", "1", "--r", "0.7", "--trajectory-out", str(traj)],
                 "--lambda3, --r, --trajectory-out: not read by toy-ode --sweep"),
                (["--matrix=-2,1,0,0,0", "--lambda3", "1", "--r", "0.7",
                  "--trajectory-out", str(traj)],
                 "--lambda3, --r: not read by toy-ode --matrix"),
                (["--lambda3", "1", "--r", "0.7", "--trajectory-out", str(traj),
                  "--sweep-out", str(sweep), "--sweep-t-end", "5"],
                 "--sweep-t-end, --sweep-out: not read by toy-ode --lambda3 --r")):
            assert cli.main(["toy-ode", *flags]) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
            assert not traj.exists() and not sweep.exists()

    def test_verify_and_toy_ode_reject_env_settings(self, tmp_path, capsys, monkeypatch):
        # neither reads a setting: verify passed 21/21 under STRAINFLOW_DT=banana
        # and toy-ode ran under STRAINFLOW_T_END=5
        traj = tmp_path / "traj.csv"
        for argv in (["verify", "--n", "8", "--dt", "1e-3", "--t-end", "0.04"],
                     ["toy-ode", "--lambda3", "1", "--r", "0.7", "--trajectory-out", str(traj)]):
            for name, value, error in (
                    ("STRAINFLOW_DT", "banana", "settings this command does not read: "
                                                "STRAINFLOW_DT"),
                    ("STRAINFLOW_T_END", "5", "settings this command does not read: "
                                              "STRAINFLOW_T_END"),
                    ("STRAINFLOW_BOGUS", "1", "unknown setting STRAINFLOW_BOGUS")):
                with monkeypatch.context() as env:
                    env.setenv(name, value)
                    assert cli.main(argv) == 1
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err == f"error: {error}\n"
                assert not traj.exists()

    def test_unwritable_outputs_rejected_before_any_field(self, tmp_path, capsys,
                                                          monkeypatch):
        # the run integrated every step and then printed "i/o error: ..."
        made = []
        monkeypatch.setattr(initial_data, "generate_initial",
                            lambda *args, **kwargs: made.append(args))
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        small = ["simulate", "--n", "8", "--dt", "1e-3", "--t-end", "0.01"]
        for flags, message in (
                (["--csv", str(tmp_path / "missing" / "x.csv")],
                 f"csv: no directory {str(tmp_path / 'missing')!r} to write "
                 f"{str(tmp_path / 'missing' / 'x.csv')!r} in"),
                (["--csv", str(not_a_dir / "x.csv")],
                 f"csv: no directory {str(not_a_dir)!r} to write "
                 f"{str(not_a_dir / 'x.csv')!r} in"),
                (["--csv", str(tmp_path / "x.csv"), "--snapshot-dir", str(not_a_dir / "s")],
                 f"snapshot_dir: cannot create {str(not_a_dir / 's')!r}: Not a directory")):
            assert cli.main([*small, *flags]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert made == [] and os.listdir(tmp_path) == ["file"]

    def test_failed_set_up_leaves_no_snapshot_dir(self, tmp_path, capsys, monkeypatch):
        # each exited 1 with its error line and left the empty s1/ or s2/ behind
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kept").mkdir()
        run = ["simulate", "--n", "16", "--t-end", "0.01", "--snapshot-every", "10"]
        for flags, message in (
                (["--force", "expr:import(1);0;0", "--snapshot-dir", "s1"],
                 "bad force expression 'import(1)': invalid syntax (<unknown>, line 1)"),
                (["--initial-data", "file:missing.snap", "--snapshot-dir", "s2"],
                 "cannot read snapshot missing.snap: [Errno 2] No such file or "
                 "directory: 'missing.snap'"),
                (["--force", "expr:import(1);0;0", "--snapshot-dir", "kept/a/b"],
                 "bad force expression 'import(1)': invalid syntax (<unknown>, line 1)")):
            assert cli.main([*run, *flags]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["kept"] and os.listdir("kept") == []
        # a run that failed after a snapshot keeps it; one that wrote none leaves no directory
        blow_up = ["simulate", "--n", "16", "--dt", "0.1", "--t-end", "1e3", "--viscosity",
                   "1e-9", "--initial-data", "random_div_free", "--amplitude", "1e3"]
        assert cli.main([*blow_up, "--snapshot-dir", "s3", "--snapshot-every", "10"]) == 2
        assert cli.main([*blow_up, "--snapshot-dir", "s4"]) == 2
        assert "state_00000000.snap" in os.listdir("s3") and not os.path.exists("s4")

    def test_bad_band_rejected_before_any_output(self, tmp_path, capsys):
        # the band was checked inside random_div_free, after snapshot_dir was made
        run = ["simulate", "--n", "16", "--max-wavenumber", "9", "--csv",
               str(tmp_path / "x.csv"), "--snapshot-dir", str(tmp_path / "snaps"),
               "--snapshot-every", "10"]
        for initial, message in (("random_div_free", "max_wavenumber must be in [1, n/2], got 9"),
                                 ("taylor_green", "max_wavenumber: not read by "
                                                  "initial_data = taylor_green")):
            assert cli.main([*run, "--initial-data", initial]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_repeated_config_setting_rejected(self, tmp_path, capsys, grid8):
        # the last line won: this file ran at n=12 and exited 0
        csv = tmp_path / "never.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\n# n = 10\nt_end = 0.01\nn=12\n")
        assert cli.main(["simulate", "--config", str(cfg), "--csv", str(csv)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: repeated setting 'n'\n"
        assert not csv.exists()
        snap = str(tmp_path / "s.snap")
        snapshots.save_snapshot(snap, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.taylor_green(grid8)))
        cfg.write_text("q_list = inf\nq_list = 2\n")
        assert cli.main(["diagnose", "--config", str(cfg), "--csv", str(csv), snap]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: repeated setting 'q_list'\n"
        assert not csv.exists()

    def test_bad_boolean_names_its_setting(self, tmp_path, capsys, monkeypatch):
        # each layer printed only "error: expected a boolean, got 'maybe'"
        csv = tmp_path / "never.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dealias = maybe\n")
        small = ["simulate", "--n", "8", "--t-end", "0.01", "--csv", str(csv)]
        for argv, environ in ((small + ["--dealias", "maybe"], {}),
                              (small + ["--config", str(cfg)], {}),
                              (small, {"STRAINFLOW_DEALIAS": "maybe"})):
            with monkeypatch.context() as env:
                for name, value in environ.items():
                    env.setenv(name, value)
                assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                "error: bad value for dealias: 'maybe' (expected a boolean)\n")
            assert not csv.exists()

    def test_each_command_flag_set(self):
        # the options and positionals of each command, in --help order
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        got = {name: [" ".join(action.option_strings) or action.metavar
                      for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)]
               for name, parser in sub.choices.items()}
        assert got == {
            "simulate": ["--config", "--n", "--viscosity", "--dt", "--t-end", "--dealias",
                         "--record-every", "--initial-data", "--seed", "--max-wavenumber",
                         "--amplitude", "--force", "--q-list", "--csv", "--snapshot-dir",
                         "--snapshot-every"],
            "diagnose": ["--config", "--q-list", "--csv", "SNAPSHOT"],
            "toy-ode": ["--lambda3", "--r", "--matrix", "--t-end", "--blowup-threshold",
                        "--trajectory-out", "--sweep", "--sweep-lambda3", "--sweep-r",
                        "--sweep-t-end", "--sweep-out"],
            "verify": ["--n", "--dt", "--t-end"],
        }

    def test_toy_ode_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["toy-ode", "--sweep", "--sweep-lambda3", "0.5,2,2",
                         "--sweep-r", "0.6,2,2", "--sweep-out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda3_0,r_0,outcome,T_est,r_terminal"
        assert len(lines) == 5


VERIFY_CHECK_NAMES = (
    "sym3: tr(M^3) = 3 det(M)",
    "sym3: cubic determinant bound (sharp family tight)",
    "sym3: -det <= |M|^2 lambda2+/2",
    "sym3: extremal eigenvalue floors |M|/sqrt(6)",
    "sym3: |Mv| >= |lambda2| for unit v",
    "sym3: eigenvalue sum zero, Frobenius identity",
    "spectral: FFT roundtrip",
    "spectral: strain constraint separates gradients",
    "spectral: velocity-from-strain roundtrip",
    "spectral: Helmholtz split orthogonal and exact",
    "spectral: gradient-energy isometries (alpha 0, 1)",
    "spectral: shear-flow strain and curl analytics",
    "solver: single shear mode decays exactly",
    "solver: energy decay, energy budget, divergence-free",
    "diagnostics: vortex-stretching identity chain",
    "diagnostics: enstrophy budget residual",
    "diagnostics: pointwise inequalities on run snapshots",
    "diagnostics: growth inequality margin and envelope",
    "toy: scaling-family blow-up and decay solutions",
    "toy: full-matrix and reduced trajectories agree",
    "toy: attractor sweep and decay line",
)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["budget_convergence.py", "--n", "8", "--steps", "2", "--t-end", "0.1"],
    ["budget_convergence.py", "--n", "8", "--steps", "2", "--t-end", "0.08"]],
    ids=["budget_ladder", "budget_short_run"])
def test_script_rejects_bad_flags_with_usage_error(tmp_path, argv):
    # each ended in an InvalidInputError traceback but budget_short_run,
    # which printed nan for the 3 records of its coarsest step
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert f"{argv[0]}: error: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_minimal_grid_suite_passes(self, capsys):
        assert cli.main(["verify", "--n", "8", "--dt", "1e-3", "--t-end", "0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [re.split(r"\s{2,}", line)[:2] for line in lines[:-1]] == [
            ["PASS", name] for name in VERIFY_CHECK_NAMES]
        assert lines[-1] == "21/21 checks passed"

    def test_det_sign_flip_is_caught(self, tg16):
        # of the registry checks that read the records, only the identity
        # chain weighs det_integral against the other two integrals
        flipped = [dataclasses.replace(r, det_integral=-r.det_integral)
                   for r in tg16.records]
        checks = [verify._check("identity", verify.vortex_stretching, flipped),
                  verify._check("budget", verify.enstrophy_budget, flipped),
                  verify._check("growth", verify.growth_inequality, flipped, tg16.times)]
        assert [c.name for c in checks if not c.passed] == ["identity"]
        assert verify._check("identity", verify.vortex_stretching, tg16.records).passed

    @pytest.mark.parametrize("t_end", ["0.02", "0.305"])
    def test_too_few_uniform_records_is_a_usage_error(self, capsys, t_end):
        # 20 steps give 3 records, 305 steps a short last interval
        assert cli.main(["verify", "--n", "8", "--t-end", t_end]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: verify needs at least 5 uniformly spaced records")

    def test_cli_exit_codes(self, monkeypatch):
        calls = {}

        def fake_run_checks(**kwargs):
            calls.update(kwargs)
            return [verify.Check("a", True), verify.Check("b", False, "boom")]

        monkeypatch.setattr(verify, "run_checks", fake_run_checks)
        assert cli.main(["verify", "--n", "8"]) == 3
        assert calls["n"] == 8

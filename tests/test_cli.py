import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import zbsim
from zbsim.cli import main
from zbsim.errors import ConfigError
from zbsim.runner import PRESET_NAMES, load_preset, parse_config

SMALL_CONFIG = """
[run]
mode = 2+1

[field]
b = 1.0

[packet]
unit = magnetic_length
d_x = 0.9
d_y = 1.0
k0x = 1.4142135623730951

[time]
t_max = 30.0
samples = 512

[numerics]
kx_nodes = 64

[output]
position_unit = L
"""


# (line replaced, replacement, text the error message must contain)
BAD_INPUTS = (
    ("t_max = 30.0", "t_max = inf", "finite"),
    ("samples = 512", "samples = 10", "256"),
    ("d_x = 0.9", "d_x = nan", "finite"),
    ("kx_nodes = 64", "kx_nodes = 64\nthreads = two", "threads"),
    ("kx_nodes = 64", "kx_nodes = 64\nkz_cutoff_sigmas = -1", "kz_cutoff_sigmas"),
    ("kx_nodes = 64", "kx_nodes = 64\nkz_cutoff_sigmas = 0", "kz_cutoff_sigmas"),
    ("position_unit = L", "position_unit = L\n[spectral]\npad_factor = 0", "pad_factor"),
    ("position_unit = L", "position_unit = L\n[spectral]\npad_factor = -2", "pad_factor"),
    ("position_unit = L", "position_unit = L\n[spectral]\nwindow = foo", "window"),
)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_presets_parse():
    for name in PRESET_NAMES:
        config = load_preset(name)
        assert config.scenario == name
    with pytest.raises(ConfigError):
        load_preset("fig9")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        parse_config("not an ini file [")
    with pytest.raises(ConfigError):
        parse_config("[run]\nmode = 4+1\n")
    # both a direct field and a trap block
    text = SMALL_CONFIG + "\n[trap]\neta = 0.06\nomega_tilde_hz = 68e3\nomega_carrier_hz = 1e3\ndelta_m = 9.6e-9\n"
    with pytest.raises(ConfigError):
        parse_config(text)
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG.replace("b = 1.0", "b = banana"))
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG.replace("[time]\nt_max = 30.0\nsamples = 512", "[time]\nsamples = 512"))
    # 3+1 requires d_z
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG.replace("mode = 2+1", "mode = 3+1"))
    for old, new, cause in BAD_INPUTS:
        with pytest.raises(ConfigError, match=cause):
            parse_config(SMALL_CONFIG.replace(old, new))


def test_cli_exit_codes_for_bad_invocations(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert main(["run"]) == 2
    bad = _write(tmp_path, "[run]\nmode = 5d\n")
    assert main(["run", str(bad)]) == 2
    both = _write(tmp_path, SMALL_CONFIG, "a.ini")
    assert main(["run", str(both), "--scenario", "fig1"]) == 2
    capsys.readouterr()
    for i, (old, new, cause) in enumerate(BAD_INPUTS):
        path = _write(tmp_path, SMALL_CONFIG.replace(old, new), f"bad{i}.ini")
        assert main(["run", str(path), "--out", str(tmp_path / f"out{i}")]) == 2
        assert cause in capsys.readouterr().err


def test_overflowing_packet_width_exit_code(tmp_path, capsys):
    # finite in the config, but d_x L overflows to inf in lambda_c
    config = _write(tmp_path, SMALL_CONFIG.replace("d_x = 0.9", "d_x = 1.3e308"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "[packet] width d_x must be finite" in capsys.readouterr().err


def test_threads_override_environment(monkeypatch, capsys):
    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in variables:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert main(["run", "--threads", "1", "--list-scenarios"]) == 0
    assert [os.environ.get(var) for var in variables] == ["1", "1", "1"]
    capsys.readouterr()


def test_cli_list_scenarios(capsys):
    assert main(["run", "--list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(PRESET_NAMES)


def test_small_run_artifacts(tmp_path, capsys):
    config = _write(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out), "--dump-decomposition"]) == 0
    for name in (
        "trajectory.csv",
        "spectrum.csv",
        "report.txt",
        "trajectory_xt.svg",
        "trajectory_xy.svg",
        "spectrum.svg",
        "decomposition_f.csv",
        "decomposition_u.csv",
    ):
        assert (out / name).exists(), name

    header = (out / "trajectory.csv").read_text().splitlines()[:4]
    assert header[0].startswith("# zbsim")
    assert header[1].startswith("# config-sha256:")
    svg = (out / "spectrum.svg").read_text()
    assert "config-sha256" in svg
    capsys.readouterr()


def test_runs_are_byte_identical(tmp_path, capsys):
    config = _write(tmp_path, SMALL_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(config), "--out", str(out1)]) == 0
    assert main(["run", str(config), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "spectrum.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    capsys.readouterr()


def test_csv_floats_round_trip(tmp_path, capsys):
    config = _write(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    lines = [
        line for line in (out / "trajectory.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("t,")
    ]
    first = lines[1].split(",")
    # 17 significant digits reproduce the binary double exactly
    value = float(first[2])
    assert f"{value:.17g}" == first[2]
    capsys.readouterr()


def test_check_oracle_reports_deviation(tmp_path, capsys):
    config = _write(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out), "--check-oracle"]) == 0
    report = (out / "report.txt").read_text()
    assert "matrix reference" in report
    assert (out / "eigenvalues.csv").exists()
    stdout = capsys.readouterr().out
    assert "reference deviation" in stdout


def test_convergence_failure_exit_code(tmp_path, capsys):
    text = SMALL_CONFIG.replace(
        "[numerics]\nkx_nodes = 64",
        "[numerics]\nkx_nodes = 64\nn_max_cap = 4\nconvergence_check = false",
    )
    config = _write(tmp_path, text)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "convergence" in capsys.readouterr().err


def test_weak_field_overflow_exit_code(tmp_path, capsys):
    # b = 1e-4 puts the packet's kx grid at |kx| L ~ 1e5, where the
    # oscillator overlaps overflow long before the tail mass converges
    text = SMALL_CONFIG.replace("b = 1.0", "b = 1e-4").replace(
        "unit = magnetic_length\nd_x = 0.9\nd_y = 1.0\nk0x = 1.4142135623730951",
        "unit = lambda_c\nd_x = 1.0\nd_y = 1.0\nk0x = 0.1",
    )
    config = _write(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Hermite recurrence" in err and "overflowed at level" in err
    assert "L/d_y = 1.41e+04" in err
    assert "nan" not in err


def test_overflow_above_truncation_exit_code(tmp_path, capsys):
    # with a raised cap the overlaps of both kx grids overflow above the
    # converged truncation n_max = 106; those levels are never used
    text = SMALL_CONFIG.replace("d_x = 0.9", "d_x = 0.33").replace(
        "k0x = 1.4142135623730951", "k0x = 0.0"
    ).replace("kx_nodes = 64", "kx_nodes = 512\nn_max_cap = 512")
    config = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert "n_max = 106" in capsys.readouterr().out


def test_imaginary_residue_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("zbsim.dynamics._IMAG_RESIDUE_TOL", -1.0)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "imaginary residue" in err and "Traceback" not in err


def _run_in_subprocess(config, out, threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(zbsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zbsim.cli", "run", str(config), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return (out / "trajectory.csv").read_bytes()


def _csv_table(data: bytes) -> np.ndarray:
    rows = [line for line in data.decode().splitlines() if not line.startswith("#")]
    return np.array([[float(v) for v in row.split(",")] for row in rows[1:]])  # after header


def test_thread_count_reproducibility(tmp_path):
    config = _write(tmp_path, SMALL_CONFIG)
    first = _run_in_subprocess(config, tmp_path / "one-a", 1)
    assert _run_in_subprocess(config, tmp_path / "one-b", 1) == first
    two = _run_in_subprocess(config, tmp_path / "two", 2)
    # positions are in magnetic lengths (position_unit = L)
    assert np.max(np.abs(_csv_table(two) - _csv_table(first))) <= 1e-13


def test_oracle_mismatch_exit_code(tmp_path, capsys):
    # an absurdly tight tolerance forces the mismatch path
    text = SMALL_CONFIG + "\n[oracle]\nenabled = true\ntol_in_l = 1e-16\n"
    config = _write(tmp_path, text)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 4
    assert "reference mismatch" in capsys.readouterr().err


def test_trajectory_csv_columns_consistent(tmp_path, capsys):
    config = _write(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in (out / "trajectory.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert rows[0] == ["t", "x", "y", "x_interband", "y_interband", "x_intraband", "y_intraband"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.allclose(data[:, 1], data[:, 3] + data[:, 5], atol=1e-15)
    assert np.allclose(data[:, 2], data[:, 4] + data[:, 6], atol=1e-15)
    capsys.readouterr()


def test_preset_runs_end_to_end_with_oracle(tmp_path, capsys):
    out = tmp_path / "fig2c"
    assert main(["run", "--scenario", "fig2c", "--out", str(out), "--check-oracle"]) == 0
    report = (out / "report.txt").read_text()
    assert "kappa from trap = 0.115986" in report
    assert "total laser-excitation pairs: 8" in report
    assert "matrix reference" in report
    capsys.readouterr()


def test_svg_outputs_are_well_formed_xml(tmp_path, capsys):
    import xml.etree.ElementTree as ET

    config = _write(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    for name in ("trajectory_xt.svg", "trajectory_xy.svg", "spectrum.svg"):
        root = ET.fromstring((out / name).read_text())
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())
    capsys.readouterr()

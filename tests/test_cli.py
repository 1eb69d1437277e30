import ast
import builtins
import functools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from physics_checks import expected_eigenvalues

import zbsim
import zbsim.dynamics
import zbsim.errors
import zbsim.reference
import zbsim.runner
from zbsim._record import fields
from zbsim.cli import EXIT_CODES, main
from zbsim.errors import ConfigError, ConvergenceError
from zbsim.ionmap import TrapConfig
from zbsim.runner import _SECTIONS, PRESET_NAMES, load_preset, parse_config, preset_text
from zbsim.packet import MAX_ARRAY, MAX_NODES, decompose

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

[output]
position_unit = L
"""


# fig2a's trap block, to stand in for SMALL_CONFIG's [field] section
TRAP = "[trap]\neta = 0.06\nomega_tilde_hz = 68e3\nomega_carrier_hz = 1e3\ndelta_m = 9.6e-9"


def _trap_row(old, new, cause):
    return ("[field]\nb = 1.0", TRAP.replace(old, new), cause)


# (line replaced, replacement, text the error message must contain)
BAD_INPUTS = (
    ("t_max = 30.0", "t_max = inf", "finite"),
    # past TIME_RANGE the time step leaves the normal floats or a phase overflows
    ("t_max = 30.0", "t_max = 1e-320", "t_max = 1e-320 must be within"),
    ("t_max = 30.0", "t_max = 1e308", "t_max = 1e"),
    ("samples = 512", "samples = 10", "256"),
    ("d_x = 0.9", "d_x = nan", "finite"),
    # settings that are not keys: the thread budget is the environment's and
    # the reference check is --check-oracle, with no section of its own; the
    # kx rule's node count and the level floor have no key, and the spectral
    # analysis is fixed, with no section of its own
    ("[numerics]", "[numerics]\nthreads = 2", "unknown key 'threads'"),
    ("[numerics]", "[numerics]\nthreads = 0", "unknown key 'threads'"),
    ("[numerics]", "[numerics]\nkx_nodes = 64", "unknown key 'kx_nodes'"),
    ("[numerics]", "[numerics]\nkx_nodes = 4097", "unknown key 'kx_nodes'"),
    ("position_unit = L", "position_unit = L\n[oracle]\nn_trunc = 60",
     "oracle]; known sections: run, field, trap, packet, time, numerics, output"),
    ("position_unit = L", "position_unit = L\n[spectral]\nwindow = rectangular", "spectral]; known sections"),
    ("position_unit = L", "position_unit = L\n[spectral]\nwindow = boxcar", "spectral]; known sections"),
    ("[numerics]", "[numerics]\nn_max_floor = -7", "unknown key 'n_max_floor'"),
    ("[numerics]", "[numerics]\nn_max_floor = 12", "unknown key 'n_max_floor'"),
    # the level cap, the tail tolerance and the Legendre cutoff: the level
    # bound follows from the array bound, and the other two are constants
    ("[numerics]", "[numerics]\nn_max_cap = 256", "unknown key 'n_max_cap'"),
    ("[numerics]", "[numerics]\ntail_tol = 1e-10", "unknown key 'tail_tol'"),
    ("[numerics]", "[numerics]\nkz_cutoff_sigmas = 6", "unknown key 'kz_cutoff_sigmas'"),
    ("position_unit = L", "position_unit = L\n[spectral]\npad_factor = 0", "spectral]; known sections"),
    ("position_unit = L", "position_unit = L\n[spectral]\npad_factor = -2", "spectral]; known sections"),
    ("position_unit = L", "position_unit = L\n[spectral]\nwindow = foo", "spectral]; known sections"),
    ("position_unit = L", "position_unit = L\n[spectral]\nwindow = hann", "spectral]; known sections"),
    ("[numerics]", "[numerics]\ny_nodes = 40", "unknown key 'y_nodes'"),
    # the kx rule is exact, so its doubling check and the check's knobs are gone
    ("[numerics]", "[numerics]\nconvergence_check = false", "unknown key 'convergence_check'"),
    ("[numerics]", "[numerics]\nconvergence_tol = 1e-9", "unknown key 'convergence_tol'"),
    ("k0x = 1.4142135623730951", "k0x = 1.4142135623730951\ncomponent = 3", "component"),
    # sizes whose arrays would pass 32 MiB, rejected before anything is allocated
    ("[numerics]", "[numerics]\nkz_nodes = 8192", "kz_nodes"),
    # the longitudinal profile and the kz rule, valid values in a 2+1 config
    ("d_y = 1.0", "d_y = 1.0\nd_z = 5", "d_z is read only in 3"),
    ("[numerics]", "[numerics]\nkz_nodes = 7", "kz_nodes is read only in 3"),
    ("[numerics]", "[numerics]\nkz_rule = legendre", "kz_rule is read only in 3"),
    # the padded spectrum has samples x 4 points
    ("samples = 512", "samples = 10000000000000", "samples = 10000000000000 needs"),
    ("position_unit = L", "position_unit = L\n[spectral]\npad_factor = 10000000000000",
     "spectral]; known sections"),
    ("samples = 512", "samples = 1048577", "samples = 1048577 needs a 4194308-point spectrum"),
    # the field and the packet, bounded before any arithmetic on them; the
    # causes are both regular expressions and plain text, so a value written
    # 1e+300 is matched by its start
    ("b = 1.0", "b = 0", "b = 0.0: field ratio b must be in"),
    ("b = 1.0", "b = -1", "b = -1.0: field ratio b must be in"),
    ("b = 1.0", "b = 1e300", "b = 1e"),
    ("b = 1.0", "b = 1e-300", "b = 1e-300: field ratio b"),
    ("b = 1.0", "tesla = 0", "tesla = 0.0: magnetic field must be in"),
    ("b = 1.0", "tesla = -1", "tesla = -1.0: magnetic field"),
    ("b = 1.0", "tesla = 1e-300", "tesla = 1e-300: magnetic field"),
    ("d_y = 1.0", "d_y = 1e300", "got d_y = 1e"),
    ("d_y = 1.0", "d_y = 1e-300", "got d_y = 1e-300 L"),
    ("k0x = 1.4142135623730951", "k0x = -1e300", "got k0x = -1e"),
    _trap_row("eta = 0.06", "eta = 1e300", "eta = 1e"),
    _trap_row("eta = 0.06", "eta = 1e-300", "eta = 1e-300 must be within"),
    _trap_row("68e3", "1e300", "omega_tilde_hz = 1e"),
    _trap_row("omega_carrier_hz = 1e3", "omega_carrier_hz = 1e-300", "omega_carrier_hz = 1e-300 must"),
    _trap_row("delta_m = 9.6e-9", "delta_m = 1e-300", "delta_m = 1e-300 must be within"),
    _trap_row("delta_m = 9.6e-9", "delta_m = 9.6e-9\nion_mass_kg = 0", "ion_mass_kg = 0.0 must be within"),
    _trap_row("delta_m = 9.6e-9", "trap_freq_hz = 0", "trap_freq_hz = 0.0 must be within"),
    # each within its bounds, but the trap frequency hbar / (2 M delta^2) underflows
    _trap_row("delta_m = 9.6e-9", "delta_m = 1e100\nion_mass_kg = 1e100",
              "derived from delta_m and ion_mass_kg"),
    # within their own bounds, but b = 2 eta Omega_tilde / Omega is not
    _trap_row("eta = 0.06", "eta = 1e90", "field ratio b must be in"),
    # sections and keys outside the schema
    ("[numerics]", "[numerics]\nkzrule = legendre", "unknown key 'kzrule'"),
    ("[numerics]", "[numeric]", "unknown section"),
    ("k0x = 1.4142135623730951", "k0x_ = 1.0", "unknown key 'k0x_'"),
    # values are literal: a % is no interpolation, the value fails its own check
    ("[numerics]", "[numerics]\nkz_rule = herm%ite", "unknown kz rule 'herm%ite'"),
    ("position_unit = L", "position_unit = %(x)s", "position_unit must be lambda_c or L, got '%"),
    # lines the reader rejects, named by their line number; a byte-order mark is no line
    ("\n[run]", "b = 1.0\n[run]", "cannot parse config: line 1: 'b = 1.0' comes before the first"),
    ("\n[run]", "\ufeffb = 1.0\n[run]", "cannot parse config: line 1: 'b = 1.0' comes before the first"),
    ("position_unit = L", "position_unit = L\nfoo", "cannot parse config: line 22: 'foo' is neither a"),
    # a value follows '=' alone, and [DEFAULT] is a section like any other
    ("b = 1.0", "b: 1.0", "cannot parse config: line 6: 'b: 1.0' is neither a"),
    ("d_x = 0.9", "d_x : 0.9", "cannot parse config: line 10: 'd_x : 0.9' is neither a"),
    ("[time]", "[DEFAULT]\n[time]", "DEFAULT]; known sections: run, field"),
    ("[time]", "[DEFAULT]\nk0x = 1.0\n[time]", "DEFAULT]; known sections: run, field"),
)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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


def test_line_tables_are_bounded_by_the_level_bound():
    # the highest truncation decompose reaches is the last level of its
    # largest kx rule, 1536 nodes: a rerun on 3072 would need an overlap
    # array past MAX_ARRAY.  The 3+1 line tables hold one row per level pair
    # and folded kz node, and a rule folds onto at most ceil(MAX_NODES / 2)
    config = parse_config(SMALL_CONFIG)
    largest = decompose(config.packet, config.params, config.mode, n_max_floor=1535)
    assert (largest.n_max, largest.kx_nodes.size) == (1535, 1536)
    assert (2 * largest.kx_nodes.size) ** 2 > MAX_ARRAY
    assert largest.n_max * -(-MAX_NODES // 2) <= MAX_ARRAY
    # so no kz rule within its own bound needs a check of its own: the
    # largest rule, an odd one and acceptance criterion 6's all parse
    text_3d = SMALL_CONFIG.replace("mode = 2+1", "mode = 3+1").replace(
        "k0x = 1.4142135623730951", "k0x = 1.4142135623730951\nd_z = 1.0")
    for kz_nodes in (MAX_NODES, MAX_NODES - 1, 2048):
        config = parse_config(text_3d.replace("[numerics]", f"[numerics]\nkz_nodes = {kz_nodes}"))
        assert config.numerics.kz_nodes == kz_nodes


def test_spectrum_bound_admits_its_largest_size():
    # 2^20 samples, padded 4x, fill the 2^22-element bound exactly
    parse_config(SMALL_CONFIG.replace("samples = 512", "samples = 1048576"))


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
        err = capsys.readouterr().err
        assert cause in err and err.count("\n") == 1, (new, err)


@pytest.mark.parametrize("case", ["directory", "latin-1", "out-below-a-file", "out-is-a-file"])
def test_unreadable_config_or_output_path_exits_2(tmp_path, capsys, case):
    config = _write(tmp_path, SMALL_CONFIG)
    latin = tmp_path / "latin.ini"
    latin.write_bytes(SMALL_CONFIG.replace("d_x = 0.9", "d_x = 0.9 ; \u00b5m").encode("latin-1"))
    a_file = _write(tmp_path, "", "a-file")
    args, message = {  # the arguments, and text the one-line message must contain
        "directory": ([str(tmp_path)], f"cannot read config file {tmp_path}: Is a directory"),
        "latin-1": ([str(latin)], f"config file {latin} is not UTF-8 text"),
        "out-below-a-file": ([str(config), "--out", str(a_file / "out")],
                             f"--out {a_file / 'out'}: cannot create the directory"),
        "out-is-a-file": ([str(config), "--out", str(a_file)],
                          f"--out {a_file}: cannot create the directory: File exists"),
    }[case]
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_byte_order_mark_changes_no_output(tmp_path, capsys):
    # the mark is dropped on reading, so the config hash and every file agree
    plain, marked = tmp_path / "plain" / "run.ini", tmp_path / "marked" / "run.ini"
    for path, head in ((plain, b""), (marked, b"\xef\xbb\xbf")):
        path.parent.mkdir()
        path.write_bytes(head + SMALL_CONFIG.encode())
        assert main(["run", str(path), "--out", str(path.parent / "out")]) == 0
    names = sorted(path.name for path in (plain.parent / "out").iterdir())
    assert "report.txt" in names
    assert sorted(path.name for path in (marked.parent / "out").iterdir()) == names
    for name in names:
        assert (plain.parent / "out" / name).read_bytes() == (marked.parent / "out" / name).read_bytes(), name
    capsys.readouterr()


def test_every_error_type_has_an_exit_code(tmp_path, capsys, monkeypatch):
    types = [obj for obj in vars(zbsim.errors).values()
             if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(types) == 3 and set(types) == set(EXIT_CODES)
    assert sorted(code for code, _ in EXIT_CODES.values()) == [2, 3, 4]

    def unconverged(*args, **kwargs):
        raise ConvergenceError("the 48-point Gauss rule did not converge")

    monkeypatch.setattr("zbsim.runner.run", unconverged)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "numerical convergence failure: the 48-point Gauss rule did not converge\n"


def test_every_raise_names_an_exit_code_type_or_a_builtin():
    # one class per exit code: a raise in the package names a zbsim.errors
    # type of EXIT_CODES, or an exception of the builtins
    allowed = {cls.__name__ for cls in EXIT_CODES} | {
        name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    raised = set()
    for path in Path(zbsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
    assert raised and raised <= allowed, raised - allowed
    assert {cls.__name__ for cls in EXIT_CODES} <= raised


def test_oracle_truncation_beyond_the_bound_exit_code(tmp_path, capsys, monkeypatch):
    # SMALL_CONFIG converges at n_max = 31; the reference would need n_trunc = 43
    monkeypatch.setattr("zbsim.reference.MAX_N_TRUNC", 42)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]) == 2
    assert "n_max + 12 = 43, above 42" in capsys.readouterr().err


def test_overflowing_packet_width_exit_code(tmp_path, capsys):
    # finite in the config, but d_x L overflows to inf in lambda_c
    config = _write(tmp_path, SMALL_CONFIG.replace("d_x = 0.9", "d_x = 1.3e308"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "[packet] width d_x must be finite" in capsys.readouterr().err


def test_threads_is_no_flag(tmp_path, capsys):
    # the BLAS thread budget is the environment's alone
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "fig2a", "--threads", "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_docs_list_every_config_key():
    # the key column of each "## [section]" table of docs/config.md, against
    # the fields of each section's record (ionmap.TrapConfig for [trap]),
    # section by section
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    documented = {}
    for block in re.split(r"^## (?=\[)", text, flags=re.M)[1:]:
        rows = [line.split("|") for line in block.splitlines() if line.startswith("|")][2:]
        documented[re.match(r"\[(\w+)\]", block).group(1)] = {
            key.strip(" `"): row[-2] for row in rows for key in row[1].split(",")}
    assert {section: set(rows) for section, rows in documented.items()} == \
        {section: set(fields(record or TrapConfig)) for section, record in _SECTIONS.items()}


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
    for flags in ([], ["--check-oracle"]):  # every CSV, eigenvalues.csv with the oracle
        out1, out2 = tmp_path / f"r1{flags}", tmp_path / f"r2{flags}"
        assert main(["run", str(config), "--out", str(out1), *flags]) == 0
        assert main(["run", str(config), "--out", str(out2), *flags]) == 0
        names = sorted(path.name for path in out1.glob("*.csv"))
        assert ("eigenvalues.csv" in names) == bool(flags)
        assert sorted(path.name for path in out2.glob("*.csv")) == names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    capsys.readouterr()


# the cells of every CSV table, column by column: f a float, d an integer, s a peak label
CSV_COLUMNS = {
    "trajectory.csv": "fffffff",
    "spectrum.csv": "fffs",
    "eigenvalues.csv": "df",
    "decomposition_f.csv": "dffd",
    "decomposition_u.csv": "ddfd",
}


def test_csv_floats_round_trip(tmp_path, capsys):
    # every table a run can write, on fig2a and on a small 3+1 config: four
    # header lines, the column names, and rows of as many cells, each float
    # written with the 17 significant digits that reproduce the binary
    # double exactly, and each label one of the report's peaks
    for i, source in enumerate((["--scenario", "fig2a"], [str(_write(tmp_path, SMALL_3PLUS1))])):
        out = tmp_path / f"out{i}"
        assert main(["run", *source, "--out", str(out), "--check-oracle", "--dump-decomposition"]) == 0
        listed = set(re.findall(r"rel power = \S+  (.+)$", (out / "report.txt").read_text(), re.MULTILINE))
        labels = set()
        for name, kinds in CSV_COLUMNS.items():
            lines = (out / name).read_text().splitlines()
            assert [line[0] for line in lines[:4]] == ["#"] * 4 and not lines[4].startswith("#"), name
            assert len(lines[4].split(",")) == len(kinds) and len(lines) > 5, name
            for line in lines[5:]:
                cells = line.split(",")
                assert len(cells) == len(kinds), (name, line)
                for cell, kind in zip(cells, kinds):
                    if kind == "f":
                        assert "%.17g" % float(cell) == cell, (name, line)
                    elif kind == "d":
                        assert "%d" % int(cell) == cell, (name, line)
                    elif cell:
                        labels.add(cell)
        assert labels and labels <= listed, (source, labels - listed)
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


def test_eigenvalues_follow_the_oracle_truncation(tmp_path, capsys):
    # the table is the spectrum of the checked matrix at its truncation
    # n_max + 12, 4 (n_max + 13) rows
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, SMALL_CONFIG)), "--out", str(out), "--check-oracle"]) == 0
    n_max = int(re.search(r"n_max = (\d+)", capsys.readouterr().out).group(1))
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[4] == "index,energy"
    rows = np.array([line.split(",") for line in lines[5:]], dtype=float)
    assert rows.shape == (4 * (n_max + 13), 2)
    assert np.array_equal(rows[:, 0], np.arange(4 * (n_max + 13)))
    expected = expected_eigenvalues(0.0, n_max + 12, parse_config(SMALL_CONFIG).params)
    assert np.max(np.abs(rows[:, 1] - expected)) < 1e-12


def test_convergence_failure_exit_code(tmp_path, capsys):
    # a packet 30 L wide in y leaves a tail mass of 9e-3 at level 1535, the
    # last that the largest kx rule (1536 nodes) integrates exactly
    config = _write(tmp_path, SMALL_CONFIG.replace("d_y = 1.0", "d_y = 30"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical convergence failure: the truncation needs levels past 1535")
    assert "(d_x = 0.9 L, d_y = 30 L, k0x = 1.41 / L)" in err


def test_kx_rerun_past_the_array_bound_exit_code(tmp_path, capsys, monkeypatch):
    # the floor, a decompose argument and no config key, needs a 3072-node
    # rerun (96 nodes doubled five times), whose overlap array passes MAX_ARRAY
    monkeypatch.setattr(zbsim.runner, "decompose", functools.partial(decompose, n_max_floor=1536))
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "needs levels past 1535 (tail mass " in err
    assert ("the last that 1536 kx nodes integrate exactly, and 3072 nodes pass the "
            "4194304-element bound of the overlap array") in err


def test_packet_far_from_one_magnetic_length_exit_code(tmp_path, capsys):
    # no truncation within the level bound covers d_y = 1e5 L; the message
    # gives the packet in L
    config = _write(tmp_path, SMALL_CONFIG.replace("d_y = 1.0", "d_y = 1e5"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "needs levels past 1535 (tail mass 9.994e-01" in err and "d_y = 1e+05 L" in err


def test_a_kick_of_20_per_l_needs_346_levels_and_passes_the_oracle(tmp_path, capsys):
    # k0x L = 20 has its mean level at 200 and converges at level 346 on the
    # 384-node kx rule; the oracle agrees within 1e-8 L (4.5e-9 L measured)
    text = SMALL_CONFIG.replace("d_x = 0.9", "d_x = 1.0").replace(
        "k0x = 1.4142135623730951", "k0x = 20").replace(
        "t_max = 30.0\nsamples = 512", "t_max = 60.0\nsamples = 1024")
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(out), "--check-oracle"]) == 0
    stdout = capsys.readouterr().out
    assert "n_max = 346," in stdout
    assert float(re.search(r"reference deviation: (\S+) L", stdout).group(1)) < 1e-8
    report = (out / "report.txt").read_text()
    assert "  kx nodes = 384, kz nodes = 1\n" in report


def test_weak_field_overflow_exit_code(tmp_path, capsys):
    # b = 1e-4 and a kick of 0.1 / lambda_c, about 1400 / L: the kx rule sits
    # at |kx| L ~ 1e3, where the oscillator overlaps overflow long before
    # the tail mass converges
    text = SMALL_CONFIG.replace("b = 1.0", "b = 1e-4").replace(
        "unit = magnetic_length\nd_x = 0.9\nd_y = 1.0\nk0x = 1.4142135623730951",
        "unit = lambda_c\nd_x = 2e4\nd_y = 2e4\nk0x = 0.1",
    )
    config = _write(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Hermite recurrence" in err and "overflowed at level" in err
    assert "L/d_y = 0.707" in err
    assert "nan" not in err


@pytest.mark.parametrize("kick", ["1000", "-1000"])
def test_kick_too_strong_for_any_cap_names_the_packet(tmp_path, capsys, kick):
    # k0x L = 1000 needs about (k0x L)^2 / 2 = 5e5 levels at any field: the
    # overlaps overflow long before, and the message blames the packet
    text = SMALL_CONFIG.replace("k0x = 1.4142135623730951", f"k0x = {kick}")
    config = _write(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "too weak" not in err
    assert "overflowed at level" in err
    assert f"(d_x = 0.9 L, d_y = 1 L, k0x = {float(kick):.3g} / L) has its mean level at 5e+05" in err
    assert "no level cap can hold it" in err


def test_kz_rule_that_loses_the_packet_mass_fails(tmp_path, capsys):
    # fig1 on 8 Legendre kz nodes: on the fixed interval of 6 widths the
    # weights lose 4.2e-2 of the packet's kz mass, which stops the run before
    # it writes a trajectory
    config = _write(tmp_path, preset_text("fig1").replace("kz_nodes = 320", "kz_nodes = 8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "kz rule ([numerics] kz_rule = legendre, kz_nodes = 8) has weights summing to 0.957929" in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_overflow_above_truncation_exit_code(tmp_path, capsys, monkeypatch):
    # the overlaps of a 2048-node rule overflow at level 489, above the
    # converged truncation n_max = 106; those levels are never used
    monkeypatch.setattr("zbsim.packet.KX_NODES", 2048)
    text = SMALL_CONFIG.replace("d_x = 0.9", "d_x = 0.33").replace(
        "k0x = 1.4142135623730951", "k0x = 0.0"
    )
    config = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert "n_max = 106" in capsys.readouterr().out


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


def test_oracle_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # an absurdly tight tolerance forces the mismatch path
    monkeypatch.setattr("zbsim.runner.TOL_IN_L", 1e-16)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]) == 4
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


def _env() -> dict:
    """The environment of a fresh interpreter that imports this zbsim."""
    env = dict(os.environ)
    src = str(Path(zbsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _last_line(script: str) -> str:
    """The last stdout line of a script run in a fresh interpreter on this zbsim."""
    proc = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _modules_after_run(args: list[str], package: str) -> str:
    """Exit code of zbsim.cli.main(args) in a fresh interpreter and the
    sorted modules of `package` it left in sys.modules, as one line."""
    return _last_line(
        "import sys, zbsim.cli, zbsim.runner\n"
        f"code = zbsim.cli.main({args!r})\n"
        f"print(code, sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))\n"
    )


# which of the oracle and trap modules are loaded after the imports a run
# starts with, when decompose is called, and when zbsim.cli.main(args) returns
_FOOTPRINT = """\
import json, sys, zbsim.cli, zbsim.runner
def loaded():
    return [m for m in ("zbsim.ionmap", "zbsim.reference") if m in sys.modules]
seen = {"import": loaded()}
decompose = zbsim.runner.decompose
def watched(*args, **kwargs):
    seen["decompose"] = loaded()
    return decompose(*args, **kwargs)
zbsim.runner.decompose = watched
seen["exit"] = zbsim.cli.main(%r)
seen["end"] = loaded()
print(json.dumps(seen))
"""


def test_the_oracle_and_the_trap_mapping_load_only_for_the_runs_that_use_them(tmp_path):
    text_3d = SMALL_CONFIG.replace("mode = 2+1", "mode = 3+1").replace(
        "k0x = 1.4142135623730951", "k0x = 1.4142135623730951\nd_z = 1.0").replace(
        "[numerics]", "[numerics]\nkz_nodes = 8")
    trap = SMALL_CONFIG.replace("[field]\nb = 1.0", TRAP)
    runs = (  # (config, extra flag, modules loaded from decompose on)
        (text_3d, [], []),
        (trap, [], ["zbsim.ionmap"]),
        (SMALL_CONFIG, ["--check-oracle"], ["zbsim.reference"]),
    )
    for i, (text, flags, modules) in enumerate(runs):
        args = ["run", str(_write(tmp_path, text, f"run{i}.ini")), "--out", str(tmp_path / f"out{i}"), *flags]
        seen = json.loads(_last_line(_FOOTPRINT % (args,)))
        assert seen == {"import": [], "decompose": modules, "exit": 0, "end": modules}


def test_a_run_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: its import alone costs about 0.3 s a run
    config = _write(tmp_path, SMALL_CONFIG)
    assert _modules_after_run(["run", str(config), "--out", str(tmp_path / "out")], "scipy") == "0 []"
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert not any(dep.startswith("scipy") for dep in pyproject["project"]["dependencies"])
    assert any(dep.startswith("scipy") for dep in pyproject["project"]["optional-dependencies"]["test"])


def test_a_run_loads_no_openssl(tmp_path):
    # the config hash is the interpreter's own SHA-256: hashlib's OpenSSL
    # bindings cost about 3.7 MB of peak memory
    pytest.importorskip("_sha256")
    config = _write(tmp_path, SMALL_CONFIG)
    args = ["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]
    assert _modules_after_run(args, "_hashlib") == "0 []"


def test_an_oracle_run_imports_no_numpy_ma(tmp_path):
    # numpy.ma costs about 1 MB of peak memory; np.unique with an axis or on
    # the block sizes would import it.  fig1 with 48 kz nodes, as perfbench's
    # fig1-oracle workload
    preset = Path(zbsim.__file__).resolve().parent / "presets" / "fig1.ini"
    config = _write(tmp_path, preset.read_text().replace("kz_nodes = 320", "kz_nodes = 48"))
    args = ["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]
    assert _modules_after_run(args, "numpy.ma") == "0 []"


@pytest.mark.parametrize("axis", ["x", "y"])
def test_nan_oracle_sample_fails_the_deviation_gate(tmp_path, capsys, monkeypatch, axis):
    # a NaN compares false with any tolerance; the gate must still fail.  The
    # NaN goes into one oracle line's sin coefficient, which reaches
    # x = sqrt(2) L Im<A>, or into its cos coefficient, which reaches y
    node_lines = zbsim.reference._node_lines

    def broken(*args):
        lines = node_lines(*args)
        intra = np.flatnonzero(lines[1] == 0)  # the one kz node's intraband lines
        lines[{"x": 5, "y": 4}[axis]][intra[7]] = np.nan
        return lines

    monkeypatch.setattr("zbsim.reference._node_lines", broken)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]) == 4
    assert "deviation nan L" in capsys.readouterr().err


def test_a_shifted_oracle_line_fails_the_bound_and_is_named(tmp_path, capsys, monkeypatch):
    # 1e-5 on the cos coefficient of the strongest intraband oracle line puts
    # sqrt(2) 1e-5 L into its level's |dC|, above the 1e-6 L tolerance
    node_lines, shifted = zbsim.reference._node_lines, []

    def shift(*args):
        lines = node_lines(*args)
        _, band, _, freqs, cos_coef, _ = lines
        intra = np.flatnonzero(band == 0)  # the one kz node's intraband lines
        k = intra[np.argmax(np.abs(cos_coef[intra]))]
        cos_coef[k] += 1e-5
        shifted.append(freqs[k])
        return lines

    monkeypatch.setattr("zbsim.reference._node_lines", shift)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]) == 4
    err = capsys.readouterr().err
    assert "reference mismatch: analytic vs reference deviation 1.4" in err
    assert f"largest term: intraband line at f = {shifted[0]:.9g}, kz = 0 (node 1 of 1): 1.41" in err


SMALL_3PLUS1 = SMALL_CONFIG.replace("mode = 2+1", "mode = 3+1").replace(
    "d_y = 1.0", "d_y = 1.0\nd_z = 1.0").replace("[numerics]", "[numerics]\nkz_nodes = 6")


def test_check_oracle_3plus1_reports_the_folded_grid(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, SMALL_3PLUS1)), "--out", str(out), "--check-oracle"]) == 0
    report = (out / "report.txt").read_text()
    assert "kz nodes = 3 distinct |kz| of a 6-node rule" in report
    assert re.search(r"max \|analytic - matrix reference\| = [0-9.e+-]+ L \(line-table bound", report)
    assert "mirror kz node: line sums agree within" in report
    capsys.readouterr()


NARROW_DZ = """
[run]
mode = 3+1
[field]
b = 1.0
[packet]
unit = magnetic_length
d_x = 0.9
d_y = 1.0
d_z = {d_z}
k0x = 1.0
[time]
t_max = 30.0
samples = 256
"""


@pytest.mark.parametrize("d_z", ["1e-2", "1e-6"])
def test_check_oracle_passes_a_packet_narrow_in_z(tmp_path, capsys, d_z):
    # the default kz rule of a packet this narrow reaches |kz| of about 1e3 /
    # 1e7, where E_{n+1} - E_n keeps few of its digits: the mirror node's lines
    # and its mirror's, summed per band and level, still agree, and every
    # oracle line joins its own level's analytic line
    out = tmp_path / "out"
    args = ["run", str(_write(tmp_path, NARROW_DZ.format(d_z=d_z))), "--out", str(out), "--check-oracle"]
    assert main(args) == 0
    report = (out / "report.txt").read_text()
    assert "mirror kz node: line sums agree within" in report
    capsys.readouterr()


# the trap blocks of report.txt, frozen as text, for a 3+1 [trap] run given
# by its trap frequency and a named ion
TRAP_REPORT_3PLUS1 = """\
trap mapping:
  eta = 0.06, Omega/2pi = 3980 Hz, Omega_tilde/2pi = 68000 Hz
  Delta = 1.24737e-08 m, nu/2pi = 1.3e+06 Hz, M = 4.1489e-26 kg
  kappa from trap = 1.05088

excitation plan (3+1):
  + sigma_x momentum (ad) [p_x, sigma_x] pairs=2
  + sigma_x momentum (bc) [p_x, sigma_x] pairs=2
  +               JC (ad) [phase=3.142] pairs=1
  +              AJC (bc) [phase=3.142] pairs=1
  + sigma_x momentum (ac) [p_z, sigma_x] pairs=2
  - sigma_x momentum (bd) [p_z, sigma_x] pairs=2
  +          carrier (ac) [sigma_y] pairs=1
  +          carrier (bd) [sigma_y] pairs=1
  total laser-excitation pairs: 12
"""


def test_the_trap_report_of_a_3plus1_trap_frequency_run(tmp_path, capsys):
    trap = TRAP.replace("1e3", "3.98e3").replace("delta_m = 9.6e-9", "trap_freq_hz = 1.3e6\nion = mg25")
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, SMALL_3PLUS1.replace("[field]\nb = 1.0", trap))),
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert report[report.index("trap mapping:"):] == TRAP_REPORT_3PLUS1
    capsys.readouterr()


def test_a_perturbed_mirror_node_fails_the_mirror_check(tmp_path, capsys, monkeypatch):
    # eigenvectors scaled by 1 + 1e-9 at kz < 0 change that node's line
    # amplitudes by about 4e-9 of themselves; only the mirror check solves a
    # negative kz, so only it can see this
    solve = zbsim.reference._solve_blocks

    def perturbed(plan, kz):
        vals, vecs = solve(plan, kz)
        vecs[kz < 0.0] *= 1.0 + 1e-9
        return vals, vecs

    monkeypatch.setattr("zbsim.reference._solve_blocks", perturbed)
    config = _write(tmp_path, SMALL_3PLUS1)
    assert main(["run", str(config), "--out", str(tmp_path / "out"), "--check-oracle"]) == 4
    err = capsys.readouterr().err
    assert "the oracle's line sums at kz = -" in err and "differ from those at its mirror" in err


@pytest.mark.parametrize("old, new, message", [
    # the removed doubling check's switch is now an unknown [numerics] key
    ("[numerics]", "[numerics]\nconvergence_check = maybe",
     "[numerics] unknown key 'convergence_check'; known keys: kz_nodes, kz_rule"),
    # the spectral analysis is fixed: its section is unknown
    ("position_unit = L", "position_unit = L\n[spectral]\nwindow = boxcar",
     "unknown section [spectral]; known sections: run, field, trap, packet, time, numerics, output"),
    # a 2+1 run has no longitudinal profile and no kz rule
    ("k0x = 1.4142135623730951", "k0x = 1.4142135623730951\nd_z = 5",
     "[packet] d_z is read only in 3+1 mode; this config is 2+1"),
])
def test_section_errors_carry_one_prefix(tmp_path, capsys, old, new, message):
    path = _write(tmp_path, SMALL_CONFIG.replace(old, new))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_nan_position_sum_exits_3(tmp_path, capsys, monkeypatch):
    band_sums = zbsim.dynamics.band_sums

    def broken(*args):
        bands = band_sums(*args)
        bands[0, 7] = complex(np.nan, np.nan)
        return bands

    monkeypatch.setattr("zbsim.dynamics.band_sums", broken)
    config = _write(tmp_path, SMALL_CONFIG)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "position sums are not finite at 1 of 512 samples" in err


def _command_line(tmp_path, args: list[str], prelude: str | None = None, **streams) -> tuple[int, str, str]:
    """`python -m zbsim.cli` on args in a fresh interpreter, stdout and stderr
    sent to files unless given: its exit code and the two files' text.
    stdout is block-buffered, as by default, so a line left unflushed at
    the exit is lost.  A prelude, a statement run after `import zbsim.runner`,
    runs the same entry point through `python -c` instead."""
    env = {key: value for key, value in _env().items() if key != "PYTHONUNBUFFERED"}
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    command = ["-m", "zbsim.cli"] if prelude is None else [
        "-c", f"import zbsim.runner; {prelude}; from zbsim.cli import entry; entry()"]
    with open(out, "w") as stdout, open(err, "w") as stderr:
        streams = {"stdout": stdout, "stderr": stderr, **streams}
        proc = subprocess.run([sys.executable, *command, *args], env=env, timeout=300, **streams)
    return proc.returncode, out.read_text(), err.read_text()


def test_the_command_line_exits_0_with_every_file_and_line(tmp_path, capsys):
    # the command line ends through os._exit: every output file and every
    # stdout line must be there, as a run through main writes them
    config = _write(tmp_path, SMALL_CONFIG)
    flags = ["--check-oracle", "--dump-decomposition"]
    assert main(["run", str(config), "--out", str(tmp_path / "main"), *flags]) == 0
    expected = capsys.readouterr().out.replace(str(tmp_path / "main"), str(tmp_path / "cli"))
    code, out, err = _command_line(tmp_path, ["run", str(config), "--out", str(tmp_path / "cli"), *flags])
    assert (code, out, err) == (0, expected, "")
    assert out.splitlines()[-1] == f"report: {tmp_path / 'cli' / 'report.txt'}"
    files = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert "eigenvalues.csv" in files and "report.txt" in files
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == files
    for name in files:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "main" / name).read_bytes(), name


@pytest.mark.parametrize("old, new, flags, prelude, code, cause", [
    ("[numerics]", "[numerics]\nkzrule = legendre", [], None, 2,
     "configuration error: [numerics] unknown key 'kzrule'"),
    # 8 Legendre nodes on the interval of 6 widths lose 4.2e-2 of the kz mass
    ("kz_nodes = 6", "kz_nodes = 8\nkz_rule = legendre", [], None, 3,
     "numerical convergence failure: the kz rule"),
    # the config as it stands, against a gate tighter than the check's own rounding
    ("position_unit = L", "position_unit = L", ["--check-oracle"], "zbsim.runner.TOL_IN_L = 1e-12", 4,
     "reference mismatch: analytic vs reference deviation"),
])
def test_the_command_line_exits_with_the_code_and_one_line(tmp_path, old, new, flags, prelude, code, cause):
    config = _write(tmp_path, SMALL_3PLUS1.replace(old, new))
    got, out, err = _command_line(tmp_path, ["run", str(config), "--out", str(tmp_path / "out"), *flags], prelude)
    assert (got, out) == (code, "")
    assert err.startswith(cause) and err.count("\n") == 1 and "Traceback" not in err


def test_a_closed_stdout_ends_without_a_traceback(tmp_path):
    # the run's files are written before its summary lines, whatever happens to them
    config = str(_write(tmp_path, SMALL_CONFIG))
    # stdout closed before the start: the summary goes nowhere, the run succeeds
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m zbsim.cli "$@" >&-', sys.executable, "run", config,
                           "--out", str(tmp_path / "closed")], env=_env(), capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    # stdout a pipe whose reader has gone: exit 1, as Python's EPIPE handling
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = _command_line(tmp_path, ["run", config, "--out", str(tmp_path / "broken")], stdout=write)
    finally:
        os.close(write)
    assert (code, err) == (1, "")
    for out in ("closed", "broken"):
        assert (tmp_path / out / "report.txt").read_text().endswith("\n")


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, unbuffered):
    # stderr closed before the start: the configuration error's line is
    # dropped, and the exit code still names the cause, whether stderr is
    # line-buffered or written through
    env = {key: value for key, value in _env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m zbsim.cli "$@" 2>&-', sys.executable, "run",
                           "--scenario", "fig9", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_output_that_cannot_be_written_exits_1_in_one_line(tmp_path):
    config = str(_write(tmp_path, SMALL_CONFIG))
    with open("/dev/full", "w") as full:
        # stdout on a full device: the run's files are written, its summary
        # fails, and stderr names the error
        code, _, err = _command_line(tmp_path, ["run", config, "--out", str(tmp_path / "full")], stdout=full)
        assert (code, err) == (1, "cannot write output: [Errno 28] No space left on device\n")
        assert (tmp_path / "full" / "report.txt").read_text().endswith("\n")
        # stderr on a full device too: a configuration error's line is lost,
        # the exit code is 1, and nothing reaches stdout
        code, out, _ = _command_line(tmp_path, ["run", "--scenario", "fig9"], stderr=full)
        assert (code, out) == (1, "")
    # an output file that cannot be written: one line naming it, no traceback
    (tmp_path / "blocked" / "trajectory.csv").mkdir(parents=True)
    code, out, err = _command_line(tmp_path, ["run", config, "--out", str(tmp_path / "blocked")])
    assert (code, out) == (1, "")
    assert err.startswith("cannot write output: [Errno 21] Is a directory: ") and err.count("\n") == 1
    assert "trajectory.csv" in err

"""Property test of the input boundary: every config, however wrong, ends in
a documented exit code, and a run that exits 0 wrote only finite numbers.
Each key that docs/config.md bounds exits 2 just outside its bound."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zbsim.cli import main

# values outside most bounds, written as a config would hold them
EXTREMES = ("1e-100", "1e100", "0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf")

# (section, key): values inside the key's bounds, some at their edges; the
# node counts and caps stay small, so a run is short
IN_BOUNDS = {
    ("field", "b"): ("0.3", "1.0", "2.5", "1e-8", "1e8"),
    ("field", "tesla"): ("1e9", "2e9", "1e-6", "1e25"),
    ("packet", "d_x"): ("0.5", "0.9", "1.6", "1e-6", "1e6", "1e5"),
    ("packet", "d_y"): ("0.6", "1.0", "1.4", "1e-6", "1e6", "1e5"),
    ("packet", "d_z"): ("0.5", "2.0", "1e-6", "1e6"),
    ("packet", "k0x"): ("0.0", "1.0", "-2.0", "1e6", "-1e5"),
    ("time", "t_max"): ("5.0", "30.0", "1e-300", "1e300", "1e-10", "1e10"),
    ("time", "samples"): ("256", "300"),
    ("numerics", "n_max_cap"): ("8", "40"),
    ("numerics", "n_max_floor"): ("0", "12", "-1"),  # -1 is below the least value 0
    # removed keys, now unknown: any config that holds one exits 2
    ("numerics", "y_nodes"): ("40",),
    ("numerics", "convergence_check"): ("false",),
    ("numerics", "convergence_tol"): ("1e-9",),
    ("numerics", "kx_nodes"): ("96",),
    ("numerics", "threads"): ("1",),
    ("oracle", "enabled"): ("true",),
    # the windows, and the removed aliases of rect
    ("spectral", "window"): ("hann", "rect", "rectangular", "boxcar"),
    ("numerics", "kz_nodes"): ("4", "12"),
    ("numerics", "kz_rule"): ("hermite", "legendre"),
    ("numerics", "kz_cutoff_sigmas"): ("2.0", "6.0"),
    ("numerics", "tail_tol"): ("1e-10", "1e-3"),
    ("spectral", "pad_factor"): ("1", "4"),
    ("spectral", "detection_floor"): ("1e-3", "0.5"),
    ("spectral", "significant_rel_power"): ("0.01", "0.9"),
    ("oracle", "n_trunc"): ("0", "30"),
    ("oracle", "tol_in_l"): ("1e-6", "1.0"),
    ("trap", "eta"): ("0.06", "0.2", "1e-100", "1e100"),
    ("trap", "omega_tilde_hz"): ("68e3", "20e3"),
    ("trap", "omega_carrier_hz"): ("1e3", "5e3"),
    ("trap", "delta_m"): ("9.6e-9", "1e-8", "1e-100", "1e100"),
    ("trap", "ion_mass_kg"): ("1e-100", "1e100", "1e-25"),
    ("trap", "trap_freq_hz"): ("1e-100", "1e100", "1e6"),
}

TRAP = {"eta": "0.06", "omega_tilde_hz": "68e3", "omega_carrier_hz": "1e3", "delta_m": "9.6e-9"}


def _base(mode, field, unit):
    config = {
        "run": {"mode": mode},
        "packet": {"unit": unit, "d_x": "0.9", "d_y": "1.0", "k0x": "1.0"},
        "time": {"t_max": "20.0", "samples": "256"},
        "numerics": {"n_max_cap": "40"},
        "output": {"position_unit": "L"},
    }
    if mode == "3+1":
        config["packet"]["d_z"] = "1.0"
        config["numerics"]["kz_nodes"] = "8"
    if field == "trap":
        config["trap"] = dict(TRAP)
    else:
        config["field"] = {field: "1.0" if field == "b" else "2e9"}
    return config


def _override(key):
    return st.tuples(st.just(key), st.sampled_from(IN_BOUNDS[key] + EXTREMES))


configs = st.tuples(
    st.sampled_from(("2+1", "3+1")),
    st.sampled_from(("b", "tesla", "trap")),
    st.sampled_from(("magnetic_length", "lambda_c")),
    st.lists(st.sampled_from(sorted(IN_BOUNDS)).flatmap(_override), max_size=3),
    st.booleans(),
)


def _render(config):
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for section, body in config.items()
    )


def _csv_values(path):
    """Every number of a zbsim CSV; comment lines, the header and the peak
    labels of spectrum.csv are skipped ("inf" and "nan" parse as numbers)."""
    rows = [row for row in path.read_text().splitlines() if not row.startswith("#")][1:]
    values = []
    for cell in (cell for row in rows for cell in row.split(",")):
        try:
            values.append(float(cell))
        except ValueError:
            pass
    return values


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs)
# a Legendre kz cutoff far past the underflow of |g_z|^2
@example(("3+1", "b", "magnetic_length",
          [(("numerics", "kz_rule"), "legendre"), (("numerics", "kz_cutoff_sigmas"), "1e300")], False))
def test_every_config_ends_in_a_documented_exit(drawn):
    mode, field, unit, overrides, oracle = drawn
    config = _base(mode, field, unit)
    for (section, key), value in overrides:
        if section in ("field", "trap") and section not in config:
            continue  # the run's field is given the other way
        config.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_render(config))
        args = ["run", str(path), "--out", str(Path(tmp) / "out")]
        code = main(args + ["--check-oracle"] if oracle else args)
        assert code in (0, 2, 3, 4)
        if code == 0:
            for csv in sorted((Path(tmp) / "out").glob("*.csv")):
                assert all(math.isfinite(v) for v in _csv_values(csv)), csv.name


# (section, key): values just outside the key's bound in docs/config.md; the
# widths and the kick are written in magnetic lengths
OUT_OF_BOUNDS = {
    ("field", "b"): ("9.9e-9", "1.1e8"),
    ("field", "tesla"): ("9.9e-7", "1.1e25"),
    ("trap", "eta"): ("9.9e-101", "1.1e100"),
    ("trap", "omega_tilde_hz"): ("9.9e-101", "1.1e100"),
    ("trap", "omega_carrier_hz"): ("9.9e-101", "1.1e100"),
    ("trap", "delta_m"): ("9.9e-101", "1.1e100"),
    ("trap", "ion_mass_kg"): ("9.9e-101", "1.1e100"),
    ("trap", "trap_freq_hz"): ("9.9e-101", "1.1e100"),
    ("packet", "d_x"): ("9.9e-7", "1.1e6"),
    ("packet", "d_y"): ("9.9e-7", "1.1e6"),
    ("packet", "d_z"): ("9.9e-7", "1.1e6"),
    ("packet", "k0x"): ("1.1e6", "-1.1e6"),
    ("time", "t_max"): ("0", "-1"),
    ("time", "samples"): ("255",),
    ("numerics", "n_max_floor"): ("-1",),
    ("numerics", "kz_nodes"): ("4097",),
    ("numerics", "kz_cutoff_sigmas"): ("0", "37.65"),
    ("numerics", "tail_tol"): ("0", "-1e-10"),
    ("spectral", "pad_factor"): ("0",),
    ("oracle", "n_trunc"): ("-1", "512"),
    # removed keys and window aliases: every value is outside, and the
    # message names the key (and the alias)
    ("numerics", "kx_nodes"): ("4097",),
    ("numerics", "threads"): ("0",),
    ("oracle", "enabled"): ("true",),
    ("spectral", "window"): ("rectangular", "boxcar"),
}


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for (section, key), values in OUT_OF_BOUNDS.items() for value in values])
def test_a_value_outside_its_bound_exits_2(section, key, value, capsys):
    config = _base("3+1", "trap" if section == "trap" else "b", "magnetic_length")
    if key == "trap_freq_hz":  # the alternative to delta_m
        del config["trap"]["delta_m"]
    config.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_render(config))
        assert main(["run", str(path), "--out", str(Path(tmp) / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err

"""Output checks for one `zbsim run` invocation.

Every expected value is computed here from the configuration's inputs or
from a property the method must have; nothing is compared against a stored
copy of earlier output.  Each check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CODATA 2018, SI
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
E_CHARGE = 1.602176634e-19
M_ELECTRON = 9.1093837015e-31

# Accuracy the program documents for the analytic engine (analytic vs
# oracle), used here for the initial position as well.
ACCURACY_L = 1e-6
UNIT_SUM_TOL = 1e-8
# "to roundoff": allowed |x - (x_intra + x_inter)| in units of
# eps * (|x_intra| + |x_inter|)
SPLIT_ULPS = 16.0

TRAJECTORY_COLUMNS = ("t", "x", "y", "x_interband", "y_interband", "x_intraband", "y_intraband")
SPECTRUM_COLUMNS = ("freq", "power_x", "power_y", "label")
SVG_FILES = ("trajectory_xt.svg", "trajectory_xy.svg", "spectrum.svg")


@dataclass(frozen=True)
class Expect:
    """What one invocation must produce, derived from its config's inputs."""

    samples: int
    t_max: float
    y0: float  # initial y in the output position unit
    ell: float  # magnetic length in the output position unit
    b: float  # field ratio hbar*omega/mc^2
    oracle: bool

    @property
    def raw_bin(self) -> float:
        """Unpadded angular frequency resolution 2 pi / (samples dt)."""
        return 2.0 * math.pi * (self.samples - 1) / (self.samples * self.t_max)

    def energy(self, n: int) -> float:
        """Landau level E_n = sqrt(1 + n b^2) at kz = 0, in mc^2."""
        return math.sqrt(1.0 + n * self.b * self.b)

    def files(self) -> tuple[str, ...]:
        oracle_files = ("eigenvalues.csv",) if self.oracle else ()
        return ("trajectory.csv", "spectrum.csv") + oracle_files + SVG_FILES + ("report.txt",)


def expect_from_config(text: str, oracle: bool) -> Expect:
    """Derive the expected invariants from an INI configuration text."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(text)
    if cp.has_option("field", "tesla"):
        tesla = cp.getfloat("field", "tesla")
        compton = HBAR / (M_ELECTRON * C_LIGHT)
        ell_lc = math.sqrt(HBAR / (E_CHARGE * tesla)) / compton
        b = math.sqrt(2.0) / ell_lc
    else:
        if cp.has_option("field", "b"):
            b = cp.getfloat("field", "b")
        else:
            kappa = (cp.getfloat("trap", "eta") * cp.getfloat("trap", "omega_tilde_hz")
                     / cp.getfloat("trap", "omega_carrier_hz")) ** 2
            b = 2.0 * math.sqrt(kappa)
        ell_lc = math.sqrt(2.0) / b
    k0x = cp.getfloat("packet", "k0x", fallback=0.0)
    if cp.get("packet", "unit", fallback="lambda_c") == "magnetic_length":
        k0x /= ell_lc
    # the kicked packet starts at y = -k0x L^2 (guiding-centre offset excluded)
    y0_lc = -k0x * ell_lc * ell_lc
    ell = 1.0 if cp.get("output", "position_unit", fallback="lambda_c") == "L" else ell_lc
    return Expect(
        samples=cp.getint("time", "samples"),
        t_max=cp.getfloat("time", "t_max"),
        y0=y0_lc * ell / ell_lc,
        ell=ell,
        b=b,
        oracle=oracle,
    )


def _read_csv(path: Path, columns: tuple[str, ...]) -> tuple[list[list[str]], list[str]]:
    """Rows of a zbsim CSV (comment lines skipped) after its header check."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    problems = []
    if not lines or tuple(lines[0].split(",")) != columns:
        problems.append(f"{path.name}: header is not {','.join(columns)}")
        return [], problems
    return [ln.split(",") for ln in lines[1:]], problems


def _numbers(rows: list[list[str]], ncols: int, name: str) -> tuple[np.ndarray, list[str]]:
    try:
        table = np.array([[float(v) for v in row[:ncols]] for row in rows], dtype=float)
    except ValueError as exc:
        return np.zeros((0, ncols)), [f"{name}: unparsable number ({exc})"]
    table = table.reshape(-1, ncols)
    bad = ~np.isfinite(table)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        return table, [f"{name}: {int(bad.sum())} non-finite values, first in data row {row}"]
    return table, []


def check_files(out: Path, expect: Expect) -> list[str]:
    return [f"missing {name}" for name in expect.files() if not (out / name).is_file()]


def check_trajectory(out: Path, expect: Expect) -> list[str]:
    rows, problems = _read_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS)
    if problems:
        return problems
    table, problems = _numbers(rows, len(TRAJECTORY_COLUMNS), "trajectory.csv")
    if problems:
        return problems
    if table.shape[0] != expect.samples:
        return [f"trajectory.csv: {table.shape[0]} rows, expected {expect.samples}"]
    t, x, y, x_inter, y_inter, x_intra, y_intra = table.T
    eps = np.finfo(float).eps
    grid = np.linspace(0.0, expect.t_max, expect.samples)
    dev = float(np.max(np.abs(t - grid)))
    if dev > 4.0 * eps * expect.t_max:
        problems.append(f"trajectory.csv: t deviates from linspace(0, t_max, samples) by {dev:.3e}")
    for name, total, intra, inter in (("x", x, x_intra, x_inter), ("y", y, y_intra, y_inter)):
        gap = np.abs(total - (intra + inter))
        allowed = SPLIT_ULPS * eps * (np.abs(intra) + np.abs(inter))
        if np.any(gap > allowed):
            row = int(np.argmax(gap - allowed))
            problems.append(
                f"trajectory.csv: {name} != {name}_intraband + {name}_interband "
                f"(gap {gap[row]:.3e} in data row {row})"
            )
    tol = ACCURACY_L * expect.ell
    if abs(x[0]) > tol:
        problems.append(f"trajectory.csv: x(0) = {x[0]:.6e}, expected 0 within {tol:.1e}")
    if abs(y[0] - expect.y0) > tol:
        problems.append(
            f"trajectory.csv: y(0) = {y[0]:.12e}, expected -k0x L^2 = {expect.y0:.12e} within {tol:.1e}"
        )
    return problems


def check_spectrum(out: Path, expect: Expect) -> list[str]:
    rows, problems = _read_csv(out / "spectrum.csv", SPECTRUM_COLUMNS)
    if problems:
        return problems
    table, problems = _numbers(rows, 3, "spectrum.csv")
    if problems:
        return problems
    labels = [row[3] if len(row) > 3 else "" for row in rows]
    e0, e1 = expect.energy(0), expect.energy(1)
    for label, target in (("intraband(0->1)", e1 - e0), ("interband(0<->1)", e1 + e0)):
        freqs = [table[i, 0] for i, lab in enumerate(labels) if lab == label]
        if not any(abs(f - target) <= expect.raw_bin for f in freqs):
            problems.append(
                f"spectrum.csv: no {label} peak within one raw bin ({expect.raw_bin:.4g}) "
                f"of {target:.6g}; labelled at {[round(f, 6) for f in freqs]}"
            )
    return problems


def _report_number(text: str, pattern: str) -> float | None:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else None


def check_report(out: Path, expect: Expect) -> list[str]:
    text = (out / "report.txt").read_text()
    problems = []
    unit_sum = _report_number(text, r"sum U_nn = ([-+0-9.eE]+)")
    if unit_sum is None or not abs(unit_sum - 1.0) <= UNIT_SUM_TOL:
        problems.append(f"report.txt: sum U_nn = {unit_sum}, expected 1 within {UNIT_SUM_TOL:.0e}")
    if expect.oracle:
        dev = _report_number(text, r"max \|analytic - matrix reference\| = ([-+0-9.eE]+) L")
        if dev is None or not dev < ACCURACY_L:
            problems.append(f"report.txt: oracle deviation {dev} L, expected below {ACCURACY_L:.0e} L")
    return problems


def check_eigenvalues(out: Path, expect: Expect) -> list[str]:
    if not expect.oracle:
        return []
    rows, problems = _read_csv(out / "eigenvalues.csv", ("index", "energy"))
    if problems:
        return problems
    if not rows:
        return ["eigenvalues.csv: no rows"]
    return _numbers(rows, 2, "eigenvalues.csv")[1]


def check_run(out: Path, expect: Expect, exit_code: int = 0) -> list[str]:
    """Every check on one invocation's output directory."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    problems = check_files(out, expect)
    if problems:
        return problems
    for check in (check_trajectory, check_spectrum, check_report, check_eigenvalues):
        problems += check(out, expect)
    return problems


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV the run wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }


def compare_digests(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """Differences between a rerun's CSVs and the first run's."""
    names = sorted(set(first) | set(later))
    return [f"{name} differs from the first operation's" for name in names
            if first.get(name) != later.get(name)]

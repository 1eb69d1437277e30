"""Each output check must pass on fresh output and fail on a corrupted copy.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess

import numpy as np
import pytest

import checks
from run import PYTHON, ROOT, SRC, child_env

PRESET = "fig2a"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """One fresh oracle-checked run of a trapped-ion preset and its expectations."""
    out = tmp_path_factory.mktemp("fresh") / PRESET
    subprocess.run(
        [PYTHON, "-m", "zbsim.cli", "run", "--scenario", PRESET, "--check-oracle", "--out", str(out)],
        cwd=ROOT, env=child_env(), check=True, capture_output=True,
    )
    text = (SRC / "zbsim" / "presets" / f"{PRESET}.ini").read_text()
    return out, checks.expect_from_config(text, oracle=True)


@pytest.fixture
def copy(fresh, tmp_path):
    out, expect = fresh
    dst = tmp_path / "copy"
    shutil.copytree(out, dst)
    return dst, expect


def _edit_rows(path, edit):
    """Apply edit(index, fields) to every data row of a zbsim CSV."""
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    for i in range(header + 1, len(lines)):
        fields = lines[i].split(",")
        edit(i - header - 1, fields)
        lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.17g}"  # the program's own float format


def test_fresh_output_passes(fresh):
    out, expect = fresh
    assert checks.check_run(out, expect) == []


def test_nonzero_exit_fails(fresh):
    out, expect = fresh
    assert checks.check_run(out, expect, exit_code=3) == ["exit status 3"]


def test_missing_eigenvalues_fails(copy):
    out, expect = copy
    (out / "eigenvalues.csv").unlink()
    assert checks.check_run(out, expect) == ["missing eigenvalues.csv"]


def test_nan_row_fails(copy):
    out, expect = copy

    def edit(i, fields):
        if i == 1000:
            fields[1:] = ["nan"] * (len(fields) - 1)

    _edit_rows(out / "trajectory.csv", edit)
    problems = checks.check_run(out, expect)
    assert any("non-finite" in p and "row 1000" in p for p in problems), problems


def test_broken_band_split_fails(copy):
    out, expect = copy

    def edit(i, fields):
        if i == 500:
            fields[3] = _fmt(float(fields[3]) * (1.0 + 1e-9))  # x_interband

    _edit_rows(out / "trajectory.csv", edit)
    problems = checks.check_run(out, expect)
    assert any("x != x_intraband + x_interband" in p for p in problems), problems


def test_shifted_initial_y_fails(copy):
    out, expect = copy

    def edit(i, fields):
        if i == 0:  # shift y and its intraband part together: the split stays exact
            for col in (2, 6):
                fields[col] = _fmt(float(fields[col]) + 1e-3)

    _edit_rows(out / "trajectory.csv", edit)
    problems = checks.check_run(out, expect)
    assert len(problems) == 1 and "y(0)" in problems[0], problems


def test_missing_line_label_fails(copy):
    out, expect = copy

    def edit(i, fields):
        if fields[3] == "interband(0<->1)":
            fields[3] = ""

    _edit_rows(out / "spectrum.csv", edit)
    problems = checks.check_run(out, expect)
    assert len(problems) == 1 and "no interband(0<->1) peak" in problems[0], problems


def test_rerun_difference_fails(fresh, copy):
    out, _ = fresh
    rerun, _ = copy
    assert checks.compare_digests(checks.csv_digests(out), checks.csv_digests(rerun)) == []

    def edit(i, fields):
        if i == 7:
            fields[1] = _fmt(np.nextafter(float(fields[1]), np.inf))  # one ulp

    _edit_rows(rerun / "spectrum.csv", edit)
    assert checks.compare_digests(checks.csv_digests(out), checks.csv_digests(rerun)) == [
        "spectrum.csv differs from the first operation's"
    ]

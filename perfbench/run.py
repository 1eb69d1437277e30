"""End-to-end and per-layer benchmark of the zbsim command line.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's `src/`, never from an installed copy.  One operation is one full
pass over the workload's `zbsim run` invocations, each in a fresh
interpreter, one at a time, with OpenBLAS, OpenMP and MKL pinned to one
thread through the environment.  Operations repeat, closed loop, until the
next one would end after `--seconds`.  Every invocation's output is checked
(see checks.py); an operation fails if a process exits non-zero or a check
fails.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` untraced and traced operations alternate and it
holds the per-layer metrics.  The inputs are fixed configurations: the seed
is recorded but draws nothing.  Outputs and a detailed result file go to
`.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks  # sibling module; the script's directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PYTHON = sys.executable

# The CSVs differ in their last digits between BLAS thread counts, so the
# byte-identity checks hold only at a fixed count.  The environment is used
# because `zbsim run --threads` does not override variables already set.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 7  # timed import launches per run, after one warm-up launch
HARD_DEADLINE_S = 160.0  # kill children and stop past this; the run must end by 180 s

# fig1's field, packet and time grid with the kz quadrature cut from 320 to
# 48 nodes, so that the oracle run takes seconds rather than most of a minute.
FIG1_ORACLE_KZ_NODES = 48
FIG1_ORACLE_CONFIG = f"""\
# fig1 (3+1, 2e9 T) with a reduced kz quadrature for the oracle workload
[run]
mode = 3+1

[field]
tesla = 2e9

[packet]
unit = lambda_c
d_x = 2.0
d_y = 2.0
d_z = 2.0
k0x = 1.0

[time]
t_max = 50.0
samples = 1251

[numerics]
kz_rule = legendre
kz_nodes = {FIG1_ORACLE_KZ_NODES}

[output]
position_unit = lambda_c
"""

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"),
    ("runner.parse_config_s", "s"),
    ("packet.decompose_s", "s"),
    ("dynamics.trajectory_s", "s"),
    ("dynamics.line_samples_per_s", "1/s"),
    ("dynamics.lines", "count"),
    ("dynamics.line_samples", "count"),
    ("spectral.spectrum_s", "s"),
    ("spectral.classify_s", "s"),
    ("reference.oracle_s", "s"),
    ("reference.build_matrix_s", "s"),
    ("reference.build_matrix_calls", "count"),
    ("reference.eigensystem_s", "s"),
    ("reference.eigensystem_calls", "count"),
    ("reference.self_s", "s"),
    ("svg.line_plot_s", "s"),
    ("svg.line_plot_calls", "count"),
    ("runner.self_s", "s"),
    ("runner.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
    ("src.lines", "lines"),
)


@dataclass(frozen=True)
class Invocation:
    """One `zbsim run` call of a workload (its --out is added per operation)."""

    label: str
    args: tuple[str, ...]
    config_text: str

    @property
    def oracle(self) -> bool:
        return "--check-oracle" in self.args

    def expect(self) -> checks.Expect:
        return checks.expect_from_config(self.config_text, self.oracle)


def _preset(name: str, *extra: str) -> Invocation:
    text = (SRC / "zbsim" / "presets" / f"{name}.ini").read_text()
    return Invocation(name, ("--scenario", name, *extra), text)


def build_workloads() -> dict[str, list[Invocation]]:
    oracle_cfg = OUT / "configs" / "fig1-oracle.ini"
    oracle_cfg.parent.mkdir(parents=True, exist_ok=True)
    oracle_cfg.write_text(FIG1_ORACLE_CONFIG)
    return {
        "fig1": [_preset("fig1")],
        "fig1-oracle": [Invocation("fig1-oracle", (str(oracle_cfg), "--check-oracle"),
                                   FIG1_ORACLE_CONFIG)],
        "fig2-sweep": [_preset(name, "--check-oracle") for name in ("fig2a", "fig2b", "fig2c")],
    }


WORKLOAD_NAMES = ("fig1", "fig1-oracle", "fig2-sweep")


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float


def spawn(cmd: list[str], log: Path, deadline: float) -> Proc:
    """Run one child to completion; wall time from just before the spawn."""
    with open(log, "wb") as fh:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
        timer = threading.Timer(max(0.0, deadline - launch), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, end - launch, usage.ru_maxrss * 1024 / 1e6)


def measure_setup(log: Path, deadline: float) -> tuple[float, dict]:
    """Interpreter start until zbsim.cli, zbsim.runner, numpy and scipy are
    imported, in a fresh child that then exits."""
    launch = time.monotonic()
    proc = spawn([PYTHON, str(HERE / "child.py"), "setup", repr(launch)], log, deadline)
    text = log.read_text().strip().splitlines()
    if proc.code != 0 or not text:
        raise SystemExit(f"perfbench: importing zbsim failed (exit {proc.code}); see {log}")
    header = json.loads(text[-1])
    if Path(header["zbsim"]).resolve().parent != (SRC / "zbsim").resolve():
        raise SystemExit(f"perfbench: zbsim imported from {header['zbsim']}, not {SRC}")
    return header["imported"] - launch, header


@dataclass
class OpResult:
    traced: bool
    wall_s: float
    rss_mb: float
    exit_codes: list[int]
    problems: list[str]
    digests: dict[str, dict[str, str]]
    traces: list[dict]
    bytes_written: int


def run_op(invs: list[Invocation], op_dir: Path, traced: bool, deadline: float) -> OpResult:
    op_dir.mkdir(parents=True)
    wall, rss, codes, problems, digests, traces, nbytes = 0.0, 0.0, [], [], {}, [], 0
    for inv in invs:
        out = op_dir / inv.label
        zbsim_args = ["run", *inv.args, "--out", str(out)]
        spans_path = op_dir / f"{inv.label}.spans.json"
        if traced:
            launch = time.monotonic()
            cmd = [PYTHON, str(HERE / "child.py"), "trace", repr(launch), str(spans_path), *zbsim_args]
        else:
            cmd = [PYTHON, "-m", "zbsim.cli", *zbsim_args]
        proc = spawn(cmd, op_dir / f"{inv.label}.log", deadline)
        wall += proc.wall_s
        rss = max(rss, proc.rss_mb)
        codes.append(proc.code)
        found = checks.check_run(out, inv.expect(), proc.code)
        problems += [f"{inv.label}: {p}" for p in found]
        if proc.code == 0 and out.is_dir():
            digests[inv.label] = checks.csv_digests(out)
            nbytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        if traced and spans_path.is_file():
            traces.append(json.loads(spans_path.read_text()))
    return OpResult(traced, wall, rss, codes, problems, digests, traces, nbytes)


def layer_totals(op: OpResult) -> dict[str, float]:
    """Per-layer times and counts of one traced operation, summed over its
    invocations.  Self time is a span's duration minus its direct children's."""
    tot: dict[str, float] = defaultdict(float)
    for trace in op.traces:
        spans = trace["spans"]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            dur = s["end"] - s["start"]
            tot[s["name"] + "_s"] += dur
            tot[s["name"] + "_calls"] += 1
            tot[s["name"] + "_self_s"] += dur - child[i]
            tot["lines"] += s.get("lines", 0)
            tot["line_samples"] += s.get("line_samples", 0)
    traj_s = tot["dynamics.trajectory_s"]
    return {
        "runner.parse_config_s": tot["runner.parse_config_s"],
        "packet.decompose_s": tot["packet.decompose_s"],
        "dynamics.trajectory_s": traj_s,
        "dynamics.line_samples_per_s": tot["line_samples"] / traj_s if traj_s > 0 else 0.0,
        "dynamics.lines": tot["lines"],
        "dynamics.line_samples": tot["line_samples"],
        "spectral.spectrum_s": tot["spectral.spectrum_s"],
        "spectral.classify_s": tot["spectral.classify_s"],
        "reference.oracle_s": tot["reference.oracle_s"],
        "reference.build_matrix_s": tot["runner.build_matrix_s"] + tot["reference.build_matrix_s"],
        "reference.build_matrix_calls": tot["runner.build_matrix_calls"] + tot["reference.build_matrix_calls"],
        "reference.eigensystem_s": tot["reference.eigensystem_s"],
        "reference.eigensystem_calls": tot["reference.eigensystem_calls"],
        "reference.self_s": tot["reference.oracle_self_s"],
        "svg.line_plot_s": tot["svg.line_plot_s"],
        "svg.line_plot_calls": tot["svg.line_plot_calls"],
        "runner.self_s": tot["runner.run_self_s"],
        "runner.bytes_written": float(op.bytes_written),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "zbsim").rglob("*.py")))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + HARD_DEADLINE_S
    invs = build_workloads()[workload]
    work = OUT / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # one untimed launch compiles bytecode and warms the file cache; the timed
    # launches are spread over the run, one per round, like the operations
    _, header = measure_setup(work / "setup-warm.log", deadline)
    setup_samples: list[float] = []
    setup_wanted = 0 if trace else SETUP_LAUNCHES

    kinds = (False, True) if trace else (False,)
    ops: list[OpResult] = []
    first_digests: dict[str, dict[str, str]] | None = None
    correct = True
    loop_t0 = time.monotonic()
    while True:
        round_t0 = time.monotonic()
        if len(setup_samples) < setup_wanted:
            setup_samples.append(measure_setup(work / f"setup{len(setup_samples)}.log", deadline)[0])
        for traced in kinds:
            op_dir = work / f"op{len(ops)}"
            op = run_op(invs, op_dir, traced, deadline)
            if first_digests is None and not op.problems:
                first_digests = op.digests
            if first_digests is not None:
                for label, digest in op.digests.items():
                    op.problems += [f"{label}: {p}"
                                    for p in checks.compare_digests(first_digests[label], digest)]
            if op.problems and all(code == 0 for code in op.exit_codes):
                correct = False  # the program ran but its output is wrong
            ops.append(op)
            if op.problems:
                op_dir.rename(work / f"failed-op{len(ops) - 1}")
            else:
                shutil.rmtree(op_dir)
        now = time.monotonic()
        if now + (now - round_t0) > loop_t0 + seconds or now > deadline:
            break
    loop_wall = time.monotonic() - loop_t0
    while len(setup_samples) < setup_wanted and time.monotonic() < deadline:
        setup_samples.append(measure_setup(work / f"setup{len(setup_samples)}.log", deadline)[0])

    failed = [op for op in ops if op.problems]
    plain = [op for op in ops if not op.traced and not op.problems]
    traced_ops = [op for op in ops if op.traced and not op.problems]
    if trace:
        per_op = [layer_totals(op) for op in traced_ops]
        values = {name: median([m[name] for m in per_op]) for name in per_op[0]} if per_op else {}
        imports = [t["imported"] - t["launch"] for op in traced_ops for t in op.traces]
        values["cli.import_s"] = median(imports)
        values["trace.overhead_s"] = (median([op.wall_s for op in traced_ops])
                                      - median([op.wall_s for op in plain]))
        values["src.lines"] = float(src_lines())
        names = PER_LAYER
    else:
        values = {
            "wall_s": median([op.wall_s for op in plain]),
            "setup_s": median(setup_samples),
            "peak_rss_mb": median([op.rss_mb for op in plain]),
        }
        names = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names}
    absent = sorted({name for op in traced_ops for t in op.traces for name in t["absent"]})

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "zbsim": header.get("zbsim"), "numpy": header.get("numpy"), "scipy": header.get("scipy"),
        "thread_env": THREAD_ENV, "setup_samples_s": setup_samples,
        "loop_wall_s": loop_wall, "absent_spans": absent,
        "ops": [{"traced": op.traced, "wall_s": op.wall_s, "rss_mb": op.rss_mb,
                 "exit_codes": op.exit_codes, "problems": op.problems,
                 **({"layers": layer_totals(op)} if op.traced else {})} for op in ops],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))

    print(f"perfbench {workload}: {len(ops)} operations "
          f"({len(traced_ops)} traced), {len(failed)} failed, seed {seed} (inputs are fixed)")
    for op in failed[:5]:
        print("  failed:", "; ".join(op.problems[:3]))
    if absent:
        print("  absent spans (reported as 0):", ", ".join(absent))
    for name, metric in metrics.items():
        print(f"  {workload:12s} {name:30s} {metric['value']:.6g} {metric['unit']}")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "zbsim" / "cli.py").is_file():
        print(f"perfbench: no zbsim source under {SRC}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

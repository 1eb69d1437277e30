"""Command-line front end.

    zbsim run <config.ini> [--out DIR] [--check-oracle] [--threads N]
                           [--dump-decomposition]
    zbsim run --scenario fig2a [...]
    zbsim run --list-scenarios

Exit codes: 0 success, 2 configuration error, 3 numerical-convergence
failure (a truncation or quadrature that did not converge), 4 reference
mismatch beyond tolerance; 1 when stdout or stderr is a pipe whose reader
has gone.

The `zbsim` console script and `python -m zbsim.cli` run entry, which ends
the process through os._exit once main has returned and the standard
streams are flushed: the interpreter's teardown is skipped, so no atexit
handler runs.  main itself returns its exit code as any function does.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    ConfigError,
    ConvergenceError,
    OracleMismatchError,
    QuadratureError,
    TruncationError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_ORACLE = 4

# every zbsim.errors type: its exit code and the prefix of its message
EXIT_CODES = {
    ConfigError: (EXIT_CONFIG, "configuration error"),
    ConvergenceError: (EXIT_CONVERGENCE, "numerical convergence failure"),
    QuadratureError: (EXIT_CONVERGENCE, "numerical convergence failure"),
    TruncationError: (EXIT_CONVERGENCE, "numerical convergence failure"),
    OracleMismatchError: (EXIT_ORACLE, "reference mismatch"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zbsim",
        description="Trembling-motion simulator for a relativistic wave packet "
        "in a uniform magnetic field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one configured run")
    runp.add_argument("config", nargs="?", help="INI configuration file")
    runp.add_argument("--scenario", help="run a shipped preset (fig1, fig2a, fig2b, fig2c)")
    runp.add_argument("--out", default="zbsim-out", help="output directory")
    runp.add_argument("--check-oracle", action="store_true",
                      help="also run the matrix-reference evolution and compare")
    runp.add_argument("--threads", type=int, default=None,
                      help="BLAS thread budget, at least 1; overrides OMP/OPENBLAS/MKL_NUM_THREADS "
                      "(exported before numerics load)")
    runp.add_argument("--dump-decomposition", action="store_true",
                      help="write F_n(kx) and U_mn tables as CSV")
    runp.add_argument("--list-scenarios", action="store_true",
                      help="list shipped presets and exit")
    return parser


def _config_thread_hint(path: str | None) -> int | None:
    """Read [numerics] threads from a config file without loading numerics."""
    if not path or not os.path.exists(path):
        return None
    import configparser
    from pathlib import Path

    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(Path(path).read_text(encoding="utf-8"))
        return cp.getint("numerics", "threads")
    except Exception:
        return None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    threads = args.threads if args.threads is not None else _config_thread_hint(args.config)
    if threads is not None and threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)

    # heavy imports after the thread environment is pinned
    from .runner import PRESET_NAMES, load_config_file, load_preset, run

    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.list_scenarios:
            for name in PRESET_NAMES:
                print(name)
            return EXIT_OK
        if args.scenario:
            if args.config:
                raise ConfigError("give either a config file or --scenario, not both")
            config = load_preset(args.scenario)
        elif args.config:
            config = load_config_file(args.config)
        else:
            raise ConfigError("a config file or --scenario is required")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot create the directory: {exc.strerror}") from exc
        result = run(
            config,
            args.out,
            check_oracle=args.check_oracle,
            dump_decomposition=args.dump_decomposition,
        )
    except tuple(EXIT_CODES) as exc:
        code, cause = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
        print(f"{cause}: {exc}", file=sys.stderr)
        return code

    print(f"run complete: kappa = {result.kappa:.6g}, n_max = {result.n_max}, "
          f"tail = {result.tail_mass:.2e}, significant peaks = {result.richness}")
    if result.oracle_deviation is not None:
        print(f"reference deviation: {result.oracle_deviation:.3e} L")
    print(f"report: {result.report_path}")
    return EXIT_OK


def entry() -> None:
    """main on the command line, then stdout and stderr flushed and the
    process ended through os._exit with main's exit code, without the
    interpreter's teardown.  A stream closed before the start is None and
    is skipped; a broken pipe on either one ends the run with exit code 1
    and no traceback, as Python's own EPIPE handling does."""
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()

"""Command-line front end.

    zbsim run <config.ini> [--out DIR] [--check-oracle] [--dump-decomposition]
    zbsim run --scenario fig2a [...]
    zbsim run --list-scenarios

Exit codes: 0 success, 2 configuration error, 3 numerical-convergence
failure (a truncation or quadrature that did not converge), 4 reference
mismatch beyond tolerance; 1, without a traceback, when output cannot be
written: stdout or stderr a pipe whose reader has gone or a full device, or
an output file that fails.

The BLAS thread budget is the environment's (OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS); neither a flag nor a config file
sets it.

The `zbsim` console script and `python -m zbsim.cli` run entry, which ends
the process through os._exit once main has returned and the standard
streams are flushed: the interpreter's teardown is skipped, so no atexit
handler runs.  main itself returns its exit code as any function does.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .errors import ConfigError, ConvergenceError, OracleMismatchError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_ORACLE = 4

# every zbsim.errors type: its exit code and the prefix of its message
EXIT_CODES = {
    ConfigError: (EXIT_CONFIG, "configuration error"),
    ConvergenceError: (EXIT_CONVERGENCE, "numerical convergence failure"),
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
    runp.add_argument("--dump-decomposition", action="store_true",
                      help="write F_n(kx) and U_mn tables as CSV")
    runp.add_argument("--list-scenarios", action="store_true",
                      help="list shipped presets and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # numpy loads only after the arguments parse, so --help and argument errors stay quick
    from .runner import PRESET_NAMES, load_config_file, load_preset, run

    try:
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
        _to_stderr(f"{cause}: {exc}\n")
        return code

    print(f"run complete: kappa = {result.kappa:.6g}, n_max = {result.n_max}, "
          f"tail = {result.tail_mass:.2e}, significant peaks = {result.richness}")
    if result.oracle_deviation is not None:
        print(f"reference deviation: {result.oracle_deviation:.3e} L")
    print(f"report: {result.report_path}")
    return EXIT_OK


def _to_stderr(text: str) -> None:
    """Write text to stderr and flush it.  On a closed descriptor, as `2>&-`
    leaves it, the text is dropped, so that the exit code stays the cause's;
    any other failed write raises."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError as exc:
        if exc.errno != errno.EBADF:
            raise


def entry() -> None:
    """main on the command line, then stdout and stderr flushed and the
    process ended through os._exit with main's exit code, without the
    interpreter's teardown.  A stream closed before the start is None and
    is skipped, and a stderr on a closed descriptor drops its lines.  Other
    output that cannot be written ends the run with exit code 1 and no
    traceback: silently for a broken pipe, as Python's own EPIPE handling
    does, and otherwise with one line on stderr if stderr can still take
    it."""
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
        _to_stderr("")
    except BrokenPipeError:
        code = 1
    except OSError as exc:
        code = 1
        try:
            if sys.stderr is not None:
                print(f"cannot write output: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr cannot be written either
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()

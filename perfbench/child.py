"""Child process of the benchmark: import timing and the traced CLI run.

    python child.py setup <launch>
        Import zbsim.cli, zbsim.runner, numpy and scipy, then print one JSON
        line with the monotonic time at which the imports finished.
    python child.py trace <launch> <spans.json> <zbsim run arguments...>
        The same imports, then wrap the public zbsim functions at the names
        their callers look up, run zbsim.cli.main on the arguments and write
        the recorded spans to spans.json when the run ends.

<launch> is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so the difference is the
interpreter start plus import time.  The program's source is not touched:
the wrappers are installed from outside, and a name that no longer exists
is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import zbsim.cli
import zbsim.runner
import numpy
import scipy

IMPORTED = time.monotonic()


def _trajectory_counts(result) -> dict:
    """Line count (level pairs x kz nodes) and line x sample evaluations."""
    prov = result.provenance
    lines = int(prov["n_max"]) * int(prov["kz_nodes"])
    return {"lines": lines, "line_samples": lines * int(result.times.size)}


# (owner, attribute, span name, counts taken from the return value)
TARGETS = (
    ("zbsim.runner", "parse_config", "runner.parse_config", None),
    ("zbsim.runner", "run", "runner.run", None),
    ("zbsim.runner", "decompose", "packet.decompose", None),
    ("zbsim.runner", "trajectory", "dynamics.trajectory", _trajectory_counts),
    ("zbsim.runner", "spectrum", "spectral.spectrum", None),
    ("zbsim.runner", "classify_peaks", "spectral.classify", None),
    ("zbsim.runner", "oracle_trajectory", "reference.oracle", None),
    ("zbsim.runner", "build_matrix", "runner.build_matrix", None),
    ("zbsim.runner", "line_plot", "svg.line_plot", None),
    ("zbsim.reference", "build_matrix", "reference.build_matrix", None),
    ("zbsim.reference.TruncatedHamiltonian", "eigensystem", "reference.eigensystem", None),
)


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        parent, _, name = path.rpartition(".")
        owner = _resolve(parent) if parent else None
        return getattr(owner, name, None)


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for owner_path, attr, name, counts in TARGETS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
            else:
                setattr(owner, attr, self._wrap(fn, name, counts))

    def _wrap(self, fn, name, counts):
        tracer = self

        def traced(*args, **kwargs):
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else -1}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                tracer._stack.pop()
            if counts is not None:
                span.update(counts(result))
            return result

        return traced


def main(argv: list[str]) -> int:
    mode, launch = argv[0], float(argv[1])
    header = {"launch": launch, "imported": IMPORTED, "zbsim": zbsim.__file__,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if mode == "setup":
        print(json.dumps(header))
        return 0
    spans_path, cli_args = argv[2], argv[3:]
    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = zbsim.cli.main(cli_args)
        return code
    finally:
        with open(spans_path, "w") as fh:
            json.dump(dict(header, exit=code, spans=tracer.spans, absent=tracer.absent), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The error types, one per exit code of the command line (zbsim.cli):
2 for ConfigError, 3 for ConvergenceError and 4 for OracleMismatchError.
Anything else a run raises is a builtin exception."""


class ConvergenceError(RuntimeError):
    """A truncation, series or quadrature rule failed to reach the requested
    tolerance or one of its checks."""


class ConfigError(ValueError):
    """A run configuration is invalid."""


class OracleMismatchError(RuntimeError):
    """Reference evolution and analytic engine disagree beyond tolerance."""

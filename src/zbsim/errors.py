"""Shared exception types."""


class QuadratureError(RuntimeError):
    """A quadrature rule failed one of its checks: Newton did not converge,
    or the kz weights lose the packet's kz mass."""


class ConvergenceError(RuntimeError):
    """A truncation or series failed to reach the requested tolerance."""


class TruncationError(IndexError):
    """An index beyond the truncated table was requested."""


class ConfigError(ValueError):
    """A run configuration is invalid."""


class OracleMismatchError(RuntimeError):
    """Reference evolution and analytic engine disagree beyond tolerance."""

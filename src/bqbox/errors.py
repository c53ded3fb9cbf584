"""Exception hierarchy shared by all bqbox modules.

The CLI maps these onto distinct exit codes, so raising the right class
matters: ConfigError -> 2, HypothesisError -> 3, ConvergenceError -> 4,
FieldIOError -> 5, DiagnosticsError -> 6.
"""


class BqboxError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BqboxError):
    """Invalid or incomplete configuration (bad preset name, missing key, ...)."""


class DiagnosticsError(BqboxError):
    """A field failed a validity check (non-finite values, broken symmetry)."""


class HypothesisError(BqboxError):
    """An exponent or parameter relation required by the method is violated."""


class ConvergenceError(BqboxError):
    """An iteration (Picard, Cesaro averaging, outer fixed point) did not converge.

    Carries the last residual / history so callers can diagnose how close
    the run came before giving up.
    """

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history if history is not None else []


class FieldIOError(BqboxError):
    """A field file could not be read or written."""

"""Exception hierarchy shared by all bqbox modules.

Each class carries the CLI's exit code for it and the label that starts its
stderr line, so raising the right class is what picks the exit code:
ConfigError -> 2, HypothesisError -> 3, ConvergenceError -> 4,
FieldIOError -> 5, DiagnosticsError -> 6.
"""


class BqboxError(Exception):
    """Base of all errors raised by this package; each subclass sets ``exit_code`` and ``label``."""


class ConfigError(BqboxError):
    """Invalid or incomplete configuration (bad preset name, missing key, ...)."""

    exit_code, label = 2, "config error"


class DiagnosticsError(BqboxError):
    """A field failed a validity check (non-finite values, broken symmetry)."""

    exit_code, label = 6, "diagnostics error"


class HypothesisError(BqboxError):
    """An exponent or parameter relation required by the method is violated."""

    exit_code, label = 3, "hypothesis violated"


class ConvergenceError(BqboxError):
    """An iteration (Picard, Cesaro averaging, outer fixed point) did not converge.

    Carries the last residual / history so callers can diagnose how close
    the run came before giving up.
    """

    exit_code, label = 4, "convergence failure"

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history if history is not None else []


class FieldIOError(BqboxError):
    """A field file could not be read or written; the CLI reports any OSError as one."""

    exit_code, label = 5, "I/O error"

"""Exception hierarchy shared by every module.

Exit-code mapping used by the CLI: DomainError/UsageError -> 2,
ConvergenceError -> 3, a failed numerical check -> 1.
"""


class HconcError(Exception):
    """Base class for all package errors."""


class DomainError(HconcError):
    """An argument is outside the mathematical domain of the operation."""


class UsageError(HconcError):
    """Malformed configuration, file, or CLI input."""


class InternalError(HconcError):
    """An internal consistency check failed (e.g. root bracketing)."""


class ConvergenceError(HconcError):
    """An iterative solver failed to reach its tolerance.

    Carries the last iterate and the residual so callers can report
    diagnostics instead of a bare failure; the message names the residual.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        if residual is not None:
            message = f"{message} (residual {residual:.3g})"
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual

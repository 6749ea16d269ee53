"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1,
NumericalValidationError -> 2, InvariantViolation -> 3.
"""


class CqiSimError(Exception):
    pass


class ConfigError(CqiSimError):
    """Bad or missing configuration input; message names the offending field."""


class NumericalValidationError(CqiSimError):
    """A numerical validity check failed (perturbativity, cross-check, ...);
    ``field`` names the experiment parameter at fault, where there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvariantViolation(CqiSimError):
    """An internal consistency property that should always hold was violated."""

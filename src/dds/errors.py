"""Exception taxonomy shared across the package.

ConfigError (and an OSError, such as an output path that cannot be
created) maps to CLI exit code 2, NumericalError to exit code 3.
"""


class ConfigError(ValueError):
    """Invalid configuration or ill-shaped input."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values or violated a numerical precondition."""


class SamplerDivergedError(NumericalError):
    """A sampling run produced non-finite values; carries the trace up to the failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace

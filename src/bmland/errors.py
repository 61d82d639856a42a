"""Exception types shared across the package."""


class BmlandError(Exception):
    """Base class for all package errors. Each error falls under exactly one
    category: ``ConfigError``, ``NumericalError`` or ``IoError``."""


class ConfigError(BmlandError):
    """Invalid configuration or input; the CLI exits with code 1."""


class NumericalError(BmlandError):
    """A numerical method failed on valid input; the CLI exits with code 2."""


class UnknownPattern(ConfigError):
    pass


class InvalidParams(ConfigError):
    pass


class EmptyS(ConfigError):
    pass


class SNotRealizable(ConfigError):
    pass


class InvalidS(ConfigError):
    pass


class DimensionMismatch(ConfigError):
    pass


class MissingGraph(ConfigError):
    pass


class MissingS(ConfigError):
    pass


class ZeroMatrix(NumericalError):
    pass


class NoOddCycle(NumericalError):
    pass


class Disconnected(NumericalError):
    pass


class SingularBlock(NumericalError):
    pass


class NotPSD(NumericalError):
    pass


class NotNearCritical(NumericalError):
    pass


class UnmatchedEndpoint(NumericalError):
    pass


class ConfigParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    def __init__(self, field, message=None):
        self.field = field
        self.message = message
        detail = f": {message}" if message else ""
        super().__init__(f"config field {field!r}{detail}")

    def __reduce__(self):
        # Unpickling calls the class with ``args``, here the formatted text;
        # rebuild from the fields instead, so the error crosses a process pool.
        return type(self), (self.field, self.message)


class IoError(BmlandError):
    """A file could not be read or written; the CLI exits with code 3."""

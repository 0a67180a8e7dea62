"""Exception types shared across the package."""


class GranpError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GranpError):
    """Operand shapes do not conform to an operation's shape rule."""


class DataError(GranpError):
    """Invalid input data or contract misuse (empty sets, duplicates, ...)."""


class FormatError(GranpError):
    """A file (CSV track file, archive, checkpoint) is malformed."""


class NumericError(GranpError):
    """A numeric failure: NaN loss, non-finite objective, failed gradient check."""

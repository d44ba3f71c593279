"""Exception hierarchy shared by all excellence modules.

Each class carries the process exit code the CLI maps it to.
"""


class ExcellenceError(Exception):
    """Base class for all tool errors."""

    exit_code = 1


class MissingFileError(ExcellenceError):
    """A required input file does not exist or cannot be opened."""

    exit_code = 3


class SourceDecodeError(ExcellenceError):
    """Source file is not valid UTF-8."""

    exit_code = 4

    def __init__(self, message: str, byte_offset: int):
        super().__init__(message)
        self.byte_offset = byte_offset


class PatternError(ExcellenceError):
    """An error-matching pattern failed to compile."""

    exit_code = 5

    def __init__(self, message: str, position: "int | None" = None):
        super().__init__(message)
        self.position = position


class UndefinedMetricError(ExcellenceError):
    """Error level is a ratio over LOC; loc = 0 leaves it undefined."""

    exit_code = 6


class StoreError(ExcellenceError):
    """Base class for snapshot-store failures."""

    exit_code = 7


class OrderingError(StoreError):
    """A snapshot does not advance its project's timeline."""


class CorruptionError(StoreError):
    """A store record is malformed or fails its integrity checks."""

    def __init__(self, message: str, line_number: "int | None" = None):
        super().__init__(message)
        self.line_number = line_number


class InsufficientDataError(ExcellenceError):
    """Too few snapshots for the requested estimate."""

    exit_code = 8


class NotFoundError(ExcellenceError):
    """No snapshot exists at the requested timestamp."""


class IntervalError(ExcellenceError):
    """A rate interval must run from an earlier to a later time."""


class ExtrapolationError(ExcellenceError):
    """Rates are only estimated inside the sampled time range."""


class InvalidCoefficientError(ExcellenceError):
    """The ability coefficient must be finite and positive."""

    exit_code = 2

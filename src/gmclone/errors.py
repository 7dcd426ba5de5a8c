"""Exception hierarchy shared by all gmclone modules."""


class GMCloneError(Exception):
    """Base class for all gmclone errors."""


class InvalidStateError(GMCloneError):
    """A qubit or state vector violates its normalization invariant."""


class DomainError(GMCloneError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ResourceLimitError(GMCloneError):
    """A size guard tripped (register or enumeration too large)."""


class InternalConsistencyError(GMCloneError):
    """A cross-check that must hold by construction failed."""


class MalformedMPSError(GMCloneError):
    """Adjacent site tensors of an MPS have mismatched bond dimensions."""


class StageParseError(GMCloneError):
    """A stage file or export document failed to parse.

    Carries the offending path and 1-based line number so CLI users can
    locate the bad record.
    """

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class UsageError(GMCloneError):
    """Bad command-line arguments (maps to exit code 2)."""

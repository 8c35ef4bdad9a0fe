"""Exception types shared across the package."""

from __future__ import annotations


class QuasidiffError(Exception):
    """Base class for runtime errors raised by this package."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SequenceDomainError(QuasidiffError):
    """A coefficient sequence was evaluated outside its domain."""


class WindowIndexError(QuasidiffError):
    """An indexed window was asked for a value it does not hold."""

    def __init__(self, index: int, start: int, end: int):
        super().__init__(f"index {index} outside window [{start}, {end}]", index)


class PivotError(QuasidiffError):
    """The neutral pivot 1 + p_n is too close to zero to divide by."""

    def __init__(self, index: int, value: float):
        super().__init__(f"near-zero pivot 1 + p_n = {value!r} at n = {index}", index)
        self.value = value


class NumericRangeError(QuasidiffError):
    """A computation left the finite double range, with index context."""


class HypothesisViolation(QuasidiffError):
    """A certificate or bound was requested for data violating its hypotheses."""


class DocumentError(QuasidiffError):
    """An equation document failed to parse or validate."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path

"""Exception hierarchy shared by all infodrift modules.

Two families matter for the CLI exit-code contract: ``DataValidationError``
maps to exit code 2 (bad inputs or configuration), ``EstimatorError`` and
``RemoteError`` map to exit code 3 (runtime failures).
"""

import math


class InfodriftError(Exception):
    """Base class for all errors raised by this package."""


class DataValidationError(InfodriftError):
    """Input data or configuration violates a documented precondition."""


class EstimatorError(InfodriftError):
    """An estimator cannot produce a result from the given data."""


class RemoteError(InfodriftError):
    """A remote fetch failed."""


# ingest
class MalformedRow(DataValidationError):
    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class NonPositivePrice(DataValidationError):
    """A price that is not positive, or not finite."""

    def __init__(self, line: int, value: float, where: str | None = None):
        self.line = line
        kind = "non-positive" if math.isfinite(value) else "non-finite"
        super().__init__(f"{where or f'line {line}'}: {kind} price {value!r}")


class DuplicateDate(DataValidationError):
    pass


class EmptyFile(DataValidationError):
    pass


class InsufficientOverlap(DataValidationError):
    pass


class DuplicateAssetId(DataValidationError):
    pass


class NetworkError(RemoteError):
    pass


class HttpStatusError(RemoteError):
    def __init__(self, status: int, url: str = ""):
        self.status = status
        super().__init__(f"HTTP {status}" + (f" from {url}" if url else ""))


class PayloadParseError(RemoteError):
    pass


# stats / discretize / infoflow
class DegenerateSeries(EstimatorError):
    """A series with no spread. ``row`` is its row when a batch of rows was checked."""

    def __init__(self, message: str = "", row: int | None = None):
        super().__init__(message)
        self.row = row


class TooFewSamples(DataValidationError):
    pass


class LengthMismatch(EstimatorError):
    pass


class EmptyOverlap(TooFewSamples):
    """A lag that leaves no samples to count."""


# kmdrift
class SingularMomentMatrix(EstimatorError):
    pass


# windows
class WindowTooLarge(DataValidationError):
    pass


# synth
class UnstableSpec(DataValidationError):
    pass


# netout
class UnsupportedFormatForShape(DataValidationError):
    pass

"""Exception taxonomy, and the record-line reader, shared across the package.

Two broad families: validation errors (bad inputs, bad files, contract
violations) and numerical errors (a computation failed on otherwise valid
inputs). The CLI maps validation errors to exit code 1 and numerical
errors to exit code 2.
"""

from __future__ import annotations

from collections.abc import Iterator


class SpectralNsrError(Exception):
    """Base class for all package errors.

    ``stage`` is set by the pipeline when the error is re-raised with a
    stage tag; it stays ``None`` for errors raised outside a pipeline run.
    """

    stage: str | None = None


class ValidationError(SpectralNsrError):
    """Invalid input, configuration, or file content."""


class NumericalError(SpectralNsrError):
    """A numerical procedure failed or produced non-finite values."""


# graph construction
class IndexOutOfRange(ValidationError):
    pass


class NegativeWeight(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


# spectral machinery
class ConvergenceFailure(NumericalError):
    pass


class TooLarge(ValidationError):
    """Dense eigendecomposition refused; use the Chebyshev path."""


class DimensionMismatch(ValidationError):
    pass


class NonFiniteResponse(NumericalError):
    pass


class OutOfRange(ValidationError):
    pass


# rules
class EmptyRuleSet(ValidationError):
    pass


class BadParams(ValidationError):
    pass


# symbolic
class UnmappedNode(ValidationError):
    pass


# trainer
class EmptyLabels(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NonFiniteGradient(NumericalError):
    pass


class DivergedLoss(NumericalError):
    pass


# harness
class EmptyDataset(ValidationError):
    pass


# file parsing
class FormatError(ValidationError):
    pass


def records(text: str) -> Iterator[tuple[int, str]]:
    """The lines of a record file that hold a record, stripped, each with
    its number from 1: blank lines and ``#`` comments hold none."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line

"""Exception taxonomy, the text-file and record-line readers and the JSON number test.

Two broad families: validation errors (bad inputs, bad files, contract
violations) and numerical errors (a computation failed on otherwise valid
inputs). The CLI maps validation errors to exit code 1 and numerical
errors to exit code 2.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path


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


def read_text(path: str | Path) -> str:
    """The file ``path`` as UTF-8 text, as every loader reads it; bytes that
    do not decode raise `FormatError` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def records(text: str) -> Iterator[tuple[int, str]]:
    """The lines of a record file that hold a record, stripped, each with
    its number from 1: blank lines and ``#`` comments hold none."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def is_json_number(value, integral: bool = False) -> bool:
    """Whether ``value``, read from JSON, is a number: an int or a float, an
    int only if ``integral``; never a bool, a string, null, a list or an object."""
    return not isinstance(value, bool) and isinstance(value, int if integral else (int, float))

"""Shared temporal types, identifiers, and interval arithmetic.

Timestamps are stored as real-valued seconds throughout the toolkit; the
``MM:SS`` notation is accepted on input and emitted for whole-second values.
Everything here is an immutable value with pure operations, safe to share
across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import IntEnum
from typing import Iterable

QuestionId = str
VideoId = str

_MMSS = re.compile(r"(\d+):(\d{2})\Z")
_PLAIN_SECONDS = re.compile(r"\d+(?:\.\d+)?\Z")


class ToolkitWarning(UserWarning):
    """Base class for non-fatal diagnostics emitted while parsing or scoring."""


class FormatError(ValueError):
    """A malformed token, line, or file in any toolkit input.

    ``str(err)`` renders as ``source:line: reason`` once the error has been
    pinned to a position, so messages always name the offending location.
    """

    def __init__(self, reason: str, *, source: str | None = None, line: int | None = None):
        self.reason = reason
        self.source = source
        self.line = line
        super().__init__(self._render())

    def _render(self) -> str:
        if self.line is not None:
            return f"{self.source or '<input>'}:{self.line}: {self.reason}"
        if self.source is not None:
            return f"{self.source}: {self.reason}"
        return self.reason

    def positioned(self, source: str | None, line: int | None) -> "FormatError":
        """Copy of this error pinned to a file position (existing position wins)."""
        return FormatError(
            self.reason,
            source=self.source if self.source is not None else source,
            line=self.line if self.line is not None else line,
        )


class RelevanceGrade(IntEnum):
    """Three-level graded relevance; larger is more relevant."""

    NOT_RELEVANT = 0
    POSSIBLY_RELEVANT = 1
    DEFINITELY_RELEVANT = 2

    @property
    def is_positive(self) -> bool:
        return self >= RelevanceGrade.POSSIBLY_RELEVANT


@dataclass(frozen=True)
class TimeInterval:
    """A [start, end] span in seconds, the atom of all temporal scoring.

    Zero-length intervals (start == end) are legal degenerate inputs.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        start = float(self.start)
        end = float(self.end)
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"interval bounds must be finite, got [{self.start}, {self.end}]")
        if start < 0:
            raise ValueError(f"interval start must be >= 0, got {start}")
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def length(self) -> float:
        return self.end - self.start


def parse_timestamp(text: str) -> float:
    """Total seconds from an ``MM:SS`` token or a plain decimal-seconds token.

    The minute field may have any number of digits; the second field is
    exactly two digits in 00-59.  Raises FormatError naming the offending
    token otherwise.
    """
    token = text.strip()
    m = _MMSS.fullmatch(token)
    if m:
        seconds = int(m.group(2))
        if seconds >= 60:
            raise FormatError(f"seconds field must be 00-59 in timestamp {token!r}")
        try:
            return float(60 * int(m.group(1)) + seconds)
        except (ValueError, OverflowError):  # more minute digits than int() or a float can hold
            raise FormatError(f"timestamp {token!r} is too large") from None
    if _PLAIN_SECONDS.fullmatch(token):
        return float(token)
    raise FormatError(f"malformed timestamp {token!r}; expected MM:SS or plain seconds")


def format_timestamp(seconds: float) -> str:
    """``MM:SS`` for whole-second values, plain decimal seconds otherwise.

    Inverse of parse_timestamp for every non-negative finite value.
    """
    value = float(seconds)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"cannot format timestamp {seconds!r}")
    if value.is_integer():
        total = int(value)
        return f"{total // 60:02d}:{total % 60:02d}"
    return plain_number(value)


def plain_number(value: float) -> str:
    """repr's exact digits without scientific notation, so parsing round-trips."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    text = repr(float(value))
    # repr uses an exponent only outside [1e-4, 1e16); elsewhere its digits are already plain.
    return format(Decimal(text), "f") if "e" in text else text


def plain_sum(values: Iterable[float]) -> float:
    """Left-to-right float total.

    ``sum`` compensates float rounding from Python 3.12 on, which moves the
    last digits of some totals; every total that reaches a report goes
    through here so reports are identical on every supported interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def intersection_length(a: TimeInterval, b: TimeInterval) -> float:
    """Length of the overlap of two intervals; 0 for disjoint pairs."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def union_length(a: TimeInterval, b: TimeInterval) -> float:
    """Length of the union of two intervals (inclusion-exclusion)."""
    return a.length + b.length - intersection_length(a, b)

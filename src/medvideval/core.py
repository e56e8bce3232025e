"""Shared temporal types, identifiers, and interval arithmetic.

Timestamps are stored as real-valued seconds throughout the toolkit; the
``MM:SS`` notation is accepted on input.
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

# The largest timestamp and the largest interval extension (lambda) accepted,
# in seconds.  An extended interval is then at most 2e100 seconds long, so the
# union of two of them is finite and IoU cannot overflow to 0.
MAX_SECONDS = 1e100


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


class RelevanceGrade(IntEnum):
    """Three-level graded relevance; larger is more relevant."""

    NOT_RELEVANT = 0
    POSSIBLY_RELEVANT = 1
    DEFINITELY_RELEVANT = 2

    @property
    def is_positive(self) -> bool:
        return self >= RelevanceGrade.POSSIBLY_RELEVANT


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """A [start, end] span in seconds, the atom of all temporal scoring.

    Zero-length intervals (start == end) are legal degenerate inputs.  The
    constructor converts both bounds to float and raises ValueError unless
    ``0 <= start <= end <= MAX_SECONDS``.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        start = float(self.start)
        end = float(self.end)
        if not (math.isfinite(start) and end <= MAX_SECONDS):  # NaN and inf fail too
            raise ValueError(f"interval bounds must be finite and at most {MAX_SECONDS:g}, got [{self.start}, {self.end}]")
        if start < 0:
            raise ValueError(f"interval start must be >= 0, got {start}")
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @classmethod
    def _unchecked(cls, start: float, end: float) -> "TimeInterval":
        """An interval from float bounds ``0 <= start <= end`` the caller has already checked."""
        interval = object.__new__(cls)
        object.__setattr__(interval, "start", start)
        object.__setattr__(interval, "end", end)
        return interval

    @property
    def length(self) -> float:
        return self.end - self.start


def quote_token(token: str) -> str:
    """``repr(token)`` for an error message, cut to its first 40 characters plus its length when longer."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token):,} characters)"


def parse_timestamp(text: str) -> float:
    """Total seconds from an ``MM:SS`` token or a plain decimal-seconds token.

    The minute field may have any number of digits; the second field is
    exactly two digits in 00-59; the total is at most MAX_SECONDS.  Raises
    FormatError naming the offending token otherwise.
    """
    token = text.strip()
    m = _MMSS.fullmatch(token)
    if m:
        seconds = int(m.group(2))
        if seconds >= 60:
            raise FormatError(f"seconds field must be 00-59 in timestamp {quote_token(token)}")
        try:
            value = float(60 * int(m.group(1)) + seconds)
        except (ValueError, OverflowError):  # more minute digits than int() or a float can hold
            value = math.inf
    elif _PLAIN_SECONDS.fullmatch(token):
        value = float(token)
    else:
        raise FormatError(f"malformed timestamp {quote_token(token)}; expected MM:SS or plain seconds")
    if value > MAX_SECONDS:
        raise FormatError(f"timestamp {quote_token(token)} is too large, over {MAX_SECONDS:g} seconds")
    return value


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

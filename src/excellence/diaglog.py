"""Count compiler errors in a diagnostics log.

One matching line is one error; multi-line diagnostics count once via their
head line. The default pattern covers the two mainstream shapes,
``...: error: ...`` and ``... error C1234: ...``, and deliberately skips
``warning:`` and ``note:`` lines. Exotic compilers get a pattern override.

The default pattern is one case-sensitive search over the whole log with its
ASCII letters lowered; a user pattern is searched line by line. Both count
the same lines. Every log is folded as bytes and decoded once, a str encoded
first: ``bytes.lower`` changes only 0x41-0x5A, which no UTF-8 multibyte
sequence holds, so folding before the decode gives the text that folding after
it would.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import MissingFileError, PatternError

# ``error(?<=\berror)`` is ``\berror`` that starts with a literal: the engine
# skips to candidate ``error``s instead of testing a boundary at every offset.
DEFAULT_PATTERN_TEXT = r"error(?<=\berror)\b(?:\s+[A-Za-z]*\d+)?\s*:"

# The default pattern, case-sensitive, for the whole log with its ASCII letters
# lowered; without IGNORECASE the engine skips to each literal ``error``. It
# matches what the IGNORECASE pattern matches on each line because, under
# IGNORECASE, ``e``/``r``/``o`` match only their ASCII cases and ``[A-Za-z]``
# matches the ASCII letters plus U+0130, U+0131, U+017F and U+212A, which the
# ASCII fold leaves alone. ``[^\S\n]`` keeps a match inside one line, and the
# ``\r`` of a CRLF is never followed by the ``:`` a match ends with.
_FOLDED_DEFAULT = re.compile(
    r"error(?<=\berror)\b(?:[^\S\n]+[a-z\u0130\u0131\u017f\u212a]*\d+)?[^\S\n]*:")


def split_lines(text: str) -> list[str]:
    """Physical lines split on LF and CRLF only; a final newline ends, not
    opens, a line. Unlike ``str.splitlines`` a lone CR, form feed or Unicode
    line separator stays inside its line."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


class ErrorPattern(NamedTuple):
    """A line pattern that marks a diagnostic as an error."""

    pattern_text: str = DEFAULT_PATTERN_TEXT
    case_sensitive: bool = False

    def compile(self) -> re.Pattern[str]:
        flags = 0 if self.case_sensitive else re.IGNORECASE
        try:
            return re.compile(self.pattern_text, flags)
        except re.error as exc:
            pos = getattr(exc, "pos", None)
            where = f" at position {pos}" if pos is not None else ""
            raise PatternError(
                f"invalid error pattern{where}: {exc.msg}: {self.pattern_text!r}", pos
            ) from exc


DEFAULT_ERROR_PATTERN = ErrorPattern()


class ErrorReport(NamedTuple):
    """Error count plus the 1-based numbers of the lines that matched."""

    log_name: str
    error_count: int
    matched_line_numbers: tuple[int, ...]


def count_errors(
    log_text: "str | bytes",
    pattern: ErrorPattern = DEFAULT_ERROR_PATTERN,
    log_name: str = "",
) -> ErrorReport:
    """Count log lines matching ``pattern``. Line-local and deterministic.

    ``bytes`` are decoded as UTF-8 with replacement.
    """
    if pattern == DEFAULT_ERROR_PATTERN:
        matched = _default_matches(log_text)
    else:
        regex = pattern.compile()
        if isinstance(log_text, bytes):
            log_text = log_text.decode("utf-8", errors="replace")
        matched = tuple(
            number
            for number, hit in enumerate(map(regex.search, split_lines(log_text)), start=1)
            if hit
        )
    return ErrorReport(log_name=log_name, error_count=len(matched), matched_line_numbers=matched)


def _default_matches(log_text: "str | bytes") -> tuple[int, ...]:
    """Numbers of the lines the default pattern matches, in one pass."""
    # Lowers ASCII letters only. A str's lone surrogates come back as U+FFFD; neither
    # is a word character, whitespace, a digit, a newline or a colon, so no match moves.
    if isinstance(log_text, str):
        log_text = log_text.encode("utf-8", "surrogatepass")
    folded = log_text.lower().decode("utf-8", errors="replace")
    matched: list[int] = []
    number, counted_to = 1, 0
    for hit in _FOLDED_DEFAULT.finditer(folded):
        start = hit.start()
        number += folded.count("\n", counted_to, start)
        counted_to = start
        if not matched or matched[-1] != number:
            matched.append(number)
    return tuple(matched)


def count_errors_in_file(path: str, pattern: ErrorPattern = DEFAULT_ERROR_PATTERN) -> ErrorReport:
    """Read a log file and count its error lines.

    Logs are decoded as UTF-8 with replacement; compilers are not trusted to
    emit clean encodings.
    """
    try:
        with open(path, "rb") as f:
            log = f.read()
    except OSError as exc:
        raise MissingFileError(f"cannot open log file: {path} ({exc.strerror})") from exc
    if pattern != DEFAULT_ERROR_PATTERN:  # a per-line search needs only the text: drop the bytes
        log = log.decode("utf-8", errors="replace")
    return count_errors(log, pattern, log_name=path)

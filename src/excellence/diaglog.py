"""Count compiler errors in a diagnostics log.

One matching line is one error; multi-line diagnostics count once via their
head line. The default pattern covers the two mainstream shapes,
``...: error: ...`` and ``... error C1234: ...``, and deliberately skips
``warning:`` and ``note:`` lines. Exotic compilers get a pattern override.

A log file is read in blocks of whole lines, so memory stays at a few blocks
whatever its size; both patterns are line-local. The default pattern is one
case-sensitive search per block with its ASCII letters lowered, which checks
the word boundary before ``error`` on each hit rather than on every ``error``
the search meets; a user pattern is searched line by line. Both count the same
lines. A block is folded as bytes, a str encoded first: ``bytes.lower`` changes
only 0x41-0x5A, which no UTF-8 multibyte sequence holds, nor the ``\\n`` a block
ends at, so the blocks decode to the text that folding after the decode gives.
Each folded block is then decoded and searched as text, so the pattern's classes
are Unicode classes: ``\\s`` matches U+0085 and U+2003, ``\\d`` matches other
scripts' digits, and a byte that is not UTF-8 becomes U+FFFD.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import MissingFileError, PatternError

# ``error(?<=\berror)`` is ``\berror`` that starts with a literal: the engine
# skips to candidate ``error``s instead of testing a boundary at every offset.
# ``[^\S\n]`` keeps a match inside one line, where it is ``\s``.
DEFAULT_PATTERN_TEXT = (r"error(?<=\berror)"
                        r"\b(?:[^\S\n]+[a-z\u0130\u0131\u017f\u212a]*\d+)?[^\S\n]*:")
# The default pattern, case-sensitive, for the whole log with its ASCII letters
# lowered. Under IGNORECASE the letter class matches the ASCII letters and the
# four others, which the ASCII fold leaves alone. It leaves out the lookbehind:
# ``count_errors`` drops a hit that follows a word character, which ``\w`` is
# exactly when ``str.isalnum()`` or ``_``.
_FOLDED_DEFAULT = DEFAULT_PATTERN_TEXT.replace(r"(?<=\berror)", "")
# Bytes per read of a log file, before the rest of the line: below glibc's 128 KiB
# mmap threshold, so each block reuses the heap pages the last one freed.
_BLOCK = 1 << 16


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

    def compile(self) -> re.Pattern[str]:
        try:
            return re.compile(self.pattern_text, re.IGNORECASE)
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
    log_text: "str | bytes | Iterable[bytes]",
    pattern: ErrorPattern = DEFAULT_ERROR_PATTERN,
    log_name: str = "",
) -> ErrorReport:
    """Count log lines matching ``pattern``. Line-local and deterministic.

    ``log_text`` is text, UTF-8 bytes, or byte blocks each of whole lines but
    the last; bytes are decoded as UTF-8 with replacement.
    """
    default = pattern == DEFAULT_ERROR_PATTERN
    regex = re.compile(_FOLDED_DEFAULT) if default else pattern.compile()
    if isinstance(log_text, str) and default:
        # The fold lowers ASCII letters only. Lone surrogates come back as U+FFFD; neither
        # is a word character, whitespace, a digit, a newline or a colon, so no match moves.
        log_text = log_text.encode("utf-8", "surrogatepass")
    if isinstance(log_text, (str, bytes)):
        log_text = (log_text,)
    matched: list[int] = []
    first = 1  # the number of the block's first line
    for block in log_text:
        if default:
            block = block.lower().decode("utf-8", errors="replace")
            number, counted_to = first, 0
            for hit in regex.finditer(block):
                start = hit.start()
                if start and ((c := block[start - 1]).isalnum() or c == "_"):
                    continue
                number += block.count("\n", counted_to, start)
                counted_to = start
                if not matched or matched[-1] != number:
                    matched.append(number)
            first = number + block.count("\n", counted_to)
        else:
            if isinstance(block, bytes):
                block = block.decode("utf-8", errors="replace")
            lines = split_lines(block)
            matched.extend(number for number, hit in enumerate(map(regex.search, lines), first)
                           if hit)
            first += len(lines)
    return ErrorReport(log_name, len(matched), tuple(matched))


def count_errors_in_file(path: str, pattern: ErrorPattern = DEFAULT_ERROR_PATTERN) -> ErrorReport:
    """Read a log file in blocks of whole lines and count its error lines.

    Logs are decoded as UTF-8 with replacement; compilers are not trusted to
    emit clean encodings.
    """
    try:
        with open(path, "rb") as f:  # blocks of _BLOCK bytes, each with the rest of its last line
            blocks = (block + f.readline() for block in iter(lambda: f.read(_BLOCK), b""))
            return count_errors(blocks, pattern, log_name=path)
    except OSError as exc:
        raise MissingFileError(f"cannot open log file: {path} ({exc.strerror})") from exc

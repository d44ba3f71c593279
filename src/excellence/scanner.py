"""Comment- and string-aware line census for C-like source files.

Classifies every physical line as code, comment, or blank and counts
``for``/``while`` keywords, driven by a five-state machine (normal, line
comment, block comment, string literal, char literal) with backslash-escape
handling inside literals so that ``"/*"`` in a string never opens a comment.

Counting conventions (the scanner and its test oracle share these):

* CRLF is normalized to LF; a final line without a trailing newline still
  counts as a line.
* A line is a comment line only when every non-whitespace character on it,
  delimiters included, lies inside a comment. Lines mixing code and a
  trailing comment are code lines.
* Whitespace-only lines are blank unless they sit inside a block comment.
* Block comments do not nest; a line comment ends at the newline.
* An unterminated string or char literal ends at the newline, except that a
  backslash immediately before the newline continues it onto the next line.
* Keywords are matched as whole identifiers; alphanumerics and ``_`` extend
  an identifier. Keywords inside comments or literals are never counted.
* loc = total_lines - comment_lines, so blank lines count toward loc.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

from .errors import MissingFileError, SourceDecodeError

LOOP_KEYWORDS = ("for", "while")


class LineClass(enum.Enum):
    CODE = "code"
    COMMENT = "comment"
    BLANK = "blank"


@dataclass(frozen=True)
class SourceStats:
    """Per-file line and loop census."""

    file_name: str
    total_lines: int
    comment_lines: int
    blank_lines: int
    loc: int
    for_count: int
    while_count: int
    unterminated_comment: bool = False


class _State(enum.Enum):
    NORMAL = enum.auto()
    BLOCK_COMMENT = enum.auto()
    STRING = enum.auto()
    CHAR = enum.auto()


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def split_lines(text: str) -> list[str]:
    """Physical lines split on LF and CRLF only; a final newline ends, not
    opens, a line. Unlike ``str.splitlines`` a lone CR, form feed or Unicode
    line separator stays inside its line."""
    text = text.replace("\r\n", "\n")
    if not text:
        return []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _analyze(text: str) -> tuple[list[LineClass], int, int, bool]:
    lines = split_lines(text)
    classes: list[LineClass] = []
    keyword_counts = {kw: 0 for kw in LOOP_KEYWORDS}

    state = _State.NORMAL
    escape = False  # pending backslash escape inside a literal

    for line in lines:
        in_block_at_start = state is _State.BLOCK_COMMENT
        has_code = False
        ident: list[str] = []

        def flush() -> None:
            token = "".join(ident)
            if token in keyword_counts:
                keyword_counts[token] += 1
            ident.clear()

        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if state is _State.NORMAL:
                if _is_ident_char(ch):
                    ident.append(ch)
                    has_code = True
                    i += 1
                    continue
                flush()
                nxt = line[i + 1] if i + 1 < n else ""
                if ch == "/" and nxt == "*":
                    state = _State.BLOCK_COMMENT
                    i += 2
                elif ch == "/" and nxt == "/":
                    break  # rest of the line is a line comment
                elif ch == '"':
                    state = _State.STRING
                    escape = False
                    has_code = True
                    i += 1
                elif ch == "'":
                    state = _State.CHAR
                    escape = False
                    has_code = True
                    i += 1
                else:
                    if not ch.isspace():
                        has_code = True
                    i += 1
            elif state is _State.BLOCK_COMMENT:
                if ch == "*" and i + 1 < n and line[i + 1] == "/":
                    state = _State.NORMAL
                    i += 2
                else:
                    i += 1
            else:  # STRING or CHAR
                if not ch.isspace():
                    has_code = True
                quote = '"' if state is _State.STRING else "'"
                if escape:
                    escape = False
                elif ch == "\\":
                    escape = True
                elif ch == quote:
                    state = _State.NORMAL
                i += 1

        if state is _State.NORMAL:
            flush()
        elif state in (_State.STRING, _State.CHAR):
            if escape:
                escape = False  # escaped newline: literal continues
            else:
                state = _State.NORMAL  # unterminated literal ends at EOL

        if has_code:
            classes.append(LineClass.CODE)
        elif any(not ch.isspace() for ch in line):
            classes.append(LineClass.COMMENT)
        elif in_block_at_start:
            classes.append(LineClass.COMMENT)
        else:
            classes.append(LineClass.BLANK)

    unterminated = state is _State.BLOCK_COMMENT
    return classes, keyword_counts["for"], keyword_counts["while"], unterminated


def classify_lines(source_text: str) -> list[LineClass]:
    """Classify each physical line of ``source_text`` as code/comment/blank."""
    return _analyze(source_text)[0]


def scan_source(source_text: str, file_name: str = "") -> SourceStats:
    """Census ``source_text``: line classes plus for/while keyword counts."""
    classes, for_count, while_count, unterminated = _analyze(source_text)
    total = len(classes)
    comment = sum(1 for c in classes if c is LineClass.COMMENT)
    blank = sum(1 for c in classes if c is LineClass.BLANK)
    return SourceStats(
        file_name=file_name,
        total_lines=total,
        comment_lines=comment,
        blank_lines=blank,
        loc=total - comment,
        for_count=for_count,
        while_count=while_count,
        unterminated_comment=unterminated,
    )


def scan_file(path: str) -> SourceStats:
    """Read and scan a source file; UTF-8 only."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise MissingFileError(f"cannot open source file: {path} ({exc.strerror})") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SourceDecodeError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}", exc.start
        ) from exc
    return scan_source(text, file_name=os.path.basename(path))

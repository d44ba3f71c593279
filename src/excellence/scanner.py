"""Comment- and string-aware line census for C-like source files.

Classifies every physical line as code, comment, or blank and counts
``for``/``while`` keywords. One compiled token regex finds the comments and
literals (line comment, block comment, string literal, char literal; escapes
inside literals are part of the token, so ``"/*"`` in a string never opens a
comment), and a single ``re.sub`` turns the text into a *code mask*: each
comment becomes one space plus its newlines, and each line segment of a
literal becomes one ``"`` if it holds a non-space character and stays as it
is otherwise. Every newline survives, so the mask's lines line up with the
text's. A line is code when its mask line is not blank; otherwise it is a
comment when the original line is not blank or starts inside a block
comment, and blank when neither holds. Keywords are counted on the mask.
``\\w``, ``\\b`` and ``\\s`` in a ``str`` pattern follow ``str.isalnum()``/``_``
and ``str.isspace()``, which keeps the conventions below.

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
import re

from .errors import MissingFileError, SourceDecodeError
from .metrics import SourceStats  # re-exported: the census type lives beside its metrics

LOOP_KEYWORDS = ("for", "while")


class LineClass(enum.Enum):
    CODE = "code"
    COMMENT = "comment"
    BLANK = "blank"


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


# Leftmost match wins, so a token starts only where the text is code: a
# ``/*`` inside a literal or a quote inside a comment is consumed by the
# token that encloses it. Every alternative starts with a literal character,
# so the engine skips straight to the next ``/``, ``"`` or ``'``.
_TOKEN = re.compile(
    r"""
      //[^\n]*                # line comment
    | /\*(?:.*?\*/|.*)         # block comment; an unterminated one runs to EOF
    | "(?:[^"\\\n]|\\.)*"?     # string literal; a backslash escapes even a newline
    | '(?:[^'\\\n]|\\.)*'?     # char literal
    """,
    re.VERBOSE | re.DOTALL,
)
# ``kw(?<=\bkw)\b`` is ``\bkw\b`` that starts with a literal, so the engine
# searches for the keyword instead of testing a boundary at every offset.
_LOOPS = {kw: re.compile(rf"{kw}(?<=\b{kw})\b") for kw in LOOP_KEYWORDS}


def _analyze(source_text: str) -> tuple[list[LineClass], int, int, bool]:
    lines = split_lines(source_text)
    text = source_text.replace("\r\n", "\n")
    block_lines: list[int] = []  # indexes of lines that start inside a block comment
    line_no = 0  # index of the line that holds ``pos``
    pos = 0
    unterminated = False

    def mask(m: re.Match[str]) -> str:
        nonlocal line_no, pos, unterminated
        token = m[0]
        if token[0] != "/":  # literal: each of its lines becomes blank or one quote
            return "\n".join('"' if seg.strip() else seg for seg in token.split("\n"))
        newlines = token.count("\n")
        if token[1] == "*":
            line_no += text.count("\n", pos, m.start())
            pos = m.end()
            block_lines.extend(range(line_no + 1, line_no + newlines + 1))
            line_no += newlines
            unterminated = len(token) < 4 or not token.endswith("*/")  # "/*/" stays open
        return " " + "\n" * newlines

    code = _TOKEN.sub(mask, text)
    classes = [
        LineClass.CODE if code_line.strip()
        else LineClass.COMMENT if line.strip()
        else LineClass.BLANK
        for line, code_line in zip(lines, code.split("\n"))
    ]
    for j in block_lines:  # a final newline inside a comment opens no line
        if j < len(classes) and classes[j] is LineClass.BLANK:
            classes[j] = LineClass.COMMENT
    for_count = len(_LOOPS["for"].findall(code))
    while_count = len(_LOOPS["while"].findall(code))
    return classes, for_count, while_count, unterminated


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

"""Comment- and string-aware line census for C-like source files.

Classifies every physical line as code, comment, or blank and counts
``for``/``while`` keywords. One compiled token regex splits the text into
code and tokens, the comments and literals (line comment, block comment,
string literal, char literal; escapes inside literals are part of the token,
so ``"/*"`` in a string never opens a comment), and turns it into a *code
mask*: a comment becomes ``//`` on each of its lines, and each line segment of
a literal becomes one ``"`` if it holds a non-space character and stays as it
is otherwise. ``//`` cannot come from code, where it would have opened a
comment. Every newline survives, so the mask's lines line up with the text's.
Two multi-line regexes count in C: a blank line holds only spaces, and a
comment line only spaces and ``//`` markers, at least one, also when it starts
inside a block comment. Every other line is code: a code ``/`` never comes just
before a marker, where it would have opened a line comment, nor just before
another code ``/``, so it leaves an odd run of ``/`` that markers alone never
make. Keywords are counted on the mask too.
``\\w``, ``\\b`` and ``\\s`` in a ``str`` pattern follow ``str.isalnum()``/``_``
and ``str.isspace()``, which keeps the conventions below.

Counting conventions (the scanner and its test oracle share these):

* CRLF is normalized to LF; a final line without a trailing newline still
  counts as a line. The token pattern reads a CRLF in place, with no
  normalized copy of the text: a CR is whitespace wherever the mask is
  searched, and a backslash just before a CRLF escapes the whole break.
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


# Leftmost match wins, so a token starts only where the text is code: a
# ``/*`` inside a literal or a quote inside a comment is consumed by the
# token that encloses it. Every alternative starts with a literal character,
# so the engine skips straight to the next ``/``, ``"`` or ``'``. The loops are
# unrolled (``normal* (special normal*)*``), and the one group makes
# ``_TOKEN.split`` put the tokens at the odd indexes.
_TOKEN = re.compile(
    r"""(
      //[^\n]*                          # line comment
    | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/    # block comment
    | /\*.*                             # unterminated block comment: runs to EOF
    | "[^"\\\n]*(?:\\(?:\r\n|.)[^"\\\n]*)*"?   # string literal; a backslash escapes even a newline
    | '[^'\\\n]*(?:\\(?:\r\n|.)[^'\\\n]*)*'?   # char literal
    )""",
    re.VERBOSE | re.DOTALL,
)
# A blank line holds nothing but spaces, a comment line nothing but spaces and
# markers. ``scan_source`` searches the mask framed by a ``\n`` at each end, so every
# line has one before and one after it; a leading literal lets the engine skip to
# each newline instead of trying every offset.
_BLANK = r"[^\S\n]*"
_COMMENT = r"[^\S\n]*//(?:[^\S\n]|//)*"
_BLANK_LINE = re.compile(rf"\n{_BLANK}(?=\n)")
_COMMENT_LINE = re.compile(rf"\n{_COMMENT}(?=\n)")
# ``kw(?<=\bkw)\b`` is ``\bkw\b`` that starts with a literal, so the engine
# searches for the keyword instead of testing a boundary at every offset.
_LOOPS = {kw: re.compile(rf"{kw}(?<=\b{kw})\b") for kw in LOOP_KEYWORDS}


def _mask(source_text: str) -> tuple[str, int, bool]:
    """The code mask of ``source_text``, its number of lines and whether a block
    comment is left open."""
    total = source_text.count("\n") + (source_text != "" and not source_text.endswith("\n"))
    parts = _TOKEN.split(source_text)
    last = parts[-2] if len(parts) > 1 else ""
    unterminated = last.startswith("/*") and (len(last) < 4 or not last.endswith("*/"))
    parts[1::2] = [
        "//" + "\n//" * token.count("\n") if token[0] == "/"
        else '"' if "\n" not in token
        else "\n".join('"' if seg.strip() else seg for seg in token.split("\n"))
        for token in parts[1::2]
    ]
    return "".join(parts), total, unterminated


def classify_lines(source_text: str) -> list[LineClass]:
    """Classify each physical line of ``source_text`` as code/comment/blank."""
    mask, total, _ = _mask(source_text)
    return [  # re's cache compiles the two shapes on first use, never in ``scan``
        LineClass.BLANK if re.fullmatch(_BLANK, line)
        else LineClass.COMMENT if re.fullmatch(_COMMENT, line)
        else LineClass.CODE
        for line in mask.split("\n", total)[:total]
    ]


def scan_source(source_text: str, file_name: str = "") -> SourceStats:
    """Census ``source_text``: line classes plus for/while keyword counts."""
    mask, total, unterminated = _mask(source_text)
    framed = "\n" + mask + "\n"
    # A final newline opens no line: the empty one after it is not counted, nor the
    # ``//`` it leaves there when it is inside a block comment.
    blank = len(_BLANK_LINE.findall(framed)) - (mask == "" or mask.endswith("\n"))
    comment = len(_COMMENT_LINE.findall(framed)) - (unterminated and source_text.endswith("\n"))
    return SourceStats(
        file_name=file_name,
        total_lines=total,
        comment_lines=comment,
        blank_lines=blank,
        loc=total - comment,
        for_count=len(_LOOPS["for"].findall(mask)),
        while_count=len(_LOOPS["while"].findall(mask)),
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
    del raw  # the scan holds the text alone
    return scan_source(text, file_name=os.path.basename(path))

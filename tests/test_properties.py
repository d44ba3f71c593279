"""Property-based tests: generated inputs against independent references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from excellence.diaglog import ErrorPattern, count_errors
from excellence.scanner import classify_lines, scan_source

from scanner_oracle import oracle_scan

_FIELDS = ("total_lines", "comment_lines", "blank_lines", "loc",
           "for_count", "while_count", "unterminated_comment")

# C fragments, line-ending and whitespace oddities, and non-ASCII characters
# for which str.isalnum() is true.
_SOURCE_ALPHABET = (
    "for", "while", "fo", "r", "/*", "*/", "//", "/", "*", '"', "'", "\\",
    "\n", "\r\n", "\r", "\x0c", "\x00", "　", " ", "\t",
    "x", "_", "1", ";", "é", "²", "٣",
)
_sources = st.lists(st.sampled_from(_SOURCE_ALPHABET), max_size=80).map("".join)


@settings(max_examples=500, deadline=None)
@given(_sources)
def test_scanner_matches_oracle(text):
    stats = scan_source(text)
    expected = oracle_scan(text)
    assert {name: getattr(stats, name) for name in _FIELDS} == \
        {name: expected[name] for name in _FIELDS}
    assert [c.value for c in classify_lines(text)] == expected["classes"]


# The default error pattern before it was rewritten to start with a literal.
_OLD_DEFAULT_PATTERN_TEXT = r"\berror\b(?:\s+[A-Za-z]*\d+)?\s*:"

_LOG_ALPHABET = (
    "error", "Error", "ERROR", "eRrOr", "terror", "error_count", "errors.c",
    "Error 1", "_error:", "error C2065:", "error LNK2019", "warning", "é", "ß",
    "٣", "2", "C", "x", "_", ":", " ", "\t", "\x0c", "　", "(", ")", ".",
)
_log_lines = st.lists(st.sampled_from(_LOG_ALPHABET), max_size=12).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.lists(_log_lines, max_size=20), st.sampled_from(("\n", "\r\n")))
def test_default_error_pattern_matches_old_text(lines, newline):
    log = newline.join(lines)
    old = count_errors(log, ErrorPattern(_OLD_DEFAULT_PATTERN_TEXT))
    new = count_errors(log)
    assert new.matched_line_numbers == old.matched_line_numbers

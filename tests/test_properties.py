"""Property-based tests: generated inputs against independent references."""

import os
import tempfile
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from excellence.diaglog import ErrorPattern, count_errors
from excellence.history import QualitySnapshot, append_snapshot, load_trajectory
from excellence.scanner import SourceStats, classify_lines, scan_source

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



# Project ids mix arbitrary text with non-BMP characters, quotes, backslashes
# and line breaks, the characters a JSON Lines writer must escape or keep.
_project_ids = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\r\u2028😀𝔘')),
                       max_size=8)
_hours = st.floats(min_value=0, allow_nan=False, allow_infinity=False)


@st.composite
def _snapshot(draw, project_id, t_hours):
    comments = draw(st.integers(0, 10**6))
    loc = draw(st.integers(1, 10**6))
    stats = SourceStats(file_name=draw(st.text(max_size=8)),
                        total_lines=comments + loc, comment_lines=comments,
                        blank_lines=draw(st.integers(0, comments + loc)), loc=loc,
                        for_count=draw(st.integers(0, 10**4)),
                        while_count=draw(st.integers(0, 10**4)))
    offset = timezone(timedelta(minutes=draw(st.integers(-1439, 1439))))
    wall_clock = datetime(2026, 1, 1, tzinfo=offset) + \
        timedelta(microseconds=draw(st.integers(0, 10**15)))
    return QualitySnapshot.create(project_id, wall_clock, t_hours, stats,
                                  draw(st.integers(0, 10**6)))


@st.composite
def _interleaved_snapshots(draw):
    """Snapshots of up to three projects, each project's hours strictly increasing."""
    projects = draw(st.lists(_project_ids, min_size=1, max_size=3, unique=True))
    hours = {p: sorted(draw(st.lists(_hours, max_size=5, unique=True))) for p in projects}
    order = draw(st.permutations([p for p in projects for _ in hours[p]]))
    return [draw(_snapshot(p, hours[p].pop(0))) for p in order]


@settings(max_examples=200, deadline=None)
@given(_interleaved_snapshots())
def test_store_round_trip(snapshots):
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store.jsonl")
        for snap in snapshots:
            append_snapshot(store, snap)
        for project in {s.project_id for s in snapshots}:
            assert load_trajectory(store, project).snapshots == \
                tuple(s for s in snapshots if s.project_id == project)

"""Property-based tests: generated inputs against independent references."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import string
import sys
import tempfile
import unicodedata
import zlib
from datetime import datetime, timedelta, timezone
from decimal import ROUND_HALF_UP, Context, Decimal
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from excellence import cli, diaglog, history, report
from excellence.diaglog import (DEFAULT_PATTERN_TEXT, ErrorPattern, count_errors,
                                count_errors_in_file)
from excellence.errors import CorruptionError
from excellence.history import (QualitySnapshot, Trajectory, append_snapshot, load_trajectory,
                                record_snapshot)
from excellence.metrics import QualityMetrics
from excellence.scanner import SourceStats, classify_lines, scan_source

from scanner_oracle import oracle_scan
from store_oracle import oracle_load_trajectory, seal_crc32

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
# Blank-line counting edges: no line, empty and space-only lines with and without
# a final newline, blank lines inside a block comment, CRLF around spaces.
@example("")
@example("\n")
@example(" ")
@example("\n\n")
@example(" \t")
@example("x\n ")
@example("/*\n\n*/")
@example("\r\n \r\n")
# A CRLF source is tokenized in place: a backslash before a CRLF continues a string or
# char literal over the comment marker on the next line, a backslash before a lone CR
# does not, and a block comment spans its CRLFs.
@example('"a\\\r\n// b"')
@example("'\\\r\n// b'")
@example('"\\\r\r\n// b"')
@example("/*\r\n\r\n*/\r\nx")
def test_scanner_matches_oracle(text):
    stats = scan_source(text)
    expected = oracle_scan(text)
    assert {name: getattr(stats, name) for name in _FIELDS} == \
        {name: expected[name] for name in _FIELDS}
    assert [c.value for c in classify_lines(text)] == expected["classes"]


# The default error pattern before it was rewritten to start with a literal.
_OLD_DEFAULT_PATTERN_TEXT = r"\berror\b(?:\s+[A-Za-z]*\d+)?\s*:"

# İ ı ſ and the Kelvin sign U+212A are the non-ASCII letters that [A-Za-z]
# matches under IGNORECASE; a lone CR, \x0b, \x1c-\x1f, \x85, U+2003 and U+3000
# are whitespace that does not end a line, in ASCII and beyond it. ² Ⅻ ª
# are word characters that are not letters or decimal digits, and the combining
# acute U+0301 is not a word character: the boundary before ``error`` is checked on
# each hit, with str.isalnum().
_LOG_ALPHABET = (
    "error", "Error", "ERROR", "eRrOr", "terror", "error_count", "errors.c",
    "Error 1", "_error:", "error C2065:", "error LNK2019", "warning", "é", "ß",
    "٣", "2", "C", "x", "_", ":", " ", "\t", "\x0c", "　", "(", ")", ".",
    "İ", "ı", "ſ", "\u212a", "error İ5:", "error \u212a12:", "\r", "\x0b", "\x1c", "\x1d",
    "\x1e", "\x1f", "\x85", "\u2003", "\ud800",
    "²", "Ⅻ", "ª", "\u0301",
)
_log_lines = st.lists(st.sampled_from(_LOG_ALPHABET), max_size=12).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.lists(_log_lines, max_size=20), st.sampled_from(("\n", "\r\n")))
# All-ASCII whitespace that str.isspace() admits, then the same next to non-ASCII.
@example(["error\x1c:", "error \x1d7\x0b:", "x\terror\x1e\x1f:", "_error\x0c:"], "\r\n")
@example(["error\x1c:", "\x85error\u2003:", "error\x85C2:", "²error:"], "\n")
def test_default_error_pattern_matches_old_text(lines, newline):
    log = newline.join(lines)
    old = count_errors(log, ErrorPattern(_OLD_DEFAULT_PATTERN_TEXT))
    # Any other pattern text is searched line by line: the reference for the one-pass search.
    per_line = count_errors(log, ErrorPattern(DEFAULT_PATTERN_TEXT + "(?:)"))
    new = count_errors(log)
    assert new.matched_line_numbers == old.matched_line_numbers == per_line.matched_line_numbers


# Log bytes: error heads in mixed case, bytes that are not UTF-8 (a stray
# continuation byte, a cut sequence, an encoded surrogate, a byte never in
# UTF-8), the UTF-8 of İ ı ſ and the Kelvin sign, of the word characters ² Ⅻ ª
# and of the non-word combining acute U+0301, a lone CR and CRLF, and whitespace
# that str.isspace() admits: \x0b and \x1c-\x1f in ASCII, U+0085 and U+2003 beyond.
_LOG_BYTES = (
    b"error", b"ERROR", b"Error", b"eRRoR", b"error:", b"ERROR C2065:", b"terror", b"eRr",
    b"Or:", b" ", b"\t", b":", b"C", b"7", b"x", b"_",
    b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff", b"\xe2\x82",
    "İ ı ſ \u212a".encode("utf-8"), "error İ5:".encode("utf-8"),
    "error \u212a12:".encode("utf-8"), *(c.encode("utf-8") for c in "²Ⅻª\u0301"),
    b"\r", b"\r\n", b"\n", b"\x0b", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
    "\x85".encode("utf-8"), "\u2003".encode("utf-8"),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_LOG_BYTES), st.binary(max_size=3)), max_size=30)
       .map(b"".join), st.integers(1, 16))
# The file is read in blocks of whole lines: a line longer than a block, a CRLF or
# a cut UTF-8 sequence at a block's end, an empty file and no final newline.
@example(b"x.c:1: ERROR: a line of many blocks", 1)
@example(b"error:\r\nerror:\r\n", 7)
@example(b"\xe2\x82\nError C2:\xe2\x82\r\nerror\xed\xa0\x80:\n\x80error:", 4)
@example(b"", 1)
@example(b"\n\nerror:", 2)
# A block starts each line: a lookalike whose ``error`` follows a word character
# in its block, and real heads whose ``error`` opens the block or follows a non-word mark.
@example(b"terror: a\n_error: b\nerror: c\n", 1)
@example("\u00b2error:\n\u216berror:\n\u00aaerror:\n\u0301error:\nERROR:".encode("utf-8"), 1)
# Whitespace that str.isspace() admits, in a block of ASCII next to one beyond it.
@example(b"ERROR\x1c:\n_error\x1f:\n" + "\x85error\u2003:\nerror\x85C2:\n".encode("utf-8")
         + b"error \x1e7\x0b:\nerror\n:\n", 1)
def test_log_file_folded_as_bytes_matches_per_line_search(raw, block):
    # Any other pattern text is searched line by line, on the text decoded first.
    per_line = ErrorPattern(DEFAULT_PATTERN_TEXT + "(?:)")
    want = count_errors(raw.decode("utf-8", "replace"), per_line)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(diaglog, "_BLOCK", block)
        path = os.path.join(tmp, "build.log")
        with open(path, "wb") as f:
            f.write(raw)
        got = count_errors_in_file(path)
        assert count_errors_in_file(path, per_line) == want._replace(log_name=path)
    assert got == want._replace(log_name=path)
    assert count_errors(raw, per_line) == want


def test_default_pattern_case_folding_facts_hold_for_every_code_point():
    """The one-pass default search relies on these; a new Unicode table could break them."""
    every = "".join(map(chr, range(0x110000)))
    for letter in "ero":
        assert sorted(re.findall(letter, every, re.IGNORECASE)) == [letter.upper(), letter]
    assert sorted(re.findall("[A-Za-z]", every, re.IGNORECASE)) == \
        sorted(string.ascii_letters + "\u0130\u0131\u017f\u212a")
    folded = every.encode("utf-8", "surrogatepass").lower().decode("utf-8", "surrogatepass")
    assert folded == every.translate(str.maketrans(string.ascii_uppercase,
                                                   string.ascii_lowercase))


def test_word_characters_are_isalnum_or_underscore_for_every_code_point():
    """The default search checks the boundary before ``error`` on each hit with
    str.isalnum() and ``_``, where the pattern text has ``\\b``."""
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]



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
    def contents(store):
        if not os.path.exists(store):
            return None
        with open(store, "rb") as f:
            return f.read()

    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store.jsonl")
        stored = []
        for snap in snapshots:
            try:
                (snap.project_id + snap.stats.file_name).encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which UTF-8 cannot hold
                before = contents(store)
                with pytest.raises(ValueError):
                    append_snapshot(store, snap)
                assert contents(store) == before
                continue
            append_snapshot(store, snap)
            stored.append(snap)
        for project in {s.project_id for s in stored}:
            assert load_trajectory(store, project).snapshots == \
                tuple(s for s in stored if s.project_id == project)


# Store lines: valid records, and records mutated the ways a hand edit, a torn
# write or another writer can break them. Each must load as the reference
# loader in store_oracle loads it.
_BAD_VALUES = ("true", "false", "null", "1.0", "-1", "NaN", "Infinity", "-Infinity",
               "1e400", "1" + "0" * 400, '"7"', "[]", "{}", "0", "2.5")
# The first three are valid. The bulk check's clock slot, history._WRITER_CLOCK,
# takes only what isoformat writes; every other clock goes record by record.
_CLOCKS = ("2026-01-01T00:00:00+00:00", "2026-01-01T00:00:00Z", "2026-01-01T05:30:00+05:30",
           "2026-01-01T00:00:00", "2026-13-01T00:00:00+00:00", "yesterday", "",
           "2026-W01-1T00:00+00:00", "20260101T000000+0000", "2026-01-01T00:00:00.5+00:00",
           # _ISO_CLOCK takes these and the slot does not; +05:30:15 the slot takes too.
           "2026-01-01 00:00:00+00:00", "2026-01-01T00:00:00.123+00:00",
           "2026-01-01T00:00+00:00", "2026-01-01T00:00:00+05:30:15",
           # In the slot's shape, but fromisoformat refuses them.
           "2026-01-01T24:00:00+00:00", "2026-01-01T00:00:00+24:00")
_EDGES = ("", " ", "\t", "\r", " \t\r", "\x0c", "\ufeff", "\u3000")
_TAILS = _EDGES + ("x", "}", "{}", ",", "\x00")


@st.composite
def _record_fields(draw):
    """A record as (key, JSON text) pairs in the writer's order."""
    comments, loc = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    errors = draw(st.integers(0, 60))
    el = 100.0 * (errors / loc) if loc else 0.0
    return [
        ("project", json.dumps(draw(st.sampled_from(("p", "q"))))),
        ("wall_clock", json.dumps(draw(st.sampled_from(_CLOCKS[:3])))),
        ("t_hours", draw(st.sampled_from(("0", "0.0", "0.5", "1", "2.0", "1e-300")))),
        ("file", json.dumps("m.c")),
        ("total_lines", str(comments + loc)), ("comment_lines", str(comments)),
        ("blank_lines", str(draw(st.integers(0, comments + loc)))), ("loc", str(loc)),
        ("for_count", str(draw(st.integers(0, 3)))), ("while_count", "0"),
        ("errors", str(errors)), ("el_percent", json.dumps(el)), ("x", json.dumps(100.0 - el)),
    ]


@st.composite
def _store_line(draw):
    fields = draw(_record_fields())
    keys = [key for key, _ in fields]
    mutation = draw(st.sampled_from((None,) * 10 + (
        "lead", "trail", "count", "value", "clock", "x", "drop", "duplicate", "extra",
        "key order", "non-object", "truncate")))
    i = draw(st.integers(0, len(fields) - 1))
    if mutation == "key order":  # valid in any order, though not the writer's own line
        fields = draw(st.permutations(fields))
    elif mutation == "count":
        j = draw(st.integers(4, 10))
        fields[j] = (keys[j], str(draw(st.integers(0, 60))))
    elif mutation == "value":
        fields[i] = (keys[i], draw(st.sampled_from(_BAD_VALUES)))
    elif mutation == "clock":
        fields[1] = ("wall_clock", json.dumps(draw(st.sampled_from(_CLOCKS))))
    elif mutation == "x":
        fields[-1] = ("x", json.dumps(json.loads(fields[-1][1]) + draw(
            st.sampled_from((1e-9, -1e-12, 1.0)))))
    elif mutation == "drop":
        del fields[i]
    elif mutation == "duplicate":
        fields.append((keys[i], draw(st.sampled_from((fields[i][1],) + _BAD_VALUES))))
    elif mutation == "extra":
        fields.append(("extra", "0"))
    line = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields) + "}"
    if mutation == "non-object":
        line = draw(st.sampled_from(("[]", "1", '"s"', "null", "[" + line + "]")))
    elif mutation == "truncate":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif mutation == "lead":
        line = draw(st.sampled_from(_EDGES)) + line
    elif mutation == "trail":
        line += draw(st.sampled_from(_TAILS))
    return line


def _outcome(load, store, project):
    try:
        return load(store, project).snapshots
    except Exception as exc:  # the type, message and line number must agree too
        return type(exc), str(exc), getattr(exc, "line_number", None)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_store_line(), st.sampled_from(_EDGES)), min_size=1, max_size=5),
       st.sampled_from(("", "\n")), st.sampled_from(("p", "q")))
def test_loader_matches_reference_loader(lines, end, project):
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store.jsonl")
        with open(store, "wb") as f:
            f.write(("\n".join(lines) + end).encode("utf-8"))
        assert _outcome(load_trajectory, store, project) == \
            _outcome(oracle_load_trajectory, store, project)


# Stores of the writer's own lines, as ``json.dumps(..., ensure_ascii=False)``
# writes them, from two or three projects, with one edit or none. The edits
# keep each line a JSON object with the writer's keys, so they reach the bulk
# pass's own checks and its fallback to the record-by-record path.
_WRITER_T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
_ESCAPED_NAMES = ('say "hi"', "back\\slash", "bell\x01")
_STORE_EDITS = (
    "int hours", "int percent", "int x", "huge percent", "escaped name", "negative hours",
    "out of order", "zero loc", "loc mismatch", "comment over total", "blank over total",
    "1e400", "huge errors", "overflowing percent", "naive clock", "Z clock", "bad clock",
    "other clock", "whitespace line", "CRLF", "no final newline",
)


@st.composite
def _writer_store(draw, edit):
    """The bytes of a writer-shaped store with ``edit`` made, and its projects."""
    names = draw(st.lists(st.sampled_from(("p", "q", "\u00e9", "\u65e5\u672c <1>")),
                          min_size=2, max_size=3, unique=True))
    records, last = [], {}
    for project in draw(st.lists(st.sampled_from(names), min_size=2, max_size=8)):
        t = last[project] = last[project] + draw(st.sampled_from((1e-3, 0.5, 1.0, 2.25))) \
            if project in last else 0.0
        comments, loc, errors = draw(st.integers(0, 30)), draw(st.integers(1, 30)), \
            draw(st.integers(0, 60))
        el = 100.0 * (errors / loc)
        records.append({
            "project": project, "wall_clock": (_WRITER_T0 + timedelta(hours=t)).isoformat(),
            "t_hours": t, "file": draw(st.sampled_from(("m.c", "\u00fc.c"))),
            "total_lines": comments + loc, "comment_lines": comments,
            "blank_lines": draw(st.integers(0, comments + loc)), "loc": loc,
            "for_count": draw(st.integers(0, 3)), "while_count": draw(st.integers(0, 3)),
            "errors": errors, "el_percent": el, "x": 100.0 - el,
        })
    r = draw(st.sampled_from(records))
    key = {"int hours": "t_hours", "int percent": "el_percent", "int x": "x"}.get(edit)
    if key:
        r[key] = int(r[key])
    elif edit == "huge percent":  # an int that only rounds to the derived float
        r.update(errors=10**15, loc=1, comment_lines=r["total_lines"] - 1,
                 el_percent=10**17 + 1, x=100.0 - 1e17)
    elif edit == "escaped name":
        r["project"] = draw(st.sampled_from(_ESCAPED_NAMES))
    elif edit == "negative hours":  # -0.0 is valid, -0.5 is not
        records[0]["t_hours"] = draw(st.sampled_from((-0.0, -0.5)))
    elif edit == "out of order":  # the same hours again, in a record of its own
        records.append(dict(r))
    elif edit == "zero loc":
        r.update(loc=0, comment_lines=r["total_lines"], errors=0, el_percent=0.0, x=100.0)
    elif edit == "loc mismatch":
        el = 100.0 * (r["errors"] / (r["loc"] + 1))
        r.update(loc=r["loc"] + 1, el_percent=el, x=100.0 - el)
    elif edit == "comment over total":
        r.update(comment_lines=r["total_lines"] + 1, loc=-1)
    elif edit == "blank over total":
        r["blank_lines"] = r["total_lines"] + 1
    elif edit == "1e400":  # in the last record: no later record's order check hides it
        records[-1][draw(st.sampled_from(("t_hours", "el_percent", "x")))] = math.inf
    elif edit == "huge errors":  # no float holds errors / loc
        r.update(errors=10**400, el_percent=0.0, x=100.0)
    elif edit == "overflowing percent":  # errors / loc is a float, 100 times it is not
        r.update(errors=10**307, loc=1, comment_lines=r["total_lines"] - 1,
                 el_percent=math.inf, x=-math.inf)
    elif edit in ("naive clock", "Z clock"):
        r["wall_clock"] = r["wall_clock"].replace("+00:00", "" if edit == "naive clock" else "Z")
    elif edit == "bad clock":
        r["wall_clock"] = r["wall_clock"].replace("-01-01", "-13-01")
    elif edit == "other clock":
        r["wall_clock"] = draw(st.sampled_from(_CLOCKS))
    lines = [json.dumps(record, ensure_ascii=False).replace("Infinity", "1e400")
             for record in records]
    if edit == "whitespace line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from((" ", "\t"))))
    text = ("\r\n" if edit == "CRLF" else "\n").join(lines)
    text += "" if edit == "no final newline" else "\r\n" if edit == "CRLF" else "\n"
    return text.encode("utf-8"), sorted({record["project"] for record in records})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((None,) + _STORE_EDITS), st.data())
def test_writer_shaped_store_loads_as_reference_loader(edit, data):
    event(f"edit: {edit}")
    content, projects = data.draw(_writer_store(edit))
    project = data.draw(st.sampled_from(projects + ["absent"]))
    block = data.draw(st.sampled_from((1, 400, 1 << 18)))  # characters per bulk block
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        with open(path, "wb") as f:
            f.write(content)
        with mock.patch("excellence.history._BLOCK", block):
            loaded = _outcome(load_trajectory, path, project)
        assert loaded == _outcome(oracle_load_trajectory, path, project)


def _columns(traj):
    return traj.ts, traj.xs, traj._percents, traj._errors, traj._locs, traj._files


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((None,) + _STORE_EDITS), st.data())
def test_loaded_trajectory_is_the_one_built_from_reference_snapshots(edit, data):
    # load_trajectory reads its columns off the checked rows and builds snapshots only
    # when they are read; the reference loader builds every snapshot, and the public
    # constructor derives the columns from them. The two agree in every column, as
    # repr writes them (so in each number's type and sign), in ==, hash and repr:
    # with no seal, under the seal that load leaves, and after an append of the
    # asked project, which leaves a seal and a one-line tail.
    content, projects = data.draw(_writer_store(edit))
    project = data.draw(st.sampled_from(projects + ["absent"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        with open(path, "wb") as f:
            f.write(content)
        for step in ("no seal", "sealed", "tail"):
            try:
                expected = oracle_load_trajectory(path, project)
            except CorruptionError:
                with pytest.raises(CorruptionError):
                    load_trajectory(path, project)
                return
            if step == "tail":
                t = expected.ts[-1] + 1.0 if expected.ts else 0.0
                append_snapshot(path, QualitySnapshot.create(
                    project, _WRITER_T0 + timedelta(hours=t), t, _STATS, 3))
                expected = oracle_load_trajectory(path, project)
            loaded = load_trajectory(path, project)
            assert repr(_columns(loaded)) == repr(_columns(expected))
            assert loaded == expected and hash(loaded) == hash(expected)
            assert repr(loaded) == repr(expected)


# The line rule the scanner, the log counter and the store share: "\n" ends a
# line, a "\r" just before it is part of the break, and any other "\r" is a
# character of its line.
_CR_EDGES = ("", "\r", " \r", "\r\r")
_STATS = SourceStats("m.c", 10, 2, 1, 8, 1, 0)
_NOT_UTF8 = "\r\udcff"  # written with surrogateescape: a lone CR, then the byte 0xff


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_source_log_and_store_share_one_line_rule(data):
    n = data.draw(st.integers(1, 8), label="lines")
    edges = data.draw(st.lists(st.tuples(st.sampled_from(_CR_EDGES), st.sampled_from(_CR_EDGES)),
                               min_size=n, max_size=n))
    breaks = data.draw(st.lists(st.sampled_from(("\n", "\r\n")), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        breaks[-1] = ""  # the last line lacks its break

    def text(cores):
        return "".join(lead + core + tail + end
                       for core, (lead, tail), end in zip(cores, edges, breaks))

    cores = st.sampled_from(("int x;", "int\rx;", "// c\r", "/*\r*/", "\r"))
    source = text(data.draw(st.lists(cores, min_size=n, max_size=n)))
    assert scan_source(source).total_lines == n

    errors = data.draw(st.sets(st.integers(1, n)), label="error lines")
    log = text([data.draw(st.sampled_from(("m.c:1: error: bad", "m.c:1: error\r: bad")))
                if number in errors else data.draw(st.sampled_from(("m.c:2: warning", "error\r")))
                for number in range(1, n + 1)])
    for pattern in (ErrorPattern(), ErrorPattern(DEFAULT_PATTERN_TEXT + "(?:)")):
        assert count_errors(log, pattern).matched_line_numbers == tuple(sorted(errors))

    records = [history._line(QualitySnapshot.create("p", _WRITER_T0, float(number), _STATS, 0))
               .decode("utf-8")[:-1] for number in range(1, n + 1)]
    bad = data.draw(st.none() | st.integers(1, n), label="bad line")
    if bad is not None:
        record = records[bad - 1]
        records[bad - 1] = data.draw(st.sampled_from((
            record + "\r" + record, record[:data.draw(st.integers(1, len(record) - 1))], "\r{}",
            _NOT_UTF8)))
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store.jsonl")
        with open(store, "wb") as f:
            f.write(text(records).encode("utf-8", "surrogateescape"))
        loaded = _outcome(load_trajectory, store, "p")
        if _NOT_UTF8 not in records:  # the reference loader reads UTF-8 alone
            assert loaded == _outcome(oracle_load_trajectory, store, "p")
    if bad is None:
        assert len(loaded) == n
    else:
        assert loaded[0] is CorruptionError and loaded[2] == bad


def _reference_2dp(value):
    """Two decimals of the shortest repr, ties away from zero; ``-0.0`` shows as ``0.00``."""
    return str(Decimal(repr(value + 0.0)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP,
                                                   context=Context(prec=400)))


_EDGE = 2.0 ** 46  # from here on the float spacing nears 0.01


@settings(max_examples=2000, deadline=None)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda k, sign: sign * (k + 0.5) / 100,  # ties on .xx5
              st.integers(0, 10**12), st.sampled_from((1, -1))),
    st.builds(lambda e, l: 100.0 - 100.0 * (e / l), st.integers(0, 10**4), st.integers(1, 10**4)),
    st.floats(_EDGE / 4, _EDGE * 4).flatmap(lambda v: st.sampled_from((v, -v))),
    st.floats(-0.01, 0.0),
    st.floats(min_value=1e26, allow_infinity=False).flatmap(lambda v: st.sampled_from((v, -v))),
))
@example(-0.0)
@example(-1e-5)
@example(_EDGE)
@example(-_EDGE)
@example(math.nextafter(_EDGE, 0.0))
@example(math.nextafter(-_EDGE, 0.0))
@example(1e26)
@example(2.675)
@example(0.995)  # ties below 2**46 round repr's digits as integers; these carry
@example(9.995)
@example(99.995)
@example(-2.675)
@example(-0.005)
@example(70368744177663.945)  # the largest tie below 2**46
@example(9999999999999998.0)  # the largest float repr writes without an exponent
@example(1e16)  # from here on repr writes an exponent, and every float is whole
@example(1.2345678901234567e20)
@example(-1e32)
@example(sys.float_info.max)
@example(-sys.float_info.max)
def test_format_2dp_rounds_the_shortest_repr(value):
    assert cli.format_2dp(value) == _reference_2dp(value)


@settings(max_examples=200, deadline=None)
@given(st.from_regex(history._WRITER_CLOCK, fullmatch=True))
def test_writer_clock_slot_is_inside_the_clock_grammar(text):
    # So a clock the bulk check reads with fromisoformat alone is one _clock takes
    # the same way, and its JSON string needs no escape.
    assert history._ISO_CLOCK.fullmatch(text)
    assert not any(ch in '"\\' or unicodedata.category(ch)[0] == "C" for ch in text)


# A store that record_snapshot wrote, with the seal its last call left, then
# broken the ways an edit, a cut or another store's seal can break it. record
# must do the same with and without the seal: the seal only saves work.
_SEAL_T0 = datetime(2026, 5, 1, tzinfo=timezone.utc)
_SEAL_PROJECTS = ("p", "q", "é")
_BAD_TAILS = (b"garbage\n", b"\n \n", b"\r", b"{}\n", b'{"project": "p"', b"\xff\n",
              b"\r\n\xc3(\n", b"\xed\xa0\x80\n")


# One field of a writer's own seal made ill typed or out of range, its digest
# kept; ``None`` in a path stands for a project's id.
_SEAL_EDITS = (
    (("lines",), "x"), (("lines",), -5), (("lines",), True), (("length",), -1),
    (("length",), True), (("crc32",), None), (("projects",), []), (("projects",), {"p": 5}),
    (("projects", None), 5), (("projects", None), ["2026-05-01T00:00:00+00:00", 1.0]),
    (("projects", None, 0), "2026-05-01T00:00:00"), (("projects", None, 0), "May 1"),
    (("projects", None, 0), 0), (("projects", None, 1), "a"), (("projects", None, 1), -1.0),
    (("projects", None, 1), math.inf), (("projects", None, 1), math.nan),
    (("projects", None, 1), 1), (("projects", None, 2), 0), (("projects", None, 2), "1"),
    (("projects", None, 2), True), (("projects", None, 2), 10**6), (("projects", None, 3), 0),
    (("projects", None, 3), True), (("projects", None, 3), 1.0), (("projects", None, 3), "1"),
    (("projects", None, 3), 10**6),
)
# The same, well typed but wrong: a lower last hours, another line, another
# first clock, another line count, another record count.
_WRONG_SUMMARIES = (
    (("projects", None, 1), 0.0), (("projects", None, 2), 1),
    (("projects", None, 0), "2026-04-30T00:00:00+00:00"), (("lines",), 10**6),
    (("projects", None, 3), 1),
)


def _edited_seal(seal, path, value, project, prefix=None):
    """``seal`` with ``value`` at ``path``; ``None`` there stands for ``project``,
    or for the first project when the seal does not hold ``project``. Given the
    ``prefix`` bytes, the digest is made anew for the edited summary."""
    obj = json.loads(seal)
    if project not in obj["projects"]:
        project = next(iter(obj["projects"]))
    *keys, last = [project if key is None else key for key in path]
    target = obj
    for key in keys:
        target = target[key]
    target[last] = value
    if prefix is not None:
        obj["crc32"] = seal_crc32(prefix, obj)
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


@st.composite
def _store_steps(draw):
    """(project, hours) pairs, each project's hours strictly increasing."""
    steps, last = [], {}
    for project in draw(st.lists(st.sampled_from(_SEAL_PROJECTS), min_size=1, max_size=6)):
        last[project] = last.get(project, 0.0) + draw(st.sampled_from((0.5, 1.0, 2.25)))
        steps.append((project, last[project]))
    return steps


def _write_store(directory, steps):
    store = os.path.join(directory, "store.jsonl")
    stats = SourceStats("m.c", 10, 2, 1, 8, 1, 0)
    for errors, (project, t) in enumerate(steps):
        record_snapshot(store, project, _SEAL_T0 + timedelta(hours=t), stats, errors, t)
    return store


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def _cli_outcome(store, argv, clock):
    """Exit code, stdout, stderr and store bytes of one command, at a fixed clock."""
    class FixedClock:
        @staticmethod
        def now(tz):
            return clock

    out, err = io.StringIO(), io.StringIO()
    # cmd_record imports the clock when it runs, from the datetime module.
    with mock.patch("datetime.datetime", FixedClock), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), _read(store)


def _broken_store(tmp, other, steps, other_steps, data):
    """The store ``_write_store`` leaves in ``tmp``, then broken by a drawn mutation,
    a drawn project, and a drawn seal: its own, none, another store's, junk, or its
    own edited. Returns the store path, its bytes, the seal's and the project."""
    store = _write_store(tmp, steps)
    stored = bytearray(_read(store))
    seal = _read(store + ".seal")
    sealed = json.loads(seal)["length"] if seal else len(stored)
    prefix = bytes(stored[:sealed])

    mutation = data.draw(st.sampled_from(
        ("none", "flip", "cut at line end", "cut inside line", "append", "not UTF-8")))
    if mutation == "flip" and sealed:
        stored[data.draw(st.integers(0, sealed - 1))] ^= data.draw(st.integers(1, 255))
    elif mutation == "cut at line end":
        ends = [0] + [i + 1 for i, byte in enumerate(stored) if byte == ord("\n")]
        del stored[data.draw(st.sampled_from(ends)):]
    elif mutation == "cut inside line":
        del stored[data.draw(st.integers(0, len(stored))):]
    elif mutation == "append":
        stored += b"".join(data.draw(st.lists(st.sampled_from(_BAD_TAILS), max_size=3)))
    elif mutation == "not UTF-8":
        at = data.draw(st.integers(0, len(stored)))
        stored[at:at] = data.draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80")))
    project = data.draw(st.sampled_from(_SEAL_PROJECTS))
    seals = [seal, None, _read(_write_store(other, other_steps) + ".seal"),
             data.draw(st.binary(max_size=40)), b'{"length": 0, "crc32": 1}', b"[]",
             b"[" * 100_000]
    if seal is not None:
        edit = data.draw(st.sampled_from(_SEAL_EDITS))
        seals.append(_edited_seal(seal, *edit, project))
        # The same edit under a digest made for it, which only the shape check refuses.
        seals.append(_edited_seal(seal, *edit, project, prefix))
        # A wrong summary changes only some outcomes: it gets a third of the draws.
        seals += [_edited_seal(seal, *data.draw(st.sampled_from(_WRONG_SUMMARIES)),
                               project)] * 4
    return store, bytes(stored), data.draw(st.sampled_from(seals)), project


def _put(store, stored, seal):
    """Write the store's bytes, and its seal, or remove the seal for None."""
    with open(store, "wb") as f:
        f.write(stored)
    if seal is not None:
        with open(store + ".seal", "wb") as f:
            f.write(seal)
    elif os.path.exists(store + ".seal"):
        os.remove(store + ".seal")


def _counting_checks(monkeypatch):
    """The ``before`` of every ``_check`` call from now on: 0 when a read checks the
    store from line 1, the sealed line count when it trusts a seal."""
    befores, check = [], history._check

    def counting(text, before, *rest):
        befores.append(before)
        return check(text, before, *rest)

    monkeypatch.setattr(history, "_check", counting)
    return befores


def _with_and_without_seal(monkeypatch, store, argv, clock=_SEAL_T0):
    """The outcome of ``argv`` on the store as it stands, with its seal and without,
    each with the ``before`` of its ``_check`` calls."""
    stored, seal = _read(store), _read(store + ".seal")
    befores = _counting_checks(monkeypatch)
    runs = []
    for with_seal in (True, False):
        _put(store, stored, seal if with_seal else None)
        befores.clear()
        runs.append((_cli_outcome(store, argv, clock), list(befores)))
    return runs


def _probe(directory):
    """A one-line C source to record, in ``directory``."""
    src = os.path.join(str(directory), "probe.c")
    with open(src, "w", encoding="utf-8") as f:
        f.write("int x;\n")
    return src


@settings(max_examples=300, deadline=None)
@given(_store_steps(), _store_steps(), st.data())
def test_record_outcome_does_not_depend_on_the_seal(steps, other_steps, data):
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as other:
        store, stored, seal, project = _broken_store(tmp, other, steps, other_steps, data)
        src = os.path.join(tmp, "probe.c")
        with open(src, "w", encoding="utf-8") as f:
            f.write(data.draw(st.sampled_from(("int x;\n", "// only a comment\n"))))
        argv = ["record", src, "--project", project, "--store", store]
        hours = data.draw(st.sampled_from((None, "0", "1", "2.25", "9")))
        argv += [] if hours is None else ["--t-hours", hours]
        clock = _SEAL_T0 + timedelta(hours=data.draw(st.sampled_from((-1, 0, 1.5, 9))))

        outcomes = []
        for with_seal in (True, False):
            _put(store, stored, seal if with_seal else None)
            outcomes.append(_cli_outcome(store, argv, clock))
        assert outcomes[0] == outcomes[1]


@settings(max_examples=150, deadline=None)
@given(_store_steps(), _store_steps(), st.data())
def test_report_outcome_does_not_depend_on_the_seal(steps, other_steps, data):
    # report trusts a matching seal as record does, and leaves one after a full
    # check: the same store and seals give the same output, and the store is kept.
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as other:
        store, stored, seal, project = _broken_store(tmp, other, steps, other_steps, data)
        another = data.draw(st.sampled_from([p for p in _SEAL_PROJECTS if p != project]))
        for asked in (project, another, "absent"):
            for form in (["--fit-degree", "2"], ["--format", "csv"]):
                argv = ["report", "--project", asked, "--store", store, *form]
                outcomes = []
                for with_seal in (True, False):
                    _put(store, stored, seal if with_seal else None)
                    outcomes.append(_cli_outcome(store, argv, _SEAL_T0))
                    assert outcomes[-1][3] == stored
                assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("path, value", [edit for edit in _SEAL_EDITS if edit[0] != ("crc32",)])
def test_seal_edit_under_a_matching_digest_gets_the_full_check(tmp_path, monkeypatch, path,
                                                                value):
    # The seal covers lines 1-3, where p last has 1.5 h, so it decides whether 1.0 h
    # is refused; the edited seal must be ignored, and every line checked instead.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, seal = _read(store), _read(store + ".seal")
    edited = _edited_seal(seal, path, value, "p", stored[:json.loads(seal)["length"]])
    argv = ["record", _probe(tmp_path), "--project", "p", "--store", store, "--t-hours", "1"]
    befores = _counting_checks(monkeypatch)
    outcomes = []
    for with_seal in (True, False):
        _put(store, stored, edited if with_seal else None)
        outcomes.append(_cli_outcome(store, argv, _SEAL_T0))
    assert befores[0] == 0
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 7 and "store already holds t = 1.5 h" in outcomes[0][2]


class _TailStart(io.BytesIO):
    """A store in memory that notes the offset where ``_read`` starts the blocks it
    reads to the end and checks: the sealed length when the seal is trusted, 0 when
    the check starts at line 1."""

    start = None


def _check_start(stored, store):
    f, blocks = _TailStart(bytes(stored)), history._blocks

    def noting(f, end=None):
        if end is None:
            f.start = f.tell()
        return blocks(f, end)

    with mock.patch.object(history, "_blocks", noting):
        try:
            history._read(f, None, store)
        except CorruptionError:  # an edit the full check refuses
            pass
    return f.start


def test_seal_misses_on_every_edit_it_covers(tmp_path):
    # The seal the last record left covers lines 1-4, all four of one length.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 0.5), ("p", 1.5), ("q", 1.5),
                                         ("p", 2.5)])
    stored, seal_path = _read(store), store + ".seal"
    seal = json.loads(_read(seal_path))
    prefix = stored[:seal["length"]]
    assert _check_start(stored, store) == seal["length"] == len(prefix) > 0

    for at in range(len(prefix)):  # each byte, each bit of it and all of them
        for mask in (*(1 << bit for bit in range(8)), 0xff):
            flipped = bytearray(stored)
            flipped[at] ^= mask
            assert _check_start(flipped, store) == 0, (at, mask)

    lines = prefix.splitlines(keepends=True)
    pairs = [(i, j) for i in range(len(lines)) for j in range(i + 1, len(lines))
             if len(lines[i]) == len(lines[j]) and lines[i] != lines[j]]
    assert len(pairs) == 6
    for i, j in pairs:
        swapped = list(lines)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert _check_start(b"".join(swapped) + stored[len(prefix):], store) == 0, (i, j)

    first, hours, line, count = seal["projects"]["p"]
    other = "2026-04-30T00:00:00+00:00"
    edits = [("length", seal["length"] - 1), ("lines", seal["lines"] + 1),
             ("projects", {**seal["projects"], "r": [other, 0.0, 1, 1]}),
             ("projects", {"q": seal["projects"]["q"]}),
             ("projects", {"r" if key == "p" else key: entry
                           for key, entry in seal["projects"].items()}),
             ("projects", {**seal["projects"], "p": [other, hours, line, count]}),
             ("projects", {**seal["projects"], "p": [first, hours + 0.5, line, count]}),
             ("projects", {**seal["projects"], "p": [first, hours - 0.25, line, count]}),
             ("projects", {**seal["projects"], "p": [first, hours, line - 1, count]}),
             ("projects", {**seal["projects"], "p": [first, hours, line, count - 1]})]
    for key, value in edits:
        with open(seal_path, "w", encoding="utf-8") as f:
            json.dump({**seal, key: value}, f)  # the checksum kept
        assert history._load_seal(seal_path) is not None
        assert _check_start(stored, store) == 0, (key, value)


@pytest.mark.parametrize("crc32, well_formed", [
    (0, True), ((1 << 32) - 1, True), (-1, False), (1 << 32, False), (True, False),
    (1.0, False), ("0", False), (None, False)])
def test_seal_checksum_is_a_32_bit_int(tmp_path, crc32, well_formed):
    store = _write_store(str(tmp_path), [("p", 0.5), ("p", 1.0)])
    stored, seal = _read(store), json.loads(_read(store + ".seal"))
    assert history._load_seal(store + ".seal") is not None
    _put(store, stored, json.dumps({**seal, "crc32": crc32}).encode("utf-8"))
    assert (history._load_seal(store + ".seal") is not None) is well_formed


def _sha256_seal(stored, seal):
    """``seal`` in the format earlier versions wrote: the same summary, and a
    ``sha256`` over the prefix it covers and that summary, in hex."""
    obj = json.loads(seal)
    summary = json.dumps([obj["length"], obj["lines"], obj["projects"]], sort_keys=True)
    digest = hashlib.sha256(stored[:obj["length"]] + summary.encode("ascii")).hexdigest()
    return json.dumps({"length": obj["length"], "lines": obj["lines"], "sha256": digest,
                       "projects": obj["projects"]}).encode("utf-8")


def _old_seal_costs_one_full_check(tmp_path, monkeypatch, old_format, command):
    """A seal in ``old_format`` is not read: ``command`` checks from line 1 and does
    as it does with no seal, down to the new seal it leaves, which the next run
    trusts: its check starts after the sealed lines, and a report, whose seal
    covers the whole store, has none left to check."""
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored = _read(store)
    old = old_format(stored, _read(store + ".seal"))
    _put(store, stored, old)
    assert history._load_seal(store + ".seal") is None
    src = _probe(tmp_path)
    argv = {"record": ["record", src, "--project", "p", "--store", store, "--t-hours", "3"],
            "report": ["report", "--project", "p", "--store", store]}[command]
    befores = _counting_checks(monkeypatch)
    outcomes = []
    for seal in (old, None):
        _put(store, stored, seal)
        outcomes.append((_cli_outcome(store, argv, _SEAL_T0 + timedelta(hours=3)),
                         _read(store + ".seal")))
    assert befores == [0, 0]
    assert outcomes[0] == outcomes[1]
    (code, _, _, after), seal = outcomes[0]
    assert code == 0 and after.startswith(stored)
    seal = json.loads(seal)
    assert list(seal) == ["length", "lines", "crc32", "projects"]
    assert seal["length"] == len(stored) and seal["lines"] == 4
    assert seal["projects"]["p"][2:] == [3, 2] and seal["projects"]["q"][2:] == [4, 2]
    befores.clear()
    if command == "record":
        argv = ["record", src, "--project", "q", "--store", store, "--t-hours", "4"]
    assert _cli_outcome(store, argv, _SEAL_T0 + timedelta(hours=4))[0] == 0
    assert befores == ([4] if command == "record" else [])


def test_sha256_seal_costs_one_full_check_and_is_replaced(tmp_path, monkeypatch):
    _old_seal_costs_one_full_check(tmp_path, monkeypatch, _sha256_seal, "record")


def _three_field_seal(stored, seal):
    """``seal`` in the format earlier versions wrote: three fields per project, no
    record count, and a CRC-32 over the prefix and then the summary ``[length, lines,
    projects]`` as ``json.dumps(..., sort_keys=True)`` writes it."""
    obj = json.loads(seal)
    projects = {key: entry[:3] for key, entry in obj["projects"].items()}
    summary = json.dumps([obj["length"], obj["lines"], projects], sort_keys=True)
    crc = zlib.crc32(summary.encode("ascii"), zlib.crc32(stored[:obj["length"]]))
    return json.dumps({"length": obj["length"], "lines": obj["lines"], "crc32": crc,
                       "projects": projects}).encode("utf-8")


@pytest.mark.parametrize("command", ["record", "report"])
def test_three_field_seal_costs_one_full_check_and_is_replaced(tmp_path, monkeypatch,
                                                               command):
    _old_seal_costs_one_full_check(tmp_path, monkeypatch, _three_field_seal, command)


@pytest.mark.parametrize("count, well_formed", [
    (1, True), (2, True), (3, True), (True, False), (2.0, False), (0, False), (4, False)])
def test_seal_count_is_an_int_from_1_to_the_line(tmp_path, count, well_formed):
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, seal = _read(store), json.loads(_read(store + ".seal"))
    first, hours, line, stored_count = seal["projects"]["p"]
    assert (line, stored_count) == (3, 2)
    seal["projects"]["p"] = [first, hours, line, count]
    _put(store, stored, json.dumps(seal).encode("utf-8"))
    assert (history._load_seal(store + ".seal") is not None) is well_formed


# Edits of a seal's summary, its text without the ``crc32`` member, that the seal
# writes back byte for byte, so that only a range check refuses them: JSON writes
# no inf or nan, the seal can. The summary covers lines 1-3, where p has 1.5 h at
# line 3 and q 1.0 h at line 2.
_SEAL_TEXT_EDITS = {
    "none": lambda text: text,
    "hours inf": lambda text: text.replace(", 1.5, 3, 2]", ", inf, 3, 2]"),
    "hours nan": lambda text: text.replace(", 1.5, 3, 2]", ", nan, 3, 2]"),
    "length -1": lambda text: re.sub(r'"length": [0-9]+', '"length": -1', text),
    "lines -1": lambda text: text.replace('"lines": 3,', '"lines": -1,'),
    "lines -1 of no project": lambda text: '{"length": 0, "lines": -1, "projects": {}}',
    "line 0": lambda text: text.replace(", 1.0, 2, 1]", ", 1.0, 0, 1]"),
    "line past lines": lambda text: text.replace(", 1.5, 3, 2]", ", 1.5, 4, 2]"),
    "clock without offset": lambda text: text.replace('+00:00", 1.5', '", 1.5'),
}


@pytest.mark.parametrize("edit", list(_SEAL_TEXT_EDITS))
def test_seal_text_out_of_range_is_a_miss(tmp_path, monkeypatch, edit):
    # Each edit keeps a CRC-32 made for it, over the prefix a writer checksums; a
    # record under it checks from line 1 and does as it does with no seal, down
    # to the seal it leaves.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, text = _read(store), _read(store + ".seal").decode("utf-8")
    summary = text.replace(f'"crc32": {json.loads(text)["crc32"]}, ', "")
    edited = _SEAL_TEXT_EDITS[edit](summary)
    assert (edited == summary) is (edit == "none")
    length = int(edited.split(",")[0].split(": ")[1])
    crc = zlib.crc32(edited.encode("utf-8"), zlib.crc32(stored[:max(length, 0)]))
    seal = edited.replace('"projects"', f'"crc32": {crc}, "projects"').encode("utf-8")
    _put(store, stored, seal)
    assert (history._load_seal(store + ".seal") is None) is (edit != "none")
    argv = ["record", _probe(tmp_path), "--project", "p", "--store", store, "--t-hours", "3"]
    (sealed, sealed_befores), (unsealed, unsealed_befores) = \
        _with_and_without_seal(monkeypatch, store, argv)
    assert sealed_befores == ([3] if edit == "none" else [0]) and unsealed_befores == [0]
    assert sealed == unsealed and sealed[0] == 0


def _counting_snapshots(monkeypatch):
    """The project of every ``QualitySnapshot`` that ``history`` builds from now on
    by calling the class; ``QualitySnapshot.create`` is not counted."""
    built, snapshot = [], history.QualitySnapshot

    def counting(*args):
        built.append(args[0])
        return snapshot(*args)

    counting.create = snapshot.create
    monkeypatch.setattr(history, "QualitySnapshot", counting)
    return built


def test_ordering_refusal_builds_no_snapshot(tmp_path, monkeypatch):
    # The refusal names the blocking time from p's rows, with the seal or without.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    argv = ["record", _probe(tmp_path), "--project", "p", "--store", store, "--t-hours", "1"]
    built = _counting_snapshots(monkeypatch)
    (sealed, sealed_befores), (unsealed, _) = _with_and_without_seal(monkeypatch, store, argv)
    assert sealed_befores == [3, 3]
    assert sealed == unsealed and sealed[0] == 7
    assert "store already holds t = 1.5 h" in sealed[2]
    assert built == []


def test_load_trajectory_builds_the_asked_projects_snapshots_once(tmp_path, monkeypatch):
    # The record's seal leaves line 4 after it; a full check leaves one over all
    # four lines, after which nothing is left to check. No read builds a snapshot
    # until ``snapshots`` is first read, which builds p's two, q's two, or none; a
    # second read builds none.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, seal = _read(store), _read(store + ".seal")
    befores, built = _counting_checks(monkeypatch), _counting_snapshots(monkeypatch)
    for put, starts in ((seal, [3]), (None, [0]), (b"", [])):
        for project, count in (("p", 2), ("q", 2), ("absent", 0)):
            if put != b"":  # b"": the seal the unsealed load just left
                _put(store, stored, put)
            befores.clear()
            built.clear()
            traj = load_trajectory(store, project)
            assert len(traj) == count and len(traj.ts) == len(traj.xs) == count
            assert befores == starts and built == []
            snapshots = traj.snapshots
            assert len(snapshots) == count and built == [project] * count
            assert traj.snapshots is snapshots and built == [project] * count


def test_ordering_refusal_searches_the_sealed_prefix(tmp_path, monkeypatch):
    # The seal covers lines 1-3. The refusal reads the locked store a second time to
    # name the stored time that blocks: it finds p's lines in the sealed prefix and
    # checks line 4 alone, after them, as the first read does.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    argv = ["record", _probe(tmp_path), "--project", "p", "--store", store, "--t-hours", "1"]
    (sealed, sealed_befores), (unsealed, unsealed_befores) = \
        _with_and_without_seal(monkeypatch, store, argv)
    assert sealed_befores == [3, 3] and unsealed_befores == [0, 0]
    assert sealed == unsealed
    assert sealed[0] == 7 and "store already holds t = 1.5 h" in sealed[2]


@pytest.mark.parametrize("shape", ["another key order", "a leading space"])
def test_report_falls_back_for_a_record_in_another_shape(tmp_path, monkeypatch, shape):
    # p's first record, inside the sealed prefix, is valid but not the writer's
    # line; the seal is made anew over that prefix, so only the search can miss it.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, seal = _read(store), json.loads(_read(store + ".seal"))
    lines = stored.splitlines(keepends=True)
    if shape == "another key order":
        lines[0] = json.dumps(json.loads(lines[0]), sort_keys=True).encode("utf-8") + b"\n"
    else:
        lines[0] = b" " + lines[0]
        seal["length"] += 1
    edited = b"".join(lines)
    assert edited != stored
    seal["crc32"] = seal_crc32(edited[:seal["length"]], seal)
    forged = json.dumps(seal, ensure_ascii=False).encode("utf-8")
    _put(store, edited, forged)
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", "p", "--store", store])
    assert befores == [0]
    assert sealed == unsealed and sealed[0] == 0 and "Snapshots : 2" in sealed[1]
    # q's lines are all the writer's own: its report trusts the same seal.
    _put(store, edited, forged)
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", "q", "--store", store])
    assert befores == [3]
    assert sealed == unsealed and "Snapshots : 2" in sealed[1]


@pytest.mark.parametrize("edit", ["order", "value"])
def test_report_checks_what_the_search_finds_under_a_forged_seal(tmp_path, monkeypatch,
                                                                 edit):
    # A seal made anew over a prefix the full check refuses: p's two records
    # swapped, or one's el_percent edited. The search checks the lines it finds
    # by the same rules, order included, so report exits 7 as without the seal.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, seal = _read(store), json.loads(_read(store + ".seal"))
    lines = stored.splitlines(keepends=True)
    if edit == "order":
        lines[0], lines[2] = lines[2], lines[0]
    else:
        lines[0] = lines[0].replace(b'"el_percent": 0.0', b'"el_percent": 1.0')
    edited = b"".join(lines)
    assert len(edited) == len(stored) and edited != stored
    seal["crc32"] = seal_crc32(edited[:seal["length"]], seal)
    _put(store, edited, json.dumps(seal, ensure_ascii=False).encode("utf-8"))
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", "p", "--store", store])
    assert befores == [0]
    assert sealed == unsealed and sealed[0] == 7
    assert f"store record at line {3 if edit == 'order' else 1} is invalid" in sealed[2]


@pytest.mark.parametrize("block", [1, 1 << 18])
def test_report_checks_a_sealed_prefix_that_is_not_utf8_in_full(tmp_path, monkeypatch, block):
    # A seal made anew over a prefix with a byte that is not UTF-8 in q's line 2: p's
    # lines around it are all found, in one block or in several, but the search
    # cannot stand for the full check, which names line 2 as without the seal.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5), ("q", 2.0)])
    stored, seal = _read(store), json.loads(_read(store + ".seal"))
    lines = stored.splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"m.c"', b'"m\xffc"')
    edited = b"".join(lines)
    assert len(edited) == len(stored) and edited != stored
    seal["crc32"] = seal_crc32(edited[:seal["length"]], seal)
    _put(store, edited, json.dumps(seal, ensure_ascii=False).encode("utf-8"))
    monkeypatch.setattr(history, "_BLOCK", block)
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", "p", "--store", store])
    assert befores[0] == 0
    assert sealed == unsealed and sealed[0] == 7
    assert "store record at line 2 is invalid: not valid UTF-8" in sealed[2]


@pytest.mark.parametrize("block", [1, 1 << 18])
def test_final_record_without_newline_is_not_sealed_in_any_block(tmp_path, monkeypatch,
                                                                  block):
    # A store whose last record lacks its newline, read in one block or several: a
    # report seals nothing, and a record starts its line on a fresh one.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5)])
    torn = _read(store)[:-1]
    _put(store, torn, None)
    monkeypatch.setattr(history, "_BLOCK", block)
    assert len(load_trajectory(store, "p")) == 2
    assert _read(store + ".seal") is None
    record_snapshot(store, "q", _SEAL_T0 + timedelta(hours=2), SourceStats("m.c", 1, 0, 0, 1, 0, 0),
                    0, 2.0)
    stored = _read(store)
    assert stored.startswith(torn + b"\n") and stored.count(b"\n") == 4
    assert len(load_trajectory(store, "q")) == 2


@pytest.mark.parametrize("asked, others", [
    ("p.1", ["pX1"]), ("a+b", ["ab", "aab"]), ("(x)", ["x"]), ("\u00e9", ["e"]),
    ("p1", ["p10"])])
def test_report_search_takes_the_id_literally(tmp_path, monkeypatch, asked, others):
    # The search pattern holds the id escaped: as a pattern, p.1 would also find
    # pX1's lines, a+b those of ab and aab, and (x) those of x; and the id ends at
    # its quote, so p1 does not find p10's. Any of these would miss the seal's count
    # and check the whole store, with the same output: so the check must start
    # after the sealed lines.
    steps = [(project, t) for t in (0.5, 1.5, 2.5) for project in (asked, *others)]
    store = _write_store(str(tmp_path), steps)
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", asked, "--store", store])
    assert befores == [len(steps) - 1]
    assert sealed == unsealed and sealed[0] == 0 and "Snapshots : 3" in sealed[1]


@pytest.mark.parametrize("asked", ['a"b', "a\\b"])
def test_report_falls_back_for_an_id_that_needs_an_escape(tmp_path, monkeypatch, asked):
    # The seal p's records left covers lines 1-2. No seal holds the id, which would
    # need an escape there: the seal before it stands for its prefix.
    store = _write_store(str(tmp_path), [("p", 0.5), ("p", 1.5), (asked, 0.5), ("p", 2.5),
                                         (asked, 1.5), (asked, 2.5)])
    seal = _read(store + ".seal")
    assert list(json.loads(seal)["projects"]) == ["p"] and json.loads(seal)["lines"] == 2
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", asked, "--store", store])
    assert befores == [0]
    assert sealed == unsealed and sealed[0] == 0 and "Snapshots : 3" in sealed[1]
    assert not os.path.exists(store + ".seal")  # the unsealed report left none
    # Another project's report trusts the seal, and so does a record: one at 2.0 h
    # is refused all the same.
    _put(store, _read(store), seal)
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", "p", "--store", store])
    assert befores == [2]
    assert sealed == unsealed and "Snapshots : 3" in sealed[1]
    _put(store, _read(store), seal)
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["record", _probe(tmp_path), "--project", asked, "--store", store,
                             "--t-hours", "2"])
    assert befores == [2, 0]
    assert sealed == unsealed and sealed[0] == 7 and "store already holds t = 2.5 h" in sealed[2]
    # A seal that holds the id as JSON escapes it is not read; the same seal with a
    # plain id in its place is.
    obj = json.loads(seal)
    prefix = _read(store)[:obj["length"]]
    for key, read in ((asked, False), ("ab", True)):
        forged = {"length": obj["length"], "lines": 2, "crc32": 0,
                  "projects": {"p": obj["projects"]["p"], key: obj["projects"]["p"]}}
        forged["crc32"] = seal_crc32(prefix, forged)
        _put(store, _read(store), json.dumps(forged, ensure_ascii=False).encode("utf-8"))
        assert (history._load_seal(store + ".seal") is not None) is read


@pytest.mark.parametrize("crlf", ["every line", "q's line"])
def test_report_falls_back_for_a_crlf_prefix(tmp_path, monkeypatch, crlf):
    # A CRLF line of p is not the writer's line: the search misses the seal's count
    # and the whole store is checked. A CRLF line of q leaves p's search as it is.
    store = _write_store(str(tmp_path), [("p", 0.5), ("q", 1.0), ("p", 1.5)])
    lines = _read(store).splitlines(keepends=True)
    for i in (0, 1, 2) if crlf == "every line" else (1,):
        lines[i] = lines[i].replace(b"\n", b"\r\n")
    _put(store, b"".join(lines), None)
    stats = SourceStats("m.c", 10, 2, 1, 8, 1, 0)
    record_snapshot(store, "p", _SEAL_T0 + timedelta(hours=2.5), stats, 0, 2.5)
    assert json.loads(_read(store + ".seal"))["lines"] == 3  # the writer sealed the CRLF lines
    (sealed, befores), (unsealed, _) = _with_and_without_seal(
        monkeypatch, store, ["report", "--project", "p", "--store", store])
    assert befores == ([0] if crlf == "every line" else [3])
    assert sealed == unsealed and sealed[0] == 0 and "Snapshots : 3" in sealed[1]


_DAY, _TICK = timedelta(hours=24), timedelta(microseconds=1)


@settings(max_examples=500, deadline=None)
@given(st.datetimes(), st.timedeltas(min_value=_TICK - _DAY, max_value=_DAY - _TICK))
def test_isoformat_of_an_aware_clock_loads_back(naive, offset):
    clock = naive.replace(tzinfo=timezone(offset))
    text = clock.isoformat()
    loaded = history._clock(text)  # the grammar refuses nothing isoformat writes
    assert loaded.isoformat() == datetime.fromisoformat(text).isoformat()
    # CPython 3.11 reads an offset of microseconds alone, +00:00:00.000001, as UTC.
    if offset % timedelta(seconds=1) == timedelta(0) or abs(offset) >= timedelta(seconds=1):
        assert loaded == clock and loaded.utcoffset() == offset
        assert loaded.isoformat() == text


def _reference_csv(traj):
    """The csv report as ``csv.writer`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_hours", "x", "el_percent", "errors", "loc", "rate_from_prev"])
    previous = None
    for snap in traj.snapshots:
        x = snap.metrics.degree_of_excellence
        rate = "" if previous is None else (x - previous[1]) / (snap.t_hours - previous[0])
        writer.writerow([snap.t_hours, x, snap.metrics.error_level_percent, snap.error_count,
                         snap.stats.loc, rate])
        previous = snap.t_hours, x
    return buf.getvalue()


_CSV_FLOATS = st.one_of(st.floats(), st.sampled_from(
    (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e300)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _CSV_FLOATS,
                          _CSV_FLOATS, st.integers(0, 10**30), st.integers(1, 10**30)),
                max_size=6, unique_by=lambda row: row[0]))
def test_csv_report_is_what_csv_writer_writes(rows):
    snapshots = tuple(
        QualitySnapshot("p", _SEAL_T0, t, SourceStats("m.c", loc, 0, 0, loc, 0, 0), errors,
                        QualityMetrics(0.0, percent, x))
        for t, x, percent, errors, loc in sorted(rows, key=lambda row: row[0]))
    traj = Trajectory("p", snapshots)
    assert report.render_csv(traj) == _reference_csv(traj)

"""Tests for compiler-log error counting."""

import random
import tracemalloc

import pytest

from excellence import diaglog
from excellence.diaglog import (
    DEFAULT_ERROR_PATTERN,
    ErrorPattern,
    count_errors,
    count_errors_in_file,
)
from excellence.errors import MissingFileError, PatternError

MIXED_LOG = """\
gcc -c main.c
main.c:3:5: error: expected ';' before 'return'
main.c:7:1: warning: control reaches end of non-void function
main.c:9:12: error: 'x' undeclared (first use in this function)
note: each undeclared identifier is reported only once
main.c(12): error C2065: 'y': undeclared identifier
main.c(15): warning C4244: conversion from 'double' to 'int'
LINK : fatal error LNK2019: unresolved external symbol _foo
util.c:2:1: error: unknown type name 'u32'
util.c:4:9: error: expected declaration specifiers
In file included from util.c:1:
util.h:8:1: error: unterminated comment
collect2: error: ld returned 1 exit status
"""


def test_mixed_log_counts_only_errors():
    report = count_errors(MIXED_LOG)
    assert report.error_count == 8
    assert report.matched_line_numbers == (2, 4, 6, 8, 9, 10, 12, 13)


def test_empty_log():
    report = count_errors("")
    assert report.error_count == 0
    assert report.matched_line_numbers == ()


def test_warnings_and_notes_do_not_match():
    log = "a.c:1: warning: unused\nnote: see declaration\na.c:2: warning: shadow\n"
    assert count_errors(log).error_count == 0


def test_word_boundary_excludes_lookalikes():
    log = "errors: 3\nerror.c:1: fine\nmyerror: bad\npreprocessor_error: x\n"
    assert count_errors(log).error_count == 0


def test_one_line_counts_once_despite_repeats():
    assert count_errors("error: one error: two error: three\n").error_count == 1


def test_case_insensitive_by_default():
    log = "A.C:1: Error: bad\nB.C:2: ERROR: worse\n"
    assert count_errors(log).error_count == 2
    strict = ErrorPattern(case_sensitive=True)
    assert count_errors(log, strict).error_count == 0


def test_msvc_and_linker_codes_match():
    log = ("m.c(3): error C2065: 'x'\n"
           "LINK : fatal error LNK2019: unresolved\n"
           "m.c(9): error: plain shape too\n")
    assert count_errors(log).error_count == 3


def test_concatenation_is_additive():
    rng = random.Random(7)
    pool = [
        "x.c:1: error: a\n",
        "x.c:2: warning: b\n",
        "note: c\n",
        "x.c(4): error C1001: d\n",
        "plain build output\n",
    ]
    for _ in range(50):
        a = "".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))
        total = count_errors(a).error_count + count_errors(b).error_count
        assert count_errors(a + b).error_count == total


def test_line_permutation_preserves_count():
    rng = random.Random(21)
    lines = MIXED_LOG.splitlines()
    base = count_errors(MIXED_LOG).error_count
    for _ in range(20):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert count_errors("\n".join(shuffled) + "\n").error_count == base


def test_crlf_log_counts_like_lf():
    assert count_errors(MIXED_LOG.replace("\n", "\r\n")).error_count == 8


def test_custom_pattern_override():
    log = "E100 missing brace\nW200 style\nE204 bad cast\n"
    pattern = ErrorPattern(r"^E\d+")
    report = count_errors(log, pattern)
    assert report.error_count == 2
    assert report.matched_line_numbers == (1, 3)


def test_invalid_pattern_raises_with_position():
    with pytest.raises(PatternError) as err:
        count_errors("x", ErrorPattern(r"error(unclosed"))
    assert err.value.exit_code == 5
    assert "position" in str(err.value)


def test_default_pattern_is_reusable():
    first = count_errors(MIXED_LOG, DEFAULT_ERROR_PATTERN)
    second = count_errors(MIXED_LOG, DEFAULT_ERROR_PATTERN)
    assert first == second


def test_count_errors_in_file(tmp_path):
    path = tmp_path / "build.log"
    path.write_text(MIXED_LOG, encoding="utf-8")
    report = count_errors_in_file(str(path))
    assert report.error_count == 8
    assert report.log_name == str(path)


def test_log_file_with_broken_encoding_still_counts(tmp_path):
    path = tmp_path / "dirty.log"
    path.write_bytes(b"x.c:1: error: bad byte \xff here\nok line\n")
    assert count_errors_in_file(str(path)).error_count == 1


def test_missing_log_file():
    with pytest.raises(MissingFileError) as err:
        count_errors_in_file("/no/such/build.log")
    assert err.value.exit_code == 3


def test_log_file_is_counted_in_one_call_of_count_errors(tmp_path, monkeypatch):
    """The log layer's trace reads one ``count_errors`` per file, with the file's count."""
    path = tmp_path / "build.log"
    path.write_text(MIXED_LOG * 3, encoding="utf-8")
    original, calls = diaglog.count_errors, []

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(diaglog, "_BLOCK", 64)
    monkeypatch.setattr(diaglog, "count_errors", counted)
    report = count_errors_in_file(str(path))
    assert calls == [report]
    assert report == count_errors(MIXED_LOG * 3, log_name=str(path))


def test_log_blocks_count_like_the_whole_text():
    blocks = [b"main.c:1: error: a\r\n", b"x.c:2: warning: b\nX.C(3): ERROR C1:\n",
              b"LINK : error: b"]
    text = b"".join(blocks).decode()
    for pattern in (DEFAULT_ERROR_PATTERN, ErrorPattern(r"^\S+: error")):
        assert count_errors(iter(blocks), pattern) == count_errors(text, pattern)
    assert count_errors(blocks).matched_line_numbers == (1, 3, 4)


def test_log_count_memory_stays_at_a_few_blocks(tmp_path):
    """A count, not a clock: the traced peak of a 4 MB log stays under 1 MB, where
    reading the whole log at once peaks at three copies of it."""
    lines = ["gcc -c -O2 -Wall -o build/unit%d.o src/unit%d.c\n" % (i, i) for i in range(99)]
    lines.append("src/unit9.c:12:5: error: expected ';' before 'return'\n")
    chunk = "".join(lines).encode("utf-8")
    path = tmp_path / "big.log"
    path.write_bytes(chunk * (4_200_000 // len(chunk) + 1))
    assert path.stat().st_size >= 4_000_000
    tracemalloc.start()
    try:
        report = count_errors_in_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.error_count == path.stat().st_size // len(chunk)
    assert peak < 1_000_000

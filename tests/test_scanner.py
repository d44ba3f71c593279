"""Scanner tests: fixed fixtures plus randomized agreement with the oracle."""

import random
import tracemalloc

import pytest

from excellence.errors import MissingFileError, SourceDecodeError
from excellence.scanner import LineClass, classify_lines, scan_file, scan_source

from scanner_oracle import oracle_scan, random_source

_FIELDS = ("total_lines", "comment_lines", "blank_lines", "loc",
           "for_count", "while_count", "unterminated_comment")


def as_dict(stats):
    return {name: getattr(stats, name) for name in _FIELDS}


def test_simple_file_counts():
    stats = scan_source("int main(){\n/* hi */\n}\n")
    assert stats.total_lines == 3
    assert stats.comment_lines == 1
    assert stats.blank_lines == 0
    assert stats.loc == 2


def test_loop_keyword_in_comment_not_counted():
    stats = scan_source("for(;;){} /* while */\n")
    assert stats.for_count == 1
    assert stats.while_count == 0
    assert stats.total_lines == 1
    assert stats.comment_lines == 0
    assert stats.loc == 1


def test_empty_text():
    stats = scan_source("")
    assert as_dict(stats) == {name: 0 for name in _FIELDS[:-1]} | {
        "unterminated_comment": False}


def test_blank_lines_count_toward_loc():
    stats = scan_source("int a;\n\n   \nint b;\n")
    assert stats.total_lines == 4
    assert stats.blank_lines == 2
    assert stats.comment_lines == 0
    assert stats.loc == 4


def test_line_classes():
    classes = classify_lines("int a; // tail\n/* block\n\n*/\n\nint b;\n")
    assert classes == [LineClass.CODE, LineClass.COMMENT, LineClass.COMMENT,
                       LineClass.COMMENT, LineClass.BLANK, LineClass.CODE]


def test_whitespace_only_line_inside_block_comment_is_comment():
    classes = classify_lines("/*\n   \n*/\n   \n")
    assert classes == [LineClass.COMMENT, LineClass.COMMENT,
                       LineClass.COMMENT, LineClass.BLANK]


def test_keywords_in_strings_not_counted():
    stats = scan_source('char *s = "for while for";\n')
    assert stats.for_count == 0
    assert stats.while_count == 0


def test_keywords_in_char_literals_not_counted():
    stats = scan_source("int f = 'f' + 'o' + 'r'; while(1){}\n")
    assert stats.for_count == 0
    assert stats.while_count == 1


def test_keyword_must_be_whole_identifier():
    stats = scan_source("int forty = 0; int whiles = 1; be_for_e();\n")
    assert stats.for_count == 0
    assert stats.while_count == 0


def test_do_while_counts_the_while():
    stats = scan_source("do { x--; } while (x);\n")
    assert stats.while_count == 1


def test_keyword_split_by_comment_is_two_identifiers():
    stats = scan_source("fo/*x*/r(;;);\n")
    assert stats.for_count == 0


def test_preprocessor_text_is_ordinary_code():
    stats = scan_source("#define LOOP for\n")
    assert stats.for_count == 1
    assert stats.loc == 1


def test_multiple_keywords_on_one_line():
    stats = scan_source("for(;;){} while(1){} for\n")
    assert stats.for_count == 2
    assert stats.while_count == 1


def test_escaped_quote_does_not_close_string():
    stats = scan_source('char *s = "a \\" for ";\n')
    assert stats.for_count == 0


def test_escaped_newline_continues_string():
    text = 'char *s = "abc\\\n for while";\nint x;\n'
    stats = scan_source(text)
    assert stats.for_count == 0
    assert stats.while_count == 0
    assert stats.total_lines == 3
    assert stats.loc == 3


def test_unterminated_string_resets_at_end_of_line():
    stats = scan_source('char *s = "open\nfor(;;);\n')
    assert stats.for_count == 1


def test_stray_block_close_is_code():
    stats = scan_source("stray */ close\n")
    assert stats.comment_lines == 0
    assert stats.loc == 1


def test_block_delimiters_do_not_pair_across_newline():
    stats = scan_source("int a = b /\n* c;\n")
    assert stats.comment_lines == 0
    assert stats.loc == 2


def test_block_comments_do_not_nest():
    stats = scan_source("/* outer /* inner */ int code;\n")
    assert stats.comment_lines == 0  # line has real code after the close
    assert stats.for_count == 0
    assert not stats.unterminated_comment


def test_unterminated_block_comment_flag_and_classes():
    text = "int a;\n/* opens\nfor while\n"
    stats = scan_source(text)
    assert stats.unterminated_comment
    assert stats.comment_lines == 2
    assert stats.for_count == 0
    assert classify_lines(text) == [LineClass.CODE, LineClass.COMMENT,
                                    LineClass.COMMENT]


def test_crlf_equals_lf():
    lf = "int a;\nfor(;;){}\n/* c */\n"
    crlf = lf.replace("\n", "\r\n")
    assert as_dict(scan_source(lf)) == as_dict(scan_source(crlf))


def test_final_line_without_newline_counts():
    assert scan_source("int a;").total_lines == 1
    assert scan_source("int a;\nint b;").total_lines == 2


def test_appending_comment_line_is_count_neutral():
    base = "int a;\nfor(;;){}\n"
    before = scan_source(base)
    after = scan_source(base + "/* for while */\n")
    assert after.for_count == before.for_count
    assert after.while_count == before.while_count
    assert after.loc == before.loc
    assert after.total_lines == before.total_lines + 1
    assert after.comment_lines == before.comment_lines + 1


def test_scan_is_deterministic():
    rng = random.Random(99)
    for _ in range(50):
        text = random_source(rng)
        assert as_dict(scan_source(text)) == as_dict(scan_source(text))


def test_agrees_with_oracle_on_random_sources():
    rng = random.Random(1234)
    for case in range(500):
        text = random_source(rng)
        expected = oracle_scan(text)
        stats = scan_source(text)
        got = as_dict(stats)
        want = {name: expected[name] for name in _FIELDS}
        assert got == want, f"case {case}: {text!r}"
        assert [c.value for c in classify_lines(text)] == expected["classes"], (
            f"case {case}: {text!r}")


# Edges of the code mask (a comment becomes ``//`` per line, a literal ``"``):
# a final newline inside an open comment, comments that close at once, code
# ``/`` touching a comment, markers side by side, a literal line that holds only
# spaces, and control characters that are code (NUL) or space (form feed).
_MASK_EDGES = (
    "/*\n", "/*\n\n", "/*", "/*/", "/**/", "/**/\n", "/**//x", "a/ /**/", "/**/ /",
    "/* a */ // b", "/* a */ // b\n", '"a\\\n   \nint x;\n', '"a\\\n \t',
    "'\\\n\x0c\n", "\x00", "int\x00x;\n", "\x0c\n", "a\x0cb\n", "/*\x0c*/\x00\n",
    "/* a *//x", "/* a *//* b */", "/* x\n", "// c",
)


@pytest.mark.parametrize("text", _MASK_EDGES)
def test_mask_edges_agree_with_oracle(text):
    expected = oracle_scan(text)
    assert as_dict(scan_source(text)) == {name: expected[name] for name in _FIELDS}
    assert [c.value for c in classify_lines(text)] == expected["classes"]


def test_scan_file_reads_and_names(tmp_path):
    path = tmp_path / "unit.c"
    path.write_text("int main(){\n/* hi */\n}\n", encoding="utf-8")
    stats = scan_file(str(path))
    assert stats.file_name == "unit.c"
    assert stats.total_lines == 3
    assert stats.comment_lines == 1


def test_scan_file_missing():
    with pytest.raises(MissingFileError):
        scan_file("/no/such/file.c")


def test_scan_file_bad_encoding(tmp_path):
    path = tmp_path / "bad.c"
    path.write_bytes(b"int a;\n\xff\xfe broken\n")
    with pytest.raises(SourceDecodeError) as err:
        scan_file(str(path))
    assert err.value.byte_offset == 7


def test_scan_file_memory_stays_at_a_few_copies_of_the_source(tmp_path):
    """A count, not a clock: the traced peak of a CRLF source stays under 4.6 times
    its size (4.52 measured on CPython 3.10 and 3.11, 4.21 on 3.12 and 3.13, reached
    while the mask is built), since the source is tokenized with its CRLFs in place.
    A CRLF-replaced copy of it peaks at 4.93 times (4.66 from 3.12 on), and keeping
    the bytes read through the scan at 5.52 (5.21)."""
    chunk = ("/* unit %d: a block comment\r\n   over two lines */\r\n"
             "static int f%d(int n) {  // a line comment\r\n"
             "    const char *s = \"for (;;) /* not a comment */\";\r\n"
             "\r\n"
             "    for (int i = 0; i < n; i++) { while (n--) s++; }\r\n"
             "    return n + 'x';\r\n"
             "}\r\n")
    path = tmp_path / "big.c"
    path.write_bytes("".join(chunk % (i, i) for i in range(2200)).encode("utf-8"))
    size = path.stat().st_size
    assert 450_000 <= size <= 550_000
    tracemalloc.start()
    try:
        stats = scan_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (stats.total_lines, stats.comment_lines, stats.blank_lines) == (17600, 4400, 2200)
    assert peak < 4.6 * size

"""End-to-end CLI tests driven through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from datetime import datetime, timezone

import pytest

from excellence import history
from excellence.cli import main
from excellence.history import load_trajectory
from excellence.scanner import SourceStats
from excellence.trajectory import interval_rates

from store_oracle import oracle_load_trajectory

GOLDEN_CLEAN = (
    "The number of lines in the file is : 675\n"
    "Number of comment lines is : 67\n"
    "The number of for loops is : 20\n"
    "The number of while loops is : 4\n"
    "Number of errors = 0\n"
    "loc = 608\n"
    "Error level w.r.t LOC = 0.00\n"
    "Quality Level or Degree of excellence = 100.00\n"
)

GOLDEN_WITH_ERRORS = (
    "The number of lines in the file is : 1117\n"
    "Number of comment lines is : 173\n"
    "The number of for loops is : 27\n"
    "The number of while loops is : 4\n"
    "Number of errors = 8\n"
    "loc = 944\n"
    "Error level w.r.t LOC = 0.85\n"
    "Quality Level or Degree of excellence = 99.15\n"
)


def synth_source(total, comments, fors, whiles):
    """A C-like text with exactly the requested line mix (no blank lines)."""
    lines = [f"// filler comment {i}" for i in range(comments)]
    lines += [f"for (i = 0; i < {i}; i++) {{ sum += i; }}" for i in range(fors)]
    lines += ["while (running) { tick(); }"] * whiles
    lines += [f"int value_{i} = {i};" for i in range(total - comments - fors - whiles)]
    return "\n".join(lines) + "\n"


def synth_log(errors, warnings=3):
    lines = [f"m.c:{i + 1}:1: error: problem {i + 1}" for i in range(errors)]
    lines += [f"m.c:{i + 1}:2: warning: style {i + 1}" for i in range(warnings)]
    return "\n".join(lines) + "\n"


@pytest.fixture
def clean_src(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(synth_source(675, 67, 20, 4), encoding="utf-8")
    return str(path)


@pytest.fixture
def faulty_src(tmp_path):
    path = tmp_path / "faulty.c"
    path.write_text(synth_source(1117, 173, 27, 4), encoding="utf-8")
    return str(path)


@pytest.fixture
def error_log(tmp_path):
    path = tmp_path / "build.log"
    path.write_text(synth_log(8), encoding="utf-8")
    return str(path)


# --- scan -------------------------------------------------------------------

def test_scan_clean_report_is_byte_exact(clean_src, capsys):
    assert main(["scan", clean_src]) == 0
    out, err = capsys.readouterr()
    assert out == GOLDEN_CLEAN
    assert "error count defaults to 0" in err


def test_scan_with_log_report_is_byte_exact(faulty_src, error_log, capsys):
    assert main(["scan", faulty_src, "--log", error_log]) == 0
    out, err = capsys.readouterr()
    assert out == GOLDEN_WITH_ERRORS
    assert err == ""


def test_scan_custom_error_pattern(faulty_src, tmp_path, capsys):
    log = tmp_path / "alt.log"
    log.write_text("E100 bad\nW200 meh\nE300 worse\n", encoding="utf-8")
    assert main(["scan", faulty_src, "--log", str(log),
                 "--error-pattern", r"^E\d+"]) == 0
    out, _ = capsys.readouterr()
    assert "Number of errors = 2" in out


def test_scan_missing_source_exits_3(capsys):
    assert main(["scan", "/no/such/file.c"]) == 3
    _, err = capsys.readouterr()
    assert "error" in err


def test_scan_undecodable_source_exits_4(tmp_path, capsys):
    path = tmp_path / "bin.c"
    path.write_bytes(b"\xff\xfe\x00\x00")
    assert main(["scan", str(path)]) == 4
    _, err = capsys.readouterr()
    assert "UTF-8" in err


def test_scan_bad_pattern_exits_5(clean_src, error_log, capsys):
    assert main(["scan", clean_src, "--log", error_log,
                 "--error-pattern", "("]) == 5
    _, err = capsys.readouterr()
    assert "pattern" in err


@pytest.mark.parametrize("files", ["source only", "missing source", "missing log"])
def test_scan_bad_pattern_exits_5_before_any_file_is_read(clean_src, tmp_path, files, capsys):
    argv = {"source only": [clean_src],
            "missing source": [str(tmp_path / "absent.c")],
            "missing log": [clean_src, "--log", str(tmp_path / "absent.log")]}[files]
    assert main(["scan", *argv, "--error-pattern", "("]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("excellence: error: invalid error pattern at position 0: "
                   "missing ), unterminated subpattern: '('\n")


def test_scan_empty_file_metrics_undefined_exit_6(tmp_path, capsys):
    path = tmp_path / "empty.c"
    path.write_text("", encoding="utf-8")
    assert main(["scan", str(path)]) == 6
    out, err = capsys.readouterr()
    assert "Error level w.r.t LOC = undefined (loc = 0)" in out
    assert "Quality Level or Degree of excellence = undefined (loc = 0)" in out
    assert "loc = 0" in err


def test_scan_all_comment_file_exit_6(tmp_path, capsys):
    path = tmp_path / "comments.c"
    path.write_text("// a\n// b\n/* c */\n", encoding="utf-8")
    assert main(["scan", str(path)]) == 6
    out, _ = capsys.readouterr()
    assert "loc = 0\n" in out


def test_scan_unterminated_comment_warns(tmp_path, capsys):
    path = tmp_path / "open.c"
    path.write_text("int a;\n/* never closed\n", encoding="utf-8")
    assert main(["scan", str(path)]) == 0
    _, err = capsys.readouterr()
    assert "unterminated block comment" in err


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["report", "--store", "x.jsonl"])
    assert err.value.code == 2


# --- record -----------------------------------------------------------------

def test_record_and_report_text_flow(clean_src, faulty_src, error_log,
                                      tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    assert main(["record", faulty_src, "--project", "demo", "--store", store,
                 "--log", error_log, "--t-hours", "0"]) == 0
    assert main(["record", clean_src, "--project", "demo", "--store", store,
                 "--t-hours", "2"]) == 0
    capsys.readouterr()

    assert main(["report", "--project", "demo", "--store", store]) == 0
    out, _ = capsys.readouterr()
    assert "Project : demo" in out
    assert "Snapshots : 2" in out
    assert "Improvement (X_final - X_initial) = +0.85" in out
    # Internally X stays at full precision (99.1525... not the displayed
    # 99.15), so the rate over 2 h is 0.847.../2 = 0.423729, not 0.425.
    assert "[0, 2] : 0.423729" in out
    assert "Instantaneous rate at t = 2 h : 0.423729 points/hour" in out
    assert "Trend : uniform" in out
    assert "Effort = alpha * dX/dt = 1 * 0.423729 = 0.423729" in out


def test_record_defaults_time_axis(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store)]) == 0
    assert main(["record", clean_src, "--project", "p", "--store", str(store)]) == 0
    records = [json.loads(line) for line in
               store.read_text(encoding="utf-8").splitlines()]
    assert records[0]["t_hours"] == 0.0
    assert records[1]["t_hours"] > 0.0


def test_record_rejects_non_advancing_time_exit_7(clean_src, tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    assert main(["record", clean_src, "--project", "p", "--store", store,
                 "--t-hours", "2"]) == 0
    assert main(["record", clean_src, "--project", "p", "--store", store,
                 "--t-hours", "2"]) == 7
    _, err = capsys.readouterr()
    assert "does not advance" in err


def test_record_clock_before_first_snapshot_exits_7(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0"]) == 0
    record = json.loads(store.read_text(encoding="utf-8"))
    record["wall_clock"] = "2099-01-01T00:00:00+00:00"
    store.write_text(json.dumps(record) + "\n", encoding="utf-8")
    before = store.read_bytes()
    capsys.readouterr()
    assert main(["record", clean_src, "--project", "p", "--store", str(store)]) == 7
    _, err = capsys.readouterr()
    assert "2099-01-01T00:00:00+00:00" in err
    assert "--t-hours" in err
    assert store.read_bytes() == before


def test_record_wall_clock_without_utc_offset_exits_7(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0"]) == 0
    store.write_text(store.read_text(encoding="utf-8").replace("+00:00", ""),
                     encoding="utf-8")
    before = store.read_bytes()
    capsys.readouterr()
    assert main(["record", clean_src, "--project", "p", "--store", str(store)]) == 7
    _, err = capsys.readouterr()
    assert "line 1" in err and "no UTC offset" in err
    assert store.read_bytes() == before


@pytest.mark.parametrize("t_hours", [None, "50"])
def test_record_parses_each_store_record_once(clean_src, tmp_path, monkeypatch, capsys,
                                              t_hours):
    store = str(tmp_path / "store.jsonl")
    for project, t in [("q", "0"), ("p", "0"), ("q", "1"), ("q", "2"), ("q", "3")]:
        assert main(["record", clean_src, "--project", project, "--store", store,
                     "--t-hours", t]) == 0
    parse_record, check_bulk = history._parse_record, history._check_bulk
    calls = []

    def counting(line, line_number):
        calls.append(line_number)
        return parse_record(line, line_number)

    def counting_bulk(text, start, end, before):
        snapshots = check_bulk(text, start, end, before)
        if snapshots is not None:  # it checked every line; each ends in a newline here
            calls.extend(range(before + 1, before + 1 + text.count("\n", start, end)))
        return snapshots

    monkeypatch.setattr(history, "_parse_record", counting)
    monkeypatch.setattr(history, "_check_bulk", counting_bulk)
    time_flag = [] if t_hours is None else ["--t-hours", t_hours]
    data = (tmp_path / "store.jsonl").read_bytes()

    # The seal the earlier records left covers lines 1-4: only line 5 is parsed.
    assert main(["record", clean_src, "--project", "p", "--store", store, *time_flag]) == 0
    assert calls == [5]
    seal = tmp_path / "store.jsonl.seal"
    sealed = seal.read_bytes()

    # Without the seal every line is checked once, and the same seal is written.
    (tmp_path / "store.jsonl").write_bytes(data)
    seal.unlink()
    calls.clear()
    assert main(["record", clean_src, "--project", "p", "--store", store, *time_flag]) == 0
    assert sorted(calls) == [1, 2, 3, 4, 5]
    assert seal.read_bytes() == sealed


def test_writer_store_needs_no_record_by_record_check(clean_src, tmp_path, monkeypatch):
    # The bulk pass checks the writer's own lines; were it to miss them, every
    # store would quietly take the slower record-by-record path.
    store = str(tmp_path / "store.jsonl")
    for project, t in [("q", "0"), ("p", "0"), ("q", "1"), ("p", "2.5"), ("q", "3")]:
        assert main(["record", clean_src, "--project", project, "--store", store,
                     "--t-hours", t]) == 0
    expected = oracle_load_trajectory(store, "p")

    def refuse(*args):
        raise AssertionError(f"unexpected check of {args!r}")

    parse_record = history._parse_record
    monkeypatch.setattr(history, "_parse_record", refuse)
    assert load_trajectory(store, "p") == expected
    unended = tmp_path / "unended.jsonl"  # a last record whose newline is missing
    unended.write_bytes((tmp_path / "store.jsonl").read_bytes()[:-1])
    assert load_trajectory(str(unended), "p") == expected
    os.remove(store + ".seal")
    assert main(["record", clean_src, "--project", "p", "--store", store,
                 "--t-hours", "4"]) == 0
    assert [s.t_hours for s in load_trajectory(store, "p").snapshots] == [0.0, 2.5, 4.0]
    # The seal leaves a one-record tail, which is not worth compiling the pattern for.
    monkeypatch.setattr(history, "_parse_record", parse_record)
    monkeypatch.setattr(history, "_check_bulk", refuse)
    assert main(["record", clean_src, "--project", "p", "--store", store,
                 "--t-hours", "5"]) == 0


def test_record_starts_a_fresh_line_after_a_final_record_without_newline(
        clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0"]) == 0
    ended = store.read_bytes()
    store.write_bytes(ended[:-1])
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "1"]) == 0
    assert main(["report", "--project", "p", "--store", str(store)]) == 0
    assert "Snapshots : 2" in capsys.readouterr().out
    assert store.read_bytes().startswith(ended)

    # A store that ends in a newline gets exactly one line appended.
    before = store.read_bytes()
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "2"]) == 0
    added = store.read_bytes()[len(before):]
    assert store.read_bytes().startswith(before)
    assert added.endswith(b"\n") and added.count(b"\n") == 1
    assert json.loads(added)["t_hours"] == 2.0


def test_record_after_a_cut_back_to_the_sealed_length_appends_one_line(clean_src, tmp_path):
    # The benchmark's record workload cuts its store back like this before each append.
    store = tmp_path / "store.jsonl"
    for t in ("0", "1", "2"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    seal = tmp_path / "store.jsonl.seal"
    sealed = seal.read_bytes()
    length = json.loads(sealed)["length"]
    prefix = store.read_bytes()[:length]
    assert prefix.count(b"\n") == 2 and prefix.endswith(b"\n")
    store.write_bytes(prefix)
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "3"]) == 0
    data = store.read_bytes()
    added = data[length:]
    assert data.startswith(prefix)
    assert added.count(b"\n") == 1 and added.endswith(b"\n")  # no blank line before it
    assert json.loads(added)["t_hours"] == 3.0
    assert seal.read_bytes() == sealed  # nothing followed the seal: it still covers the prefix


@pytest.mark.parametrize("sealed", [True, False])
def test_record_refusal_reads_the_store_it_locked(clean_src, tmp_path, monkeypatch, capsys,
                                                  sealed):
    # An editor saving over the store during a record replaces the path, not the
    # file the record locked and read: the refusal names that file's time.
    store, other = tmp_path / "store.jsonl", tmp_path / "other.jsonl"
    for project, path, t in [("p", store, "0"), ("p", store, "1"), ("q", other, "0")]:
        assert main(["record", clean_src, "--project", project, "--store", str(path),
                     "--t-hours", t]) == 0
    seal = tmp_path / "store.jsonl.seal"
    if not sealed:
        seal.unlink()
    locked = tmp_path / "locked.jsonl"
    os.link(store, locked)  # the file the record locks, still reachable once replaced
    before, replacement = store.read_bytes(), other.read_bytes()
    seal_before = seal.read_bytes() if sealed else None
    check = history._check

    def check_then_replace(*args):
        result = check(*args)
        if other.exists():
            os.replace(other, store)
        return result

    monkeypatch.setattr(history, "_check", check_then_replace)
    capsys.readouterr()
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0.5"]) == 7
    assert "store already holds t = 1.0 h" in capsys.readouterr().err
    assert not other.exists()
    assert store.read_bytes() == replacement
    assert locked.read_bytes() == before
    assert (seal.read_bytes() if seal.exists() else None) == seal_before


# ISO 8601 forms that ``datetime.fromisoformat`` takes from Python 3.11 on, outside
# the grammar that 3.10 documents: a week date, the basic format, a one-digit fraction.
_WIDER_CLOCKS = ["2026-W01-1T00:00+00:00", "20260101T000000+0000",
                 "2026-01-01T00:00:00.5+00:00"]


@pytest.mark.parametrize("clock", _WIDER_CLOCKS)
def test_clock_only_later_pythons_parse_is_corrupt_exit_7(clean_src, tmp_path, capsys, clock):
    store = tmp_path / "store.jsonl"
    for t in ("0", "1"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])  # past the seal, which covers line 1
    record["wall_clock"] = clock
    lines[1] = json.dumps(record) + "\n"
    store.write_text("".join(lines), encoding="utf-8")
    before = store.read_bytes()
    message = f"store record at line 2 is invalid: wall_clock is not an RFC 3339 timestamp: " \
              f"{clock!r}"
    record_argv = ["record", clean_src, "--project", "p", "--store", str(store), "--t-hours", "2"]
    for argv, seal in [(["report", "--project", "p", "--store", str(store)], True),
                       (record_argv, True), (record_argv, False)]:
        if not seal:
            os.remove(f"{store}.seal")
        capsys.readouterr()
        assert main(argv) == 7
        assert message in capsys.readouterr().err
        assert store.read_bytes() == before


@pytest.mark.parametrize("first", [*_WIDER_CLOCKS, "2026-05-01T00:00:00", None])
def test_seal_with_a_bad_first_clock_gets_the_full_check(clean_src, tmp_path, monkeypatch,
                                                         first):
    store = tmp_path / "store.jsonl"
    for t in ("0", "1", "2"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    seal_path = tmp_path / "store.jsonl.seal"
    seal = json.loads(seal_path.read_bytes())
    if first is not None:  # None: the seal as written, its digest recomputed all the same
        seal["projects"]["p"][0] = first
    prefix = hashlib.sha256(store.read_bytes()[:seal["length"]])
    seal["sha256"] = history._seal_digest(prefix, seal["length"], seal["lines"],
                                          seal["projects"])
    seal_path.write_text(json.dumps(seal), encoding="utf-8")
    befores = []
    check = history._check

    def counting(text, before, *rest):
        befores.append(before)
        return check(text, before, *rest)

    monkeypatch.setattr(history, "_check", counting)
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "3"]) == 0
    assert befores == [2 if first is None else 0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_record_rejects_non_finite_t_hours_exit_2(clean_src, tmp_path, capsys, value):
    store = tmp_path / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0"]) == 0
    before = store.read_bytes()
    with pytest.raises(SystemExit) as err:
        main(["record", clean_src, "--project", "p", "--store", str(store),
              "--t-hours", value])
    assert err.value.code == 2
    assert store.read_bytes() == before


def test_record_refuses_non_utf8_project_exit_2(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    with pytest.raises(SystemExit) as err:  # the argv byte 0xff, as Linux hands it over
        main(["record", clean_src, "--project", "\udcff", "--store", str(store),
              "--t-hours", "0"])
    assert err.value.code == 2
    assert "argument --project: must be UTF-8" in capsys.readouterr().err
    assert not store.exists()


def test_record_refuses_non_utf8_file_name_exit_2(tmp_path, capsys):
    src = tmp_path / "\udcfe.c"  # the file name byte 0xfe
    src.write_text("int x;\n", encoding="utf-8")
    store = tmp_path / "store.jsonl"
    with pytest.raises(SystemExit) as err:
        main(["record", str(src), "--project", "p", "--store", str(store), "--t-hours", "0"])
    assert err.value.code == 2
    assert "argument src: must be UTF-8" in capsys.readouterr().err
    assert not store.exists()
    assert main(["scan", str(src)]) == 0


def test_record_store_in_missing_directory_exits_3(clean_src, tmp_path, capsys):
    store = tmp_path / "missing" / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0"]) == 3
    assert f"cannot open store: {store} (No such file or directory)" in capsys.readouterr().err


def test_record_store_that_cannot_be_locked_exits_3(clean_src, tmp_path, monkeypatch, capsys):
    import errno
    import fcntl
    store = tmp_path / "store.jsonl"
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "0"]) == 0
    before = store.read_bytes()

    def no_locks(fd, operation):  # as on a file system without locks
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(fcntl, "flock", no_locks)
    capsys.readouterr()
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "1"]) == 3
    assert f"cannot open store: {store} (No locks available)" in capsys.readouterr().err
    assert store.read_bytes() == before


def test_record_store_that_cannot_be_synced_exits_3(clean_src, tmp_path, monkeypatch, capsys):
    import errno
    store = tmp_path / "store.jsonl"
    for t in ("0", "1"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    seal = tmp_path / "store.jsonl.seal"
    before = seal.read_bytes()

    def no_space(fd):  # as on a full disk
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", no_space)
    capsys.readouterr()
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "2"]) == 3
    assert f"cannot open store: {store} (No space left on device)" in capsys.readouterr().err
    assert seal.read_bytes() == before


def test_record_zero_loc_source_is_refused_before_the_store_is_locked(tmp_path, monkeypatch,
                                                                       capsys):
    import fcntl
    path = tmp_path / "comments.c"
    path.write_text("// only a comment\n", encoding="utf-8")
    store = tmp_path / "store.jsonl"
    store.write_bytes(b"not json\n")  # corrupt, but the record's own fault comes first
    locks = []
    monkeypatch.setattr(fcntl, "flock", lambda fd, operation: locks.append(operation))
    assert main(["record", str(path), "--project", "p", "--store", str(store)]) == 6
    assert "error level is undefined for loc = 0" in capsys.readouterr().err
    assert store.read_bytes() == b"not json\n"
    assert locks == []


def test_record_zero_loc_source_exit_6(tmp_path, capsys):
    path = tmp_path / "comments.c"
    path.write_text("// only a comment\n", encoding="utf-8")
    store = str(tmp_path / "store.jsonl")
    assert main(["record", str(path), "--project", "p", "--store", store]) == 6
    assert not os.path.exists(store)


def _store_with_a_byte_that_is_not_utf8(clean_src, store):
    """Two records, the seal over the first, then a line holding 0xff 0xfe."""
    for t in ("0", "1"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    offset = len(store.read_bytes())
    with open(store, "ab") as f:
        f.write(b"\xff\xfe\n")
    return f"store record at line 3 is invalid: not valid UTF-8 (byte offset {offset})\n"


def test_report_store_not_utf8_exits_7(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    message = _store_with_a_byte_that_is_not_utf8(clean_src, store)
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", str(store)]) == 7
    assert capsys.readouterr().err == "excellence: error: " + message


def test_record_store_not_utf8_exits_7_with_or_without_seal(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    message = _store_with_a_byte_that_is_not_utf8(clean_src, store)
    before = store.read_bytes()
    for seal in (True, False):
        if not seal:
            os.remove(f"{store}.seal")
        capsys.readouterr()
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", "2"]) == 7
        assert capsys.readouterr().err.endswith("excellence: error: " + message)
        assert store.read_bytes() == before


def test_record_misses_a_seal_whose_summary_was_edited(clean_src, tmp_path, capsys):
    store = tmp_path / "s.jsonl"
    for project, t in [("p", "0"), ("p", "1"), ("p", "2"), ("q", "0")]:
        assert main(["record", clean_src, "--project", project, "--store", str(store),
                     "--t-hours", t]) == 0
    seal = json.loads(store.with_suffix(".jsonl.seal").read_text(encoding="utf-8"))
    assert seal["projects"]["p"][1] == 2.0
    seal["projects"]["p"][1] = 0.25  # the digest is kept
    store.with_suffix(".jsonl.seal").write_text(json.dumps(seal), encoding="utf-8")
    before = store.read_bytes()
    capsys.readouterr()
    assert main(["record", clean_src, "--project", "p", "--store", str(store),
                 "--t-hours", "1.5"]) == 7
    assert "store already holds t = 2.0 h" in capsys.readouterr().err
    assert store.read_bytes() == before
    assert main(["report", "--project", "p", "--store", str(store)]) == 0


def test_concurrent_records_take_turns(clean_src, tmp_path):
    store = tmp_path / "store.jsonl"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    procs = [subprocess.Popen([sys.executable, "-m", "excellence", "record", clean_src,
                               "--project", "p", "--store", str(store), "--t-hours", str(t)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
             for t in range(8)]
    outcomes = []
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        outcomes.append((proc.returncode, err))
    # A record that finds a later time already stored is refused; none is lost or misplaced.
    assert all(code == 0 or (code == 7 and b"does not advance" in err)
               for code, err in outcomes)
    loaded = load_trajectory(str(store), "p").snapshots
    assert len(loaded) == sum(code == 0 for code, _ in outcomes)
    assert loaded == oracle_load_trajectory(str(store), "p").snapshots


def test_store_env_variable_is_default(clean_src, tmp_path, monkeypatch, capsys):
    store = tmp_path / "env-store.jsonl"
    monkeypatch.setenv("EXCEL_STORE", str(store))
    assert main(["record", clean_src, "--project", "p", "--t-hours", "1"]) == 0
    assert store.exists()
    assert main(["report", "--project", "p"]) == 0
    out, _ = capsys.readouterr()
    assert "Snapshots : 1" in out


# --- report -----------------------------------------------------------------

def build_store(tmp_path, clean_src, faulty_src, error_log):
    store = str(tmp_path / "store.jsonl")
    main(["record", faulty_src, "--project", "demo", "--store", store,
          "--log", error_log, "--t-hours", "0"])
    main(["record", faulty_src, "--project", "demo", "--store", store,
          "--log", error_log, "--t-hours", "1"])
    main(["record", clean_src, "--project", "demo", "--store", store,
          "--t-hours", "2"])
    return store


def test_report_unknown_project_exits_8(clean_src, tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    main(["record", clean_src, "--project", "p", "--store", store])
    capsys.readouterr()
    assert main(["report", "--project", "ghost", "--store", store]) == 8
    _, err = capsys.readouterr()
    assert "no snapshots" in err


def test_report_missing_store_exits_3(capsys):
    assert main(["report", "--project", "p", "--store", "/no/such/store.jsonl"]) == 3


def test_report_corrupt_store_exits_7(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    main(["record", clean_src, "--project", "p", "--store", str(store)])
    store.write_text(store.read_text(encoding="utf-8")[:40] + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", str(store)]) == 7
    _, err = capsys.readouterr()
    assert "line 1" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_report_non_finite_store_number_exits_7(clean_src, tmp_path, capsys, token):
    store = tmp_path / "store.jsonl"
    for t in ("0", "1"):
        main(["record", clean_src, "--project", "p", "--store", str(store), "--t-hours", t])
    first, second = store.read_text(encoding="utf-8").splitlines()
    second = second.replace('"t_hours": 1.0', f'"t_hours": {token}')
    store.write_text(f"{first}\n{second}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", str(store)]) == 7
    _, err = capsys.readouterr()
    assert "line 2" in err
    assert "t_hours must be finite" in err


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("edit", [
    pytest.param("digits", marks=pytest.mark.skipif(
        not 0 < _DIGIT_LIMIT < 5001, reason="no int-digit limit below 5 001 digits")),
    "nesting",
])
def test_undecodable_store_line_exits_7_with_or_without_seal(clean_src, tmp_path, capsys,
                                                             edit):
    # json raises ValueError for an int past the digit limit and RecursionError for
    # nesting too deep, not JSONDecodeError: each is a corrupt line, not a crash.
    store = tmp_path / "store.jsonl"
    for t in ("0", "1"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    assert (tmp_path / "store.jsonl.seal").exists()  # it covers line 1
    first, second = store.read_text(encoding="utf-8").splitlines()
    second = (second.replace('"for_count": 20', '"for_count": ' + "9" * 5001)
              if edit == "digits" else "[" * 100_000)
    store.write_text(f"{first}\n{second}\n", encoding="utf-8")
    before = store.read_bytes()
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", str(store)]) == 7
    assert "store record at line 2 is invalid" in capsys.readouterr().err
    for sealed in (True, False):
        if not sealed:
            os.remove(tmp_path / "store.jsonl.seal")
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", "2"]) == 7
        assert "store record at line 2 is invalid" in capsys.readouterr().err
        assert store.read_bytes() == before


def test_report_single_snapshot_degrades_gracefully(clean_src, tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    main(["record", clean_src, "--project", "p", "--store", store])
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", store]) == 0
    out, _ = capsys.readouterr()
    assert "Snapshots : 1" in out
    assert out.count("insufficient data") == 5


def test_report_huge_stored_values_exit_0(tmp_path, capsys):
    # X = -1e32 has more digits than Decimal's default 28-digit context holds.
    store = str(tmp_path / "store.jsonl")
    history.record_snapshot(store, "p", datetime(2026, 3, 1, tzinfo=timezone.utc),
                            SourceStats("m.c", 1, 0, 0, 1, 0, 0), 10**30, 0.0)
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", store]) == 0
    out, _ = capsys.readouterr()
    assert f"X = -{10**32}.00  EL% = {10**32}.00  errors = {10**30}  loc = 1" in out


def test_report_alpha_scales_effort(clean_src, faulty_src, error_log,
                                    tmp_path, capsys):
    store = build_store(tmp_path, clean_src, faulty_src, error_log)
    capsys.readouterr()
    assert main(["report", "--project", "demo", "--store", store,
                 "--alpha", "2.5"]) == 0
    out, _ = capsys.readouterr()
    assert "Effort = alpha * dX/dt = 2.5 *" in out


def test_report_rejects_non_positive_alpha(clean_src, tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    main(["record", clean_src, "--project", "p", "--store", store])
    with pytest.raises(SystemExit) as err:
        main(["report", "--project", "p", "--store", store, "--alpha", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, value", [("--alpha", "inf"), ("--alpha", "nan"),
                                         ("--tolerance", "inf"), ("--tolerance", "nan")])
def test_report_rejects_non_finite_flags_exit_2(clean_src, tmp_path, capsys, flag, value):
    store = str(tmp_path / "store.jsonl")
    main(["record", clean_src, "--project", "p", "--store", store])
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["report", "--project", "p", "--store", store, flag, value])
    assert err.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def test_report_fit_section(clean_src, faulty_src, error_log, tmp_path, capsys):
    store = build_store(tmp_path, clean_src, faulty_src, error_log)
    capsys.readouterr()
    assert main(["report", "--project", "demo", "--store", store,
                 "--fit-degree", "1"]) == 0
    out, _ = capsys.readouterr()
    assert "Polynomial fit (degree 1) : X(t) =" in out
    assert "fit-derivative rate at t = 2 h :" in out


def test_report_fit_degree_too_high_for_data(clean_src, tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    main(["record", clean_src, "--project", "p", "--store", store, "--t-hours", "0"])
    main(["record", clean_src, "--project", "p", "--store", store, "--t-hours", "1"])
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", store,
                 "--fit-degree", "3"]) == 0
    out, _ = capsys.readouterr()
    assert "Polynomial fit (degree 3) : insufficient data" in out


@pytest.mark.parametrize("scale, degree", [(1e-200, 1), (1e-200, 2), (1e-200, 3), (1e160, 2)])
def test_report_fit_on_times_out_of_float_range_exits_0(clean_src, tmp_path, capsys, scale,
                                                        degree):
    # Squares of 1e-200 h underflow and powers of 1e160 h overflow: the fit says so.
    store = str(tmp_path / "store.jsonl")
    for k in range(4):
        assert main(["record", clean_src, "--project", "p", "--store", store,
                     "--t-hours", repr(k * scale)]) == 0
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", store,
                 "--fit-degree", str(degree)]) == 0
    out, _ = capsys.readouterr()
    assert f"Polynomial fit (degree {degree}) : insufficient data (" in out


def test_csv_report_shape(clean_src, faulty_src, error_log, tmp_path, capsys):
    store = build_store(tmp_path, clean_src, faulty_src, error_log)
    capsys.readouterr()
    assert main(["report", "--project", "demo", "--store", store,
                 "--format", "csv"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "t_hours,x,el_percent,errors,loc,rate_from_prev"
    assert len(lines) == 4  # header + 3 snapshots
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[3] == "8"
    assert first[4] == "944"
    assert first[5] == ""  # no previous point
    second = lines[2].split(",")
    assert second[5] == "0.0"  # same X at t=0 and t=1
    assert float(lines[3].split(",")[1]) == 100.0


def test_csv_rate_column_is_interval_rates(tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    stats = SourceStats("m.c", 40, 4, 2, 36, 1, 0)
    t0 = datetime(2026, 5, 1, tzinfo=timezone.utc)
    for t, errors in ((0.0, 9), (0.5, 7), (1.75, 7), (4.0, 2), (4.3, 5)):
        history.record_snapshot(store, "p", t0, stats, errors, t)
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", store, "--format", "csv"]) == 0
    column = [line.split(",")[5] for line in capsys.readouterr().out.splitlines()[1:]]
    rates = interval_rates(load_trajectory(store, "p"))
    assert column == ["", *(repr(rate.value) for rate in rates)]


def test_svg_report_shape(clean_src, faulty_src, error_log, tmp_path, capsys):
    store = build_store(tmp_path, clean_src, faulty_src, error_log)
    capsys.readouterr()
    assert main(["report", "--project", "demo", "--store", store,
                 "--format", "svg"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")
    assert "<polyline points=" in out
    assert out.count("<circle ") == 3
    assert "time (hours)" in out
    assert "Degree of Excellence (%)" in out


def test_svg_report_escapes_the_project_id(clean_src, tmp_path, capsys):
    import xml.etree.ElementTree as ET
    store = str(tmp_path / "store.jsonl")
    project = "R&D <1> > 0"
    for t in ("0", "1"):
        assert main(["record", clean_src, "--project", project, "--store", store,
                     "--t-hours", t]) == 0
    capsys.readouterr()
    assert main(["report", "--project", project, "--store", store, "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    titles = [e.text for e in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert titles[0] == project
    assert main(["report", "--project", project, "--store", store]) == 0
    assert capsys.readouterr().out.startswith(f"Project : {project}\n")


def test_svg_report_replaces_characters_xml_forbids(clean_src, tmp_path, capsys):
    import xml.etree.ElementTree as ET
    store = str(tmp_path / "store.jsonl")
    forbidden = "\x00\x01\x08\x0b\x0c\x0e\x1f\ufffe\uffff"
    project = f"a{forbidden}\tb"
    for name in (project, "plain"):
        for t in ("0", "1"):
            assert main(["record", clean_src, "--project", name, "--store", store,
                         "--t-hours", t]) == 0
    capsys.readouterr()
    assert main(["report", "--project", project, "--store", store, "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    titles = [e.text for e in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert titles[0] == "a" + "\ufffd" * len(forbidden) + "\tb"
    # The text and csv reports print the id as it is.
    outputs = {}
    for name in (project, "plain"):
        for fmt in ("text", "csv"):
            assert main(["report", "--project", name, "--store", store, "--format", fmt]) == 0
            outputs[name, fmt] = capsys.readouterr().out
    assert outputs[project, "text"] == outputs["plain", "text"].replace(
        "Project : plain\n", f"Project : {project}\n", 1)
    assert outputs[project, "csv"] == outputs["plain", "csv"]


def test_svg_single_snapshot_has_padded_range(clean_src, tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    main(["record", clean_src, "--project", "p", "--store", store])
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", store,
                 "--format", "svg"]) == 0
    out, _ = capsys.readouterr()
    assert out.count("<circle ") == 1
    assert "</svg>" in out


def test_store_lines_end_at_lf_as_source_and_log_lines_do(clean_src, tmp_path, capsys):
    # A "\r" just before a "\n" is part of the line break; any other "\r" is a
    # character of its line, where JSON reads it as whitespace.
    store = tmp_path / "store.jsonl"
    for t in ("0", "1"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
    lf = store.read_bytes()
    capsys.readouterr()
    assert main(["report", "--project", "p", "--store", str(store)]) == 0
    report = capsys.readouterr()
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
    assert main(["report", "--project", "p", "--store", str(crlf)]) == 0
    assert capsys.readouterr() == report
    lone_cr = tmp_path / "cr.jsonl"
    lone_cr.write_bytes(lf.replace(b"\n", b"\r", 1))
    before = lone_cr.read_bytes()
    for argv in (["report"], ["record", clean_src, "--t-hours", "2"]):
        assert main([*argv, "--project", "p", "--store", str(lone_cr)]) == 7
        assert "store record at line 1 is invalid: not valid JSON (Extra data)" in \
            capsys.readouterr().err
    assert lone_cr.read_bytes() == before


def test_unwritable_seal_costs_only_the_seal(clean_src, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    (tmp_path / "store.jsonl.seal.tmp").mkdir()
    for t in ("0", "1", "2"):
        assert main(["record", clean_src, "--project", "p", "--store", str(store),
                     "--t-hours", t]) == 0
        assert not (tmp_path / "store.jsonl.seal").exists()
    assert [snap.t_hours for snap in load_trajectory(str(store), "p").snapshots] == [0, 1, 2]


@pytest.mark.parametrize("flag, value", [("--t-hours", "-1"), ("--tolerance", "-0.5")])
def test_negative_hours_or_tolerance_exit_2(clean_src, tmp_path, capsys, flag, value):
    command = ["record", clean_src] if flag == "--t-hours" else ["report"]
    with pytest.raises(SystemExit) as err:
        main([*command, "--project", "p", "--store", str(tmp_path / "store.jsonl"), flag, value])
    assert err.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "store.jsonl").exists()


# --- interactive ------------------------------------------------------------

def feed_input(monkeypatch, answers):
    """Answer the prompts with ``answers``, then end the input; return the prompts asked."""
    it, prompts = iter(answers), []

    def answer(prompt=""):
        prompts.append(prompt)
        line = next(it, None)
        if line is None:
            raise EOFError
        return line

    monkeypatch.setattr("builtins.input", answer)
    return prompts


def test_interactive_scan_and_quit(clean_src, monkeypatch, capsys):
    feed_input(monkeypatch, [clean_src, "", "n"])
    assert main(["interactive"]) == 0
    out, _ = capsys.readouterr()
    assert "File opened successfully!" in out
    assert GOLDEN_CLEAN in out


def test_interactive_recovers_from_missing_file(clean_src, monkeypatch, capsys):
    feed_input(monkeypatch, ["/no/such.c", "y", clean_src, "", "n"])
    assert main(["interactive"]) == 0
    out, err = capsys.readouterr()
    assert "error" in err
    assert out.count("File opened successfully!") == 1


def test_interactive_with_log(faulty_src, error_log, monkeypatch, capsys):
    feed_input(monkeypatch, [faulty_src, error_log, "n"])
    assert main(["interactive"]) == 0
    out, _ = capsys.readouterr()
    assert GOLDEN_WITH_ERRORS in out


_PROMPTS = ("Enter the name of the file : ", "Enter the name of the log file (blank for none) : ",
            "Want to continue? y/n : ")


@pytest.mark.parametrize("answered", [0, 1, 2])
def test_interactive_ends_at_end_of_input_at_each_prompt(clean_src, monkeypatch, capsys,
                                                         answered):
    prompts = feed_input(monkeypatch, [clean_src, ""][:answered])
    assert main(["interactive"]) == 0
    out, _ = capsys.readouterr()
    if answered == 0:
        assert prompts == [_PROMPTS[0]]
        assert out == ""
    else:  # no log named, at the log prompt or past it: 0 errors
        assert prompts == list(_PROMPTS)
        assert out == "File opened successfully!\n" + GOLDEN_CLEAN

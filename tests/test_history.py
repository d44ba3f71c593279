"""Tests for the append-only snapshot store."""

import json
import math
import random
from datetime import datetime, timedelta, timezone

import pytest

from excellence import history
from excellence.errors import (
    CorruptionError,
    MissingFileError,
    OrderingError,
    UndefinedMetricError,
)
from excellence.history import (
    QualitySnapshot,
    Trajectory,
    append_snapshot,
    load_trajectory,
    record_snapshot,
)
from excellence.scanner import SourceStats

from store_oracle import oracle_load_trajectory

T0 = datetime(2026, 3, 1, 9, 30, 15, 123456, tzinfo=timezone.utc)


def make_stats(loc=100, comments=10, blanks=5, fors=2, whiles=1, name="mod.c"):
    return SourceStats(
        file_name=name,
        total_lines=loc + comments,
        comment_lines=comments,
        blank_lines=blanks,
        loc=loc,
        for_count=fors,
        while_count=whiles,
    )


def make_snapshot(project="alpha", t=0.0, errors=3, loc=100, **kwargs):
    return QualitySnapshot.create(
        project_id=project,
        wall_clock=T0 + timedelta(hours=t),
        t_hours=t,
        stats=make_stats(loc=loc, **kwargs),
        error_count=errors,
    )


def test_round_trip_preserves_everything(tmp_path):
    store = str(tmp_path / "store.jsonl")
    written = [make_snapshot(t=float(i), errors=i, loc=3) for i in range(4)]
    for snap in written:
        append_snapshot(store, snap)
    loaded = load_trajectory(store, "alpha")
    assert loaded.snapshots == tuple(written)


def test_loaded_floats_are_bit_identical(tmp_path):
    store = str(tmp_path / "store.jsonl")
    snap = make_snapshot(errors=2, loc=3)  # 66.666... exercises repr round-trip
    append_snapshot(store, snap)
    (loaded,) = load_trajectory(store, "alpha").snapshots
    assert loaded.metrics.error_level_percent == snap.metrics.error_level_percent
    assert loaded.metrics.degree_of_excellence == snap.metrics.degree_of_excellence
    assert loaded.t_hours == snap.t_hours
    assert loaded.wall_clock == snap.wall_clock


def test_store_is_one_json_object_per_line(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    append_snapshot(str(store), make_snapshot(t=1.0))
    lines = store.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    expected_fields = {
        "project", "wall_clock", "t_hours", "file", "total_lines",
        "comment_lines", "blank_lines", "loc", "for_count", "while_count",
        "errors", "el_percent", "x",
    }
    for line in lines:
        assert set(json.loads(line)) == expected_fields


def test_append_rejects_non_advancing_time(tmp_path):
    store = str(tmp_path / "store.jsonl")
    append_snapshot(store, make_snapshot(t=2.0))
    with pytest.raises(OrderingError) as err:
        append_snapshot(store, make_snapshot(t=2.0))
    assert err.value.exit_code == 7
    with pytest.raises(OrderingError):
        append_snapshot(store, make_snapshot(t=1.0))
    append_snapshot(store, make_snapshot(t=2.5))  # still appendable afterwards


def test_ordering_error_names_the_earliest_blocking_snapshot(tmp_path):
    store = str(tmp_path / "store.jsonl")
    for t in (0.0, 1.0, 2.0):
        append_snapshot(store, make_snapshot(t=t))
    with pytest.raises(OrderingError, match=r"store already holds t = 1\.0 h$"):
        append_snapshot(store, make_snapshot(t=0.5))


def test_projects_are_ordered_independently(tmp_path):
    store = str(tmp_path / "store.jsonl")
    append_snapshot(store, make_snapshot(project="alpha", t=5.0))
    append_snapshot(store, make_snapshot(project="beta", t=1.0))
    append_snapshot(store, make_snapshot(project="alpha", t=6.0))
    append_snapshot(store, make_snapshot(project="beta", t=2.0))
    alpha = load_trajectory(store, "alpha")
    beta = load_trajectory(store, "beta")
    assert [s.t_hours for s in alpha.snapshots] == [5.0, 6.0]
    assert [s.t_hours for s in beta.snapshots] == [1.0, 2.0]


def test_unknown_project_loads_empty(tmp_path):
    store = str(tmp_path / "store.jsonl")
    append_snapshot(store, make_snapshot())
    assert len(load_trajectory(store, "nope")) == 0


def test_missing_store_raises(tmp_path):
    with pytest.raises(MissingFileError):
        load_trajectory(str(tmp_path / "absent.jsonl"), "alpha")


def test_blank_lines_are_skipped(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    store.write_text(store.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    append_snapshot(str(store), make_snapshot(t=1.0))
    assert len(load_trajectory(str(store), "alpha")) == 2


def test_truncated_record_reports_line_number(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    append_snapshot(str(store), make_snapshot(t=1.0))
    text = store.read_text(encoding="utf-8").splitlines()
    store.write_text(text[0] + "\n" + text[1][: len(text[1]) // 2] + "\n",
                     encoding="utf-8")
    with pytest.raises(CorruptionError) as err:
        load_trajectory(str(store), "alpha")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)
    assert err.value.exit_code == 7


def test_tampered_metrics_detected(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(errors=2, loc=3))
    record = json.loads(store.read_text(encoding="utf-8"))
    record["x"] += 0.001
    store.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorruptionError) as err:
        load_trajectory(str(store), "alpha")
    assert "re-derive" in str(err.value)


def test_missing_and_extra_fields_detected(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot())
    record = json.loads(store.read_text(encoding="utf-8"))
    dropped = dict(record)
    del dropped["loc"]
    store.write_text(json.dumps(dropped) + "\n", encoding="utf-8")
    with pytest.raises(CorruptionError) as err:
        load_trajectory(str(store), "alpha")
    assert "loc" in str(err.value)

    extra = dict(record)
    extra["bogus"] = 1
    store.write_text(json.dumps(extra) + "\n", encoding="utf-8")
    with pytest.raises(CorruptionError) as err:
        load_trajectory(str(store), "alpha")
    assert "bogus" in str(err.value)


def test_inconsistent_loc_detected(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot())
    record = json.loads(store.read_text(encoding="utf-8"))
    record["total_lines"] += 1
    store.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorruptionError):
        load_trajectory(str(store), "alpha")


def test_out_of_order_file_detected_on_load(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    append_snapshot(str(store), make_snapshot(t=1.0))
    lines = store.read_text(encoding="utf-8").splitlines()
    store.write_text(lines[1] + "\n" + lines[0] + "\n", encoding="utf-8")
    with pytest.raises(CorruptionError) as err:
        load_trajectory(str(store), "alpha")
    assert err.value.line_number == 2


def test_zulu_timestamp_accepted(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(errors=0, loc=10))
    record = json.loads(store.read_text(encoding="utf-8"))
    record["wall_clock"] = "2026-03-01T09:30:15Z"
    store.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (snap,) = load_trajectory(str(store), "alpha").snapshots
    assert snap.wall_clock == datetime(2026, 3, 1, 9, 30, 15, tzinfo=timezone.utc)


def test_timestamp_without_utc_offset_rejected_on_load(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    append_snapshot(str(store), make_snapshot(t=1.0))
    lines = store.read_text(encoding="utf-8").splitlines()
    store.write_text(lines[0] + "\n" + lines[1].replace("+00:00", "") + "\n",
                     encoding="utf-8")
    with pytest.raises(CorruptionError, match="no UTC offset") as err:
        load_trajectory(str(store), "alpha")
    assert err.value.line_number == 2


def test_append_rejects_naive_wall_clock(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    before = store.read_bytes()
    naive = make_snapshot(t=1.0)
    naive = naive._replace(wall_clock=naive.wall_clock.replace(tzinfo=None))
    with pytest.raises(ValueError,
                       match="^snapshot cannot be stored: wall_clock has no UTC offset: "):
        append_snapshot(str(store), naive)
    assert store.read_bytes() == before


@pytest.mark.parametrize("existing", [False, True])
def test_append_refuses_metrics_that_do_not_match_the_counts(tmp_path, existing):
    store = tmp_path / "store.jsonl"
    if existing:
        append_snapshot(str(store), make_snapshot(t=0.0))
    before = store.read_bytes() if existing else None
    snapshot = make_snapshot(t=1.0)
    tampered = snapshot._replace(metrics=snapshot.metrics._replace(degree_of_excellence=50.0))
    with pytest.raises(ValueError, match="^snapshot metrics do not match its counts$"):
        append_snapshot(str(store), tampered)
    assert (store.read_bytes() if store.exists() else None) == before


def test_bad_timestamp_rejected(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot())
    record = json.loads(store.read_text(encoding="utf-8"))
    record["wall_clock"] = "yesterday"
    store.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorruptionError):
        load_trajectory(str(store), "alpha")


def test_interleaved_many_snapshot_round_trip(tmp_path):
    store = str(tmp_path / "store.jsonl")
    rng = random.Random(2026)
    written = {"alpha": [], "beta": []}
    t = {"alpha": 0.0, "beta": 0.0}
    for _ in range(50):
        project = rng.choice(("alpha", "beta"))
        t[project] += rng.uniform(0.1, 4.0)
        snap = make_snapshot(project=project, t=t[project],
                             errors=rng.randint(0, 40), loc=rng.randint(1, 2000))
        append_snapshot(store, snap)
        written[project].append(snap)
    for project, snaps in written.items():
        assert load_trajectory(store, project).snapshots == tuple(snaps)


@pytest.mark.parametrize("block", [1, 700, 1 << 18])
@pytest.mark.parametrize("split", [0, 7])
def test_bulk_check_agrees_with_record_by_record_check(tmp_path, monkeypatch, block, split):
    # The same snapshots, line count and ``seen`` (its order too, which the seal
    # keeps), from one block or many, and after a prefix that a seal covered.
    store = str(tmp_path / "store.jsonl")
    rng = random.Random(11)
    t = {}
    for _ in range(25):
        project = rng.choice(("alpha", "beta", "\u00e9\u00e8 <&>"))
        t[project] = t[project] + rng.uniform(0.1, 4.0) if project in t else 0.0
        append_snapshot(store, make_snapshot(project=project, t=t[project],
                                             errors=rng.randint(0, 40), loc=rng.randint(1, 99)))
    with open(store, "rb") as f:
        lines = f.read().decode("utf-8").split("\n")
    prefix, tail = "\n".join(lines[:split]), "\n".join(lines[split:])

    def check(bulk):
        seen = {}
        history._check(prefix, 0, seen)
        snapshots, count = history._check(tail, split, seen, "beta")
        assert (history._check_bulk(tail, 0, len(tail), split) is not None) == bulk
        return snapshots, count, list(seen.items())

    monkeypatch.setattr(history, "_BLOCK", block)
    expected = check(True)
    assert expected[1] == len(lines) - 1
    assert {project: entry[2] for project, entry in expected[2]} == \
        {json.loads(line)["project"]: number for number, line in enumerate(lines, 1) if line}
    monkeypatch.setattr(history, "_check_bulk", lambda *args: None)
    assert check(False) == expected


@pytest.mark.parametrize("block", [1, 700, 1 << 18])
@pytest.mark.parametrize("order_line, metrics_line", [(3, 5), (5, 3)])
def test_first_fault_in_line_order_is_reported(tmp_path, monkeypatch, block, order_line,
                                               metrics_line):
    # Rows are checked lazily, so a block that the bulk check hands back to the
    # record-by-record check still stops at its first fault, not at a later one.
    store = tmp_path / "store.jsonl"
    for t in (0.0, 1.0, 2.0):
        for project in ("alpha", "beta"):
            append_snapshot(str(store), make_snapshot(project=project, t=t))
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    records[order_line - 1]["t_hours"] = records[order_line - 3]["t_hours"]
    records[metrics_line - 1]["x"] += 1.0
    store.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                     encoding="utf-8")
    monkeypatch.setattr(history, "_BLOCK", block)
    with pytest.raises(CorruptionError) as got:
        load_trajectory(str(store), "alpha")
    with pytest.raises(CorruptionError) as want:
        oracle_load_trajectory(str(store), "alpha")
    assert (str(got.value), got.value.line_number) == (str(want.value), want.value.line_number)
    assert got.value.line_number == 3


def _set(**fields):
    """An edit that sets each field of a record to a value or to a function of the record."""
    return lambda r: r.update({key: value(r) if callable(value) else value
                               for key, value in fields.items()})


def _each(*edits):
    def edit(record):
        for one in edits:
            one(record)
    return edit


_NEGATIVE_HOURS = _set(t_hours=-0.5)
_LOC_MISMATCH = _set(loc=lambda r: r["loc"] + 1)
_BLANK_OVER = _set(blank_lines=lambda r: r["total_lines"] + 1)
_BAD_CLOCK = _set(wall_clock=lambda r: r["wall_clock"].replace("2026-03", "2026-13"))
_NAIVE_CLOCK = _set(wall_clock=lambda r: r["wall_clock"].replace("+00:00", ""))
_ZERO_LOC = _set(loc=0, comment_lines=lambda r: r["total_lines"], errors=0, el_percent=0.0,
                 x=100.0)
_HUGE_ERRORS = _set(errors=10**400)

# Each edit of line 3 gives one message of the checks; an edit of two fields
# gives the message of the one checked first.
_FAULTS = {
    "total_lines negative": _set(total_lines=-1),
    "comment_lines real": _set(comment_lines=1.5),
    "blank_lines bool": _set(blank_lines=True),
    "loc string": _set(loc="7"),
    "for_count null": _set(for_count=None),
    "while_count negative": _set(while_count=-1),
    "errors integral real": _set(errors=2.0),
    "project int": _set(project=3),
    "wall_clock null": _set(wall_clock=None),
    "file bool": _set(file=True),
    "t_hours bool": _set(t_hours=True),
    "el_percent string": _set(el_percent="1"),
    "x null": _set(x=None),
    "t_hours 1e400": _set(t_hours=math.inf),
    "el_percent NaN": _set(el_percent=math.nan),
    "x -1e400": _set(x=-math.inf),
    "negative hours": _NEGATIVE_HOURS,
    "loc mismatch": _LOC_MISMATCH,
    "blank over total": _BLANK_OVER,
    "not a timestamp": _BAD_CLOCK,
    "no UTC offset": _NAIVE_CLOCK,
    "zero loc": _ZERO_LOC,
    "overflowing error level": _HUGE_ERRORS,
    "tampered x": _set(x=lambda r: r["x"] + 1.0),
    "tampered percent": _set(el_percent=lambda r: r["el_percent"] + 1.0),
    "int percent off the float": _set(errors=10**15, loc=1, el_percent=10**17 + 1,
                                      comment_lines=lambda r: r["total_lines"] - 1,
                                      x=100.0 - 1e17),
    "missing field": lambda r: r.pop("loc"),
    "extra field": _set(bogus=1),
    "counts before strings": _set(errors=True, project=3),
    "strings before reals": _set(file=None, t_hours="1"),
    "types before rules": _set(t_hours=-1.0, for_count=True),
    "hours before loc": _each(_NEGATIVE_HOURS, _LOC_MISMATCH),
    "loc before blank": _each(_LOC_MISMATCH, _set(blank_lines=lambda r: r["total_lines"] + 5)),
    "blank before timestamp": _each(_BLANK_OVER, _BAD_CLOCK),
    "blank before offset": _each(_BLANK_OVER, _NAIVE_CLOCK),
    "timestamp before metrics": _each(_BAD_CLOCK, _ZERO_LOC),
    "offset before metrics": _each(_NAIVE_CLOCK, _ZERO_LOC),
    "metrics before re-derive": _each(_HUGE_ERRORS, _set(x=1.0)),
}


@pytest.mark.parametrize("block", [1, 1 << 18])
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_every_fault_is_named_alike_by_both_checks(tmp_path, monkeypatch, block, fault):
    # The bulk check hands the block back, and the record-by-record check names
    # the fault as the reference loader does.
    store = tmp_path / "store.jsonl"
    for t in (0.0, 1.0, 2.0):
        for project in ("alpha", "beta"):
            append_snapshot(str(store), make_snapshot(project=project, t=t, errors=7, loc=33))
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    _FAULTS[fault](records[2])
    store.write_text("".join(json.dumps(r, ensure_ascii=False).replace("Infinity", "1e400")
                             + "\n" for r in records), encoding="utf-8")
    bulk, check_bulk = [], history._check_bulk

    def spy(text, start, end, before):
        bulk.append((before, check_bulk(text, start, end, before)))
        return bulk[-1][1]

    monkeypatch.setattr(history, "_BLOCK", block)
    monkeypatch.setattr(history, "_check_bulk", spy)
    with pytest.raises(CorruptionError) as got:
        load_trajectory(str(store), "alpha")
    with pytest.raises(CorruptionError) as want:
        oracle_load_trajectory(str(store), "alpha")
    assert (str(got.value), got.value.line_number) == (str(want.value), want.value.line_number)
    assert got.value.line_number == 3
    assert bulk[-1] == (2 if block == 1 else 0, None)


# Snapshots that ``QualitySnapshot.create`` takes but whose record the loader
# rejects: a bool is not a count, nor is an integral float.
_UNSTORABLE = {
    "bool errors": (make_stats(), True),
    "bool for_count": (make_stats()._replace(for_count=True), 1),
    "float total_lines": (make_stats()._replace(total_lines=110.0), 1),
    "float loc": (make_stats()._replace(loc=100.0), 1),
}


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("writer", ["append_snapshot", "record_snapshot"])
@pytest.mark.parametrize("fault", list(_UNSTORABLE))
def test_writer_refuses_what_its_loader_rejects(tmp_path, existing, writer, fault):
    store = tmp_path / "store.jsonl"
    if existing:
        append_snapshot(str(store), make_snapshot(t=0.0))
    before = store.read_bytes() if existing else None
    stats, errors = _UNSTORABLE[fault]
    clock = T0 + timedelta(hours=1)
    with pytest.raises(ValueError, match="^snapshot cannot be stored: .* must be a nonneg"):
        if writer == "append_snapshot":
            append_snapshot(str(store), QualitySnapshot.create("alpha", clock, 1.0, stats, errors))
        else:
            record_snapshot(str(store), "alpha", clock, stats, errors, t_hours=1.0)
    assert (store.read_bytes() if store.exists() else None) == before


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("writer", ["append_snapshot", "record_snapshot"])
def test_writer_refuses_a_clock_that_reads_back_as_another(tmp_path, existing, writer):
    # isoformat writes an offset of one microsecond as +00:00:00.000001, which
    # CPython 3.11 reads back as UTC: the stored instant would be 1 us off.
    store = tmp_path / "store.jsonl"
    if existing:
        append_snapshot(str(store), make_snapshot(t=0.0))
    before = store.read_bytes() if existing else None
    clock = (T0 + timedelta(hours=1)).astimezone(timezone(timedelta(microseconds=1)))
    read_back = datetime.fromisoformat(clock.isoformat())

    def write():
        if writer == "append_snapshot":
            append_snapshot(str(store), QualitySnapshot.create("alpha", clock, 1.0, make_stats(), 3))
        else:
            record_snapshot(str(store), "alpha", clock, make_stats(), 3, t_hours=1.0)

    if read_back.utcoffset() == clock.utcoffset():  # a Python that reads the offset whole
        write()
        loaded = load_trajectory(str(store), "alpha").snapshots[-1].wall_clock
        assert loaded == clock and loaded.utcoffset() == clock.utcoffset()
        return
    with pytest.raises(ValueError, match=r"^snapshot cannot be stored: wall_clock "
                                         r"\S+\+00:00:00\.000001 reads back as \S+\+00:00$"):
        write()
    assert (store.read_bytes() if store.exists() else None) == before


def test_hours_given_as_int_or_bool_are_stored_as_floats(tmp_path, monkeypatch):
    # As the writer's own lines, which the bulk check takes whole.
    store = str(tmp_path / "store.jsonl")
    for t in (False, True, 2):
        append_snapshot(store, make_snapshot(t=float(t))._replace(t_hours=t))
    assert [json.loads(line)["t_hours"] for line in open(store, encoding="utf-8")] == \
        [0.0, 1.0, 2.0]

    def refuse(*args):
        raise AssertionError(f"unexpected check of {args!r}")

    monkeypatch.setattr(history, "_parse_record", refuse)
    assert [type(t) for t in load_trajectory(store, "alpha").ts] == [float] * 3


def test_trajectory_validates_membership_and_order():
    a0 = make_snapshot(project="alpha", t=0.0)
    a1 = make_snapshot(project="alpha", t=1.0)
    b0 = make_snapshot(project="beta", t=0.5)
    with pytest.raises(ValueError):
        Trajectory(project_id="alpha", snapshots=(a0, b0))
    with pytest.raises(ValueError):
        Trajectory(project_id="alpha", snapshots=(a1, a0))
    assert len(Trajectory(project_id="alpha", snapshots=(a0, a1))) == 2


def test_snapshot_create_rejects_negative_time():
    with pytest.raises(ValueError):
        make_snapshot(t=-0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_snapshot_create_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        QualitySnapshot.create(project_id="alpha", wall_clock=T0, t_hours=t,
                               stats=make_stats(), error_count=0)


def test_append_rejects_non_finite_time(tmp_path):
    store = tmp_path / "store.jsonl"
    append_snapshot(str(store), make_snapshot(t=0.0))
    before = store.read_bytes()
    snap = make_snapshot(t=1.0)._replace(t_hours=math.nan)
    with pytest.raises(ValueError, match="finite"):
        append_snapshot(str(store), snap)
    assert store.read_bytes() == before


def test_store_write_refuses_non_finite_json(tmp_path, monkeypatch):
    store = tmp_path / "store.jsonl"
    record_dict = history._record_dict
    monkeypatch.setattr(history, "_record_dict",
                        lambda snap: {**record_dict(snap), "x": math.nan})
    with pytest.raises(ValueError, match="JSON compliant"):
        append_snapshot(str(store), make_snapshot(t=0.0))
    assert not store.exists()


def test_record_snapshot_places_snapshots_on_the_hours_axis(tmp_path):
    store = str(tmp_path / "store.jsonl")
    first = record_snapshot(store, "alpha", T0, make_stats(), 3)
    assert first.t_hours == 0.0
    record_snapshot(store, "beta", T0 + timedelta(hours=9), make_stats(), 0)
    later = record_snapshot(store, "alpha", T0 + timedelta(minutes=90), make_stats(), 1)
    assert later.t_hours == 1.5
    placed = record_snapshot(store, "alpha", T0, make_stats(), 0, t_hours=7.0)
    assert placed.t_hours == 7.0
    assert load_trajectory(store, "alpha").snapshots == (first, later, placed)


def test_record_snapshot_rejects_early_or_naive_clock(tmp_path):
    store = tmp_path / "store.jsonl"
    record_snapshot(str(store), "alpha", T0, make_stats(), 0)
    before = store.read_bytes()
    with pytest.raises(OrderingError,
                       match=r"before the first snapshot .*; pass t_hours \(--t-hours\)"):
        record_snapshot(str(store), "alpha", T0 - timedelta(seconds=1), make_stats(), 0)
    assert store.read_bytes() == before
    with pytest.raises(ValueError, match="^wall_clock has no UTC offset: "):
        record_snapshot(str(store), "alpha", T0.replace(tzinfo=None), make_stats(), 0)
    assert store.read_bytes() == before


@pytest.mark.parametrize("project, loc, error", [("alpha", 0, UndefinedMetricError),
                                                 ("\ud800", 100, UnicodeEncodeError)])
def test_failing_record_creates_no_store(tmp_path, project, loc, error):
    store = tmp_path / "store.jsonl"
    with pytest.raises(error):
        record_snapshot(str(store), project, T0, make_stats(loc=loc), 0)
    assert not store.exists()


def test_record_through_a_dangling_symlink_creates_its_target(tmp_path):
    (tmp_path / "store.jsonl").symlink_to(tmp_path / "target.jsonl")
    snap = record_snapshot(str(tmp_path / "store.jsonl"), "alpha", T0, make_stats(), 0)
    assert load_trajectory(str(tmp_path / "target.jsonl"), "alpha").snapshots == (snap,)


def test_failing_record_keeps_what_a_writer_that_locked_first_committed(tmp_path, monkeypatch):
    # The writer that creates the store is not the first to lock it: another one
    # locks, appends t = 5 and leaves before it. Its refused t = 1 removes nothing.
    import fcntl
    store = tmp_path / "store.jsonl"
    flock, other = fcntl.flock, []

    def other_writer_locks_first(fd, operation):
        if not other:
            other.append(None)
            other[0] = record_snapshot(str(store), "alpha", T0, make_stats(), 0, t_hours=5.0)
        flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", other_writer_locks_first)
    with pytest.raises(OrderingError, match="store already holds t = 5.0 h"):
        record_snapshot(str(store), "alpha", T0, make_stats(), 0, t_hours=1.0)
    assert load_trajectory(str(store), "alpha").snapshots == tuple(other)

"""Append-only JSON Lines store for timestamped quality snapshots.

One JSON object per line, keyed by project id. Time is kept on two axes: an
RFC 3339 wall-clock stamp with a UTC offset, in the one grammar that
``datetime.fromisoformat`` takes on every supported Python, and decimal hours since
the project's first snapshot, which rate estimation uses; ``record_snapshot``
places a new snapshot on the hours axis from its wall clock. Appends are atomic at
record granularity and start on a fresh line; a torn final record never corrupts
earlier ones, and the loader reports the offending line number. A writer holds an
exclusive ``flock`` on the store across its read, checks, append and seal, so
concurrent writers on one host take turns.

One function, ``_read``, reads the store's bytes, on the handle its caller opened:
for ``load_trajectory``, for a writer, and for a writer's ordering refusal. Every
field of every record is checked, in O(n) for n records; stored metrics are
redundant with the stored counts on purpose, and a mismatch is corruption.
Blocks of lines that are all the writer's own, wall clocks as ``isoformat()``
writes them included, are checked in bulk, by one regex pass into columns and each
rule over a column, with no JSON decoder; any other block record by record, which
names the line and the fault. Either way each record gives one row, and one loop
applies the order rule and builds the asked project's snapshots. A record's shape
is stated once, in ``_FIELDS``, and its value rules once, in ``_rows``, so the
writer refuses any record the loader would reject, and any clock it would read back
as another. ``json`` is imported only where it is used: the record-by-record check,
the seal and the writer.

A writer also leaves ``<store>.seal``: the length and line count of the prefix it
read, each project's first wall clock and last hours there, and one sha256 over
that prefix and this summary. Only a writer honours it: while the store starts with
those bytes it hashes them and checks only the lines after them, so an append
parses O(1) records and hashes O(n) bytes. Without a seal, or with one ill formed
or unmatched, the writer checks the whole store, with the same outcome.
"""

from __future__ import annotations

import bisect
import math
import operator
import os
import re
import sys
from datetime import datetime
from itertools import chain
from typing import Callable, NamedTuple

from .errors import CorruptionError, MissingFileError, OrderingError, UndefinedMetricError
from .metrics import QualityMetrics, SourceStats, compute_metrics, error_levels

_FIELDS = {  # a record's keys, in the order the writer writes them, and their JSON types
    "project": str, "wall_clock": str, "t_hours": float, "file": str,
    "total_lines": int, "comment_lines": int, "blank_lines": int, "loc": int,
    "for_count": int, "while_count": int, "errors": int, "el_percent": float, "x": float,
}


class QualitySnapshot(NamedTuple):
    """One timestamped measurement of a file's counts and metrics."""

    project_id: str
    wall_clock: datetime
    t_hours: float
    stats: SourceStats
    error_count: int
    metrics: QualityMetrics

    @classmethod
    def create(
        cls,
        project_id: str,
        wall_clock: datetime,
        t_hours: float,
        stats: SourceStats,
        error_count: int,
    ) -> "QualitySnapshot":
        """Build a snapshot with metrics derived from the counts."""
        if not math.isfinite(t_hours):
            raise ValueError(f"t_hours must be finite, got {t_hours}")
        if t_hours < 0:
            raise ValueError(f"t_hours must be >= 0, got {t_hours}")
        return cls(project_id, wall_clock, float(t_hours), stats, error_count,
                   compute_metrics(error_count, stats.loc))


class Trajectory:
    """A project's snapshots in strictly increasing timestamp order.

    ``ts`` and ``xs`` hold each snapshot's hours and degree of excellence.
    Immutable; equal when the project and the snapshots are.
    """

    __slots__ = ("project_id", "snapshots", "ts", "xs")

    def __init__(self, project_id: str, snapshots: tuple[QualitySnapshot, ...]) -> None:
        for snap in snapshots:
            if snap.project_id != project_id:
                raise ValueError(
                    f"snapshot project {snap.project_id!r} != trajectory {project_id!r}"
                )
        ts = tuple(s.t_hours for s in snapshots)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot timestamps must be strictly increasing")
        init = object.__setattr__
        init(self, "project_id", project_id)
        init(self, "snapshots", snapshots)
        init(self, "ts", ts)
        init(self, "xs", tuple(s.metrics.degree_of_excellence for s in snapshots))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.project_id, self.snapshots) == (other.project_id, other.snapshots)

    def __hash__(self) -> int:
        return hash((self.project_id, self.snapshots))

    def __repr__(self) -> str:
        return f"Trajectory(project_id={self.project_id!r}, snapshots={self.snapshots!r})"


def _record_dict(snapshot: QualitySnapshot) -> dict:
    return dict(zip(_FIELDS, (snapshot.project_id, snapshot.wall_clock.isoformat(),
                              snapshot.t_hours, *snapshot.stats[:7], snapshot.error_count,
                              *snapshot.metrics[1:])))


# The grammar that Python 3.10 documents for ``datetime.fromisoformat`` and later
# versions widen, YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]] with *
# any one character and ASCII digits: a clock outside it is corrupt on every Python.
_ISO_CLOCK = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}"
                        r"(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?(?:[+-][0-9]{2}:[0-9]{2}"
                        r"(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?", re.S)


def _clock(text: str) -> datetime:
    """The wall clock ``text`` states; ValueError, in a store fault's words, unless it
    fits ``_ISO_CLOCK``, parses and has a UTC offset."""
    iso = text.replace("Z", "+00:00")
    try:
        if not _ISO_CLOCK.fullmatch(iso):
            raise ValueError("outside the grammar of _ISO_CLOCK")
        clock = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise ValueError(f"wall_clock is not an RFC 3339 timestamp: {text!r}") from exc
    if clock.utcoffset() is None:
        raise ValueError(f"wall_clock has no UTC offset: {text!r}")
    return clock


_PERCENT, _DEGREE = operator.itemgetter(1), operator.itemgetter(2)


def _rows(first: int, columns: list, clock: "Callable[[str], datetime]" = _clock):
    """The rows (see ``_check``) of records given as columns in ``_FIELDS`` order,
    their types and finiteness already checked, hours as floats, numbered from
    ``first``. Each value rule runs over whole columns, in this order, before a row is
    given; the first one broken raises ValueError in its words. ``clock`` reads the
    wall clocks: ``_clock``, or ``fromisoformat`` for clocks that fit ``_WRITER_CLOCK``."""
    (projects, clocks, hours, files, totals, comments, blanks, locs, fors, whiles, errors,
     percents, degrees) = columns
    if min(hours) < 0:
        raise ValueError("t_hours must be >= 0")
    if list(map(operator.sub, totals, comments)) != locs:
        raise ValueError("loc != total_lines - comment_lines")
    # loc = total_lines - comment_lines >= 0 already keeps comment_lines within total_lines.
    if not all(map(operator.le, blanks, totals)):
        raise ValueError("comment/blank counts exceed total_lines")
    wall_clocks = list(map(clock, clocks))  # RFC 3339, then the UTC offset, clock by clock
    try:
        levels = list(map(error_levels, errors, locs))
    except (UndefinedMetricError, OverflowError) as exc:  # loc = 0; errors / loc too large
        raise ValueError(f"metrics cannot be derived: {exc}") from exc
    # As decoded: an int el_percent may equal no float, though it rounds to one.
    if list(map(_PERCENT, levels)) != percents or list(map(_DEGREE, levels)) != degrees:
        raise ValueError("stored metrics do not re-derive from stored counts")
    return zip(range(first, first + len(projects)), projects, clocks, hours, wall_clocks,
               zip(files, totals, comments, blanks, locs, fors, whiles), errors, levels)


_TYPE_ORDER = [(key, kind) for kind in (int, str, float)  # the order faults are named in
               for key, field_kind in _FIELDS.items() if field_kind is kind]
_TYPE_WORDS = {int: "a nonnegative integer", str: "a string", float: "a number"}


def _row(obj, line_number: int):
    """The one row (see ``_check``) of a decoded record, every field checked;
    ValueError names its first fault: the keys, then the types of counts, strings and
    reals, then the value rules of ``_rows``."""
    # json yields only dict, list, str, int, float, bool and None: a bool is not an int.
    if type(obj) is not dict:
        raise ValueError("record is not a JSON object")
    if obj.keys() != _FIELDS.keys():
        raise ValueError(f"field mismatch (missing {sorted(_FIELDS.keys() - obj.keys())}, "
                         f"unexpected {sorted(obj.keys() - _FIELDS.keys())})")
    for key, kind in _TYPE_ORDER:
        value = obj[key]
        if not (type(value) is kind or kind is float and type(value) is int) \
                or kind is int and value < 0:
            raise ValueError(f"{key} must be {_TYPE_WORDS[kind]}")
        if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, a huge int
            raise ValueError(f"{key} must be finite")
    columns = [[obj[key]] for key in _FIELDS]
    columns[2] = [float(obj["t_hours"])]  # an int is a number of hours too
    return _rows(line_number, columns)


def _parse_record(line: str, line_number: int):
    """Check every field of one store line; return its one row (see ``_check``)."""
    import json  # here, not at module level: the writer's own lines need no decoder

    def bad(reason: str) -> CorruptionError:
        return CorruptionError(f"store record at line {line_number} is invalid: {reason}",
                               line_number)

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad(f"not valid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # an int of too many digits; nesting too deep
        raise bad(f"cannot be decoded ({exc})") from exc
    try:
        return _row(obj, line_number)
    except ValueError as exc:
        raise bad(str(exc)) from exc


def _cannot_open(store_path: str, exc: OSError) -> MissingFileError:
    return MissingFileError(f"cannot open store: {store_path} ({exc.strerror})")


# The wall clock as ``isoformat()`` writes an aware one: ``T``, seconds always, an
# optional 6-digit fraction, and a ``±HH:MM`` offset with optional ``:SS[.ffffff]``.
# All it matches fits _ISO_CLOCK and holds nothing that JSON escapes, so
# ``datetime.fromisoformat`` alone reads it as ``_clock`` would.
_WRITER_CLOCK = (r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]{6})?"
                 r"[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?")


def _writer_line() -> str:
    """A regex for the exact line ``_line`` writes, one group per field in ``_FIELDS``
    order: the wall clock as ``_WRITER_CLOCK``, other strings holding nothing that
    JSON escapes, counts as non-negative int literals, and the three reals in float
    syntax alone, with a ``.`` or an exponent."""
    slots = {str: r'"([^"\\\x00-\x1f]*)"', int: "(0|[1-9][0-9]*)",
             float: r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"}
    return "^{" + ", ".join(
        f'"{key}": ' + (f'"({_WRITER_CLOCK})"' if key == "wall_clock" else slots[kind])
        for key, kind in _FIELDS.items()) + "}$"


_WRITER_LINE = _writer_line()  # compiled, and cached by re, on first use: a short tail never is
_BLOCK = 1 << 18  # characters per block of the check, rounded up to a whole line


def _check_bulk(text: str, start: int, end: int, before: int):
    """The rows (see ``_check``) of the lines in ``text[start:end]``, each rule
    checked a column at a time, for lines that are all the writer's own, and the
    line breaks there. None when a line is not or a record breaks a rule, so that
    the record-by-record check names the fault. The order of each project's hours
    is ``_check``'s to apply."""
    lines = re.compile(_WRITER_LINE, re.M).findall(text, start, end)
    breaks = text.count("\n", start, end)
    if len(lines) != breaks + (text[end - 1] != "\n"):  # the last line may lack its \n
        return None
    try:  # ValueError: an int of too many digits, or a rule broken
        columns = [column if kind is str else list(map(kind, column))
                   for kind, column in zip(_FIELDS.values(), zip(*lines))]
        if all(all(map(math.isfinite, column))
               for kind, column in zip(_FIELDS.values(), columns) if kind is float):
            return _rows(before + 1, columns, datetime.fromisoformat), breaks
    except ValueError:
        pass
    return None


def _check(text: str, before: int, seen: dict, project_id: "str | None" = None
           ) -> tuple[list[QualitySnapshot], int]:
    """Check every line of ``text``, which follows ``before`` lines of the store.

    ``seen`` maps each project to its first wall clock, its last hours and that
    record's line number, and is updated in first-seen order. Returns the snapshots
    of ``project_id`` and ``before`` plus the line breaks in ``text``. Blocks of
    whole lines whose every line is the writer's own are checked in bulk, others
    record by record. Both give one row per record: line number, project, wall
    clock as stored, hours, wall clock as parsed, ``SourceStats`` fields, error
    count and error levels. The record-by-record rows are made lazily, one line at
    a time, so the first fault in line order is the one reported.
    """
    bulk = text.find("\n", 0, len(text) - 1) >= 0  # two lines or more: worth the pattern
    snapshots = []
    start = 0
    while start < len(text):  # in blocks: few strings alive at once
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        checked = _check_bulk(text, start, end, before) if bulk else None
        if checked is not None:
            rows, breaks = checked
        else:
            lines = text[start:end].split("\n")
            rows = chain.from_iterable(_parse_record(line, number) for number, line
                                       in enumerate(lines, before + 1) if line.strip() != "")
            breaks = len(lines) - 1
        for number, project, clock, t_hours, wall_clock, stats, errors, levels in rows:
            previous = seen.get(project)
            if previous is None:
                seen[project] = (clock, t_hours, number)
            elif t_hours <= previous[1]:
                raise CorruptionError(
                    f"store record at line {number} is invalid: t_hours {t_hours} does not "
                    f"advance project {project!r} (line {previous[2]} has {previous[1]})",
                    number,
                )
            else:
                seen[project] = (previous[0], t_hours, number)
            if project == project_id:
                snapshots.append(QualitySnapshot(project, wall_clock, t_hours, SourceStats(*stats),
                                                 errors, QualityMetrics(*levels)))
        before += breaks
        start = end
    return snapshots, before


def _well_formed(seal) -> bool:
    """Whether ``seal`` has the shape ``_update`` writes: non-negative int ``length``
    and ``lines``, a str ``sha256``, and ``projects`` mapping each id (a JSON key is
    a str) to its first wall clock with a UTC offset, its last hours, finite and
    >= 0, and that record's line number, from 1 to ``lines``."""
    if type(seal) is not dict or seal.keys() != {"length", "lines", "sha256", "projects"}:
        return False
    lines, projects = seal["lines"], seal["projects"]
    if not (type(seal["length"]) is int and type(lines) is int and min(seal["length"], lines) >= 0
            and type(seal["sha256"]) is str and type(projects) is dict):
        return False
    for entry in projects.values():
        if type(entry) is not list or len(entry) != 3:
            return False
        clock, hours, line = entry
        if not (type(clock) is str and type(hours) is float and 0 <= hours <= sys.float_info.max
                and type(line) is int and 1 <= line <= lines):
            return False
        try:
            _clock(clock)
        except ValueError:
            return False
    return True


def _read(f, project_id: "str | None", seal_path: "str | None" = None) -> tuple:
    """Check the store open as ``f``, from its start: the snapshots of ``project_id``,
    the line count, ``seen`` (see ``_check``), the running sha256 and the length it
    covers, and whether bytes followed the seal and ended in ``\n``.

    Only given ``seal_path`` does it trust a seal, well formed and matching: the
    prefix the seal covers is hashed, not checked, and the bytes after it are hashed
    on. Without it the digest is None. A line ends at ``\n``, a ``\r`` just before
    it is part of the break, and any other ``\r`` is a character of its line, as
    for the scanner and the log counter; a byte that is not UTF-8 corrupts its line."""
    f.seek(0)
    length, lines, seen, digest = 0, 0, {}, None
    if seal_path is not None:
        import hashlib  # here, not at module level: scan and report never hash
        import json  # nor read a seal
        digest = hashlib.sha256()
        try:
            with open(seal_path, "rb") as seal_file:
                seal = json.load(seal_file)
            if _well_formed(seal):
                while f.tell() < seal["length"]:  # in chunks: the prefix is never held whole
                    chunk = f.read(min(1 << 16, seal["length"] - f.tell()))
                    if not chunk:
                        break
                    digest.update(chunk)
                if f.tell() == seal["length"] and _seal_digest(
                        digest, seal["length"], seal["lines"], seal["projects"]) == seal["sha256"]:
                    length, lines, seen = seal["length"], seal["lines"], seal["projects"]
        except (OSError, ValueError, RecursionError):  # missing, unreadable or nested too deep
            pass
        if f.tell() != length:  # no seal, or one that does not match: check from the start
            f.seek(0)
            digest = hashlib.sha256()
    tail = f.read()
    try:
        text = tail.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = tail[:exc.start]
        number = lines + head.count(b"\n") + 1
        raise CorruptionError(f"store record at line {number} is invalid: not valid UTF-8 "
                              f"(byte offset {length + exc.start})", number) from exc
    ended = tail.endswith(b"\n")
    if digest is not None and ended:
        digest.update(tail)
        length += len(tail)
    del tail  # the text alone stays alive through the check
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    snapshots, lines = _check(text, lines, seen, project_id)
    return snapshots, lines, seen, digest, length, ended


def _seal_digest(prefix, length: int, lines: int, projects: dict) -> str:
    """The sha256 a seal carries: of its prefix, then of its summary, so that an
    edit to either misses."""
    import json
    digest = prefix.copy()
    digest.update(json.dumps([length, lines, projects], sort_keys=True).encode("ascii"))
    return digest.hexdigest()


def _write_seal(store_path: str, seal: dict) -> None:
    import json
    # A seal that cannot be written costs the next writer a full check, nothing more.
    temp = store_path + ".seal.tmp"  # the store's lock keeps other writers out
    try:
        with open(temp, "w", encoding="utf-8") as f:
            json.dump(seal, f)
        os.replace(temp, store_path + ".seal")
    except OSError:
        pass


def _line(snapshot: QualitySnapshot) -> bytes:
    """The store line of ``snapshot``; ValueError if the loader would reject it or
    read back another wall clock."""
    import json
    text = json.dumps(_record_dict(snapshot), ensure_ascii=False, allow_nan=False)
    try:
        wall_clock = next(_row(json.loads(text), 0))[4]
        # An offset of microseconds alone, +00:00:00.000001, reads back as UTC on 3.11.
        if wall_clock != snapshot.wall_clock or \
                wall_clock.utcoffset() != snapshot.wall_clock.utcoffset():
            raise ValueError(f"wall_clock {snapshot.wall_clock.isoformat()} reads back as "
                             f"{wall_clock.isoformat()}")
    except ValueError as exc:
        raise ValueError(f"snapshot cannot be stored: {exc}") from exc
    # A lone surrogate in the project or file name raises UnicodeEncodeError here.
    return (text + "\n").encode("utf-8")


def _update(store_path: str, project_id: str,
            place: "Callable[[datetime | None], QualitySnapshot]") -> QualitySnapshot:
    """Under the store's exclusive lock: check it, append ``place(first)`` and seal
    what was read; ``first`` is the project's first wall clock, None for a new one.

    ``place(None)`` and its line are checked before the store is opened; only the
    order rule needs ``first``. A store created but then not locked is left empty, a
    valid store, and not removed: another writer may already hold that file.
    """
    import fcntl
    _line(place(None))
    try:  # the open, the lock (ENOLCK where a file system has none), read, write and fsync
        with open(store_path, "a+b") as f:  # every write lands at the end
            fcntl.flock(f.fileno(), fcntl.LOCK_EX)
            _, count, seen, digest, length, ended = _read(f, None, store_path + ".seal")
            stored = seen.get(project_id)
            snapshot = place(None if stored is None else _clock(stored[0]))
            if stored is not None and snapshot.t_hours <= stored[1]:
                # Read this handle again, in full, to name the earliest stored time that blocks.
                ts = [snap.t_hours for snap in _read(f, project_id)[0]]
                later = ts[bisect.bisect_left(ts, snapshot.t_hours)]
                raise OrderingError(f"snapshot at t = {snapshot.t_hours} h does not advance "
                                    f"project {project_id!r}; store already holds t = {later} h")
            line = _line(snapshot)
            if f.tell() > length:  # the last record, past what a seal may cover, lacks its newline
                line = b"\n" + line
            f.write(line)
            f.flush()
            os.fsync(f.fileno())
            if ended:
                _write_seal(store_path, {"length": length, "lines": count,
                                         "sha256": _seal_digest(digest, length, count, seen),
                                         "projects": seen})
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc
    return snapshot


def record_snapshot(store_path: str, project_id: str, wall_clock: datetime,
                    stats: SourceStats, error_count: int,
                    t_hours: "float | None" = None) -> QualitySnapshot:
    """Build a snapshot, place it on the project's hours axis and append it.

    Without ``t_hours`` the snapshot sits at the hours from the project's first
    wall clock to ``wall_clock``, or at 0 if it is the project's first. The
    store is read once, or twice when the snapshot is refused for its time.
    """
    _clock(wall_clock.isoformat())  # an aware clock, or no hours can be taken from it

    def place(first: "datetime | None") -> QualitySnapshot:
        hours = t_hours
        if hours is None:
            first = wall_clock if first is None else first
            hours = (wall_clock - first).total_seconds() / 3600.0
            if hours < 0:
                raise OrderingError(
                    f"the clock reads {wall_clock.isoformat()}, before the first snapshot of "
                    f"project {project_id!r} at {first.isoformat()}; pass t_hours (--t-hours) "
                    "to place this one"
                )
        return QualitySnapshot.create(project_id, wall_clock, hours, stats, error_count)

    return _update(store_path, project_id, place)


def append_snapshot(store_path: str, snapshot: QualitySnapshot) -> None:
    """Durably append one snapshot, enforcing the per-project time order."""
    created = QualitySnapshot.create(*snapshot[:5])  # checks t_hours, and makes it a float
    if created != snapshot:
        raise ValueError("snapshot metrics do not match its counts")
    _update(store_path, snapshot.project_id, lambda first: created)


def load_trajectory(store_path: str, project_id: str) -> Trajectory:
    """Load one project's snapshots in time order; unknown project is empty.

    Every record of every project is checked; snapshots are built for this project alone.
    """
    try:
        with open(store_path, "rb") as f:
            snapshots = _read(f, project_id)[0]
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc
    return Trajectory(project_id=project_id, snapshots=tuple(snapshots))

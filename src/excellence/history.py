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

One function, ``_read``, reads the store's bytes, on the handle each caller opened,
in blocks of whole lines as the log is read, and checks each record in every field
as its block is read, in O(n) for n records; stored metrics are redundant with the
stored counts on purpose, and a mismatch is corruption. Blocks of lines that are all
the writer's own, wall clocks as ``isoformat()`` writes them included, are checked
in bulk, by one regex pass into columns and each rule over a column, with no JSON
decoder; any other block record by record, which names the line and the fault.
Either way each record gives one row, and one loop applies the order rule and keeps
the asked project's rows, whose columns a ``Trajectory`` reads, building snapshots
only when they are asked for. A record's shape is stated once, in ``_FIELDS``, and
its value rules once, in ``_rows``, so the writer refuses any record the loader
would reject, and any clock it would read back as another.

``<store>.seal`` summarises a prefix of the store that was checked in full: its
length and line count, and per project the first wall clock, the last hours, that
record's line and the record count. One CRC-32 covers the prefix and then the seal's
own bytes without its ``crc32`` member, so an edit to either misses; the seal is a
cache key, not a MAC, so a checksum that misses an accidental edit of the same
length once in 2**32 is all it needs. A seal in another shape, such as an older
version's, is a miss. A command that checked lines past a matching seal, or found
none, seals what it checked if those end in a newline; a reader only if it takes the
writer's lock at once and the store has not grown. So a writer seals what it read,
not the line it appended, and its seal stays valid for the store cut back to it; the
next reader checks that line and extends the seal over it. While the store starts
with the sealed bytes they are checksummed, not checked: a writer checks only the
lines after them, so an append parses O(1) records and checksums O(n) bytes; a
reader, and a writer naming the stored time that refuses a snapshot, also check the
asked project's lines in the prefix, found by the writer's line with that id fixed,
or the whole store if their count is not the seal's. A seal changes what is checked,
never the outcome.
"""

from __future__ import annotations

import binascii
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

    ``ts`` and ``xs`` hold each snapshot's hours and X; ``_percents``, ``_errors``,
    ``_locs`` and ``_files`` its EL%, error count, loc and file name, for the
    renderers. ``load_trajectory``'s ``snapshots`` are built from its checked rows
    when first read. Immutable; equal when the project and the snapshots are.
    """

    __slots__ = ("project_id", "ts", "xs", "_percents", "_errors", "_locs", "_files", "_snapshots")

    def __init__(self, project_id: str, snapshots: tuple[QualitySnapshot, ...]) -> None:
        for snap in snapshots:
            if snap.project_id != project_id:
                raise ValueError(
                    f"snapshot project {snap.project_id!r} != trajectory {project_id!r}"
                )
        self._fill(project_id, snapshots, snapshots)
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise ValueError("snapshot timestamps must be strictly increasing")

    def _fill(self, project_id: str, items, snapshots) -> "Trajectory":  # rows end as snapshots do
        ts, stats, errors, levels = (tuple(map(operator.itemgetter(at), items))
                                     for at in range(-4, 0))
        for name, value in dict(project_id=project_id, ts=ts, xs=tuple(map(_DEGREE, levels)),
                                _percents=tuple(map(_PERCENT, levels)), _errors=errors,
                                _locs=tuple(map(_LOC, stats)), _files=tuple(map(_FILE, stats)),
                                _snapshots=snapshots).items():
            object.__setattr__(self, name, value)
        return self

    @property
    def snapshots(self) -> tuple[QualitySnapshot, ...]:
        if callable(self._snapshots):  # load_trajectory's, built on first read
            object.__setattr__(self, "_snapshots", self._snapshots())
        return self._snapshots

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild it from its snapshots
        return Trajectory, (self.project_id, self.snapshots)

    def __len__(self) -> int:
        return len(self.ts)

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


_FILE, _PERCENT, _DEGREE, _LOC = map(operator.itemgetter, (0, 1, 2, 4))  # of stats and levels


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
    return list(zip(range(first, first + len(projects)), clocks, projects, wall_clocks, hours,
                    zip(files, totals, comments, blanks, locs, fors, whiles), errors, levels))


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


def _corrupt(line_number: int, reason: str) -> CorruptionError:
    return CorruptionError(f"store record at line {line_number} is invalid: {reason}",
                           line_number)


def _parse_record(line: str, line_number: int):
    """Check every field of one store line; return its one row (see ``_check``)."""
    import json  # here, not at module level: the writer's own lines need no decoder

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _corrupt(line_number, f"not valid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # an int of too many digits; nesting too deep
        raise _corrupt(line_number, f"cannot be decoded ({exc})") from exc
    try:
        return _row(obj, line_number)
    except ValueError as exc:
        raise _corrupt(line_number, str(exc)) from exc


def _cannot_open(store_path: str, exc: OSError) -> MissingFileError:
    return MissingFileError(f"cannot open store: {store_path} ({exc.strerror})")


# The wall clock as ``isoformat()`` writes an aware one: ``T``, seconds always, an
# optional 6-digit fraction, and a ``±HH:MM`` offset with optional ``:SS[.ffffff]``.
# All it matches fits _ISO_CLOCK and holds nothing that JSON escapes, so
# ``datetime.fromisoformat`` alone reads it as ``_clock`` would.
_WRITER_CLOCK = (r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]{6})?"
                 r"[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?")


def _writer_line(project: "str | None" = None) -> str:
    """A regex for the exact line ``_line`` writes, one group per field in ``_FIELDS``
    order: the wall clock as ``_WRITER_CLOCK``, other strings holding nothing that
    JSON escapes, counts as non-negative int literals, and the three reals in float
    syntax alone, with a ``.`` or an exponent. Given ``project``, a ``_plain`` id,
    the project slot holds that id alone, and the line start is checked by a
    lookbehind after the literal head, so that ``re`` searches for the head."""
    slots = {str: r'"([^"\\\x00-\x1f]*)"', int: "(0|[1-9][0-9]*)",
             float: r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"}
    anchor, start = "^", ""
    if project is not None:
        head = f'{{"project": "{project}", "wall_clock": "'
        anchor, start = "", rf"(?<![^\n]{re.escape(head)})"
        slots["project"] = f'"({re.escape(project)})"'
    slots["wall_clock"] = f'"{start}({_WRITER_CLOCK})"'
    return anchor + "{" + ", ".join(f'"{key}": ' + slots.get(key, slots[kind])
                                    for key, kind in _FIELDS.items()) + "}$"


_WRITER_LINE = _writer_line()  # compiled, and cached by re, on first use
_BLOCK = 1 << 18  # bytes per block of the store, rounded up to a whole line


def _blocks(f, end: "int | None" = None):
    """Blocks of whole lines of ``f`` from its position, as the log is read: ``_BLOCK``
    bytes and the rest of the last line, none past byte ``end`` when it is given."""
    while block := f.read(_BLOCK if end is None else min(_BLOCK, end - f.tell())):
        yield block + f.readline(-1 if end is None else end - f.tell())


def _bulk_rows(lines: list, first: int):
    """The rows (see ``_check``) of writer lines as ``findall`` gives them, numbered
    from ``first``, each rule checked a column at a time; None when a record breaks
    one. The order of each project's hours is the caller's to apply."""
    try:  # ValueError: an int of too many digits, or a rule broken
        columns = [column if kind is str else list(map(kind, column))
                   for kind, column in zip(_FIELDS.values(), zip(*lines))]
        if all(all(map(math.isfinite, column))
               for kind, column in zip(_FIELDS.values(), columns) if kind is float):
            return _rows(first, columns, datetime.fromisoformat)
    except ValueError:
        pass
    return None


def _check_bulk(text: str, before: int) -> "list | None":
    """The rows (see ``_check``) of the lines in ``text``, for lines that are all the
    writer's own. None when a line is not or a record breaks a rule, so that the
    record-by-record check names the fault."""
    lines = re.compile(_WRITER_LINE, re.M).findall(text)
    if len(lines) != text.count("\n") + (text[-1:] != "\n"):  # the last may lack its \n
        return None
    return _bulk_rows(lines, before + 1)


def _search(lines: "list | None", count: int) -> "list | None":
    """The rows (see ``_check``), numbered from 1, of ``lines``: what the writer's line
    with a project's id fixed found in store bytes that a matching seal covers and so
    were checked in full; ``count`` is the seal's count of that project's records.
    None when that search cannot stand for the full check: ``lines`` is None, for an
    id that needs an escape or a prefix that is not UTF-8, the lines found are not
    ``count`` (a record of the project in another shape, or ending in ``\\r\\n``, is
    not found), or they break a rule or the order."""
    if lines is None or len(lines) != count:
        return None
    rows = _bulk_rows(lines, 1) if lines else []
    if rows is None:
        return None
    hours = [row[4] for row in rows]
    return rows if all(map(operator.lt, hours, hours[1:])) else None


def _check(text: str, before: int, seen: dict, project_id: "str | None") -> tuple[list, int]:
    """Check every line of ``text``, a block of whole lines that follows ``before``
    lines of the store.

    ``seen`` maps each project to its first wall clock, its last hours, that
    record's line number and its record count, and is updated in first-seen order.
    Returns the rows of ``project_id``, none for None, and ``before`` plus the line
    breaks in ``text``. A block whose every line is the writer's own is checked in
    bulk, another record by record. Both give one row per record: line number, wall
    clock as stored, then a snapshot's fields, stats and levels as plain tuples. The
    record-by-record rows are made lazily, one line at a time, so the first fault in
    line order is the one reported.
    """
    asked, rows = [], _check_bulk(text, before)
    if rows is None:
        rows = chain.from_iterable(_parse_record(line, number) for number, line
                                   in enumerate(text.split("\n"), before + 1) if line.strip())
    for row in rows:
        number, clock, project, _, t_hours = row[:5]
        previous = seen.get(project)
        if previous is None:
            seen[project] = (clock, t_hours, number, 1)
        elif t_hours <= previous[1]:
            raise _corrupt(number, f"t_hours {t_hours} does not advance project "
                                   f"{project!r} (line {previous[2]} has {previous[1]})")
        else:
            seen[project] = (previous[0], t_hours, number, previous[3] + 1)
        if project == project_id:
            asked.append(row)
    return asked, before + text.count("\n")


def _plain(text: str) -> bool:
    """Whether ``text`` is printable and holds no ``"`` or ``\\``, so that JSON writes
    it as itself between quotes, in UTF-8."""
    return text.isprintable() and '"' not in text and "\\" not in text


def _seal_text(length: int, lines: int, seen: dict, crc: "int | None") -> "str | None":
    """The seal as ``_write_seal`` writes it, as JSON would write it too, for the prefix
    of ``length`` bytes and ``lines`` lines that ``seen`` (see ``_check``) sums up; with
    no ``crc32`` member for None, the bytes its CRC-32 covers after the prefix. None
    when an id or a first clock is not ``_plain``, which the seal cannot hold."""
    if not all(_plain(project) and _plain(entry[0]) for project, entry in seen.items()):
        return None
    member = "" if crc is None else f'"crc32": {crc}, '
    return f'{{"length": {length}, "lines": {lines}, {member}"projects": {{' + ", ".join(
        f'"{project}": ["{clock}", {hours!r}, {line}, {count}]'
        for project, (clock, hours, line, count) in seen.items()) + "}}"


def _load_seal(seal_path: str) -> "tuple[int, int, int, dict, bytes] | None":
    """The seal at ``seal_path``: its length, lines, CRC-32 and projects (as ``seen``,
    see ``_check``), and its summary, the bytes the CRC-32 covers after the prefix.
    None when it is missing, unreadable, not byte for byte what ``_seal_text`` writes
    for the values read from it, or out of range.

    Its strings are all ``_plain``, so splitting it at ``"`` puts the keys, ids and
    clocks at the odd places and the numbers between them at the even ones: no JSON
    decoder is needed, and writing the values back again checks the shape and types."""
    try:
        with open(seal_path, "rb") as f:
            text = f.read().decode("utf-8")
        parts = text.split('"')
        # {"length": L, "lines": N, "crc32": C, "projects": {"<id>": ["<clock>", h, l, c], ...}}
        length, lines, crc = (int(value[2:-2]) for value in parts[2:7:2])
        projects = {}
        for at in range(9, len(parts) - 3, 4):
            project, _, clock, numbers = parts[at:at + 4]
            hours, line, count = numbers[2:-3].split(", ")
            projects[project] = [clock, float(hours), int(line), int(count)]
            _clock(clock)
    except (OSError, ValueError):  # missing or unreadable; not UTF-8, too short, a bad value
        return None
    # Literal inf and nan hours round-trip: only the range refuses them.
    if _seal_text(length, lines, projects, crc) != text or min(length, lines) < 0 \
            or not 0 <= crc < 1 << 32 \
            or not all(0 <= hours <= sys.float_info.max and 1 <= count <= line <= lines
                       for _, hours, line, count in projects.values()):
        return None
    return length, lines, crc, projects, _seal_text(length, lines, projects, None).encode("utf-8")


def _read(f, project_id: "str | None", store_path: str) -> tuple:
    """Check the store at ``store_path``, open as ``f``, from its start, for the rows
    (see ``_check``) of ``project_id``, or for a writer given None: the rows, the
    line count, ``seen``, the running CRC-32 and the length it covers, and whether
    bytes followed any matching seal and ended in ``\\n``.

    The store is read in ``_blocks``, and each block is checked as it is read, so the
    first bad line is the one named. A seal at ``<store_path>.seal`` that
    ``_load_seal`` takes and that matches is trusted: the prefix it covers is
    checksummed, not checked, and the bytes after it are checked and folded into the
    same CRC-32. A reader also finds the project's writer lines in each block of the
    prefix, which ``_search`` checks; when that search fails, or the seal does not
    match, the whole store is read again and checked. A line ends at ``\\n``, a
    ``\\r`` just before it is part of the break, and any other ``\\r`` is a
    character of its line, as for the scanner and the log counter; a byte that is
    not UTF-8 corrupts its line."""
    f.seek(0)
    length, lines, seen, crc, matched = 0, 0, {}, 0, 0  # a matching seal's length
    found = None  # the project's rows in a sealed prefix, which is then not checked
    loaded = _load_seal(store_path + ".seal")
    if loaded is not None:
        end, sealed_lines, sealed_crc, projects, summary = loaded
        find = project_id is not None and re.compile(_writer_line(project_id), re.M).findall
        hits = [] if find and _plain(project_id) else None  # None: no search can stand
        for block in _blocks(f, end):
            crc = binascii.crc32(block, crc)
            if hits is not None:
                try:
                    hits += find(str(block, "utf-8"))
                except UnicodeDecodeError:
                    hits = None
        if f.tell() == end and binascii.crc32(summary, crc) == sealed_crc:
            matched = end  # a failed search checks these bytes again: they are not past it
            count = projects[project_id][3] if project_id in projects else 0
            found = _search(hits, count) if find else []
            if found is not None:
                length, lines, seen = end, sealed_lines, projects
    if found is None:  # no seal, one that does not match, or a failed search: from the start
        crc = 0
        f.seek(0)
    rows, ended = found or [], False
    for block in _blocks(f):
        try:
            text, bad = str(block, "utf-8"), None
        except UnicodeDecodeError as exc:  # the lines before the bad one are checked first
            text, bad = str(block[:block.rfind(b"\n", 0, exc.start) + 1], "utf-8"), exc
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        asked, lines = _check(text, lines, seen, project_id)
        rows += asked
        if bad is not None:
            raise _corrupt(lines + 1, f"not valid UTF-8 (byte offset {length + bad.start})") \
                from bad
        ended = block.endswith(b"\n")  # only the last block may not
        if ended:
            crc = binascii.crc32(block, crc)
            length += len(block)
    return rows, lines, seen, crc, length, ended and length > matched


def _write_seal(store_path: str, crc: int, length: int, lines: int, seen: dict) -> None:
    """Seal the ``length`` bytes of the store that were checked, ``lines`` lines that
    ``seen`` sums up, whose running CRC-32 is ``crc``. A seal that cannot be written
    costs the next reader a full check, nothing more. None is written for a string
    ``_seal_text`` cannot hold: the seal written before it still stands for its prefix."""
    summary = _seal_text(length, lines, seen, None)
    if summary is None:
        return
    digest = binascii.crc32(summary.encode("utf-8"), crc)
    temp = store_path + ".seal.tmp"  # the store's lock keeps other writers out
    try:
        with open(temp, "wb") as f:
            f.write(_seal_text(length, lines, seen, digest).encode("utf-8"))
        os.replace(temp, store_path + ".seal")
    except OSError:
        pass


def _line(snapshot: QualitySnapshot) -> bytes:
    """The store line of ``snapshot``; ValueError if the loader would reject it or
    read back another wall clock."""
    import json
    text = json.dumps(_record_dict(snapshot), ensure_ascii=False, allow_nan=False)
    try:
        wall_clock = _row(json.loads(text), 0)[0][3]
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
            _, count, seen, crc, length, ended = _read(f, None, store_path)
            stored = seen.get(project_id)
            snapshot = place(None if stored is None else _clock(stored[0]))
            if stored is not None and snapshot.t_hours <= stored[1]:
                # Read this handle again to name the earliest stored time that blocks.
                ts = [row[4] for row in _read(f, project_id, store_path)[0]]
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
                _write_seal(store_path, crc, length, count, seen)
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

    Under a matching seal the project's records in the sealed prefix and every
    record after it are checked; otherwise every record of every project is. What it
    checked it seals as a writer does, unless a writer holds the lock or grew the store.
    Its snapshots are built from this project's rows on first access.
    """
    try:
        with open(store_path, "rb") as f:
            rows, lines, seen, crc, length, ended = _read(f, project_id, store_path)
            if ended:
                import fcntl
                # Under the writer's lock, as a writer seals: not while a writer holds
                # it, where there are no locks, nor once the store has grown, so that
                # no writer's seal is replaced by an older one.
                try:
                    fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    if os.fstat(f.fileno()).st_size == length:
                        _write_seal(store_path, crc, length, lines, seen)
                except OSError:  # EWOULDBLOCK, ENOLCK
                    pass
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc
    return object.__new__(Trajectory)._fill(project_id, rows, lambda: tuple(  # checked, in order
        QualitySnapshot(*row[2:5], SourceStats(*row[5]), row[6], QualityMetrics(*row[7]))
        for row in rows))

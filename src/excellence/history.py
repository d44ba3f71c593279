"""Append-only JSON Lines store for timestamped quality snapshots.

One JSON object per line, keyed by project id. Time is kept on two axes:
an absolute RFC 3339 wall-clock stamp, which must carry a UTC offset, and
decimal hours since the project's first snapshot; rate estimation uses the
hours axis. This module owns that axis: ``record_snapshot`` places a new
snapshot on it from its wall clock. Appends are atomic at record granularity
and start on a fresh line; a torn final record never corrupts earlier ones,
and the loader reports the offending line number. A writer holds an
exclusive ``flock`` on the store across its read, checks, append and seal,
so concurrent writers on one host take turns.

Stored metrics are redundant with the stored counts on purpose; the loader
recomputes them and treats any mismatch as corruption. ``load_trajectory``
costs O(n) in the n records of the whole store, because every field of every
record of every project is checked; snapshot objects are built for the asked
project alone. The store is checked in blocks of whole lines. A block whose
lines are all exactly what the writer writes is checked in bulk: one regex pass
splits it into columns, and each rule runs over a whole column. A block with
any other line, or with any rule broken, is checked record by record instead,
which names the line and the fault; both cost O(n). Both checks yield rows,
lazily and in line order, to one pass that applies the per-project order rule,
updates the projects' summary and builds the snapshots.
A writer also leaves ``<store>.seal``: the length and line count
of the prefix it read and checked, each project's first wall clock and last
hours there, and one sha256 over that prefix and this summary. The next writer
whose store still starts with those bytes hashes them and checks only the
lines after them, so an append parses O(1) records and hashes O(n) bytes. The
seal is a cached proof, not a second loader: without it, or with one that is
ill formed or does not match, the writer checks the whole store, with the same
outcome.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import os
import re
import sys
from datetime import datetime
from typing import Callable, NamedTuple

from .errors import CorruptionError, MissingFileError, OrderingError
from .metrics import QualityMetrics, SourceStats, compute_metrics, error_levels

_FIELDS = (
    "project",
    "wall_clock",
    "t_hours",
    "file",
    "total_lines",
    "comment_lines",
    "blank_lines",
    "loc",
    "for_count",
    "while_count",
    "errors",
    "el_percent",
    "x",
)
_FIELD_SET = frozenset(_FIELDS)


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
        return cls(
            project_id=project_id,
            wall_clock=wall_clock,
            t_hours=float(t_hours),
            stats=stats,
            error_count=error_count,
            metrics=compute_metrics(error_count, stats.loc),
        )


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
    s = snapshot.stats
    return {
        "project": snapshot.project_id,
        "wall_clock": snapshot.wall_clock.isoformat(),
        "t_hours": snapshot.t_hours,
        "file": s.file_name,
        "total_lines": s.total_lines,
        "comment_lines": s.comment_lines,
        "blank_lines": s.blank_lines,
        "loc": s.loc,
        "for_count": s.for_count,
        "while_count": s.while_count,
        "errors": snapshot.error_count,
        "el_percent": snapshot.metrics.error_level_percent,
        "x": snapshot.metrics.degree_of_excellence,
    }


def _clock(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def _parse_record(line: str, line_number: int) -> tuple:
    """Check every field of one store line; return its row (see ``_check``)."""
    def bad(reason: str) -> CorruptionError:
        return CorruptionError(f"store record at line {line_number} is invalid: {reason}",
                               line_number)

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad(f"not valid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # an int of too many digits; nesting too deep
        raise bad(f"cannot be decoded ({exc})") from exc
    # json yields only dict, list, str, int, float, bool and None: a bool is not an int.
    if type(obj) is not dict:
        raise bad("record is not a JSON object")
    if obj.keys() != _FIELD_SET:
        missing = sorted(_FIELD_SET - obj.keys())
        extra = sorted(obj.keys() - _FIELD_SET)
        raise bad(f"field mismatch (missing {missing}, unexpected {extra})")

    for key in ("total_lines", "comment_lines", "blank_lines", "loc",
                "for_count", "while_count", "errors"):
        if type(obj[key]) is not int or obj[key] < 0:
            raise bad(f"{key} must be a nonnegative integer")
    for key in ("project", "wall_clock", "file"):
        if type(obj[key]) is not str:
            raise bad(f"{key} must be a string")
    for key in ("t_hours", "el_percent", "x"):
        if type(obj[key]) is not float and type(obj[key]) is not int:
            raise bad(f"{key} must be a number")
        if not abs(obj[key]) <= sys.float_info.max:  # NaN, infinity, or an oversized int
            raise bad(f"{key} must be finite")

    if obj["t_hours"] < 0:
        raise bad("t_hours must be >= 0")
    if obj["loc"] != obj["total_lines"] - obj["comment_lines"]:
        raise bad("loc != total_lines - comment_lines")
    if obj["comment_lines"] > obj["total_lines"] or obj["blank_lines"] > obj["total_lines"]:
        raise bad("comment/blank counts exceed total_lines")

    try:
        wall_clock = _clock(obj["wall_clock"])
    except ValueError as exc:
        raise bad(f"wall_clock is not an RFC 3339 timestamp: {obj['wall_clock']!r}") from exc
    if wall_clock.utcoffset() is None:
        raise bad(f"wall_clock has no UTC offset: {obj['wall_clock']!r}")

    try:
        levels = error_levels(obj["errors"], obj["loc"])
    except Exception as exc:
        raise bad(f"metrics cannot be derived: {exc}") from exc
    if levels[1] != obj["el_percent"] or levels[2] != obj["x"]:
        raise bad("stored metrics do not re-derive from stored counts")
    return (line_number, obj["project"], obj["wall_clock"], float(obj["t_hours"]), wall_clock,
            (obj["file"], obj["total_lines"], obj["comment_lines"], obj["blank_lines"],
             obj["loc"], obj["for_count"], obj["while_count"]),
            obj["errors"], levels)


def _require_utc_offset(wall_clock: datetime) -> None:
    if wall_clock.utcoffset() is None:
        raise ValueError(f"wall_clock must carry a UTC offset, got {wall_clock.isoformat()}")


def _cannot_open(store_path: str, exc: OSError) -> MissingFileError:
    return MissingFileError(f"cannot open store: {store_path} ({exc.strerror})")


def _decode(data: bytes, offset: int, before: int) -> str:
    """``data``, which follows ``offset`` bytes and ``before`` lines of the store, as
    text whose lines end in ``\n`` alone, as reading in text mode ends them; a byte
    that is not UTF-8 corrupts the line it sits on."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        number = before + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise CorruptionError(f"store record at line {number} is invalid: not valid UTF-8 "
                              f"(byte offset {offset + exc.start})", number) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _writer_line() -> str:
    """A regex for the exact line ``_line`` writes, one group per field in ``_FIELDS``
    order: strings holding nothing that JSON escapes, counts as non-negative int
    literals, and the three reals in float syntax alone, with a ``.`` or an exponent."""
    text = r'"([^"\\\x00-\x1f]*)"'
    real = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
    slots = {"project": text, "wall_clock": text, "file": text,
             "t_hours": real, "el_percent": real, "x": real}
    return "^{" + ", ".join(f'"{key}": {slots.get(key, "(0|[1-9][0-9]*)")}'
                            for key in _FIELDS) + "}$"


_WRITER_LINE = _writer_line()  # compiled, and cached by re, on first use: a short tail never is
_BLOCK = 1 << 18  # characters per block of the check, rounded up to a whole line


def _check_bulk(text: str, start: int, end: int, before: int):
    """The rows of the lines in ``text[start:end]``, each rule checked a column at a
    time, for lines that are all the writer's own. None when a line is not or a
    record breaks a rule, so that the record-by-record check names the fault. The
    order of each project's hours is ``_check``'s to apply."""
    lines = re.compile(_WRITER_LINE, re.M).findall(text, start, end)
    unended = end == len(text) and not text.endswith("\n")  # a last line without \n
    if len(lines) != text.count("\n", start, end) + unended:
        return None
    (projects, clocks, hours, files, totals, comments, blanks, locs, fors, whiles, errors,
     percents, degrees) = zip(*lines)
    try:
        hours, percents, degrees = (list(map(float, column))
                                    for column in (hours, percents, degrees))
        totals, comments, blanks, locs, fors, whiles, errors = (
            list(map(int, column))
            for column in (totals, comments, blanks, locs, fors, whiles, errors))
        wall_clocks = list(map(_clock, clocks))
    except ValueError:  # a clock that is no timestamp, or an int of too many digits
        return None
    # A finite el_percent that re-derives leaves x = 100 - el_percent finite too.
    if not (all(map(math.isfinite, hours)) and all(map(math.isfinite, percents))
            and min(hours) >= 0
            # loc == total - comment > 0 also keeps comment_lines below total_lines.
            and list(map(operator.sub, totals, comments)) == locs and min(locs) > 0
            and all(map(operator.le, blanks, totals))
            and None not in map(datetime.utcoffset, wall_clocks)):
        return None
    try:  # error_levels, a column at a time
        fractions = list(map(operator.truediv, errors, locs))
    except OverflowError:
        return None
    derived = [100.0 * fraction for fraction in fractions]
    excellence = [100.0 - percent for percent in derived]
    if derived != percents or excellence != degrees:
        return None
    return zip(range(before + 1, before + 1 + len(projects)), projects, clocks, hours,
               wall_clocks, zip(files, totals, comments, blanks, locs, fors, whiles), errors,
               zip(fractions, derived, excellence))


def _check(text: str, before: int, seen: dict, project_id: "str | None" = None
           ) -> tuple[list[QualitySnapshot], int]:
    """Check every line of ``text``, which follows ``before`` lines of the store.

    ``seen`` maps each project to its first wall clock, its last hours and that
    record's line number, and is updated in first-seen order. Returns the snapshots
    of ``project_id`` and ``before`` plus the line breaks in ``text``. Blocks of
    whole lines whose every line is the writer's own are checked in bulk, others
    record by record. Both yield rows: the line number, the project, the wall clock
    as stored and parsed, the hours, the ``SourceStats`` fields, the error count and
    the error levels. The record-by-record rows are lazy, so the first fault in
    line order is the one reported.
    """
    bulk = text.find("\n", 0, len(text) - 1) >= 0  # two lines or more: worth the pattern
    snapshots = []
    start = 0
    while start < len(text):  # in blocks: few strings alive at once
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        rows = _check_bulk(text, start, end, before) if bulk else None
        if rows is None:
            rows = (_parse_record(line, number)
                    for number, line in enumerate(text[start:end].split("\n"), start=before + 1)
                    if line.strip() != "")
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
        before += text.count("\n", start, end)
        start = end
    return snapshots, before


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _well_formed(seal) -> bool:
    """Whether ``seal`` has the shape ``_update`` writes: non-negative int ``length``
    and ``lines``, a str ``sha256``, and ``projects`` mapping each id (a JSON key is
    a str) to its first wall clock with a UTC offset, its last hours, finite and
    >= 0, and that record's line number, from 1 to ``lines``."""
    if type(seal) is not dict or seal.keys() != {"length", "lines", "sha256", "projects"}:
        return False
    lines, projects = seal["lines"], seal["projects"]
    if not (_is_count(seal["length"]) and _is_count(lines) and type(seal["sha256"]) is str
            and type(projects) is dict):
        return False
    for entry in projects.values():
        if type(entry) is not list or len(entry) != 3:
            return False
        clock, hours, line = entry
        if not (type(clock) is str and type(hours) is float and 0 <= hours <= sys.float_info.max
                and type(line) is int and 1 <= line <= lines):
            return False
        try:
            if _clock(clock).utcoffset() is None:
                return False
        except ValueError:
            return False
    return True


def _sealed_prefix(store_path: str, f):
    """Hash the prefix of the store ``f`` that its seal covers.

    When the seal is well formed and its digest matches, ``f`` is left at the
    prefix's end, and the seal's length, line count and ``seen`` come back with
    the running sha256. Otherwise ``f`` is rewound, and those of the empty prefix
    come back.
    """
    import hashlib  # here, not at module level: scan and report never hash
    digest = hashlib.sha256()
    try:
        with open(store_path + ".seal", "rb") as seal_file:
            seal = json.load(seal_file)
        if _well_formed(seal):
            length = seal["length"]
            while f.tell() < length:  # in chunks: the prefix is never held whole
                chunk = f.read(min(1 << 16, length - f.tell()))
                if not chunk:
                    break
                digest.update(chunk)
            if f.tell() == length and _seal_digest(digest, length, seal["lines"],
                                                   seal["projects"]) == seal["sha256"]:
                return length, seal["lines"], seal["projects"], digest
    except (OSError, ValueError, RecursionError):  # missing, unreadable or nested too deep
        pass
    f.seek(0)
    return 0, 0, {}, hashlib.sha256()


def _seal_digest(prefix, length: int, lines: int, projects: dict) -> str:
    """The sha256 a seal carries: of its prefix, then of its summary, so that an
    edit to either misses."""
    digest = prefix.copy()
    digest.update(json.dumps([length, lines, projects], sort_keys=True).encode("ascii"))
    return digest.hexdigest()


def _write_seal(store_path: str, seal: dict) -> None:
    # A seal that cannot be written costs the next writer a full check, nothing more.
    temp = store_path + ".seal.tmp"  # the store's lock keeps other writers out
    try:
        with open(temp, "w", encoding="utf-8") as f:
            json.dump(seal, f)
        os.replace(temp, store_path + ".seal")
    except OSError:
        pass


def _line(snapshot: QualitySnapshot) -> bytes:
    # A lone surrogate in the project or file name raises UnicodeEncodeError here.
    return (json.dumps(_record_dict(snapshot), ensure_ascii=False, allow_nan=False)
            + "\n").encode("utf-8")


def _open_locked(store_path: str, place: "Callable[[datetime | None], QualitySnapshot]"):
    """Open the store for update under an exclusive lock.

    A store that does not exist yet holds no records, so ``place(None)`` and its
    line are checked before the store is created: a record that fails leaves no
    store where there was none, and no writer ever removes one.
    """
    import fcntl
    try:
        try:
            f = open(store_path, "r+b")
        except FileNotFoundError:
            _line(place(None))
            f = open(store_path, "a+b")
            f.seek(0)  # opening for append leaves the file at its end
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc
    fcntl.flock(f.fileno(), fcntl.LOCK_EX)
    return f


def _update(store_path: str, project_id: str,
            place: "Callable[[datetime | None], QualitySnapshot]") -> QualitySnapshot:
    """Under the store's lock: check it, append ``place(first)`` and seal what was read.

    ``first`` is the project's first wall clock, None for a new project.
    """
    with _open_locked(store_path, place) as f:
        length, count, seen, digest = _sealed_prefix(store_path, f)
        tail = f.read()
        count = _check(_decode(tail, length, count), count, seen)[1]
        stored = seen.get(project_id)
        snapshot = place(None if stored is None else _clock(stored[0]))
        if stored is not None and snapshot.t_hours <= stored[1]:
            # Read in full to name the earliest stored time that blocks this one.
            ts = load_trajectory(store_path, project_id).ts
            later = ts[bisect.bisect_left(ts, snapshot.t_hours)]
            raise OrderingError(f"snapshot at t = {snapshot.t_hours} h does not advance project "
                                f"{project_id!r}; store already holds t = {later} h")
        line = _line(snapshot)
        if tail and not tail.endswith(b"\n"):  # the last record lacks its newline
            line = b"\n" + line
        f.write(line)
        f.flush()
        os.fsync(f.fileno())
        if tail.endswith(b"\n"):
            digest.update(tail)
            length += len(tail)
            _write_seal(store_path, {"length": length, "lines": count,
                                     "sha256": _seal_digest(digest, length, count, seen),
                                     "projects": seen})
    return snapshot


def record_snapshot(store_path: str, project_id: str, wall_clock: datetime,
                    stats: SourceStats, error_count: int,
                    t_hours: "float | None" = None) -> QualitySnapshot:
    """Build a snapshot, place it on the project's hours axis and append it.

    Without ``t_hours`` the snapshot sits at the hours from the project's first
    wall clock to ``wall_clock``, or at 0 if it is the project's first. The
    store is read once.
    """
    _require_utc_offset(wall_clock)

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
    if QualitySnapshot.create(*snapshot[:5]) != snapshot:  # create checks t_hours
        raise ValueError("snapshot metrics do not match its counts")
    _require_utc_offset(snapshot.wall_clock)
    _update(store_path, snapshot.project_id, lambda first: snapshot)


def load_trajectory(store_path: str, project_id: str) -> Trajectory:
    """Load one project's snapshots in time order; unknown project is empty.

    Every record of every project is checked; snapshots are built for this project alone.
    """
    try:
        with open(store_path, "rb") as f:
            text = _decode(f.read(), 0, 0)
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc
    return Trajectory(project_id=project_id,
                      snapshots=tuple(_check(text, 0, {}, project_id)[0]))

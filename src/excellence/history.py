"""Append-only JSON Lines store for timestamped quality snapshots.

One JSON object per line, keyed by project id. Time is kept on two axes:
an absolute RFC 3339 wall-clock stamp, which must carry a UTC offset, and
decimal hours since the project's first snapshot; rate estimation uses the
hours axis. This module owns that axis: ``record_snapshot`` places a new
snapshot on it from its wall clock. Appends are atomic at record granularity
and start on a fresh line; a torn final record never corrupts earlier ones,
and the loader reports the offending line number. Single writer per store
file: concurrent appends are the caller's problem to exclude.

Stored metrics are redundant with the stored counts on purpose; the loader
recomputes them and treats any mismatch as corruption. A read costs O(n) in
the n records of the whole store, because every field of every record of
every project is checked; snapshot objects are built for the asked project
alone.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime

from .errors import CorruptionError, MissingFileError, OrderingError
from .metrics import QualityMetrics, compute_metrics, error_levels
from .scanner import SourceStats

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
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class QualitySnapshot:
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


@dataclass(frozen=True)
class Trajectory:
    """A project's snapshots in strictly increasing timestamp order.

    ``ts`` and ``xs`` hold each snapshot's hours and degree of excellence.
    """

    project_id: str
    snapshots: tuple[QualitySnapshot, ...]
    ts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    xs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for snap in self.snapshots:
            if snap.project_id != self.project_id:
                raise ValueError(
                    f"snapshot project {snap.project_id!r} != trajectory {self.project_id!r}"
                )
        ts = tuple(s.t_hours for s in self.snapshots)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot timestamps must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "xs",
                           tuple(s.metrics.degree_of_excellence for s in self.snapshots))

    def __len__(self) -> int:
        return len(self.snapshots)


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


def _parse_record(line: str, line_number: int
                  ) -> tuple[dict, datetime, tuple[float, float, float]]:
    """Check every field of one store line; return it, its clock and its error levels."""
    def bad(reason: str) -> CorruptionError:
        return CorruptionError(f"store record at line {line_number} is invalid: {reason}",
                               line_number)

    try:
        obj, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    if end != len(line):  # surrounding whitespace, trailing data, a BOM: json.loads rules
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise bad(f"not valid JSON ({exc.msg})") from exc
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
        wall_clock = datetime.fromisoformat(obj["wall_clock"].replace("Z", "+00:00"))
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
    return obj, wall_clock, levels


def _require_utc_offset(wall_clock: datetime) -> None:
    if wall_clock.utcoffset() is None:
        raise ValueError(f"wall_clock must carry a UTC offset, got {wall_clock.isoformat()}")


def _cannot_open(store_path: str, exc: OSError) -> MissingFileError:
    return MissingFileError(f"cannot open store: {store_path} ({exc.strerror})")


def _stored(store_path: str, project_id: str) -> Trajectory:
    """The project's snapshots; a store that does not exist yet holds none."""
    if os.path.exists(store_path):
        return load_trajectory(store_path, project_id)
    return Trajectory(project_id=project_id, snapshots=())


def _append(store_path: str, snapshot: QualitySnapshot, stored: Trajectory) -> None:
    """Append after ``stored``, the snapshot's project as just loaded from the store."""
    later = bisect.bisect_left(stored.ts, snapshot.t_hours)
    if later < len(stored):
        raise OrderingError(
            f"snapshot at t = {snapshot.t_hours} h does not advance project "
            f"{snapshot.project_id!r}; store already holds t = {stored.ts[later]} h"
        )
    # Encoded first: a lone surrogate raises UnicodeEncodeError before the store is touched.
    line = (json.dumps(_record_dict(snapshot), ensure_ascii=False, allow_nan=False)
            + "\n").encode("utf-8")
    try:
        f = open(store_path, "a+b")
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc
    with f:
        if f.seek(0, os.SEEK_END) > 0:
            f.seek(-1, os.SEEK_END)
            if f.read(1) != b"\n":  # the last record lacks its newline: start a fresh line
                line = b"\n" + line
        f.write(line)
        f.flush()
        os.fsync(f.fileno())


def record_snapshot(store_path: str, project_id: str, wall_clock: datetime,
                    stats: SourceStats, error_count: int,
                    t_hours: "float | None" = None) -> QualitySnapshot:
    """Build a snapshot, place it on the project's hours axis and append it.

    Without ``t_hours`` the snapshot sits at the hours from the project's first
    wall clock to ``wall_clock``, or at 0 if it is the project's first. The
    store is read once.
    """
    _require_utc_offset(wall_clock)
    stored = _stored(store_path, project_id)
    if t_hours is None:
        first = stored.snapshots[0].wall_clock if len(stored) else wall_clock
        t_hours = (wall_clock - first).total_seconds() / 3600.0
        if t_hours < 0:
            raise OrderingError(
                f"the clock reads {wall_clock.isoformat()}, before the first snapshot of "
                f"project {project_id!r} at {first.isoformat()}; pass t_hours (--t-hours) "
                "to place this one"
            )
    snapshot = QualitySnapshot.create(project_id, wall_clock, t_hours, stats, error_count)
    _append(store_path, snapshot, stored)
    return snapshot


def append_snapshot(store_path: str, snapshot: QualitySnapshot) -> None:
    """Durably append one snapshot, enforcing the per-project time order."""
    expected = compute_metrics(snapshot.error_count, snapshot.stats.loc)
    if expected != snapshot.metrics:
        raise ValueError("snapshot metrics do not match its counts")
    if not math.isfinite(snapshot.t_hours):
        raise ValueError(f"t_hours must be finite, got {snapshot.t_hours}")
    if snapshot.t_hours < 0:
        raise ValueError(f"t_hours must be >= 0, got {snapshot.t_hours}")
    _require_utc_offset(snapshot.wall_clock)
    _append(store_path, snapshot, _stored(store_path, snapshot.project_id))


def load_trajectory(store_path: str, project_id: str) -> Trajectory:
    """Load one project's snapshots in time order; unknown project is empty.

    Every record of every project is checked; snapshots are built for this project alone.
    """
    try:
        with open(store_path, "r", encoding="utf-8") as f:
            raw_lines = f.read().split("\n")
    except OSError as exc:
        raise _cannot_open(store_path, exc) from exc

    snapshots = []
    last_t: dict[str, tuple[float, int]] = {}
    for number, line in enumerate(raw_lines, start=1):
        if line.strip() == "":
            continue
        obj, wall_clock, levels = _parse_record(line, number)
        project, t_hours = obj["project"], float(obj["t_hours"])
        previous = last_t.get(project)
        if previous is not None and t_hours <= previous[0]:
            raise CorruptionError(
                f"store record at line {number} is invalid: t_hours {t_hours} does not "
                f"advance project {project!r} (line {previous[1]} has {previous[0]})",
                number,
            )
        last_t[project] = (t_hours, number)
        if project == project_id:
            stats = SourceStats(obj["file"], obj["total_lines"], obj["comment_lines"],
                                obj["blank_lines"], obj["loc"], obj["for_count"],
                                obj["while_count"])
            snapshots.append(QualitySnapshot(project, wall_clock, t_hours, stats,
                                             obj["errors"], QualityMetrics(*levels)))
    return Trajectory(project_id=project_id, snapshots=tuple(snapshots))

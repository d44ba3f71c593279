"""Append-only JSON Lines store for timestamped quality snapshots.

One JSON object per line, keyed by project id. Time is kept on two axes:
an absolute RFC 3339 wall-clock stamp, which must carry a UTC offset, and
decimal hours since the project's first snapshot; rate estimation uses the
hours axis. This module owns that axis: ``record_snapshot`` places a new
snapshot on it from its wall clock. Appends are atomic at record granularity;
a torn final record never corrupts earlier ones, and the loader reports the
offending line number. Single writer per store file: concurrent appends are
the caller's problem to exclude.

Stored metrics are redundant with the stored counts on purpose; the loader
recomputes them and treats any mismatch as corruption.
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
from .metrics import QualityMetrics, compute_metrics
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


def _parse_record(line: str, line_number: int) -> QualitySnapshot:
    def bad(reason: str) -> CorruptionError:
        return CorruptionError(f"store record at line {line_number} is invalid: {reason}",
                               line_number)

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad(f"not valid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise bad("record is not a JSON object")
    if set(obj) != set(_FIELDS):
        missing = sorted(set(_FIELDS) - set(obj))
        extra = sorted(set(obj) - set(_FIELDS))
        raise bad(f"field mismatch (missing {missing}, unexpected {extra})")

    for key in ("total_lines", "comment_lines", "blank_lines", "loc",
                "for_count", "while_count", "errors"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise bad(f"{key} must be a nonnegative integer")
    for key in ("project", "wall_clock", "file"):
        if not isinstance(obj[key], str):
            raise bad(f"{key} must be a string")
    for key in ("t_hours", "el_percent", "x"):
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
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
        metrics = compute_metrics(obj["errors"], obj["loc"])
    except Exception as exc:
        raise bad(f"metrics cannot be derived: {exc}") from exc
    if metrics.error_level_percent != obj["el_percent"] or \
            metrics.degree_of_excellence != obj["x"]:
        raise bad("stored metrics do not re-derive from stored counts")

    stats = SourceStats(
        file_name=obj["file"],
        total_lines=obj["total_lines"],
        comment_lines=obj["comment_lines"],
        blank_lines=obj["blank_lines"],
        loc=obj["loc"],
        for_count=obj["for_count"],
        while_count=obj["while_count"],
    )
    return QualitySnapshot(
        project_id=obj["project"],
        wall_clock=wall_clock,
        t_hours=float(obj["t_hours"]),
        stats=stats,
        error_count=obj["errors"],
        metrics=metrics,
    )


def _load_all(store_path: str) -> list[QualitySnapshot]:
    try:
        with open(store_path, "r", encoding="utf-8") as f:
            raw_lines = f.read().split("\n")
    except OSError as exc:
        raise MissingFileError(f"cannot open store: {store_path} ({exc.strerror})") from exc

    snapshots = []
    last_t: dict[str, tuple[float, int]] = {}
    for number, line in enumerate(raw_lines, start=1):
        if line.strip() == "":
            continue
        snap = _parse_record(line, number)
        previous = last_t.get(snap.project_id)
        if previous is not None and snap.t_hours <= previous[0]:
            raise CorruptionError(
                f"store record at line {number} is invalid: t_hours {snap.t_hours} does not "
                f"advance project {snap.project_id!r} (line {previous[1]} has {previous[0]})",
                number,
            )
        last_t[snap.project_id] = (snap.t_hours, number)
        snapshots.append(snap)
    return snapshots


def _require_utc_offset(wall_clock: datetime) -> None:
    if wall_clock.utcoffset() is None:
        raise ValueError(f"wall_clock must carry a UTC offset, got {wall_clock.isoformat()}")


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
    line = json.dumps(_record_dict(snapshot), ensure_ascii=False, allow_nan=False)
    with open(store_path, "a", encoding="utf-8", newline="") as f:
        f.write(line + "\n")
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
                f"project {project_id!r} at {first.isoformat()}; pass --t-hours to place "
                "this one"
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
    """Load one project's snapshots in time order; unknown project is empty."""
    snapshots = tuple(s for s in _load_all(store_path) if s.project_id == project_id)
    return Trajectory(project_id=project_id, snapshots=snapshots)

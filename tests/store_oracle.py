"""Reference store loader, for tests: the ``json.loads``-based reader that
``excellence.history.load_trajectory`` replaced.

It builds a snapshot for every record of every project with ``isinstance``
checks, and keeps only the asked project's at the end. It ends a line at LF
or CRLF, as the scanner and the log counter do, and not at a lone CR as text
mode would. The library's loader must agree with it on every line: the same
snapshots, or the same ``CorruptionError`` message and line number.
"""

from __future__ import annotations

import json
import re
import sys
from datetime import datetime

from excellence.errors import CorruptionError, MissingFileError
from excellence.history import QualitySnapshot, Trajectory
from excellence.metrics import compute_metrics
from excellence.scanner import SourceStats

_FIELDS = (
    "project", "wall_clock", "t_hours", "file", "total_lines", "comment_lines",
    "blank_lines", "loc", "for_count", "while_count", "errors", "el_percent", "x",
)

# What Python 3.10's fromisoformat documents, which later versions widen:
# YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]], * any one character.
_TIME = r"\d\d(:\d\d(:\d\d(\.(\d{3}|\d{6}))?)?)?"
_OFFSET = r"[+-]\d\d:\d\d(:\d\d(\.\d{6})?)?"
_CLOCK = re.compile(rf"\d{{4}}-\d\d-\d\d(.{_TIME}({_OFFSET})?)?", re.ASCII | re.DOTALL)


def oracle_parse_record(line: str, line_number: int) -> QualitySnapshot:
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

    iso = obj["wall_clock"].replace("Z", "+00:00")
    try:
        wall_clock = datetime.fromisoformat(iso) if _CLOCK.fullmatch(iso) else None
    except ValueError:
        wall_clock = None
    if wall_clock is None:
        raise bad(f"wall_clock is not an RFC 3339 timestamp: {obj['wall_clock']!r}")
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


def oracle_load_trajectory(store_path: str, project_id: str) -> Trajectory:
    try:
        with open(store_path, "r", encoding="utf-8", newline="") as f:
            raw_lines = re.split("\r?\n", f.read())
    except OSError as exc:
        raise MissingFileError(f"cannot open store: {store_path} ({exc.strerror})") from exc

    snapshots = []
    last_t: dict[str, tuple[float, int]] = {}
    for number, line in enumerate(raw_lines, start=1):
        if line.strip() == "":
            continue
        snap = oracle_parse_record(line, number)
        previous = last_t.get(snap.project_id)
        if previous is not None and snap.t_hours <= previous[0]:
            raise CorruptionError(
                f"store record at line {number} is invalid: t_hours {snap.t_hours} does not "
                f"advance project {snap.project_id!r} (line {previous[1]} has {previous[0]})",
                number,
            )
        last_t[snap.project_id] = (snap.t_hours, number)
        snapshots.append(snap)
    return Trajectory(project_id=project_id,
                      snapshots=tuple(s for s in snapshots if s.project_id == project_id))

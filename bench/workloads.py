"""Seeded inputs, the CLI argv and an independent output check per workload.

Every input is a pure function of the seed: the same seed gives
byte-identical files. No reference value is taken from the program under
test: source counts come from ``tests/scanner_oracle.oracle_scan``, error
counts from the log generator's own bookkeeping, and report lines from the
benchmark's own one-pass recomputation over the generated (t, errors, loc).
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from scanner_oracle import oracle_scan, random_source  # noqa: E402

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)

# Input sizes; the smoke test shrinks them. Sized for 35 to 60 invocations in
# a 30-second run; at these sizes the scanner, the trajectory math and the
# store still dominate their workloads.
SCAN_SOURCE_LINES = 20_000
SCAN_LOG_LINES = 80_000
REPORT_SNAPSHOTS = 1_000       # of the reported project; two others interleave
RECORD_PREFILL = 9_000         # across three projects
SMALL_LOG_LINES = 400
ERROR_SHARE = 0.02


# --- log generator -----------------------------------------------------------

# Each template is an error head by construction or by construction not one;
# the count the check expects comes from this split, never from the program's
# pattern. Non-error lines include near misses: ``errors.c``, ``error_count``,
# ``terror``, ``Error 1`` without a colon, ``error handling``.
_ERROR_LINES = (
    "src/{d}/{f}.c:{l}:{c}: error: expected ';' before '}}' token",
    "src/{d}/{f}.c:{l}:{c}: error: '{v}' undeclared (first use in this function)",
    "{f}.c({l}): error C{n}: syntax error: missing ';' before '}}'",
    "src/{d}/{f}.c:{l}:{c}: fatal error: {v}.h: No such file or directory",
    "LINK : fatal error LNK{n}: cannot open file '{v}.lib'",
    "cl : Command line error D{n} : '/ZI' and '/Gy-' command-line options are incompatible",
)
_OTHER_LINES = (
    "src/{d}/{f}.c:{l}:{c}: warning: unused variable '{v}' [-Wunused-variable]",
    "src/{d}/{f}.c:{l}:{c}: note: in expansion of macro 'CHECK_{n}'",
    "{f}.c({l}): warning C{n}: '{v}': conversion from 'double' to 'int'",
    "   {l} |     {v} = {v}_prev + {c};",
    "      |     ^~~~~~~~",
    "gcc -c -O2 -Wall src/{d}/errors.c -o build/errors.o",
    "In file included from include/{d}/error.h:{l},",
    "make[2]: *** [Makefile:{l}: build/{d}/errors.o] Error 1",
    "src/{d}/{f}.c:{l}:{c}: warning: 'error_count' may be used uninitialized",
    "src/{d}/{f}.c:{l}: note: 'terror': shadowed declaration is here",
    "note: error handling for {v} moved to src/{d}/{f}.c",
    "[{n}/{l}] Compiling src/{d}/{f}.c",
)
_WORDS = ("core", "io", "net", "util", "parse", "eval", "cache", "store", "main", "ui")


def make_log(rng: random.Random, line_count: int) -> tuple[bytes, int]:
    """A gcc/MSVC-style build log and its number of error head lines."""
    out = []
    errors = 0
    for _ in range(line_count):
        if rng.random() < ERROR_SHARE:
            template = rng.choice(_ERROR_LINES)
            errors += 1
        else:
            template = rng.choice(_OTHER_LINES)
        line = template.format(
            d=rng.choice(_WORDS), f=rng.choice(_WORDS) + str(rng.randint(0, 99)),
            v=rng.choice(_WORDS) + "_" + str(rng.randint(0, 9)),
            l=rng.randint(1, 9999), c=rng.randint(1, 80), n=rng.randint(1000, 9999),
        )
        out.append(line + ("\r\n" if rng.random() < 0.05 else "\n"))
    return "".join(out).encode("utf-8"), errors


def make_source(rng: random.Random, line_count: int) -> bytes:
    """Concatenated ``random_source`` texts of at least ``line_count`` lines."""
    parts = []
    lines = 0
    while lines < line_count:
        text = random_source(rng)
        parts.append(text)
        lines += text.count("\n")
    return "".join(parts).encode("utf-8")


# --- store generator ---------------------------------------------------------

def el_and_x(errors: int, loc: int) -> tuple[float, float]:
    """EL% = 100 * errors / loc and X = 100 - EL%, as the paper defines them."""
    percent = 100.0 * (errors / loc)
    return percent, 100.0 - percent


@dataclass(frozen=True)
class Snap:
    project: str
    t_hours: float
    total: int
    comment: int
    blank: int
    fors: int
    whiles: int
    errors: int

    @property
    def loc(self) -> int:
        return self.total - self.comment

    def record(self) -> dict:
        el, x = el_and_x(self.errors, self.loc)
        return {
            "project": self.project,
            "wall_clock": (T0 + timedelta(hours=self.t_hours)).isoformat(),
            "t_hours": self.t_hours, "file": "main.c",
            "total_lines": self.total, "comment_lines": self.comment,
            "blank_lines": self.blank, "loc": self.loc,
            "for_count": self.fors, "while_count": self.whiles,
            "errors": self.errors, "el_percent": el, "x": x,
        }


def make_history(rng: random.Random, projects: dict[str, int],
                 improving: str) -> list[Snap]:
    """Interleaved snapshots; ``improving`` has strictly falling EL%, so X rises."""
    series = {}
    for project, count in projects.items():
        snaps = []
        hundredths = 0
        total = rng.randint(60_000, 80_000)
        errors = rng.randint(8_000, 9_000) if project == improving else rng.randint(0, 500)
        for _ in range(count):
            comment = total // 5 + rng.randint(0, 50)
            snaps.append(Snap(project, hundredths / 100, total, comment,
                              total // 10 + rng.randint(0, 50), rng.randint(0, 900),
                              rng.randint(0, 300), errors))
            hundredths += rng.randint(1, 400)
            total += rng.randint(0, 40)
            if project == improving:
                errors -= rng.randint(1, 3)
            else:
                errors = max(0, errors + rng.randint(-3, 3))
        series[project] = snaps
    # Interleave the projects in a seeded order, keeping each one's time order.
    order = [p for p, count in projects.items() for _ in range(count)]
    rng.shuffle(order)
    cursors = dict.fromkeys(projects, 0)
    merged = []
    for project in order:
        merged.append(series[project][cursors[project]])
        cursors[project] += 1
    return merged


def store_bytes(snaps: list[Snap]) -> bytes:
    return "".join(json.dumps(s.record(), ensure_ascii=False) + "\n"
                   for s in snaps).encode("utf-8")


# --- reference rendering -----------------------------------------------------

def fmt_2dp(value: float) -> str:
    """Two decimals, ties away from zero, of the value's shortest repr."""
    return str(Decimal(repr(value + 0.0)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def scan_report(counts: dict, errors: int) -> str:
    el, x = el_and_x(errors, counts["loc"])
    return "".join(line + "\n" for line in (
        f"The number of lines in the file is : {counts['total_lines']}",
        f"Number of comment lines is : {counts['comment_lines']}",
        f"The number of for loops is : {counts['for_count']}",
        f"The number of while loops is : {counts['while_count']}",
        f"Number of errors = {errors}",
        f"loc = {counts['loc']}",
        f"Error level w.r.t LOC = {fmt_2dp(el)}",
        f"Quality Level or Degree of excellence = {fmt_2dp(x)}",
    ))


def trend_of(slopes: list[float], tolerance: float) -> str:
    mean = sum(slopes) / len(slopes)
    if mean > tolerance and all(abs(s - mean) <= tolerance for s in slopes):
        return "uniform"
    if all(s > tolerance for s in slopes):
        return "positive"
    if all(s < -tolerance for s in slopes):
        return "negative"
    return "mixed"


_NUM = r"-?[0-9.]+(?:e[-+][0-9]+)?"
FIT_RE = re.compile(
    rf"Polynomial fit \(degree 2\) : X\(t\) = {_NUM} [-+] {_NUM} t [-+] {_NUM} t\^2\n"
    rf"  residual sum of squares = {_NUM}\n"
    rf"  fit-derivative rate at t = (?P<t>\S+) h : {_NUM} points/hour\n\Z"
)


def history_report(snaps: list[Snap], project: str) -> str:
    """Text report up to (excluding) the fit section, in one pass over p's snapshots."""
    own = [s for s in snaps if s.project == project]
    out = [f"Project : {project}", f"Snapshots : {len(own)}"]
    rates = []
    slopes = []
    prev_t = prev_x = None
    for s in own:
        el, x = el_and_x(s.errors, s.loc)
        out.append(f"  t = {s.t_hours:g} h  X = {fmt_2dp(x)}  EL% = {fmt_2dp(el)}"
                   f"  errors = {s.errors}  loc = {s.loc}  file = main.c")
        if prev_t is not None:
            slope = (x - prev_x) / (s.t_hours - prev_t)
            slopes.append(slope)
            rates.append(f"  [{prev_t:g}, {s.t_hours:g}] : {slope:.6g}")
        prev_t, prev_x = s.t_hours, x
    gain = el_and_x(own[-1].errors, own[-1].loc)[1] - el_and_x(own[0].errors, own[0].loc)[1]
    out.append(f"Improvement (X_final - X_initial) = {'+' if gain >= 0 else ''}{fmt_2dp(gain)}")
    out.append("Interval rates (points/hour):")
    out.extend(rates)
    # The tangent at the last sample is one-sided: the last secant.
    last = slopes[-1]
    out.append(f"Instantaneous rate at t = {prev_t:g} h : {last:.6g} points/hour")
    out.append(f"Trend : {trend_of(slopes, 1e-6)}")
    out.append(f"Effort = alpha * dX/dt = 1 * {last:.6g} = {last:.6g}")
    return "\n".join(out) + "\n"


# --- workloads ---------------------------------------------------------------

@dataclass
class Case:
    """One prepared workload: CLI arguments, a pre-op reset and an output check."""

    argv: list[str]
    check: Callable[[str], bool]
    reset: Callable[[], None] = lambda: None


def scan_large(workdir: Path, seed: int) -> Case:
    rng = random.Random(seed)
    source = make_source(rng, SCAN_SOURCE_LINES)
    log, errors = make_log(rng, SCAN_LOG_LINES)
    src, log_path = workdir / "big.c", workdir / "big.log"
    src.write_bytes(source)
    log_path.write_bytes(log)

    expected = None

    def check(stdout: str) -> bool:
        nonlocal expected
        if expected is None:  # the oracle is slow: build it once, outside set-up
            expected = scan_report(oracle_scan(source.decode("utf-8")), errors)
        return stdout == expected

    return Case(["scan", str(src), "--log", str(log_path)], check)


def report_history(workdir: Path, seed: int) -> Case:
    rng = random.Random(seed)
    n = REPORT_SNAPSHOTS
    snaps = make_history(rng, {"p1": n, "p2": n, "p3": n}, improving="p1")
    store = workdir / "hist.jsonl"
    store.write_bytes(store_bytes(snaps))
    expected = history_report(snaps, "p1")
    last_t = f"{[s for s in snaps if s.project == 'p1'][-1].t_hours:g}"

    def check(stdout: str) -> bool:
        if not stdout.startswith(expected):
            return False
        fit = FIT_RE.match(stdout[len(expected):])
        return fit is not None and fit["t"] == last_t

    return Case(["report", "--project", "p1", "--store", str(store), "--fit-degree", "2"],
                check)


def record_append(workdir: Path, seed: int) -> Case:
    rng = random.Random(seed)
    n = RECORD_PREFILL // 3
    snaps = make_history(rng, {"p1": n, "p2": n, "p3": n}, improving="p1")
    prefill = store_bytes(snaps)
    source = b""
    while not source:  # a source with loc = 0 has no metrics (exit 6)
        text = random_source(rng)
        counts = oracle_scan(text)
        source = text.encode("utf-8") if counts["loc"] > 0 else b""
    log, errors = make_log(rng, SMALL_LOG_LINES)
    src, log_path, store = workdir / "small.c", workdir / "small.log", workdir / "rec.jsonl"
    src.write_bytes(source)
    log_path.write_bytes(log)
    t_next = max(s.t_hours for s in snaps if s.project == "p1") + 1.5
    el, x = el_and_x(errors, counts["loc"])
    expected_stdout = (f"recorded snapshot for project 'p1' at t = {t_next:g} h "
                       f"(X = {fmt_2dp(x)}, store: {store})\n")
    expected_record = {
        "project": "p1", "t_hours": t_next, "file": "small.c",
        "total_lines": counts["total_lines"], "comment_lines": counts["comment_lines"],
        "blank_lines": counts["blank_lines"], "loc": counts["loc"],
        "for_count": counts["for_count"], "while_count": counts["while_count"],
        "errors": errors, "el_percent": el, "x": x,
    }

    def reset() -> None:
        # Cut the appended record off rather than rewrite the store, so the
        # next append's fsync flushes one record, as it does in real use.
        os.truncate(store, len(prefill))

    def check(stdout: str) -> bool:
        data = store.read_bytes()
        if stdout != expected_stdout or not data.startswith(prefill):
            return False
        try:
            appended = data[len(prefill):].decode("utf-8")
            record = json.loads(appended)
            wall_clock = datetime.fromisoformat(record.pop("wall_clock"))
        except (ValueError, TypeError, KeyError, AttributeError):
            return False
        return (appended.endswith("\n") and appended.count("\n") == 1
                and record == expected_record and wall_clock.tzinfo is not None)

    with open(store, "wb") as f:
        f.write(prefill)
        os.fsync(f.fileno())
    return Case(["record", str(src), "--project", "p1", "--store", str(store),
                 "--log", str(log_path), "--t-hours", repr(t_next)], check, reset)


WORKLOADS = {"scan_large": scan_large, "report_history": report_history,
             "record_append": record_append}

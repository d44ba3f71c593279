"""Command-line front end.

Usage:
    excellence scan <src> [--log <path>] [--error-pattern <p>]
    excellence record <src> --project <id> --store <path> [--log <path>] [--t-hours <h>]
    excellence report --project <id> --store <path> [--alpha <a>] [--fit-degree <d>]
                      [--format text|csv|svg] [--tolerance <tol>]
    excellence interactive

The store path defaults to the EXCEL_STORE environment variable. The exit
code is 0 on success, 2 for a usage error, and otherwise the ``exit_code`` of
the error class in ``errors.py`` that stopped the command.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal

from . import diaglog, history, scanner, trajectory
from .errors import ExcellenceError, InsufficientDataError, UndefinedMetricError
from .history import Trajectory
from .metrics import QualityMetrics, compute_metrics, improvement
from .scanner import SourceStats

PROG = "excellence"
STORE_ENV_VAR = "EXCEL_STORE"


def format_2dp(value: float) -> str:
    """Display rounding: two decimals, ties away from zero."""
    if value == 0.0:
        value = 0.0  # avoid "-0.00"
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ReportRendering:
    """The scan report, one string per output line."""

    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_report(stats: SourceStats, error_count: int,
                  metrics: "QualityMetrics | None") -> ReportRendering:
    if metrics is not None:
        el = format_2dp(metrics.error_level_percent)
        x = format_2dp(metrics.degree_of_excellence)
    else:
        el = x = "undefined (loc = 0)"
    return ReportRendering(lines=(
        f"The number of lines in the file is : {stats.total_lines}",
        f"Number of comment lines is : {stats.comment_lines}",
        f"The number of for loops is : {stats.for_count}",
        f"The number of while loops is : {stats.while_count}",
        f"Number of errors = {error_count}",
        f"loc = {stats.loc}",
        f"Error level w.r.t LOC = {el}",
        f"Quality Level or Degree of excellence = {x}",
    ))


def _warn(message: str) -> None:
    print(f"{PROG}: {message}", file=sys.stderr)


def _gather(source_path: str, log_path: "str | None",
            pattern_text: "str | None") -> tuple[SourceStats, int]:
    stats = scanner.scan_file(source_path)
    if stats.unterminated_comment:
        _warn(f"warning: {source_path}: unterminated block comment; "
              "trailing lines counted as comment lines")
    if log_path is None:
        _warn("notice: no log file given; error count defaults to 0")
        return stats, 0
    pattern = (diaglog.ErrorPattern(pattern_text) if pattern_text is not None
               else diaglog.DEFAULT_ERROR_PATTERN)
    report = diaglog.count_errors_in_file(log_path, pattern)
    return stats, report.error_count


def cmd_scan(args: argparse.Namespace) -> int:
    stats, error_count = _gather(args.src, args.log, args.error_pattern)
    try:
        metrics = compute_metrics(error_count, stats.loc)
    except UndefinedMetricError:
        metrics = None
    sys.stdout.write(render_report(stats, error_count, metrics).text)
    if metrics is None:
        _warn("error: metrics are undefined for loc = 0")
        return UndefinedMetricError.exit_code
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    stats, error_count = _gather(args.src, args.log, None)
    snapshot = history.record_snapshot(args.store, args.project, datetime.now(timezone.utc),
                                       stats, error_count, args.t_hours)
    print(f"recorded snapshot for project '{args.project}' at t = {snapshot.t_hours:g} h "
          f"(X = {format_2dp(snapshot.metrics.degree_of_excellence)}, store: {args.store})")
    return 0


def _format_poly(fit: trajectory.PolyFit) -> str:
    parts = [f"{fit.coefficients[0]:.6g}"]
    for power, coeff in enumerate(fit.coefficients[1:], start=1):
        sign = "-" if coeff < 0 else "+"
        var = "t" if power == 1 else f"t^{power}"
        parts.append(f"{sign} {abs(coeff):.6g} {var}")
    return " ".join(parts)


def _render_text_report(traj: Trajectory, alpha: float, tolerance: float,
                        fit_degree: "int | None") -> str:
    out = [f"Project : {traj.project_id}", f"Snapshots : {len(traj)}"]
    for snap in traj.snapshots:
        out.append(
            f"  t = {snap.t_hours:g} h  X = {format_2dp(snap.metrics.degree_of_excellence)}"
            f"  EL% = {format_2dp(snap.metrics.error_level_percent)}"
            f"  errors = {snap.error_count}  loc = {snap.stats.loc}"
            f"  file = {snap.stats.file_name}"
        )

    if len(traj) < 2:
        insufficient = "insufficient data (need >= 2 snapshots)"
        out.append(f"Improvement : {insufficient}")
        out.append(f"Interval rates : {insufficient}")
        out.append(f"Instantaneous rate : {insufficient}")
        out.append(f"Trend : {insufficient}")
        out.append(f"Effort : {insufficient}")
    else:
        first, last = traj.snapshots[0], traj.snapshots[-1]
        gain = improvement(first.metrics.degree_of_excellence,
                           last.metrics.degree_of_excellence)
        sign = "+" if gain >= 0 else ""
        out.append(f"Improvement (X_final - X_initial) = {sign}{format_2dp(gain)}")
        out.append("Interval rates (points/hour):")
        slopes = []
        for rate in trajectory.interval_rates(traj):
            out.append(f"  [{rate.interval[0]:g}, {rate.interval[1]:g}] : {rate.value:.6g}")
            slopes.append(rate.value)
        latest = trajectory.instantaneous_rate(traj, last.t_hours)
        out.append(f"Instantaneous rate at t = {last.t_hours:g} h : "
                   f"{latest.value:.6g} points/hour")
        trend = trajectory._classify_slopes(slopes, tolerance)  # argparse checked tolerance
        out.append(f"Trend : {trend.value}")
        estimate = trajectory.effort(alpha, latest)
        out.append(f"Effort = alpha * dX/dt = {alpha:g} * {latest.value:.6g} = "
                   f"{estimate.effort:.6g}")

    if fit_degree is not None:
        try:
            fit = trajectory.fit_polynomial(traj, fit_degree)
        except InsufficientDataError as exc:
            out.append(f"Polynomial fit (degree {fit_degree}) : insufficient data ({exc})")
        else:
            out.append(f"Polynomial fit (degree {fit_degree}) : X(t) = {_format_poly(fit)}")
            out.append(f"  residual sum of squares = {fit.residual_sum_of_squares:.6g}")
            t_last = traj.snapshots[-1].t_hours
            out.append(f"  fit-derivative rate at t = {t_last:g} h : "
                       f"{fit.derivative_at(t_last):.6g} points/hour")
    return "\n".join(out) + "\n"


def _render_csv_report(traj: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_hours", "x", "el_percent", "errors", "loc", "rate_from_prev"])
    rates = trajectory.interval_rates(traj) if len(traj) >= 2 else []
    for index, snap in enumerate(traj.snapshots):
        rate = rates[index - 1].value if index >= 1 else ""
        writer.writerow([
            snap.t_hours,
            snap.metrics.degree_of_excellence,
            snap.metrics.error_level_percent,
            snap.error_count,
            snap.stats.loc,
            rate,
        ])
    return buf.getvalue()


def _svg_scale(values: list[float], lo_px: float, hi_px: float) -> "tuple[float, float, float]":
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    else:
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    scale = (hi_px - lo_px) / (hi - lo)
    return lo, hi, scale


def _render_svg_report(traj: Trajectory) -> str:
    width, height = 640, 400
    left, right, top, bottom = 70.0, 620.0, 30.0, 350.0
    ts, xs = traj.ts, traj.xs
    t_lo, t_hi, t_scale = _svg_scale(ts, left, right)
    x_lo, x_hi, x_scale = _svg_scale(xs, top, bottom)

    def px(t: float) -> float:
        return left + (t - t_lo) * t_scale

    def py(x: float) -> float:
        return bottom - (x - x_lo) * x_scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.2f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{traj.project_id}</text>',
    ]
    ticks = 5
    for i in range(ticks):
        frac = i / (ticks - 1)
        t_val = t_lo + frac * (t_hi - t_lo)
        x_val = x_lo + frac * (x_hi - x_lo)
        tx, xy = px(t_val), py(x_val)
        out.append(f'<line x1="{tx:.2f}" y1="{top:.2f}" x2="{tx:.2f}" y2="{bottom:.2f}" '
                   'stroke="#ddd" stroke-width="1"/>')
        out.append(f'<line x1="{left:.2f}" y1="{xy:.2f}" x2="{right:.2f}" y2="{xy:.2f}" '
                   'stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{tx:.2f}" y="{bottom + 18:.2f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{t_val:g}</text>')
        out.append(f'<text x="{left - 8:.2f}" y="{xy + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{x_val:g}</text>')
    out.append(f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" '
               'stroke="black" stroke-width="1.5"/>')
    out.append(f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" '
               'stroke="black" stroke-width="1.5"/>')
    out.append(f'<text x="{(left + right) / 2:.2f}" y="{height - 10}" text-anchor="middle" '
               'font-family="sans-serif" font-size="13">time (hours)</text>')
    out.append(f'<text x="18" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">'
               'Degree of Excellence (%)</text>')
    points = " ".join(f"{px(t):.2f},{py(x):.2f}" for t, x in zip(ts, xs))
    out.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    for t, x in zip(ts, xs):
        out.append(f'<circle cx="{px(t):.2f}" cy="{py(x):.2f}" r="3" fill="#1f6fb2"/>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    traj = history.load_trajectory(args.store, args.project)
    if len(traj) == 0:
        _warn(f"notice: store has no snapshots for project '{args.project}'")
        return InsufficientDataError.exit_code
    if args.format == "text":
        sys.stdout.write(_render_text_report(traj, args.alpha, args.tolerance,
                                             args.fit_degree))
    elif args.format == "csv":
        sys.stdout.write(_render_csv_report(traj))
    else:
        sys.stdout.write(_render_svg_report(traj))
    return 0


def cmd_interactive(args: argparse.Namespace) -> int:
    while True:
        try:
            path = input("Enter the name of the file : ").strip()
        except EOFError:
            return 0
        if path:
            try:
                stats = scanner.scan_file(path)
                print("File opened successfully!")
                try:
                    log = input("Enter the name of the log file (blank for none) : ").strip()
                except EOFError:
                    log = ""
                error_count = (diaglog.count_errors_in_file(log).error_count if log else 0)
                try:
                    metrics = compute_metrics(error_count, stats.loc)
                except UndefinedMetricError:
                    metrics = None
                sys.stdout.write(render_report(stats, error_count, metrics).text)
            except ExcellenceError as exc:
                _warn(f"error: {exc}")
        try:
            answer = input("Want to continue? y/n : ").strip().lower()
        except EOFError:
            return 0
        if answer not in ("y", "yes"):
            return 0


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not (value > 0):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _utf8_text(text: str) -> str:
    # Linux hands argv bytes that are not UTF-8 over as lone surrogates.
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(
            f"must be UTF-8 for the store to hold it, got {text!r}") from None
    return text


def _utf8_file_name(path: str) -> str:
    _utf8_text(os.path.basename(path))
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Measure error level and degree of excellence of C-like source "
                    "files and track their improvement over time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan one source file and print the report")
    scan.add_argument("src", help="source file to scan")
    scan.add_argument("--log", help="compiler log to count errors from")
    scan.add_argument("--error-pattern", help="override the error-line pattern")
    scan.set_defaults(func=cmd_scan)

    default_store = os.environ.get(STORE_ENV_VAR)
    record = sub.add_parser("record", help="scan and append a snapshot to the store")
    record.add_argument("src", type=_utf8_file_name, help="source file to scan")
    record.add_argument("--project", type=_utf8_text, required=True,
                        help="project id the snapshot belongs to")
    record.add_argument("--store", default=default_store,
                        required=default_store is None,
                        help=f"snapshot store path (default: ${STORE_ENV_VAR})")
    record.add_argument("--log", help="compiler log to count errors from")
    record.add_argument("--t-hours", type=_nonnegative_float, default=None,
                        help="hours since the project's first snapshot "
                             "(default: wall clock relative to it)")
    record.set_defaults(func=cmd_record)

    report = sub.add_parser("report", help="rates, trend, and effort for a project")
    report.add_argument("--project", required=True)
    report.add_argument("--store", default=default_store,
                        required=default_store is None,
                        help=f"snapshot store path (default: ${STORE_ENV_VAR})")
    report.add_argument("--alpha", type=_positive_float, default=1.0,
                        help="developer-ability coefficient (default 1.0)")
    report.add_argument("--fit-degree", type=int, choices=(1, 2, 3), default=None,
                        help="also fit a polynomial of this degree")
    report.add_argument("--format", choices=("text", "csv", "svg"), default="text")
    report.add_argument("--tolerance", type=_nonnegative_float, default=1e-6,
                        help="slope tolerance for trend classification (default 1e-6)")
    report.set_defaults(func=cmd_report)

    interactive = sub.add_parser("interactive", help="prompt-driven scan loop")
    interactive.set_defaults(func=cmd_interactive)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExcellenceError as exc:
        _warn(f"error: {exc}")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

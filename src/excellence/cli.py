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
import atexit
import gc
import io
import math
import os
import sys
from typing import NoReturn

from .errors import ExcellenceError, InsufficientDataError, UndefinedMetricError
from .metrics import QualityMetrics, SourceStats, compute_metrics

PROG = "excellence"
STORE_ENV_VAR = "EXCEL_STORE"


def format_2dp(value: float) -> str:
    """Display rounding: two decimals of the value's shortest repr, ties away from zero."""
    return format_2dps((value,))[0]


def format_2dps(values) -> list[str]:
    """``format_2dp`` of each value, in one pass."""
    # "%.2f" rounds the binary value, ties to even. That differs from rounding the
    # repr only at a tie of the repr, whose third decimal "%.3f" shows as 5, or
    # where the float spacing nears 0.01 and the repr may drop digits. + 0.0 makes
    # -0.0 a 0.0, which avoids "-0.00".
    return ["%.2f" % (value + 0.0) if abs(value) < 2.0 ** 46 and ("%.3f" % value)[-1] != "5"
            else _round_repr(value) for value in values]


def _round_repr(value: float) -> str:
    # Round repr's digits half up as one integer of hundredths. repr writes an
    # exponent only from 1e16 up, where the value is whole: shift its digits.
    digits, _, exponent = repr(abs(value)).partition("e")
    whole, _, decimals = digits.partition(".")
    if exponent:
        whole, decimals = whole + decimals + "0" * (int(exponent) - len(decimals)), ""
    decimals = decimals.ljust(3, "0")
    cents = int(whole + decimals[:2]) + (decimals[2] >= "5")
    return "%s%d.%02d" % ("-" if value < 0 else "", *divmod(cents, 100))


def render_report(stats: SourceStats, error_count: int,
                  metrics: "QualityMetrics | None") -> str:
    """The eight-line scan report."""
    if metrics is not None:
        el = format_2dp(metrics.error_level_percent)
        x = format_2dp(metrics.degree_of_excellence)
    else:
        el = x = "undefined (loc = 0)"
    return (
        f"The number of lines in the file is : {stats.total_lines}\n"
        f"Number of comment lines is : {stats.comment_lines}\n"
        f"The number of for loops is : {stats.for_count}\n"
        f"The number of while loops is : {stats.while_count}\n"
        f"Number of errors = {error_count}\n"
        f"loc = {stats.loc}\n"
        f"Error level w.r.t LOC = {el}\n"
        f"Quality Level or Degree of excellence = {x}\n"
    )


def _warn(message: str) -> None:
    print(f"{PROG}: {message}", file=sys.stderr)


# From these sizes on, ``_gather`` counts the log in a forked child while it scans
# the source. A fork, a pipe and the reap cost about 2 ms of wall time. In-process
# vs forked, min of 30 interleaved runs on a 2-vCPU host (CPython 3.11): a 0.48 MB
# source with a 0.25, 0.5, 1 or 2 MiB log took 14.7 / 16.2 / 18.1 / 23.2 ms vs
# 16.4 / 17.3 / 17.8 / 18.8 ms; with a 4.4 MiB log, a 0.13 MB source took 24.3 vs
# 24.4 ms, a 0.26 MB one 29.4 vs 25.7 ms and a 0.48 MB one 35.6 vs 27.8 ms.
_OVERLAP_SOURCE_BYTES = 256 << 10
_OVERLAP_LOG_BYTES = 2 << 20


def _start_count(source_path: str, log_path: str,
                 pattern: "diaglog.ErrorPattern") -> "tuple[int, int] | None":
    """Fork a child that counts the errors in ``log_path`` and writes the count to a
    pipe as ASCII digits; return its pid and the pipe's read end. None, and no child,
    below the sizes above, where there is no ``os.fork``, in a process that runs
    other threads, or where a stat, the pipe or the fork fails."""
    from . import diaglog
    threading = sys.modules.get("threading")  # not imported: no thread to fork beside
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return None
    try:
        if (os.stat(source_path).st_size < _OVERLAP_SOURCE_BYTES
                or os.stat(log_path).st_size < _OVERLAP_LOG_BYTES):
            return None
        read_end, write_end = os.pipe()
    except (OSError, ValueError):
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        # The child never returns into the caller, nor flushes the stdio it shares
        # with it. A count that fails here, on a log it cannot open say, writes no
        # digits, and the parent counts again to report the failure itself.
        try:
            count = diaglog.count_errors_in_file(log_path, pattern).error_count
            os.write(write_end, b"%d" % count)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, read_end


def _scan(source_path: str) -> SourceStats:
    """Scan ``source_path``, with a warning when a block comment is left open."""
    from . import scanner
    stats = scanner.scan_file(source_path)
    if stats.unterminated_comment:
        _warn(f"warning: {source_path}: unterminated block comment; "
              "trailing lines counted as comment lines")
    return stats


def _gather(source_path: str, log_path: "str | None",
            pattern_text: "str | None") -> tuple[SourceStats, int]:
    from . import diaglog
    pattern = diaglog.DEFAULT_ERROR_PATTERN
    if pattern_text is not None:
        pattern = diaglog.ErrorPattern(pattern_text)
        pattern.compile()  # an invalid pattern stops the command before any file is read
    child = None if log_path is None else _start_count(source_path, log_path, pattern)
    try:
        stats = _scan(source_path)
        if log_path is None:
            _warn("notice: no log file given; error count defaults to 0")
            return stats, 0
        # One read: the child writes its few digits in one write, which a pipe keeps whole.
        digits = os.read(child[1], 32) if child else b""
        if digits.isdigit():
            return stats, int(digits)
        return stats, diaglog.count_errors_in_file(log_path, pattern).error_count
    finally:
        if child:
            os.close(child[1])
            os.waitpid(child[0], 0)


def _write_report(stats: SourceStats, error_count: int) -> "QualityMetrics | None":
    """Write the scan report; return its metrics, None when they are undefined."""
    try:
        metrics = compute_metrics(error_count, stats.loc)
    except UndefinedMetricError:
        metrics = None
    # print, unlike sys.stdout.write, writes nothing when fd 1 was closed at start.
    print(render_report(stats, error_count, metrics), end="")
    return metrics


def cmd_scan(args: argparse.Namespace) -> int:
    stats, error_count = _gather(args.src, args.log, args.error_pattern)
    if _write_report(stats, error_count) is None:
        _warn("error: metrics are undefined for loc = 0")
        return UndefinedMetricError.exit_code
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from . import history
    stats, error_count = _gather(args.src, args.log, None)
    snapshot = history.record_snapshot(args.store, args.project, datetime.now(timezone.utc),
                                       stats, error_count, args.t_hours)
    print(f"recorded snapshot for project '{args.project}' at t = {snapshot.t_hours:g} h "
          f"(X = {format_2dp(snapshot.metrics.degree_of_excellence)}, store: {args.store})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import history, report
    traj = history.load_trajectory(args.store, args.project)
    if len(traj) == 0:
        _warn(f"notice: store has no snapshots for project '{args.project}'")
        return InsufficientDataError.exit_code
    if args.format == "text":
        text = report.render_text(traj, args.alpha, args.tolerance, args.fit_degree)
    elif args.format == "csv":
        text = report.render_csv(traj)
    else:
        text = report.render_svg(traj)
    print(text, end="")
    return 0


def cmd_interactive(args: argparse.Namespace) -> int:
    from . import diaglog

    def ask(prompt: str) -> "str | None":
        """The answer, stripped; None at end of input."""
        try:
            return input(prompt).strip()
        except EOFError:
            return None

    while True:
        path = ask("Enter the name of the file : ")
        if path is None:
            return 0
        if path:
            try:
                stats = _scan(path)
                print("File opened successfully!")
                log = ask("Enter the name of the log file (blank for none) : ")
                _write_report(stats, diaglog.count_errors_in_file(log).error_count if log else 0)
            except ExcellenceError as exc:
                _warn(f"error: {exc}")
        answer = ask("Want to continue? y/n : ")
        if answer is None or answer.lower() not in ("y", "yes"):
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


def run() -> NoReturn:
    """``main()`` for ``python -m excellence`` and the console script. The cyclic
    collector stays off: argparse's parser is the one cycle a command makes, and a
    failed command, or a file ``interactive`` fails to scan, adds none. Then the
    ``atexit`` handlers run, stdout and stderr are flushed and ``os._exit`` ends the
    process, with no interpreter teardown: the command left no file open. ``main``
    leaves the collector alone, for library callers.

    A reader that closes stdout early, ``report | head -c1`` say, ends the command with
    141, the status a shell gives a tool that SIGPIPE killed, and no traceback. A raw
    stdout (``-u``) would drop the rest of a write cut short: it gets a buffer, which
    writes the rest or raises, flushed at each line break."""
    if isinstance(out := getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out), sys.stdout.encoding,
                                      sys.stdout.errors, line_buffering=True)
    gc.disable()
    try:
        code = main()
    except BrokenPipeError:
        code = 141
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: fd closed at start
            stream.flush()
    except BrokenPipeError:
        code = 141
    os._exit(code)

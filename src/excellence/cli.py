"""Command-line front end. ``USAGE`` states the commands and their flags. A usage error
exits 2, and a failed command with the ``exit_code`` of its error class in ``errors.py``."""

from __future__ import annotations

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

# What -h prints, and a usage error before its message: python -OO strips docstrings.
USAGE = f"""\
usage: {PROG} scan <src> [--log <path>] [--error-pattern <regex>]
       {PROG} record <src> --project <id> --store <path> [--log <path>] [--t-hours <h>]
       {PROG} report --project <id> --store <path> [--alpha <a>] [--fit-degree 1|2|3]
                         [--format text|csv|svg] [--tolerance <tol>]
       {PROG} interactive
Defaults: --store ${STORE_ENV_VAR}, --t-hours the hours since the project's first snapshot,
--alpha 1, --tolerance 1e-6. A long flag may be cut to a unique prefix, or take =value.
"""


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


def cmd_scan(src: str, log: "str | None", error_pattern: "str | None") -> int:
    stats, error_count = _gather(src, log, error_pattern)
    if _write_report(stats, error_count) is None:
        _warn("error: metrics are undefined for loc = 0")
        return UndefinedMetricError.exit_code
    return 0


def cmd_record(src: str, project: str, store: str, log: "str | None",
               t_hours: "float | None") -> int:
    from datetime import datetime, timezone

    from . import history
    stats, error_count = _gather(src, log, None)
    snapshot = history.record_snapshot(store, project, datetime.now(timezone.utc),
                                       stats, error_count, t_hours)
    print(f"recorded snapshot for project '{project}' at t = {snapshot.t_hours:g} h "
          f"(X = {format_2dp(snapshot.metrics.degree_of_excellence)}, store: {store})")
    return 0


def cmd_report(project: str, store: str, alpha: float, fit_degree: "int | None",
               format: str, tolerance: float) -> int:
    from . import history, report
    traj = history.load_trajectory(store, project)
    if len(traj) == 0:
        _warn(f"notice: store has no snapshots for project '{project}'")
        return InsufficientDataError.exit_code
    if format == "text":
        text = report.render_text(traj, alpha, tolerance, fit_degree)
    elif format == "csv":
        text = report.render_csv(traj)
    else:
        text = report.render_svg(traj)
    print(text, end="")
    return 0


def cmd_interactive() -> int:
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
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not (value > 0):
        raise ValueError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {text}")
    return value


def _one_of(convert, *choices):
    """A converter to one of ``choices``, from ``convert`` of the text."""
    def check(text: str):
        try:
            if (value := convert(text)) in choices:
                return value
        except ValueError:
            pass
        raise ValueError(f"must be one of {', '.join(map(str, choices))}, got {text!r}")
    return check


def _utf8_text(text: str) -> str:
    # Linux hands argv bytes that are not UTF-8 over as lone surrogates.
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"must be UTF-8 for the store to hold it, got {text!r}") from None
    return text


def _utf8_file_name(path: str) -> str:
    _utf8_text(os.path.basename(path))
    return path


# Per command: its function and, per argument, its converter (None keeps the text) and
# default. The name with no dashes is the positional; --store falls back to $EXCEL_STORE.
_REQUIRED = object()
_COMMANDS = {
    "scan": (cmd_scan, {"src": (None, _REQUIRED), "--log": (None, None),
                        "--error-pattern": (None, None)}),
    "record": (cmd_record, {"src": (_utf8_file_name, _REQUIRED),
                            "--project": (_utf8_text, _REQUIRED), "--store": (None, _REQUIRED),
                            "--log": (None, None), "--t-hours": (_nonnegative_float, None)}),
    "report": (cmd_report, {"--project": (None, _REQUIRED), "--store": (None, _REQUIRED),
                            "--alpha": (_positive_float, 1.0),
                            "--fit-degree": (_one_of(int, 1, 2, 3), None),
                            "--format": (_one_of(str, "text", "csv", "svg"), "text"),
                            "--tolerance": (_nonnegative_float, 1e-6)}),
    "interactive": (cmd_interactive, {}),
}


def _usage(prog: str, error: "str | None" = None) -> NoReturn:
    """Print USAGE and exit: for -h on stdout with 0, for a usage error on stderr with 2."""
    if error is None:
        print(USAGE, end="")
        raise SystemExit(0)
    print(USAGE, f"{prog}: error: {error}", sep="", file=sys.stderr)
    raise SystemExit(2)


def _is_flag(arg: str) -> bool:
    """Whether ``arg`` is a flag: '-' and numbers, -1 or -inf say, are values."""
    try:
        float(arg)
    except ValueError:
        return arg[:1] == "-" and arg != "-"
    return False


def _flags(name: str, flags) -> "list[str]":
    """The flags ``name`` names: itself, or each long flag it is a prefix of."""
    return [name] if name in flags else [
        flag for flag in flags if name[:2] == "--" and flag.startswith(name)]


def _parse(argv: "list[str]") -> tuple:
    """The command's function and its keyword arguments, read by argparse's rules, but
    for any number being a value. -h exits 0. An ambiguous flag exits 2 first, any other
    usage error where it is read, and an argument missing or left over after all are."""
    at = next((i for i, arg in enumerate(argv) if arg == "--" or not _is_flag(arg)), len(argv))
    for name, eq, _ in (arg.partition("=") for arg in argv[:at]):  # before the command
        if _flags(name, ("-h", "--help")):
            _usage(PROG, "argument -h/--help: takes no value" if eq else None)
    command = argv[at] if at < len(argv) else ""
    if command not in _COMMANDS:
        _usage(PROG, f"the command must be one of {', '.join(_COMMANDS)}")
    (func, spec), prog = _COMMANDS[command], f"{PROG} {command}"
    extra, rest = argv[:at], argv[at + 1:]
    head = rest[:rest.index("--")] if "--" in rest else rest
    for name in (arg.partition("=")[0] for arg in head if _is_flag(arg)):
        if len(names := _flags(name, (*spec, "-h", "--help"))) > 1:
            _usage(prog, f"ambiguous option: {name} could match {', '.join(names)}")
    values = {name: os.environ.get(STORE_ENV_VAR, default) if name == "--store" else default
              for name, (_, default) in spec.items()}
    ended, args = False, iter(rest)
    for arg in args:
        if arg == "--" and not ended:
            ended = True
            if all(name[0] == "-" for name in spec):  # no positional: -- is left over
                extra.append(arg)
            continue
        name, eq, value = ("", "", arg) if ended or not _is_flag(arg) else arg.partition("=")
        names = _flags(name, (*spec, "-h", "--help")) if name else [  # or the positional
            slot for slot in spec if slot[0] != "-" and values[slot] is _REQUIRED]
        if not names:
            extra.append(arg)
            continue
        if (name := names[0]) in ("-h", "--help"):
            _usage(prog, "argument -h/--help: takes no value" if eq else None)
        if name[0] == "-" and not eq and ((value := next(args, None)) is None or _is_flag(value)):
            _usage(prog, f"argument {name}: expected a value")
        try:
            values[name] = value if spec[name][0] is None else spec[name][0](value)
        except ValueError as exc:
            _usage(prog, f"argument {name}: {exc}")
    if missing := [name for name, value in values.items() if value is _REQUIRED]:
        _usage(prog, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _usage(prog, f"unrecognized arguments: {' '.join(extra)}")
    return func, {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}


def main(argv: "list[str] | None" = None) -> int:
    func, arguments = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return func(**arguments)
    except ExcellenceError as exc:
        _warn(f"error: {exc}")
        return exc.exit_code


def run() -> NoReturn:
    """``main()`` for ``python -m excellence`` and the console script. The cyclic
    collector stays off: a command's one cyclic garbage is the pure-Python ``datetime``
    that ``record``'s import drops, and a failed command, or a file ``interactive``
    fails to scan, adds none. Then the ``atexit`` handlers run, stdout and stderr are
    flushed and ``os._exit`` ends the process, with no interpreter teardown: the
    command left no file open. ``main`` leaves the collector alone, for library callers.

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

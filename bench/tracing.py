"""In-process span tracer for the per-layer metrics.

The program is not instrumented. Instead, each public function of a layer is
replaced, for the traced ops only, by a wrapper at the name its callers look
it up under: ``excellence.trajectory.interval_rates`` is both what the CLI
calls and what ``classify_trend`` calls through its module global, so the
spans nest. Spans live in flat arrays (name, start, end, parent, op) while
the run goes and are summarized, and written out, after it ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "scanner", "diaglog", "metrics", "history", "trajectory")


def _path_counter(args, result):
    # Input files are read-only or append-only, so the prefix of ``size``
    # bytes is still what the call saw when the run is summarized.
    return {"path": args[0], "bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter). Counters run after the span ends
# and do O(1) work. ``compute_metrics`` is bound in two modules; both count.
TARGETS = (
    ("excellence.scanner", "scan_file", "scanner.scan_file", _path_counter),
    ("excellence.scanner", "scan_source", "scanner.scan_source",
     lambda args, result: {"lines": result.total_lines}),
    ("excellence.diaglog", "count_errors_in_file", "diaglog.count_errors_in_file", _path_counter),
    ("excellence.diaglog", "count_errors", "diaglog.count_errors",
     lambda args, result: {"matched": result.error_count}),
    ("excellence.cli", "compute_metrics", "metrics.compute_metrics", None),
    ("excellence.history", "compute_metrics", "metrics.compute_metrics", None),
    ("excellence.history", "load_trajectory", "history.load_trajectory", _path_counter),
    ("excellence.history", "append_snapshot", "history.append_snapshot", _path_counter),
    ("excellence.trajectory", "secant_rate", "trajectory.secant_rate", None),
    ("excellence.trajectory", "interval_rates", "trajectory.interval_rates",
     lambda args, result: {"snapshots": len(args[0])}),
    ("excellence.trajectory", "classify_trend", "trajectory.classify_trend", None),
    ("excellence.trajectory", "instantaneous_rate", "trajectory.instantaneous_rate", None),
    ("excellence.trajectory", "fit_polynomial", "trajectory.fit_polynomial", None),
    ("excellence.trajectory", "fit_derivative_rate", "trajectory.fit_derivative_rate", None),
    ("excellence.trajectory", "effort", "trajectory.effort", None),
)


class Tracer:
    """Records spans of wrapped calls; ``op`` tags the spans of one invocation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.counters: dict[int, dict] = {}
        self.current_op = 0
        self._stack: list[int] = []
        self._originals = []
        for module_name, attr, _, _ in TARGETS:
            module = importlib.import_module(module_name)
            self._originals.append((module, attr, getattr(module, attr)))

    def wrap(self, name: str, fn, counter=None):
        if name not in self.names:
            self.names.append(name)
        kind = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.kind)
            self.kind.append(kind)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.start[index] = start
                self.end[index] = end
            if counter is not None:
                self.counters[index] = counter(args, result)
            return result
        return traced

    def install(self) -> None:
        for (module, attr, original), (_, _, name, counter) in zip(self._originals, TARGETS):
            setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(len(self.kind)):
                f.write(json.dumps([self.names[self.kind[i]], self.start[i], self.end[i],
                                    self.parent[i], self.op[i], self.counters.get(i)]) + "\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per-layer figures for each op: times in ms, counts and throughputs."""
        child_ns = [0] * len(self.kind)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        ops: dict[int, dict[str, float]] = {}
        files: dict[str, bytes] = {}
        for i in range(len(self.kind)):
            name = self.names[self.kind[i]]
            layer = name.split(".")[0]
            fig = ops.setdefault(self.op[i], _empty_figures())
            total_ms = (self.end[i] - self.start[i]) / 1e6
            self_ms = total_ms - child_ns[i] / 1e6
            fig[f"{layer}.self_ms"] += self_ms
            fig[f"{name}_ms"] = fig.get(f"{name}_ms", 0.0) + total_ms
            fig[f"{name}_calls"] = fig.get(f"{name}_calls", 0) + 1
            counters = self.counters.get(i) or {}
            if name == "scanner.scan_file":
                fig["scanner.read_decode_ms"] += self_ms
                fig["scanner.bytes"] += counters["bytes"]
            elif name == "diaglog.count_errors_in_file":
                fig["diaglog.bytes"] += counters["bytes"]
                fig["diaglog.lines"] += _line_count(files, counters)
            elif name.startswith("history.") and fig["history.store_bytes"] == 0:
                fig["history.store_bytes"] = counters["bytes"]
                fig["history.store_records"] = _line_count(files, counters)
            for key in ("lines", "matched", "snapshots"):
                if key in counters:
                    fig[f"{layer}.{key}"] = max(fig[f"{layer}.{key}"], counters[key])
        for fig in ops.values():
            fig["scanner.mb_s"] = _mb_s(fig["scanner.bytes"], fig.get("scanner.scan_file_ms"))
            fig["diaglog.mb_s"] = _mb_s(fig["diaglog.bytes"],
                                        fig.get("diaglog.count_errors_in_file_ms"))
        return ops


def _empty_figures() -> dict[str, float]:
    fig = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
    fig.update(dict.fromkeys(("scanner.read_decode_ms", "scanner.bytes", "scanner.lines",
                              "diaglog.bytes", "diaglog.lines", "diaglog.matched",
                              "history.store_bytes", "history.store_records",
                              "trajectory.snapshots"), 0))
    return fig


def _line_count(files: dict[str, bytes], counters: dict) -> int:
    path = counters["path"]
    if path not in files:
        with open(path, "rb") as f:
            files[path] = f.read()
    data = files[path][:counters["bytes"]]
    return data.count(b"\n") + (0 if data.endswith(b"\n") or not data else 1)


def _mb_s(size: int, ms: "float | None") -> float:
    return size / 1e6 / (ms / 1e3) if ms else 0.0


def medians(ops: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over ops of every figure; absent figures count as 0."""
    keys = set().union(*ops.values()) if ops else set()
    return {key: statistics.median(fig.get(key, 0) for fig in ops.values()) for key in keys}

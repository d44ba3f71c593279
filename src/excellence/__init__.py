"""Code-quality metrics for C-like sources.

Scan source files for line and loop counts, count compiler errors from build
logs, derive the error level and degree of excellence, keep timestamped
snapshots per project, and estimate how fast quality is improving.

Every name below, and every submodule, loads on first use: ``import
excellence`` loads none of them, and ``from excellence import scan_file``
loads only the scanner. The same imports work as with eager loading.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "scanner": ("LineClass", "classify_lines", "scan_source", "scan_file"),
    "diaglog": ("DEFAULT_ERROR_PATTERN", "ErrorPattern", "ErrorReport", "count_errors",
                "count_errors_in_file"),
    "metrics": ("SourceStats", "QualityMetrics", "compute_metrics", "improvement"),
    "history": ("QualitySnapshot", "Trajectory", "append_snapshot", "load_trajectory",
                "record_snapshot"),
    "trajectory": ("RateMethod", "TrendClass", "RateEstimate", "EffortEstimate", "PolyFit",
                   "secant_rate", "instantaneous_rate", "fit_polynomial", "fit_derivative_rate",
                   "effort", "interval_rates", "classify_trend"),
    "errors": ("ExcellenceError", "MissingFileError", "SourceDecodeError", "PatternError",
               "UndefinedMetricError", "StoreError", "OrderingError", "CorruptionError",
               "InsufficientDataError", "NotFoundError", "IntervalError", "ExtrapolationError",
               "InvalidCoefficientError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "report")

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule here; unlike importlib.import_module it
    # shows in `python -X importtime`.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

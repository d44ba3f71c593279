"""Code-quality metrics for C-like sources.

Scan source files for line and loop counts, count compiler errors from build
logs, derive the error level and degree of excellence, keep timestamped
snapshots per project, and estimate how fast quality is improving.
"""

from .diaglog import DEFAULT_ERROR_PATTERN, ErrorPattern, ErrorReport, count_errors, count_errors_in_file
from .errors import (
    CorruptionError,
    ExcellenceError,
    ExtrapolationError,
    InsufficientDataError,
    IntervalError,
    InvalidCoefficientError,
    MissingFileError,
    NotFoundError,
    OrderingError,
    PatternError,
    SourceDecodeError,
    StoreError,
    UndefinedMetricError,
)
from .history import QualitySnapshot, Trajectory, append_snapshot, load_trajectory, record_snapshot
from .metrics import QualityMetrics, compute_metrics, improvement
from .scanner import LineClass, SourceStats, classify_lines, scan_file, scan_source
from .trajectory import (
    EffortEstimate,
    PolyFit,
    RateEstimate,
    RateMethod,
    TrendClass,
    classify_trend,
    effort,
    fit_derivative_rate,
    fit_polynomial,
    instantaneous_rate,
    interval_rates,
    secant_rate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scanner
    "LineClass", "SourceStats", "classify_lines", "scan_source", "scan_file",
    # diaglog
    "DEFAULT_ERROR_PATTERN", "ErrorPattern", "ErrorReport",
    "count_errors", "count_errors_in_file",
    # metrics
    "QualityMetrics", "compute_metrics", "improvement",
    # history
    "QualitySnapshot", "Trajectory", "append_snapshot", "load_trajectory", "record_snapshot",
    # trajectory
    "RateMethod", "TrendClass", "RateEstimate", "EffortEstimate", "PolyFit",
    "secant_rate", "instantaneous_rate", "fit_polynomial", "fit_derivative_rate",
    "effort", "interval_rates", "classify_trend",
    # errors
    "ExcellenceError", "MissingFileError", "SourceDecodeError", "PatternError",
    "UndefinedMetricError", "StoreError", "OrderingError", "CorruptionError",
    "InsufficientDataError", "NotFoundError", "IntervalError",
    "ExtrapolationError", "InvalidCoefficientError",
]

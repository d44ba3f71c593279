"""Error level, degree of excellence and improvement, and the line census they rest on.

Error level is errors per line of code; expressed in percent it is EL%.
Degree of excellence is X = 100 - EL%, kept at full precision here; display
rounding is the renderer's job. X is deliberately not clamped to [0, 100]:
one line can hold several errors, so EL% may exceed 100 and X go negative.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import UndefinedMetricError


class SourceStats(NamedTuple):
    """Per-file line and loop census, as ``scanner.scan_source`` counts it."""

    file_name: str
    total_lines: int
    comment_lines: int
    blank_lines: int
    loc: int
    for_count: int
    while_count: int
    unterminated_comment: bool = False


class QualityMetrics(NamedTuple):
    error_level_fraction: float
    error_level_percent: float
    degree_of_excellence: float


def error_levels(error_count: int, loc: int) -> tuple[float, float, float]:
    """EL, EL% and X from an error count and a line-of-code count, as a plain tuple."""
    if error_count < 0:
        raise ValueError(f"error_count must be >= 0, got {error_count}")
    if loc <= 0:
        raise UndefinedMetricError(
            f"error level is undefined for loc = {loc} (ratio with zero denominator)"
        )
    fraction = error_count / loc
    percent = 100.0 * fraction
    return fraction, percent, 100.0 - percent


def compute_metrics(error_count: int, loc: int) -> QualityMetrics:
    """Compute EL, EL%, and X from an error count and a line-of-code count."""
    return QualityMetrics(*error_levels(error_count, loc))


def improvement(x_initial: float, x_final: float) -> float:
    """Change in degree of excellence between two points in time; may be negative."""
    if not (math.isfinite(x_initial) and math.isfinite(x_final)):
        raise ValueError("degrees of excellence must be finite")
    return x_final - x_initial


"""The text, csv and svg reports of a trajectory; only ``report`` loads them."""

from __future__ import annotations

import math
import sys

from . import trajectory
from .cli import format_2dp, format_2dps
from .errors import InsufficientDataError
from .history import Trajectory
from .metrics import improvement


def _format_poly(fit: trajectory.PolyFit) -> str:
    parts = [f"{fit.coefficients[0]:.6g}"]
    for power, coeff in enumerate(fit.coefficients[1:], start=1):
        sign = "-" if coeff < 0 else "+"
        var = "t" if power == 1 else f"t^{power}"
        parts.append(f"{sign} {abs(coeff):.6g} {var}")
    return " ".join(parts)


def render_text(traj: Trajectory, alpha: float, tolerance: float,
                fit_degree: "int | None") -> str:
    out = [f"Project : {traj.project_id}", f"Snapshots : {len(traj)}"]
    ts, xs = traj.ts, traj.xs
    hours = [f"{t:g}" for t in ts]  # each written once, for every line that shows it
    out += [f"  t = {t} h  X = {x}  EL% = {el}  errors = {n}  loc = {loc}  file = {name}"
            for t, x, el, n, loc, name in zip(hours, format_2dps(xs), format_2dps(traj._percents),
                                               traj._errors, traj._locs, traj._files)]

    try:
        latest = trajectory.instantaneous_rate(traj, ts[-1])
    except InsufficientDataError:
        out += [f"{line} : insufficient data (need >= 2 snapshots)"
                for line in ("Improvement", "Interval rates", "Instantaneous rate", "Trend",
                             "Effort")]
    else:
        gain = improvement(xs[0], xs[-1])
        sign = "+" if gain >= 0 else ""
        out.append(f"Improvement (X_final - X_initial) = {sign}{format_2dp(gain)}")
        out.append("Interval rates (points/hour):")
        # The slopes of trajectory.interval_rates, without a RateEstimate each.
        out.extend(f"  [{t_i}, {t_f}] : {slope:.6g}"
                   for t_i, t_f, slope in zip(hours, hours[1:], trajectory._slopes(traj)))
        out.append(f"Instantaneous rate at t = {hours[-1]} h : {latest.value:.6g} points/hour")
        out.append(f"Trend : {trajectory.classify_trend(traj, tolerance).value}")
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
            out.append(f"  fit-derivative rate at t = {hours[-1]} h : "
                       f"{fit.derivative_at(ts[-1]):.6g} points/hour")
    return "\n".join(out) + "\n"


def render_csv(traj: Trajectory) -> str:
    # Floats, ints and one empty field: csv.writer would write each as str writes it,
    # unquoted, so plain joins give its bytes.
    rates = ["", *trajectory._slopes(traj)]  # the first snapshot has no previous one
    rows = [("t_hours", "x", "el_percent", "errors", "loc", "rate_from_prev")]
    rows += zip(traj.ts, traj.xs, traj._percents, traj._errors, traj._locs, rates)
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _svg_axis(values: list[float], lo_px: float, hi_px: float):
    """The five tick values of an axis over ``values``, padded by 5% of their range
    or by 0.5 for one value, and the map of a value to its pixel. The values are
    scaled by a power of two to below 1, exactly while they stay normal, so that no
    difference overflows, and the ends are clamped to floats; an offset is divided
    by the span before it is scaled, so a span of subnormals gives no infinite scale."""
    lo, hi = min(values), max(values)
    exp = max(0, math.frexp(lo)[1], math.frexp(hi)[1])
    lo, hi = math.ldexp(lo, -exp), math.ldexp(hi, -exp)
    pad = 0.05 * (hi - lo) if lo != hi else math.ldexp(0.5, -exp)
    lo, hi = lo - pad, hi + pad
    if lo == hi:  # one value too large for 0.5 to move
        lo, hi = math.nextafter(lo, -2.0), math.nextafter(hi, 2.0)
    end = math.ldexp(sys.float_info.max, -exp)
    lo, hi = max(lo, -end), min(hi, end)
    ticks = [math.ldexp(min(lo + i / 4 * (hi - lo), hi), exp) for i in range(5)]
    return ticks, lambda v: lo_px + (math.ldexp(v, -exp) - lo) / (hi - lo) * (hi_px - lo_px)


# XML 1.0 forbids these code points even as character references: each becomes U+FFFD.
_XML_TEXT = {**dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF],
                             "\ufffd"),
             ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"}


def _xml_text(text: str) -> str:
    return text.translate(_XML_TEXT)


def render_svg(traj: Trajectory) -> str:
    width, height = 640, 400
    left, right, top, bottom = 70.0, 620.0, 30.0, 350.0
    ts, xs = traj.ts, traj.xs
    t_ticks, px = _svg_axis(ts, left, right)
    x_ticks, py = _svg_axis(xs, bottom, top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.2f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_xml_text(traj.project_id)}</text>',
    ]
    for t_val, x_val in zip(t_ticks, x_ticks):
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

"""The text, csv and svg reports of a trajectory; only ``report`` loads them."""

from __future__ import annotations

from . import trajectory
from .cli import format_2dp
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
        # The slopes of trajectory.interval_rates, without a RateEstimate each.
        ts, slopes = traj.ts, trajectory._slopes(traj)
        out.extend(f"  [{t_i:g}, {t_f:g}] : {slope:.6g}"
                   for t_i, t_f, slope in zip(ts, ts[1:], slopes))
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


def render_csv(traj: Trajectory) -> str:
    # Floats, ints and one empty field: csv.writer would write each as str writes it,
    # unquoted, so plain joins give its bytes.
    rates = ["", *trajectory._slopes(traj)]  # the first snapshot has no previous one
    rows = [("t_hours", "x", "el_percent", "errors", "loc", "rate_from_prev")]
    rows += [(snap.t_hours, snap.metrics.degree_of_excellence, snap.metrics.error_level_percent,
              snap.error_count, snap.stats.loc, rate) for snap, rate in zip(traj.snapshots, rates)]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _svg_scale(values: list[float], lo_px: float, hi_px: float) -> "tuple[float, float, float]":
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    else:
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    scale = (hi_px - lo_px) / (hi - lo)
    return lo, hi, scale


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
        f'font-family="sans-serif" font-size="14">{_xml_text(traj.project_id)}</text>',
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

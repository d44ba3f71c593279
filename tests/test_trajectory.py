"""Tests for rate estimation, polynomial fits, effort, and trend shapes."""

import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from excellence import cli, trajectory
from excellence.errors import (
    ExtrapolationError,
    InsufficientDataError,
    IntervalError,
    InvalidCoefficientError,
    NotFoundError,
)
from excellence.history import QualitySnapshot, Trajectory, append_snapshot, load_trajectory
from excellence.metrics import QualityMetrics
from excellence.scanner import SourceStats
from excellence.trajectory import (
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

T0 = datetime(2026, 3, 1, tzinfo=timezone.utc)

_STATS = SourceStats(file_name="m.c", total_lines=110, comment_lines=10,
                     blank_lines=0, loc=100, for_count=0, while_count=0)


def snap(t: float, x: float, project: str = "p") -> QualitySnapshot:
    """Snapshot with a prescribed degree of excellence (tests drive the math
    with exact curves, so metrics are set directly rather than derived)."""
    el = 100.0 - x
    return QualitySnapshot(
        project_id=project,
        wall_clock=T0 + timedelta(hours=t),
        t_hours=float(t),
        stats=_STATS,
        error_count=0,
        metrics=QualityMetrics(error_level_fraction=el / 100.0,
                               error_level_percent=el,
                               degree_of_excellence=x),
    )


def make_traj(points) -> Trajectory:
    return Trajectory("p", tuple(snap(t, x) for t, x in points))


def from_slopes(slopes, start=50.0) -> Trajectory:
    points = [(0.0, start)]
    for i, slope in enumerate(slopes):
        points.append((float(i + 1), points[-1][1] + slope))
    return make_traj(points)


# --- secant ---------------------------------------------------------------

def test_secant_two_point_average_rate():
    traj = make_traj([(0.0, 99.15), (2.0, 100.0)])
    rate = secant_rate(traj, 0.0, 2.0)
    assert rate.value == pytest.approx(0.425, abs=1e-12)
    assert rate.method is RateMethod.SECANT
    assert rate.interval == (0.0, 2.0)


def test_secant_requires_increasing_interval():
    traj = make_traj([(0.0, 1.0), (2.0, 2.0)])
    with pytest.raises(IntervalError):
        secant_rate(traj, 2.0, 0.0)
    with pytest.raises(IntervalError):
        secant_rate(traj, 2.0, 2.0)


def test_secant_requires_sampled_endpoints():
    traj = make_traj([(0.0, 1.0), (2.0, 2.0)])
    with pytest.raises(NotFoundError) as err:
        secant_rate(traj, 0.0, 1.0)
    assert "available times" in str(err.value)


def test_secant_matches_overall_average():
    rng = random.Random(11)
    for _ in range(50):
        count = rng.randint(2, 12)
        points, t, x = [], 0.0, 75.0
        for _ in range(count):
            points.append((t, x))
            t += rng.uniform(0.25, 3.0)
            x += rng.uniform(-5.0, 5.0)
        traj = make_traj(points)
        t0, x0 = points[0]
        tn, xn = points[-1]
        overall = secant_rate(traj, t0, tn).value
        assert overall == pytest.approx((xn - x0) / (tn - t0), abs=1e-12)


def test_interval_rates_time_weighted_mean_is_overall_secant():
    rng = random.Random(13)
    for _ in range(50):
        count = rng.randint(2, 10)
        points, t, x = [], 0.0, 60.0
        for _ in range(count):
            points.append((t, x))
            t += rng.uniform(0.5, 2.0)
            x += rng.uniform(-3.0, 4.0)
        traj = make_traj(points)
        rates = interval_rates(traj)
        ts = [t for t, _ in points]
        assert rates == [secant_rate(traj, a, b) for a, b in zip(ts, ts[1:])]
        weighted = sum(r.value * (r.interval[1] - r.interval[0]) for r in rates)
        span = points[-1][0] - points[0][0]
        overall = secant_rate(traj, points[0][0], points[-1][0]).value
        assert weighted / span == pytest.approx(overall, abs=1e-12)


def test_interval_rates_cover_consecutive_pairs():
    traj = make_traj([(0.0, 10.0), (1.0, 12.0), (3.0, 13.0)])
    rates = interval_rates(traj)
    assert [r.interval for r in rates] == [(0.0, 1.0), (1.0, 3.0)]
    assert rates[0].value == pytest.approx(2.0)
    assert rates[1].value == pytest.approx(0.5)


# --- instantaneous --------------------------------------------------------

def test_interior_rate_exact_for_quadratic_uniform_spacing():
    traj = make_traj([(t, t * t) for t in (0.0, 2.0, 4.0)])
    rate = instantaneous_rate(traj, 2.0)
    assert rate.value == 4.0
    assert rate.method is RateMethod.CENTRAL_DIFFERENCE
    assert rate.interval == (0.0, 4.0)


def test_interior_rate_exact_for_quadratic_uneven_spacing():
    traj = make_traj([(t, t * t) for t in (1.0, 2.0, 4.0)])
    assert instantaneous_rate(traj, 2.0).value == pytest.approx(4.0, abs=1e-12)


def test_boundary_rates_exact_for_linear_data():
    traj = make_traj([(t, 99.0 + 0.5 * t) for t in (0.0, 1.0, 3.0)])
    assert instantaneous_rate(traj, 0.0).value == pytest.approx(0.5, abs=1e-12)
    assert instantaneous_rate(traj, 3.0).value == pytest.approx(0.5, abs=1e-12)


def test_two_snapshot_rate_at_latest_is_the_secant():
    traj = make_traj([(0.0, 99.15), (2.0, 100.0)])
    assert instantaneous_rate(traj, 2.0).value == pytest.approx(0.425, abs=1e-12)


def test_between_samples_uses_bracketing_pair():
    traj = make_traj([(0.0, 0.0), (2.0, 4.0), (6.0, 36.0)])
    rate = instantaneous_rate(traj, 1.0)
    assert rate.value == pytest.approx(2.0)
    assert rate.interval == (0.0, 2.0)
    rate = instantaneous_rate(traj, 5.0)
    assert rate.value == pytest.approx(8.0)
    assert rate.interval == (2.0, 6.0)


_OUTSIDE = (-0.1, 3.1, math.nan, math.inf, -math.inf)


def test_rate_outside_range_is_extrapolation():
    # NaN too, which no comparison places inside the range.
    traj = make_traj([(0.0, 1.0), (2.0, 2.0), (3.0, 3.5)])
    for t in _OUTSIDE:
        with pytest.raises(ExtrapolationError, match="outside the sampled range"):
            instantaneous_rate(traj, t)


def _far_traj(points) -> Trajectory:
    """A trajectory at times too close or too far apart for ``timedelta``'s clocks."""
    return Trajectory("p", tuple(snap(0.0, x)._replace(t_hours=t) for t, x in points))


def test_interior_rate_on_tiny_intervals_does_not_underflow():
    # The product of two intervals of 1e-200 h underflows to 0; no such product is formed.
    traj = _far_traj([(0.0, 90.0), (1e-200, 91.0), (2e-200, 93.0), (3e-200, 94.0)])
    rate = instantaneous_rate(traj, 1e-200)
    assert rate.value == pytest.approx(1.5e200)
    assert rate.interval == (0.0, 2e-200)


def test_rate_needs_two_snapshots():
    traj = make_traj([(0.0, 1.0)])
    with pytest.raises(InsufficientDataError) as err:
        instantaneous_rate(traj, 0.0)
    assert err.value.exit_code == 8


def _four_branch_instantaneous_rate(traj, t):
    """``instantaneous_rate`` as it was written with a branch for each end of the
    range: the reference its one pair rule must match, for every t in range."""
    ts, xs = traj.ts, traj.xs
    k = bisect_left(ts, t)
    if ts[k] == t and 0 < k < len(ts) - 1:
        value = trajectory._three_point_derivative(
            ts[k - 1], xs[k - 1], ts[k], xs[k], ts[k + 1], xs[k + 1]
        )
        interval = (ts[k - 1], ts[k + 1])
    elif t == ts[0]:
        value = (xs[1] - xs[0]) / (ts[1] - ts[0])
        interval = (ts[0], ts[1])
    elif t == ts[-1]:
        value = (xs[-1] - xs[-2]) / (ts[-1] - ts[-2])
        interval = (ts[-2], ts[-1])
    else:
        value = (xs[k] - xs[k - 1]) / (ts[k] - ts[k - 1])
        interval = (ts[k - 1], ts[k])
    return RateEstimate(value=value, method=RateMethod.CENTRAL_DIFFERENCE, interval=interval)


def _bits(rate):
    return rate.value.hex(), rate.method, tuple(t.hex() for t in rate.interval)


# First times and steps: times near 1e-200 h, near 1e150 h and small integers.
_ORIGINS_AND_STEPS = st.sampled_from(((0.0, 1e-200), (1e-200, 1e-203), (1e150, 1e140),
                                      (1e150, 1e150), (0.0, 1.0), (7.0, 1.0), (0.0, 0.25)))


@settings(max_examples=300, deadline=None)
@given(_ORIGINS_AND_STEPS,
       st.lists(st.integers(0, 1000), min_size=2, max_size=8, unique=True),
       st.lists(st.floats(-1e6, 100.0), min_size=8, max_size=8), st.data())
def test_one_pair_rule_gives_the_four_branch_rates(origin_and_step, steps, xs, data):
    origin, step = origin_and_step
    ts = sorted({origin + k * step for k in steps})
    assume(len(ts) >= 2)
    traj = _far_traj(list(zip(ts, xs)))
    middles = [a + (b - a) / 2 for a, b in zip(ts, ts[1:])]
    drawn = data.draw(st.floats(ts[0], ts[-1]), label="t")
    for t in [*ts, *middles, drawn]:
        assert _bits(instantaneous_rate(traj, t)) == \
            _bits(_four_branch_instantaneous_rate(traj, t)), t


# --- polynomial fits ------------------------------------------------------

def test_fit_recovers_line():
    traj = make_traj([(t, 99.0 + 0.5 * t) for t in (0.0, 1.0, 2.0, 3.0, 4.0)])
    fit = fit_polynomial(traj, 1)
    assert fit.coefficients[0] == pytest.approx(99.0, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(0.5, abs=1e-9)
    assert fit.residual_sum_of_squares < 1e-10
    rate = fit_derivative_rate(traj, 1, 2.5)
    assert rate.value == pytest.approx(0.5, abs=1e-9)
    assert rate.method is RateMethod.FIT_DERIVATIVE


def test_fit_recovers_quadratic():
    def curve(t):
        return 90.0 + 3.0 * t - 0.2 * t * t

    traj = make_traj([(t, curve(t)) for t in (0.0, 1.0, 2.0, 4.0, 7.0)])
    fit = fit_polynomial(traj, 2)
    assert fit.coefficients == pytest.approx((90.0, 3.0, -0.2), abs=1e-8)
    assert fit_derivative_rate(traj, 2, 5.0).value == pytest.approx(1.0, abs=1e-8)


def test_fit_recovers_cubic():
    def curve(t):
        return 70.0 + 2.0 * t - 0.5 * t * t + 0.0625 * t ** 3

    ts = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)
    traj = make_traj([(t, curve(t)) for t in ts])
    fit = fit_polynomial(traj, 3)
    assert fit.coefficients == pytest.approx((70.0, 2.0, -0.5, 0.0625), abs=1e-7)


def test_overdetermined_fit_minimizes_squares():
    traj = make_traj([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    fit = fit_polynomial(traj, 1)
    assert fit.coefficients[0] == pytest.approx(1 / 3)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_sum_of_squares == pytest.approx(2 / 3)


def test_fit_is_translation_invariant():
    slope = 0.5
    base = [(t, 99.0 + slope * t) for t in (0.0, 1.0, 2.0, 3.0)]
    shifted = [(t + 1024.0, x) for t, x in base]
    fit_a = fit_polynomial(make_traj(base), 1)
    fit_b = fit_polynomial(make_traj(shifted), 1)
    assert fit_a.coefficients[1] == pytest.approx(fit_b.coefficients[1], abs=1e-9)
    assert fit_a.derivative_at(2.0) == pytest.approx(
        fit_b.derivative_at(1026.0), abs=1e-9)


def test_fit_degree_validation():
    # Only the int 1, 2 or 3: not a float that equals one, nor a bool.
    traj = make_traj([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
    for degree in (0, 4, 2.0, True):
        with pytest.raises(ValueError, match="fit degree must be 1, 2, or 3"):
            fit_polynomial(traj, degree)


@pytest.mark.parametrize("start, step, degree", [(0.0, 1e-200, 1), (0.0, 1e-200, 2),
                                                 (0.0, 1e-200, 3), (0.0, 1e160, 1),
                                                 (0.0, 1e160, 2), (0.0, 1e160, 3),
                                                 (1e155, 1e153, 2)])
def test_fit_on_times_out_of_float_range_is_insufficient_data(start, step, degree):
    # Squares of 1e-200 underflow to a zero pivot; powers of 1e160 overflow, as do
    # their squares in a column's norm, and so does the square of a first time of
    # 1e155 when the fit is unshifted.
    traj = _far_traj([(start + k * step, 90.0 + k * k) for k in range(4)])
    with pytest.raises(InsufficientDataError, match="out of floating-point range"):
        fit_polynomial(traj, degree)


def test_fit_derivative_rate_outside_range_is_extrapolation():
    # A rate is estimated only inside the sampled range, as for instantaneous_rate.
    traj = make_traj([(0.0, 1.0), (2.0, 2.0), (3.0, 3.5)])
    assert fit_derivative_rate(traj, 1, 3.0).interval == (0.0, 3.0)
    for t in (*_OUTSIDE, 1e9):
        with pytest.raises(ExtrapolationError, match="outside the sampled range"):
            fit_derivative_rate(traj, 1, t)


def test_fit_needs_degree_plus_one_points():
    traj = make_traj([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(InsufficientDataError):
        fit_polynomial(traj, 2)


def _exact_fit_values(ts, xs, degree):
    """Fitted values at ``ts``, from the normal equations solved in rationals."""
    u = [Fraction(t) - Fraction(ts[0]) for t in ts]
    m = degree + 1
    rows = [[sum(v ** (i + j) for v in u) for j in range(m)]
            + [sum(v ** i * Fraction(x) for v, x in zip(u, xs))] for i in range(m)]
    for i in range(m):
        for k in range(i + 1, m):
            factor = rows[k][i] / rows[i][i]
            rows[k] = [a - factor * b for a, b in zip(rows[k], rows[i])]
    coeffs = [Fraction(0)] * m
    for i in reversed(range(m)):
        coeffs[i] = (rows[i][m] - sum(rows[i][k] * coeffs[k]
                                      for k in range(i + 1, m))) / rows[i][i]
    return [sum(c * v ** k for k, c in enumerate(coeffs)) for v in u]


@pytest.mark.parametrize("n", [4, 10, 100, 1000])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_fit_matches_exact_rational_solve(degree, n):
    rng = random.Random(1000 * degree + n)
    t0, span = rng.uniform(0.0, 1000.0), rng.uniform(1.0, 5000.0)
    ts = sorted({t0, t0 + span} | {t0 + rng.uniform(0.0, span) for _ in range(n - 2)})
    xs = [rng.uniform(0.0, 100.0) for _ in ts]
    fit = fit_polynomial(make_traj(list(zip(ts, xs))), degree)
    for t, exact in zip(ts, _exact_fit_values(ts, xs, degree)):
        assert fit.value_at(t) == pytest.approx(float(exact), rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_fit_recovers_integer_polynomials(degree, data):
    # Any integer polynomial of degree <= d, sampled at d + 1 or more distinct
    # half hours from 0 (where every project's hours axis starts) up to 64,
    # comes back from a degree-d fit to within 1e-6 per coefficient.
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=degree + 1))
    halves = data.draw(st.lists(st.integers(1, 128), min_size=degree, max_size=12,
                                unique=True))
    ts = [0.0] + sorted(h / 2 for h in halves)
    xs = [float(sum(c * Fraction(t) ** k for k, c in enumerate(coeffs))) for t in ts]
    fit = fit_polynomial(make_traj(list(zip(ts, xs))), degree)
    expected = coeffs + [0] * (degree + 1 - len(coeffs))
    assert fit.coefficients == pytest.approx(expected, rel=0, abs=1e-6)


def _rounded_once(terms) -> float:
    """The float nearest the exact rational sum of ``terms``; OverflowError for an
    infinite term or a sum past the float range, where the fit stops too."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def _exact_sum_least_squares(columns, y):
    """``trajectory._least_squares`` with every sum taken exactly in rationals and
    rounded once to a float: the reference its sums must match on every Python."""
    q = [*columns, y]
    m = len(columns)
    r = [[0.0] * (m + 1) for _ in range(m)]
    for j in range(m):
        r[j][j] = math.sqrt(_rounded_once(v * v for v in q[j]))
        q[j] = [v / r[j][j] for v in q[j]]
        for k in range(j + 1, m + 1):
            r[j][k] = _rounded_once(a * b for a, b in zip(q[j], q[k]))
            q[k] = [b - r[j][k] * a for a, b in zip(q[j], q[k])]
    coeffs = [0.0] * m
    for j in reversed(range(m)):
        coeffs[j] = (r[j][m] - _rounded_once(r[j][k] * coeffs[k]
                                             for k in range(j + 1, m))) / r[j][j]
    return coeffs, _rounded_once(v * v for v in q[m])


def _bits_or_fault(solve, columns, y):
    try:
        coeffs, rss = solve(columns, y)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    return [c.hex() for c in coeffs], rss.hex()


# Origins up to 1.7e160 h, where the powers of a span overflow, and steps of every
# scale down to subnormal ones, where they underflow to a zero pivot.
_ORIGINS = st.one_of(st.floats(0, 1e4), st.floats(0, 1e4),
                     st.sampled_from((1e6, 1e159, 1e160, 1.7e160)))
_SCALES = st.sampled_from((1.0, 1.0, 1e-3, 1e-12, 1e-100, 1e-300, 1e-310, 1e50, 1e145, 1e150))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), _ORIGINS, _SCALES, st.lists(st.floats(1, 1e3), min_size=3, max_size=12),
       st.lists(st.floats(-1e6, 1e6), min_size=13, max_size=13))
# A case that builtin sum() gets wrong, by left-to-right (3.11) and compensated (3.12+) sums.
@example(1, 0.0, 1.0, [1.0, 1.0, 1.0],
         [0.0, 2.225073858507e-311, -48576.94013587362, -999999.0699921848, *[0.0] * 9])
def test_least_squares_sums_are_correctly_rounded(degree, t0, scale, steps, xs):
    # The columns fit_polynomial builds: powers of the times shifted to the first.
    ts = [t0]
    for step in steps:
        ts.append(ts[-1] + step * scale)
    u = [t - ts[0] for t in ts]
    try:
        columns = [[v ** p for v in u] for p in range(degree + 1)]
    except OverflowError:  # fit_polynomial stops here, before any sum
        event("powers overflow")
        return
    y = tuple(xs[:len(ts)])
    outcome = _bits_or_fault(trajectory._least_squares, columns, y)
    event(f"outcome: {outcome.__name__ if isinstance(outcome, type) else 'a fit'}")
    assert outcome == _bits_or_fault(_exact_sum_least_squares, columns, y)


def _loaded_modules(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, printed by an
    ``atexit`` handler: a command ends in ``os._exit`` once its handlers have run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import atexit, sys\natexit.register(lambda: print(*sys.modules))\n{code}"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _command(*argv: str) -> str:
    """Code that runs ``python -m excellence`` with ``argv``."""
    return ("import runpy, sys\n"
            f"sys.argv = ['excellence', *{list(argv)!r}]\n"
            "runpy.run_module('excellence', run_name='__main__')")


def test_import_does_not_load_numpy(tmp_path):
    """Nor hashlib, which no command needs: the store writer's seal is a CRC-32; each
    command, run as ``python -m excellence`` runs it, loads only its layers, and none
    loads dataclasses or the inspect module under it."""
    loaded = _loaded_modules("import excellence", tmp_path)
    assert not {"numpy", "hashlib"} & loaded
    assert not {name for name in loaded if name.startswith("excellence.")}

    (tmp_path / "one.c").write_text("int x;\n", encoding="utf-8")
    scan = _loaded_modules(_command("scan", "one.c"), tmp_path)
    assert {"excellence.scanner", "excellence.diaglog", "excellence.metrics"} <= scan
    # Only record reads the clock.
    assert not {"excellence.history", "excellence.trajectory", "excellence.report",
                "json", "csv", "hashlib", "datetime"} & scan
    # Above the sizes from which the log is counted in a forked child, os alone does it.
    (tmp_path / "big.c").write_text("int x;\n" * 40_000, encoding="utf-8")
    (tmp_path / "big.log").write_text("m.c:1:1: error: e\n" * 120_000, encoding="utf-8")
    assert (tmp_path / "big.c").stat().st_size >= cli._OVERLAP_SOURCE_BYTES
    assert (tmp_path / "big.log").stat().st_size >= cli._OVERLAP_LOG_BYTES
    big_scan = _loaded_modules(_command("scan", "big.c", "--log", "big.log"), tmp_path)
    assert big_scan <= scan
    assert not {"subprocess", "multiprocessing", "signal", "pickle"} & big_scan
    record = _loaded_modules(_command("record", "one.c", "--project", "p", "--store",
                                      "s.jsonl", "--t-hours", "0"), tmp_path)
    assert "excellence.history" in record
    assert not {"excellence.trajectory", "excellence.report", "csv", "hashlib", "_hashlib"} \
        & record
    # The second record reads the first and writes a seal; the third trusts it.
    for t in ("1", "2"):
        sealed = _loaded_modules(_command("record", "one.c", "--project", "p", "--store",
                                          "s.jsonl", "--t-hours", t), tmp_path)
        assert (tmp_path / "s.jsonl.seal").exists()
        assert not {"hashlib", "_hashlib"} & sealed
    report = _loaded_modules(_command("report", "--project", "p", "--store", "s.jsonl"),
                             tmp_path)
    assert {"excellence.report", "excellence.trajectory"} <= report
    # The writer's own lines are checked in bulk, with no JSON decoder.
    assert not {"excellence.diaglog", "excellence.scanner", "csv", "json"} & report
    # A report on a store with no seal checks it all and leaves a seal; the report
    # after it trusts that seal. Neither loads the JSON decoder.
    (tmp_path / "u.jsonl").write_bytes((tmp_path / "s.jsonl").read_bytes())
    unsealed = _loaded_modules(_command("report", "--project", "p", "--store", "u.jsonl"),
                               tmp_path)
    seal = (tmp_path / "u.jsonl.seal").read_bytes()
    trusting = _loaded_modules(_command("report", "--project", "p", "--store", "u.jsonl"),
                               tmp_path)
    assert (tmp_path / "u.jsonl.seal").read_bytes() == seal
    assert "json" not in unsealed and "json" not in trusting
    # An X of -1e32 too, far past 2**46, where repr's digits are rounded the same way.
    huge = _STATS._replace(total_lines=100, comment_lines=0)
    for t in (0.0, 1.0):
        append_snapshot(str(tmp_path / "huge.jsonl"),
                        QualitySnapshot.create("h", T0, t, huge, 10 ** 32))
    assert load_trajectory(str(tmp_path / "huge.jsonl"), "h").xs == (-1e32, -1e32)
    huge_report = _loaded_modules(_command("report", "--project", "h", "--store", "huge.jsonl"),
                                  tmp_path)
    assert "json" not in huge_report
    reports = [_loaded_modules(_command("report", "--project", "p", "--store", "s.jsonl",
                                        "--format", format), tmp_path)
               for format in ("csv", "svg")]
    assert "excellence.report" in reports[0]
    assert "csv" not in reports[0]
    assert not {"excellence.scanner", "csv"} & reports[1]
    usage = _loaded_modules(_command("--help"), tmp_path)
    (tmp_path / "one.log").write_text("m.c:1:1: error: e\n", encoding="utf-8")
    small_log = _loaded_modules(_command("scan", "one.c", "--log", "one.log"), tmp_path)
    # Each value is rounded on repr's digits, a rounding tie too: no command loads decimal.
    # The arguments are read without argparse, which loads gettext and locale.
    for modules in (scan, small_log, big_scan, record, sealed, report, unsealed, trusting,
                    huge_report, *reports, usage):
        assert not {"dataclasses", "inspect", "decimal", "argparse", "gettext", "locale"} \
            & modules

    _loaded_modules(
        "import excellence\n"
        "names = {}\n"
        "exec('from excellence import *', names)\n"
        "assert set(excellence.__all__) <= set(names)\n"
        "assert excellence.history.load_trajectory is names['load_trajectory']\n"
        "try:\n"
        "    excellence.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')", tmp_path)


def test_sealed_report_loads_neither_json_nor_hashlib(tmp_path):
    # Three appends leave a seal over the first two lines and p's third line after
    # it; a report trusts that seal, checks the tail and extends the seal over it, to
    # the seal a full check leaves. On a copy with no seal, a report checks the whole
    # store and seals it; the next report trusts that seal, has no tail and keeps it.
    # Neither trusting report loads the JSON decoder or hashlib.
    store = tmp_path / "s.jsonl"
    for t in (0.0, 1.0, 2.5):
        append_snapshot(str(store), QualitySnapshot.create("p", T0, t, _STATS, 1))
    (tmp_path / "c.jsonl").write_bytes(store.read_bytes())
    argv = ("report", "--project", "p", "--fit-degree", "2", "--store")
    _loaded_modules(_command(*argv, "c.jsonl"), tmp_path)
    full = (tmp_path / "c.jsonl.seal").read_bytes()
    for name in ("s.jsonl", "c.jsonl"):
        loaded = _loaded_modules(_command(*argv, name), tmp_path)
        assert (tmp_path / f"{name}.seal").read_bytes() == full
        assert "excellence.report" in loaded
        assert not {"json", "hashlib", "_hashlib"} & loaded


def test_polyfit_evaluation_matches_horner():
    fit = PolyFit(degree=2, coefficients=(3.0, -2.0, 0.5),
                  residual_sum_of_squares=0.0)
    for t in (-1.0, 0.0, 2.5):
        assert fit.value_at(t) == pytest.approx(3.0 - 2.0 * t + 0.5 * t * t)
        assert fit.derivative_at(t) == pytest.approx(-2.0 + 1.0 * t)


# --- effort ---------------------------------------------------------------

def test_effort_scales_linearly_with_alpha():
    traj = make_traj([(0.0, 99.15), (2.0, 100.0)])
    rate = instantaneous_rate(traj, 2.0)
    assert effort(1.0, rate).effort == pytest.approx(0.425, abs=1e-12)
    assert effort(2.0, rate).effort == pytest.approx(0.85, abs=1e-12)
    assert effort(2.0, rate).effort == pytest.approx(2.0 * effort(1.0, rate).effort)


def test_effort_keeps_its_inputs():
    traj = make_traj([(0.0, 10.0), (1.0, 11.0)])
    rate = instantaneous_rate(traj, 1.0)
    estimate = effort(3.0, rate)
    assert estimate.alpha == 3.0
    assert estimate.rate is rate


def test_effort_rejects_non_positive_alpha():
    traj = make_traj([(0.0, 10.0), (1.0, 11.0)])
    rate = instantaneous_rate(traj, 1.0)
    for alpha in (0.0, -1.0):
        with pytest.raises(InvalidCoefficientError) as err:
            effort(alpha, rate)
        assert err.value.exit_code == 2


def test_effort_rejects_non_finite_alpha():
    traj = make_traj([(0.0, 10.0), (1.0, 11.0)])
    rate = instantaneous_rate(traj, 1.0)
    for alpha in (float("inf"), float("nan")):
        with pytest.raises(InvalidCoefficientError) as err:
            effort(alpha, rate)
        assert err.value.exit_code == 2


# --- trend ----------------------------------------------------------------

def test_trend_uniform_for_constant_positive_slope():
    assert classify_trend(from_slopes([0.5, 0.5, 0.5])) is TrendClass.UNIFORM


def test_trend_positive_for_varied_positive_slopes():
    assert classify_trend(from_slopes([1.0, 2.0, 3.0])) is TrendClass.POSITIVE


def test_trend_negative_for_all_negative_slopes():
    assert classify_trend(from_slopes([-1.0, -2.0])) is TrendClass.NEGATIVE


def test_trend_mixed_for_sign_changes():
    assert classify_trend(from_slopes([1.0, -1.0, 2.0])) is TrendClass.MIXED


def test_trend_flat_is_mixed():
    assert classify_trend(from_slopes([0.0, 0.0])) is TrendClass.MIXED


def test_trend_constant_negative_slope_is_negative():
    assert classify_trend(from_slopes([-0.5, -0.5])) is TrendClass.NEGATIVE


def test_trend_tolerance_widens_uniform():
    slopes = [1.0, 1.0 + 5e-7, 1.0 - 5e-7]
    assert classify_trend(from_slopes(slopes), tolerance=1e-6) is TrendClass.UNIFORM
    assert classify_trend(from_slopes(slopes), tolerance=1e-9) is TrendClass.POSITIVE


@pytest.mark.parametrize("points, trend", [
    ([(0.0, 0.0), (5e-324, 100.0), (1e-323, 0.0)], TrendClass.MIXED),
    ([(0.0, 0.0), (1e-10, 1.5e298), (2e-10, 3e298)], TrendClass.POSITIVE),
], ids=["infinite slopes of both signs", "slopes summing past the float range"])
def test_trend_of_slopes_whose_sum_leaves_the_float_range(points, trend):
    # No slope is within a finite tolerance of such a mean, so no trend is uniform.
    assert classify_trend(_far_traj(points)) is trend


def test_trend_needs_two_snapshots():
    with pytest.raises(InsufficientDataError):
        classify_trend(make_traj([(0.0, 1.0)]))


def test_trend_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        classify_trend(from_slopes([1.0, 1.0]), tolerance=-1e-9)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_trend_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError, match="finite"):
        classify_trend(from_slopes([1.0, 1.0]), tolerance=tolerance)


def test_rate_sign_matches_data_direction():
    rng = random.Random(17)
    for _ in range(50):
        slope = rng.uniform(-4.0, 4.0)
        if abs(slope) < 1e-3:
            continue
        traj = make_traj([(t, 80.0 + slope * t) for t in (0.0, 1.5, 4.0)])
        assert (instantaneous_rate(traj, 1.5).value > 0) == (slope > 0)
        assert (secant_rate(traj, 0.0, 4.0).value > 0) == (slope > 0)

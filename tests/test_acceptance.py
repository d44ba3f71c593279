"""Acceptance gate: the eight shipping criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) so the gate can be read as a checklist.
"""

import functools
import random
import time
from datetime import datetime, timedelta, timezone

import pytest

from excellence.cli import render_report
from excellence.history import (
    QualitySnapshot,
    Trajectory,
    append_snapshot,
    load_trajectory,
)
from excellence.errors import OrderingError
from excellence.metrics import QualityMetrics, compute_metrics
from excellence.scanner import SourceStats, scan_source
from excellence.trajectory import (
    TrendClass,
    classify_trend,
    effort,
    fit_polynomial,
    instantaneous_rate,
    secant_rate,
)

from scanner_oracle import oracle_scan, random_source

T0 = datetime(2026, 3, 1, tzinfo=timezone.utc)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")
            return result
        return wrapper
    return decorate


def make_stats(total, comments, fors, whiles, blanks=0, name="module.c"):
    return SourceStats(
        file_name=name,
        total_lines=total,
        comment_lines=comments,
        blank_lines=blanks,
        loc=total - comments,
        for_count=fors,
        while_count=whiles,
    )


def synthetic_snapshot(t, x, project="p"):
    el = 100.0 - x
    return QualitySnapshot(
        project_id=project,
        wall_clock=T0 + timedelta(hours=t),
        t_hours=float(t),
        stats=make_stats(110, 10, 0, 0),
        error_count=0,
        metrics=QualityMetrics(error_level_fraction=el / 100.0,
                               error_level_percent=el,
                               degree_of_excellence=x),
    )


def make_traj(points, project="p"):
    return Trajectory(project, tuple(synthetic_snapshot(t, x, project)
                                     for t, x in points))


@criterion(1, "8 errors over 944 loc render as EL% 0.85 and excellence 99.15")
def test_criterion_1_error_level_display():
    start = time.perf_counter()
    stats = make_stats(total=1117, comments=173, fors=27, whiles=4)
    assert stats.loc == 944
    lines = render_report(stats, 8, compute_metrics(8, stats.loc)).splitlines()
    assert lines[6] == "Error level w.r.t LOC = 0.85"
    assert lines[7] == "Quality Level or Degree of excellence = 99.15"
    assert time.perf_counter() - start < 1.0


@criterion(2, "clean 675-line file renders the 8-line report byte-identically")
def test_criterion_2_full_report_golden():
    start = time.perf_counter()
    stats = make_stats(total=675, comments=67, fors=20, whiles=4)
    assert render_report(stats, 0, compute_metrics(0, stats.loc)) == (
        "The number of lines in the file is : 675\n"
        "Number of comment lines is : 67\n"
        "The number of for loops is : 20\n"
        "The number of while loops is : 4\n"
        "Number of errors = 0\n"
        "loc = 608\n"
        "Error level w.r.t LOC = 0.00\n"
        "Quality Level or Degree of excellence = 100.00\n"
    )
    assert time.perf_counter() - start < 1.0


@criterion(3, "scanner agrees with the independent oracle on 1000 files")
def test_criterion_3_scanner_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260301)
    fields = ("total_lines", "comment_lines", "blank_lines", "loc",
              "for_count", "while_count")
    for case in range(1000):
        text = random_source(rng)
        stats = scan_source(text)
        expected = oracle_scan(text)
        got = {name: getattr(stats, name) for name in fields}
        want = {name: expected[name] for name in fields}
        assert got == want, f"case {case}: {text!r}"
    assert time.perf_counter() - start < 30.0


@criterion(4, "excellence + error level = 100 within 1e-12 on 10000 pairs")
def test_criterion_4_identity_property():
    rng = random.Random(424242)
    for _ in range(10000):
        loc = rng.randint(1, 10**6)
        errors = rng.randint(0, 3 * loc)
        m = compute_metrics(errors, loc)
        assert abs((m.degree_of_excellence + m.error_level_percent) - 100.0) <= 1e-12


@criterion(5, "secant/instantaneous rates and degree-2 fit hit their curves")
def test_criterion_5_rate_correctness():
    # Linear X(t) = a + b t on 10 unevenly spaced points: every rate is b.
    a, b = 97.25, 0.375
    ts = [0.0, 0.5, 1.25, 2.0, 3.5, 4.0, 5.75, 7.0, 8.5, 10.0]
    traj = make_traj([(t, a + b * t) for t in ts])
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            assert secant_rate(traj, ts[i], ts[j]).value == pytest.approx(b, abs=1e-9)
    probe_times = ts + [(u + v) / 2 for u, v in zip(ts, ts[1:])]
    for t in probe_times:
        assert instantaneous_rate(traj, t).value == pytest.approx(b, abs=1e-9)

    # Quadratic on a symmetric stencil: interior slopes equal b + 2 c t.
    qa, qb, qc = 90.0, 3.0, -0.2
    qts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    qtraj = make_traj([(t, qa + qb * t + qc * t * t) for t in qts])
    for t in qts[1:-1]:
        assert instantaneous_rate(qtraj, t).value == pytest.approx(
            qb + 2 * qc * t, abs=1e-9)

    # Degree-2 least squares recovers the generating coefficients.
    fit = fit_polynomial(qtraj, 2)
    assert fit.coefficients == pytest.approx((qa, qb, qc), abs=1e-6)


@criterion(6, "effort is exactly linear in the ability coefficient")
def test_criterion_6_effort_linearity():
    traj = make_traj([(0.0, 99.15), (2.0, 100.0)])
    rate = instantaneous_rate(traj, 2.0)
    assert effort(1.0, rate).effort == rate.value
    for alpha in (1.0, 0.5):
        base = effort(alpha, rate).effort
        for k in (2, 10):
            assert effort(k * alpha, rate).effort == k * base


@criterion(7, "trend fixtures classify as uniform/positive/negative/mixed")
def test_criterion_7_trend_classification():
    def from_slopes(slopes):
        points, x = [(0.0, 50.0)], 50.0
        for i, slope in enumerate(slopes):
            x += slope
            points.append((float(i + 1), x))
        return make_traj(points)

    tolerance = 1e-6
    assert classify_trend(from_slopes([0.5, 0.5, 0.5]), tolerance) is TrendClass.UNIFORM
    assert classify_trend(from_slopes([0.5, 1.0, 2.0]), tolerance) is TrendClass.POSITIVE
    assert classify_trend(from_slopes([-0.5, -1.5, -1.0]), tolerance) is TrendClass.NEGATIVE
    assert classify_trend(from_slopes([1.0, -1.0, 1.0]), tolerance) is TrendClass.MIXED


@criterion(8, "50 snapshots across 2 projects survive a store round-trip")
def test_criterion_8_persistence_round_trip(tmp_path):
    store = str(tmp_path / "store.jsonl")
    rng = random.Random(88)
    written = {"alpha": [], "beta": []}
    clocks = {"alpha": 0.0, "beta": 0.0}
    for _ in range(50):
        project = rng.choice(("alpha", "beta"))
        clocks[project] += rng.uniform(0.05, 6.0)
        t = clocks[project]
        loc = rng.randint(1, 5000)
        comments = rng.randint(0, 400)
        snap = QualitySnapshot.create(
            project_id=project,
            wall_clock=T0 + timedelta(hours=t),
            t_hours=t,
            stats=make_stats(total=loc + comments, comments=comments,
                             fors=rng.randint(0, 40), whiles=rng.randint(0, 20),
                             blanks=rng.randint(0, loc)),
            error_count=rng.randint(0, 60),
        )
        append_snapshot(store, snap)
        written[project].append(snap)

    for project, snaps in written.items():
        loaded = load_trajectory(store, project).snapshots
        assert loaded == tuple(snaps)  # dataclass equality covers every field
        for got, expected in zip(loaded, snaps):
            assert got.metrics.error_level_percent == expected.metrics.error_level_percent
            assert got.metrics.degree_of_excellence == expected.metrics.degree_of_excellence
            assert got.t_hours == expected.t_hours
            assert got.wall_clock == expected.wall_clock

    stale = written["alpha"][-1]
    with pytest.raises(OrderingError):
        append_snapshot(store, stale)

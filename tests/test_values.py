"""The value types: named tuples, plus the validated ``Trajectory``."""

from datetime import datetime, timezone

import pytest

from excellence import scanner
from excellence.diaglog import DEFAULT_PATTERN_TEXT, ErrorPattern, ErrorReport
from excellence.history import QualitySnapshot, Trajectory
from excellence.metrics import QualityMetrics, SourceStats
from excellence.trajectory import EffortEstimate, PolyFit, RateEstimate, RateMethod

T0 = datetime(2026, 5, 1, tzinfo=timezone.utc)
STATS = SourceStats("m.c", 10, 2, 1, 8, 1, 0)


def snapshot(project="p", t=0.0, errors=1):
    return QualitySnapshot.create(project, T0, t, STATS, errors)


def test_fields_keep_their_order():
    assert SourceStats._fields == ("file_name", "total_lines", "comment_lines", "blank_lines",
                                   "loc", "for_count", "while_count", "unterminated_comment")
    assert QualityMetrics._fields == ("error_level_fraction", "error_level_percent",
                                      "degree_of_excellence")
    assert ErrorPattern._fields == ("pattern_text", "case_sensitive")
    assert ErrorReport._fields == ("log_name", "error_count", "matched_line_numbers")
    assert QualitySnapshot._fields == ("project_id", "wall_clock", "t_hours", "stats",
                                       "error_count", "metrics")
    assert RateEstimate._fields == ("value", "method", "interval")
    assert EffortEstimate._fields == ("alpha", "rate", "effort")
    assert PolyFit._fields == ("degree", "coefficients", "residual_sum_of_squares")


def test_repr_names_every_field():
    assert repr(STATS) == ("SourceStats(file_name='m.c', total_lines=10, comment_lines=2, "
                           "blank_lines=1, loc=8, for_count=1, while_count=0, "
                           "unterminated_comment=False)")
    assert repr(QualityMetrics(0.5, 50.0, 50.0)) == (
        "QualityMetrics(error_level_fraction=0.5, error_level_percent=50.0, "
        "degree_of_excellence=50.0)")
    assert repr(RateEstimate(1.5, RateMethod.SECANT, (0.0, 2.0))) == (
        "RateEstimate(value=1.5, method=<RateMethod.SECANT: 'secant'>, interval=(0.0, 2.0))")


def test_equality_and_hash_follow_the_fields():
    assert STATS == SourceStats("m.c", 10, 2, 1, 8, 1, 0, False)
    assert hash(STATS) == hash(SourceStats("m.c", 10, 2, 1, 8, 1, 0))
    assert STATS != STATS._replace(loc=9)
    assert snapshot() == snapshot() and hash(snapshot()) == hash(snapshot())
    assert snapshot() != snapshot(errors=2)
    # A value equals the plain tuple of its fields.
    assert QualityMetrics(0.5, 50.0, 50.0) == (0.5, 50.0, 50.0)
    assert len({PolyFit(1, (1.0, 2.0), 0.0), PolyFit(1, (1.0, 2.0), 0.0)}) == 1


def test_defaults():
    assert STATS.unterminated_comment is False
    assert ErrorPattern() == ErrorPattern(DEFAULT_PATTERN_TEXT, False)
    assert ErrorPattern().pattern_text == DEFAULT_PATTERN_TEXT
    assert ErrorPattern().case_sensitive is False


def test_scanner_re_exports_the_census_type():
    assert scanner.SourceStats is SourceStats
    assert type(scanner.scan_source("int x;\n")) is SourceStats


@pytest.mark.parametrize("value, field", [
    (STATS, "loc"),
    (QualityMetrics(0.5, 50.0, 50.0), "degree_of_excellence"),
    (ErrorPattern(), "pattern_text"),
    (ErrorReport("b.log", 0, ()), "error_count"),
    (EffortEstimate(1.0, RateEstimate(1.0, RateMethod.SECANT, (0.0, 1.0)), 1.0), "effort"),
    (snapshot(), "t_hours"),
    (RateEstimate(1.0, RateMethod.SECANT, (0.0, 1.0)), "value"),
    (PolyFit(1, (1.0, 2.0), 0.0), "degree"),
    (Trajectory("p", (snapshot(),)), "project_id"),
    (Trajectory("p", (snapshot(),)), "ts"),
])
def test_assigning_a_field_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


def test_trajectory_holds_its_axes_and_compares_on_its_fields():
    snaps = (snapshot(t=0.0, errors=2), snapshot(t=1.5, errors=1))
    traj = Trajectory("p", snaps)
    assert len(traj) == 2
    assert traj.ts == (0.0, 1.5)
    assert traj.xs == (75.0, 87.5)
    assert traj == Trajectory(project_id="p", snapshots=snaps)
    assert hash(traj) == hash(Trajectory("p", snaps))
    assert traj != Trajectory("p", snaps[:1])
    assert traj != ("p", snaps)
    assert repr(traj) == f"Trajectory(project_id='p', snapshots={snaps!r})"
    with pytest.raises(AttributeError):
        del traj.xs


def test_trajectory_rejects_a_foreign_project_or_hours_that_do_not_increase():
    with pytest.raises(ValueError, match="snapshot project 'q' != trajectory 'p'"):
        Trajectory("p", (snapshot(), snapshot("q", t=1.0)))
    for hours in ((0.0, 0.0), (1.0, 0.5)):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory("p", tuple(snapshot(t=t) for t in hours))

"""Tests for error level, degree of excellence, and improvement."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excellence.cli import format_2dp
from excellence.errors import UndefinedMetricError
from excellence.metrics import compute_metrics, improvement


def test_zero_errors_is_full_excellence():
    m = compute_metrics(0, 608)
    assert m.error_level_fraction == 0.0
    assert m.error_level_percent == 0.0
    assert m.degree_of_excellence == 100.0


def test_eight_errors_over_944_loc_display():
    m = compute_metrics(8, 944)
    assert m.error_level_fraction == 8 / 944
    assert format_2dp(m.error_level_percent) == "0.85"
    assert format_2dp(m.degree_of_excellence) == "99.15"


def test_display_rounding_keeps_every_digit_of_a_huge_value():
    # Beyond Decimal's default 28 digits; the largest float has 309.
    assert format_2dp(1e26) == "1" + "0" * 26 + ".00"
    assert format_2dp(-1.7976931348623157e308) == "-17976931348623157" + "0" * 292 + ".00"


def test_percent_is_hundred_times_fraction():
    m = compute_metrics(7, 311)
    assert m.error_level_percent == 100.0 * m.error_level_fraction


def test_excellence_plus_error_level_is_hundred():
    rng = random.Random(42)
    for _ in range(2000):
        loc = rng.randint(1, 10**6)
        errors = rng.randint(0, 3 * loc)
        m = compute_metrics(errors, loc)
        assert abs((m.degree_of_excellence + m.error_level_percent) - 100.0) <= 1e-12


def test_excellence_not_clamped_below_zero():
    m = compute_metrics(30, 10)
    assert m.error_level_percent == 300.0
    assert m.degree_of_excellence == -200.0


def test_more_errors_never_raise_excellence():
    rng = random.Random(5)
    for _ in range(300):
        loc = rng.randint(1, 10000)
        a = rng.randint(0, 2 * loc)
        b = rng.randint(0, 2 * loc)
        lo, hi = sorted((a, b))
        assert (compute_metrics(hi, loc).degree_of_excellence
                <= compute_metrics(lo, loc).degree_of_excellence)


def test_zero_loc_is_undefined():
    with pytest.raises(UndefinedMetricError) as err:
        compute_metrics(0, 0)
    assert err.value.exit_code == 6
    with pytest.raises(UndefinedMetricError):
        compute_metrics(3, -1)


def test_negative_errors_rejected():
    with pytest.raises(ValueError):
        compute_metrics(-1, 100)


def test_improvement_is_final_minus_initial():
    assert improvement(99.15, 100.0) == pytest.approx(0.85)
    assert improvement(100.0, 99.15) == pytest.approx(-0.85)
    assert improvement(50.0, 50.0) == 0.0


def test_improvement_rejects_non_finite():
    with pytest.raises(ValueError):
        improvement(float("nan"), 1.0)
    with pytest.raises(ValueError):
        improvement(0.0, float("inf"))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**18), st.integers(1, 10**18))
def test_excellence_and_error_level_add_up_to_100(errors, loc):
    # X = 100 - EL% is computed in floating point, so X + EL% is 100 up to the
    # rounding of 100 - EL%: within 1e-9 while EL% <= 10**6 (the spacing of
    # floats near 10**6 is 1.2e-10), and within one spacing of EL% beyond that.
    m = compute_metrics(errors, loc)
    gap = abs(m.degree_of_excellence + m.error_level_percent - 100.0)
    assert gap <= (1e-9 if m.error_level_percent <= 1e6 else math.ulp(m.error_level_percent))

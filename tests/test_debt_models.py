import math

import pytest

from xmaint.debt_models import (
    DEFAULT_DUPLICATION_LADDER,
    DEFAULT_COVERAGE_LADDER,
    DEFAULT_VOLUME_LADDER,
    maintainability_index,
    production_effort,
    sig_characteristics,
    sig_rate_risk_profile,
    sig_rate_scalar,
    sig_risk_profile,
    tdr_grade,
    technical_debt_ratio,
)
from xmaint.errors import ZeroProductionEffort
from xmaint.rules import Violation


def violation(effort, rule_id="complexity-threshold"):
    return Violation(rule_id=rule_id, file="f", line=1, unit_name="u",
                     observed_value=1, threshold=0, effort_minutes=effort)


# --- maintainability index ---


def test_mi_perfect_score():
    assert maintainability_index(1, 0, 1).mi == 100.0


def test_mi_reference_point():
    result = maintainability_index(100, 5, 50)
    expected = 100 * (171 - 5.2 * math.log(100) - 0.23 * 5 - 16.2 * math.log(50)) / 171
    assert result.mi == pytest.approx(expected, rel=1e-9)
    assert result.mi == pytest.approx(48.26, abs=0.01)


def test_mi_clamps_at_zero():
    assert maintainability_index(1e6, 200, 1e4).mi == 0.0


def test_mi_clamps_sub_one_averages():
    assert maintainability_index(0.5, 0, 0.5).mi == 100.0


def test_mi_missing_units():
    with pytest.raises(ValueError, match="maintainability index needs unit averages"):
        maintainability_index(None, None, None)


def test_mi_monotone_in_each_argument():
    base = maintainability_index(100, 5, 50).mi
    assert maintainability_index(150, 5, 50).mi < base
    assert maintainability_index(100, 8, 50).mi < base
    assert maintainability_index(100, 5, 80).mi < base


def test_mi_never_above_100():
    for ahv in (1, 10, 1e4):
        for acc in (0, 1, 50):
            for aloc in (1, 20, 1e3):
                assert 0.0 <= maintainability_index(ahv, acc, aloc).mi <= 100.0


# --- production effort ---


def test_production_effort_zero_loc():
    assert production_effort(0, 30) == 0


def test_production_effort_default_cost():
    assert production_effort(1000) == 30000


def test_production_effort_config_override():
    assert production_effort(1000, 20) == 20000


# --- debt ratio + grades ---


def test_tdr_no_violations_grade_a():
    result = technical_debt_ratio([], 30000)
    assert result.tdr == 0.0 and result.grade == "A"


def test_tdr_worked_example_grade_b():
    result = technical_debt_ratio([violation(2100)], 30000)
    assert result.tdr == pytest.approx(0.07)
    assert result.grade == "B"


def test_tdr_above_one_grades_e():
    result = technical_debt_ratio([violation(45000)], 30000)
    assert result.tdr == pytest.approx(1.5)
    assert result.grade == "E"


def test_tdr_zero_production_effort():
    with pytest.raises(ZeroProductionEffort):
        technical_debt_ratio([], 0)


def test_tdr_linearity():
    violations = [violation(100), violation(350), violation(50)]
    one = technical_debt_ratio(violations, 9000)
    doubled = technical_debt_ratio([violation(v.effort_minutes * 2) for v in violations], 9000)
    assert doubled.tdr == pytest.approx(2 * one.tdr, rel=1e-12)
    scaled = technical_debt_ratio([violation(v.effort_minutes * 7) for v in violations], 9000 * 7)
    assert scaled.tdr == pytest.approx(one.tdr, rel=1e-12)


def test_grade_boundaries_exact():
    assert tdr_grade(0.0) == "A"
    assert tdr_grade(0.05) == "A"        # closed upper bound
    assert tdr_grade(0.050001) == "B"    # open lower bound
    assert tdr_grade(0.10) == "B"
    assert tdr_grade(0.100001) == "C"
    assert tdr_grade(0.20) == "C"
    assert tdr_grade(0.50) == "D"
    assert tdr_grade(0.51) == "E"
    assert tdr_grade(1.0) == "E"
    assert tdr_grade(1.2) == "E"


def test_grade_sweep_is_total_monotone_step():
    order = {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
    previous = "A"
    for i in range(0, 1201):
        tdr = i / 1000.0
        grade = tdr_grade(tdr)
        assert order[grade] >= order[previous]
        previous = grade


def test_negative_tdr_rejected():
    with pytest.raises(ValueError, match="technical debt ratio cannot be negative"):
        tdr_grade(-0.01)


# --- SIG risk profiles and ratings ---


def test_risk_profile_single_low_unit():
    profile = sig_risk_profile([(3, 10)], (10, 20, 50))
    assert profile == {"low": 1.0, "moderate": 0.0, "high": 0.0, "veryHigh": 0.0}


def test_risk_profile_band_assignment():
    profile = sig_risk_profile([(5, 50), (25, 50)], (10, 20, 50))
    assert profile["low"] == pytest.approx(0.5)
    assert profile["high"] == pytest.approx(0.5)


def test_risk_profile_closed_upper_bounds():
    profile = sig_risk_profile([(10, 1), (20, 1), (50, 1)], (10, 20, 50))
    assert profile == {"low": pytest.approx(1 / 3), "moderate": pytest.approx(1 / 3),
                       "high": pytest.approx(1 / 3), "veryHigh": 0.0}


def test_risk_profile_sums_to_one():
    profile = sig_risk_profile([(1, 7), (15, 13), (30, 29), (99, 3)], (10, 20, 50))
    assert sum(profile.values()) == pytest.approx(1.0, abs=1e-9)


def test_risk_profile_requires_units():
    with pytest.raises(ValueError, match="risk profile needs at least one unit"):
        sig_risk_profile([], (10, 20, 50))


def test_rate_perfect_profile_is_five():
    assert sig_rate_risk_profile({"moderate": 0.0, "high": 0.0, "veryHigh": 0.0}) == 5


def test_rate_profile_ladder():
    assert sig_rate_risk_profile({"moderate": 0.28, "high": 0.04, "veryHigh": 0.0}) == 4
    assert sig_rate_risk_profile({"moderate": 0.45, "high": 0.12, "veryHigh": 0.03}) == 2
    assert sig_rate_risk_profile({"moderate": 0.9, "high": 0.5, "veryHigh": 0.4}) == 1


def test_rate_scalar_duplication_ladder():
    assert sig_rate_scalar(0.03, DEFAULT_DUPLICATION_LADDER) == 5
    assert sig_rate_scalar(0.07, DEFAULT_DUPLICATION_LADDER) == 3
    assert sig_rate_scalar(0.5, DEFAULT_DUPLICATION_LADDER) == 1


def test_rate_scalar_beyond_every_step_is_rated_1():
    assert sig_rate_scalar(300_001, DEFAULT_VOLUME_LADDER) == 1
    assert sig_rate_scalar(0.2001, DEFAULT_DUPLICATION_LADDER) == 1
    assert sig_rate_scalar(0.1999, DEFAULT_COVERAGE_LADDER, ascending=True) == 1
    assert sig_rate_scalar(7, [(5, 4)]) == 1
    assert sig_rate_scalar(7, []) == 1


def test_rate_scalar_coverage_ascending():
    assert sig_rate_scalar(0.97, DEFAULT_COVERAGE_LADDER, ascending=True) == 5
    assert sig_rate_scalar(0.65, DEFAULT_COVERAGE_LADDER, ascending=True) == 3
    assert sig_rate_scalar(0.05, DEFAULT_COVERAGE_LADDER, ascending=True) == 1


# --- SIG characteristics ---


def test_characteristics_constant_ratings():
    ratings = {"volume": 3, "complexity": 3, "duplication": 3, "unitSize": 3, "unitTesting": 3}
    result = sig_characteristics(ratings)
    assert all(v == 3.0 for v in result.characteristic_ratings.values())
    assert result.overall == 3.0


def test_characteristics_worked_example_without_coverage():
    ratings = {"volume": 4, "duplication": 2, "unitSize": 4, "complexity": 2, "unitTesting": None}
    result = sig_characteristics(ratings)
    chars = result.characteristic_ratings
    assert chars["analysability"] == pytest.approx((4 + 2 + 4) / 3)
    assert chars["changeability"] == pytest.approx(2.0)
    assert chars["stability"] is None
    assert chars["testability"] == pytest.approx(3.0)
    assert result.overall == pytest.approx((10 / 3 + 2.0 + 3.0) / 3, abs=1e-9)
    assert result.overall == pytest.approx(2.78, abs=0.01)


def test_characteristics_coverage_only():
    ratings = {"volume": None, "duplication": None, "unitSize": None,
               "complexity": None, "unitTesting": 4}
    result = sig_characteristics(ratings)
    assert result.characteristic_ratings["stability"] == 4.0
    assert result.characteristic_ratings["analysability"] == 4.0  # only coverage present in row
    assert result.characteristic_ratings["changeability"] is None

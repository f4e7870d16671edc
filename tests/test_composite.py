import copy

import pytest

from xmaint.composite import (
    DEFAULT_MAPPINGS,
    IndicatorMapping,
    ProjectIndicators,
    composite_score,
    map_indicator,
    map_volumetry,
    sensitivity_analysis,
    validate_weights,
)
from xmaint.config import DEFAULT_CONFIG, validate_config
from xmaint.errors import EstimatorMismatch, NoWeightLeft, RuleSetMismatch, SingleCountingViolation
from xmaint.rules import DUPLICATION_BLOCK, COMMENT_DENSITY

COMMENT_MAP = next(m for m in DEFAULT_MAPPINGS if m.indicator == "commentRatio")
DUP_MAP = next(m for m in DEFAULT_MAPPINGS if m.indicator == "duplicationRatio")
TDR_MAP = next(m for m in DEFAULT_MAPPINGS if m.indicator == "tdr")

RULES = ("complexity-threshold", "naming-convention")


def project(pid, comment=0.15, dup=0.15, tdr=0.25, loc=10000, cost=30.0, rules=RULES):
    return ProjectIndicators(
        project_id=pid, comment_ratio=comment, duplication_ratio=dup,
        tdr=tdr, total_loc=loc, cost_per_line=cost, rule_ids=rules,
    )


# --- indicator mapping ---


def test_comment_mapping_default_bounds():
    assert map_indicator(0.15, COMMENT_MAP) == 0.0
    assert map_indicator(0.275, COMMENT_MAP) == pytest.approx(50.0)
    assert map_indicator(0.40, COMMENT_MAP) == pytest.approx(100.0)
    # symmetric descent past the peak: 40% + 12.5% -> 50
    assert map_indicator(0.525, COMMENT_MAP) == pytest.approx(50.0)
    assert map_indicator(0.65, COMMENT_MAP) == pytest.approx(0.0)
    assert map_indicator(0.9, COMMENT_MAP) == 0.0
    assert map_indicator(0.0, COMMENT_MAP) == 0.0


def test_duplication_mapping_inversed_scale():
    assert map_indicator(0.05, DUP_MAP) == pytest.approx(100.0)
    assert map_indicator(0.15, DUP_MAP) == pytest.approx(0.0)
    assert map_indicator(0.10, DUP_MAP) == pytest.approx(50.0)
    assert map_indicator(0.0, DUP_MAP) == 100.0
    assert map_indicator(0.4, DUP_MAP) == 0.0


def test_tdr_mapping():
    assert map_indicator(0.0, TDR_MAP) == pytest.approx(100.0)
    assert map_indicator(0.10, TDR_MAP) == pytest.approx(50.0)
    assert map_indicator(0.35, TDR_MAP) == 0.0


def test_rising_linear_shape():
    mapping = IndicatorMapping("commentRatio", "rising-linear", 0.0, 1.0, 1.0)
    assert map_indicator(0.25, mapping) == pytest.approx(25.0)
    assert map_indicator(-1.0, mapping) == 0.0
    assert map_indicator(2.0, mapping) == 100.0


def test_mapping_rejects_equal_bounds():
    with pytest.raises(ValueError):
        IndicatorMapping("tdr", "falling-linear", 0.2, 0.2, 1.0)


def test_comment_monotonicity_around_peak():
    rising = [map_indicator(v, COMMENT_MAP) for v in (0.0, 0.1, 0.2, 0.3, 0.4)]
    assert rising == sorted(rising)
    falling = [map_indicator(v, COMMENT_MAP) for v in (0.4, 0.5, 0.6, 0.7)]
    assert falling == sorted(falling, reverse=True)


# --- volumetry ---


def test_volumetry_two_projects():
    assert map_volumetry({"a": 10000, "b": 15000}) == {"a": 100.0, "b": 0.0}


def test_volumetry_three_projects_interpolated():
    scores = map_volumetry({"a": 10000, "b": 12500, "c": 16000})
    assert scores == {"a": 100.0, "b": pytest.approx(50.0), "c": 0.0}


def test_volumetry_equal_projects():
    assert map_volumetry({"a": 4000, "b": 4000}) == {"a": 100.0, "b": 100.0}


# --- composite scoring ---


def test_weights_must_sum_to_one():
    bad = [IndicatorMapping("tdr", "falling-linear", 0.0, 0.2, 0.9)]
    with pytest.raises(ValueError):
        validate_weights(bad)


def test_single_indicator_renormalizes_to_its_score():
    mappings = [
        IndicatorMapping("tdr", "falling-linear", 0.0, 0.20, 0.45),
        IndicatorMapping("volumetry", "relative-min", 1.0, 1.5, 0.55),
    ]
    # single project: volumetry absent, tdr weight renormalized to 1
    scores = composite_score([project("solo", tdr=0.06)], mappings)
    assert scores[0].total == pytest.approx(70.0)
    assert scores[0].absent_indicators == ("volumetry",)
    assert scores[0].weights_used == {"tdr": 1.0}


def test_no_weight_left_names_the_absent_indicators():
    mappings = [
        IndicatorMapping("commentRatio", "rising-then-falling", 0.15, 0.40, 0.0),
        IndicatorMapping("tdr", "falling-linear", 0.0, 0.20, 0.6),
        IndicatorMapping("volumetry", "relative-min", 1.0, 1.5, 0.4),
    ]
    # a project with no code: no debt ratio, and one project alone has no volumetry
    with pytest.raises(NoWeightLeft, match="absent indicators: tdr, volumetry$"):
        composite_score([project("solo", tdr=None, loc=0)], mappings)


def test_worked_reference_total():
    # mapped scores: comment 60, dup 80, tdr 50, volumetry 100
    target = project("t", comment=0.30, dup=0.07, tdr=0.10, loc=10000)
    filler = project("z", comment=0.15, dup=0.15, tdr=0.25, loc=20000)
    scores = composite_score([target, filler])
    by_id = {s.project_id: s for s in scores}
    assert by_id["t"].total == pytest.approx(68.5, abs=1e-6)
    mapped = {k: v[1] for k, v in by_id["t"].per_indicator.items()}
    assert mapped == {
        "commentRatio": pytest.approx(60.0),
        "duplicationRatio": pytest.approx(80.0),
        "tdr": pytest.approx(50.0),
        "volumetry": pytest.approx(100.0),
    }


def test_identical_projects_tie_break_by_id():
    scores = composite_score([project("beta"), project("alpha")])
    assert [s.project_id for s in scores] == ["alpha", "beta"]
    assert scores[0].total == scores[1].total
    assert [s.rank for s in scores] == [1, 2]


def test_estimator_mismatch_rejected():
    with pytest.raises(EstimatorMismatch):
        composite_score([project("a", cost=30.0), project("b", cost=20.0)])


def test_rule_set_mismatch_rejected():
    with pytest.raises(RuleSetMismatch):
        composite_score([project("a", rules=("x",)), project("b", rules=("y",))])


def test_total_bounded_by_mapped_scores():
    scores = composite_score([project("a", comment=0.3, dup=0.08, tdr=0.05, loc=10000),
                              project("b", comment=0.2, dup=0.12, tdr=0.15, loc=14000)])
    for s in scores:
        mapped = [v for _, v in s.per_indicator.values()]
        assert min(mapped) - 1e-9 <= s.total <= max(mapped) + 1e-9


def test_dominance_property():
    a = project("a", comment=0.30, dup=0.06, tdr=0.02, loc=10000)
    b = project("b", comment=0.25, dup=0.08, tdr=0.05, loc=12000)
    scores = composite_score([a, b])
    assert scores[0].project_id == "a"
    assert scores[0].total > scores[1].total


def test_argmax_invariance_under_effort_scaling():
    # scaling remediation and production by the same factor leaves tdr alone,
    # hence every mapped score and the ranking
    from xmaint.debt_models import technical_debt_ratio
    from xmaint.rules import Violation

    def v(effort):
        return Violation("complexity-threshold", "f", 1, "u", 1, 0, effort)

    tdr_one = technical_debt_ratio([v(300), v(200)], 10000).tdr
    tdr_scaled = technical_debt_ratio([v(3000), v(2000)], 100000).tdr
    assert tdr_scaled == pytest.approx(tdr_one, rel=1e-12)
    base = composite_score([project("a", tdr=tdr_one), project("b", tdr=0.15)])
    scaled = composite_score([project("a", tdr=tdr_scaled), project("b", tdr=0.15)])
    assert [s.project_id for s in base] == [s.project_id for s in scaled]
    assert [s.total for s in base] == pytest.approx([s.total for s in scaled])


# --- single counting ---


def config_with_rules(rules):
    config = copy.deepcopy(DEFAULT_CONFIG)
    config["rules"] = rules
    return config


def test_default_config_passes_single_counting():
    validate_config(config_with_rules({}))


def test_duplication_double_counting_detected():
    with pytest.raises(SingleCountingViolation) as excinfo:
        validate_config(config_with_rules({DUPLICATION_BLOCK: {"enabled": True}}))
    assert excinfo.value.pairs == [("duplicationRatio", DUPLICATION_BLOCK)]


def test_comment_double_counting_detected():
    with pytest.raises(SingleCountingViolation) as excinfo:
        validate_config(config_with_rules({COMMENT_DENSITY: {"enabled": True}}))
    assert excinfo.value.pairs == [("commentRatio", COMMENT_DENSITY)]


def test_attribute_counted_once_as_debt_is_fine():
    # duplication carries no indicator weight, rule enabled: counted once, as debt
    config = config_with_rules({DUPLICATION_BLOCK: {"enabled": True}})
    indicators = config["composite"]["indicators"]
    indicators["duplicationRatio"]["weight"] = 0.0
    indicators["tdr"]["weight"] = 0.60
    validate_config(config)
    del indicators["duplicationRatio"]
    validate_config(config)


# --- sensitivity ---


def test_sensitivity_identical_projects_fully_stable():
    report = sensitivity_analysis([project("a"), project("b")])
    assert report.top1_stable and report.full_ranking_stable
    assert len(report.perturbations) == 8  # 4 indicators x 2 directions
    for p in report.perturbations:
        assert sum(p.weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_sensitivity_dominant_project_keeps_top1():
    a = project("a", comment=0.30, dup=0.06, tdr=0.02, loc=10000)
    b = project("b", comment=0.25, dup=0.08, tdr=0.05, loc=12000)
    report = sensitivity_analysis([a, b], delta_pp=5.0)
    assert report.base_ranking[0] == "a"
    assert report.top1_stable


def test_sensitivity_crossover_flips_exactly_where_computed():
    """Hand-computed crossover (weights .15/.15/.45/.25, delta 5pp).

    A maps to (comment 0, dup 0, tdr 100, vol 0); B to (60, 60, 0, 100).
    Base totals: A 45, B 43. Perturbed totals (renormalized weights):
      comment+: A 45/1.05=42.86, B 46/1.05=43.81  -> flip
      comment-: A 45/0.95=47.37, B 40/0.95=42.11  -> no flip
      dup+:     A 42.86, B 46/1.05=43.81          -> flip
      dup-:     A 47.37, B 40/0.95=42.11          -> no flip
      tdr+:     A 50/1.05=47.62, B 43/1.05=40.95  -> no flip
      tdr-:     A 40/0.95=42.11, B 43/0.95=45.26  -> flip
      vol+:     A 42.86, B 48/1.05=45.71          -> flip
      vol-:     A 47.37, B 38/0.95=40.00          -> no flip
    """
    a = project("a", comment=0.15, dup=0.15, tdr=0.0, loc=15000)
    b = project("b", comment=0.30, dup=0.09, tdr=0.25, loc=10000)
    report = sensitivity_analysis([a, b], delta_pp=5.0)
    assert report.base_ranking == ("a", "b")
    flips = {(p.indicator, p.direction) for p in report.perturbations if p.top1 != "a"}
    assert flips == {
        ("commentRatio", "+"),
        ("duplicationRatio", "+"),
        ("tdr", "-"),
        ("volumetry", "+"),
    }
    assert not report.top1_stable
    by_key = {(p.indicator, p.direction): p for p in report.perturbations}
    assert by_key[("tdr", "-")].totals["a"] == pytest.approx(40 / 0.95, abs=1e-9)
    assert by_key[("tdr", "-")].totals["b"] == pytest.approx(43 / 0.95, abs=1e-9)


def test_sensitivity_weight_floor_at_zero():
    mappings = [
        IndicatorMapping("tdr", "falling-linear", 0.0, 0.2, 0.03),
        IndicatorMapping("commentRatio", "rising-then-falling", 0.15, 0.4, 0.97),
    ]
    report = sensitivity_analysis([project("a"), project("b")], mappings, delta_pp=5.0)
    minus = next(p for p in report.perturbations if p.indicator == "tdr" and p.direction == "-")
    assert minus.weights["tdr"] == 0.0
    assert sum(minus.weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_sensitivity_below_100_pp_keeps_a_lone_weight_positive():
    # a delta below the 100 pp that validate_config holds it under leaves the
    # only weighted indicator a positive share, so renormalizing never divides by zero
    mappings = [
        IndicatorMapping("tdr", "falling-linear", 0.0, 0.2, 1.0),
        IndicatorMapping("commentRatio", "rising-then-falling", 0.15, 0.4, 0.0),
    ]
    report = sensitivity_analysis([project("a"), project("b", tdr=0.1)], mappings, delta_pp=99.0)
    minus = next(p for p in report.perturbations if p.indicator == "tdr" and p.direction == "-")
    assert minus.weights == {"commentRatio": 0.0, "tdr": 1.0}
    assert minus.ranking == ("b", "a")


def test_sensitivity_output_order_fixed():
    report = sensitivity_analysis([project("a"), project("b")])
    keys = [(p.indicator, p.direction) for p in report.perturbations]
    assert keys == sorted(keys)

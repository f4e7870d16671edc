import pytest

from xmaint.errors import InvalidRuleConfig
from xmaint.lexing import classify_lines, physical_line_count, tokenize
from xmaint.metrics import file_unit_metrics
from xmaint.profiles import BUILTIN_PROFILES, C_FAMILY, COBOL_LIKE, PYTHON, profile_from_dict
from xmaint.rules import (
    COMPLEXITY,
    DUPLICATION_BLOCK,
    NAMING,
    NESTING_DEPTH,
    TOO_MANY_PARAMS,
    UNIT_SIZE,
    check_rule_config,
    check_rules,
    intersect_rule_sets,
    load_rule_set,
)
from xmaint.units import extract_units


def metrics_for(src, profile, file="f"):
    tokens, _ = tokenize(src, profile)
    lines = classify_lines(tokens, physical_line_count(src))
    units, _ = extract_units(tokens, profile, file)
    return file_unit_metrics(units, tokens, lines, profile)


# --- loading ---


def test_default_rule_set_complete():
    rs = load_rule_set({}, C_FAMILY)
    enabled = rs.enabled_ids()
    assert enabled == {COMPLEXITY, UNIT_SIZE, TOO_MANY_PARAMS, NESTING_DEPTH, NAMING}
    assert rs.get(COMPLEXITY).threshold == 15
    assert rs.get(UNIT_SIZE).threshold == 60
    assert rs.get(TOO_MANY_PARAMS).threshold == 5
    assert rs.get(NESTING_DEPTH).threshold == 4
    assert rs.get(NAMING).pattern == C_FAMILY.naming_pattern


def test_config_threshold_passthrough():
    rs = load_rule_set({COMPLEXITY: {"threshold": 15}}, C_FAMILY)
    assert rs.get(COMPLEXITY).threshold == 15


def test_unit_size_scaled_by_verbosity():
    rs = load_rule_set({UNIT_SIZE: {"threshold": 60}}, COBOL_LIKE)
    assert rs.get(UNIT_SIZE).threshold == 120  # 60 x verbosity 2.0


def test_unknown_rule_id_rejected():
    with pytest.raises(InvalidRuleConfig):
        load_rule_set({"made-up-rule": {"threshold": 1}}, C_FAMILY)


def test_bad_effort_rejected():
    with pytest.raises(InvalidRuleConfig):
        load_rule_set({COMPLEXITY: {"effort_minutes": 0}}, C_FAMILY)


def test_unknown_rule_key_rejected():
    with pytest.raises(InvalidRuleConfig):
        load_rule_set({COMPLEXITY: {"treshold": 10}}, C_FAMILY)


@pytest.mark.parametrize("entry, message", [
    ("on", "must be an object"),
    ({"threshold": "15"}, "threshold must be a number"),
    ({"threshold": True}, "threshold must be a number"),
    ({"effort_minutes": "abc"}, "effort_minutes must be a number > 0"),
    ({"effort_minutes": -5}, "effort_minutes must be a number > 0"),
    ({"enabled": "no"}, "enabled must be true or false"),
    ({"enabled": 0}, "enabled must be true or false"),
    ({"pattern": 7}, "pattern must be a string"),
    ({"pattern": "[a-z"}, "pattern is not a valid regex"),
])
def test_rule_entry_checked_before_use(entry, message):
    # "enabled": "no" used to be read as bool("no"), which is True
    with pytest.raises(InvalidRuleConfig, match=message):
        check_rule_config({NAMING: entry})
    with pytest.raises(InvalidRuleConfig, match=message):
        load_rule_set({NAMING: entry}, C_FAMILY)


# --- checking ---


def test_compliant_fixture_has_no_violations():
    src = "int tidy(int a) { return a + 1; }"
    violations = check_rules(metrics_for(src, C_FAMILY), load_rule_set({}, C_FAMILY))
    assert violations == []


def test_complexity_violation_carries_observed_value():
    decisions = " ".join("if (a) { a = a + 1; }" for _ in range(24))
    src = f"int busy(int a) {{ {decisions} return a; }}"
    ms = metrics_for(src, C_FAMILY)
    assert ms[0].cc == 25
    violations = check_rules(ms, load_rule_set({COMPLEXITY: {"threshold": 20}}, C_FAMILY))
    complexity = [v for v in violations if v.rule_id == COMPLEXITY]
    assert len(complexity) == 1
    assert complexity[0].observed_value == 25 and complexity[0].threshold == 20
    assert complexity[0].effort_minutes == 60.0


def test_unit_size_violation_carries_observed_loc():
    body = "".join(f"    a = a + {i};\n" for i in range(4))
    src = f"int tall(int a) {{\n{body}    return a;\n}}\n"
    rule_set = load_rule_set({UNIT_SIZE: {"threshold": 6}}, C_FAMILY)
    violations = check_rules(metrics_for(src, C_FAMILY), rule_set)
    assert [(v.rule_id, v.unit_name, v.line, v.observed_value, v.threshold, v.effort_minutes)
            for v in violations if v.rule_id == UNIT_SIZE] == [(UNIT_SIZE, "tall", 1, 7, 6, 45.0)]


def test_naming_violation_on_mismatched_pattern():
    src = "int Do_Thing(int a) { return a; }"
    violations = check_rules(metrics_for(src, C_FAMILY), load_rule_set({}, C_FAMILY))
    naming = [v for v in violations if v.rule_id == NAMING]
    assert len(naming) == 1
    assert naming[0].observed_value == "Do_Thing"


def test_too_many_params_and_nesting():
    src = (
        "def wide(a, b, c, d, e, f):\n"
        "    if a:\n"
        "        if b:\n"
        "            if c:\n"
        "                if d:\n"
        "                    if e:\n"
        "                        return f\n"
        "    return 0\n"
    )
    violations = check_rules(metrics_for(src, PYTHON), load_rule_set({}, PYTHON))
    ids = {v.rule_id for v in violations}
    assert TOO_MANY_PARAMS in ids and NESTING_DEPTH in ids


def test_params_and_nesting_fire_only_above_their_thresholds():
    def observed(params, depth):
        src = f"def f({', '.join(f'p{i}' for i in range(params))}):\n"
        for level in range(1, depth + 1):
            src += "    " * level + "if p0:\n"
        src += "    " * (depth + 1) + "return 0\n"
        violations = check_rules(metrics_for(src, PYTHON), load_rule_set({}, PYTHON))
        return {v.rule_id: v.observed_value for v in violations
                if v.rule_id in (TOO_MANY_PARAMS, NESTING_DEPTH)}

    assert observed(5, 4) == {}  # defaults: at most 5 parameters, nesting depth 4
    assert observed(6, 5) == {TOO_MANY_PARAMS: 6, NESTING_DEPTH: 5}


def test_one_violation_per_rule_and_unit():
    src = "int LoudName(int a, int b, int c, int d, int e, int f) { return a; }"
    violations = check_rules(metrics_for(src, C_FAMILY), load_rule_set({}, C_FAMILY))
    keyed = [(v.rule_id, v.unit_name) for v in violations]
    assert len(keyed) == len(set(keyed))


def test_violations_sorted_and_effort_reproducible():
    src = (
        "int Bad_One(int a) { return a; }\n"
        "int Bad_Two(int a) { return a; }\n"
    )
    rs = load_rule_set({}, C_FAMILY)
    violations = check_rules(metrics_for(src, C_FAMILY), rs)
    assert [v.unit_name for v in violations] == ["Bad_One", "Bad_Two"]
    assert all(v.effort_minutes == rs.get(v.rule_id).effort_minutes for v in violations)


def test_threshold_monotonicity():
    decisions = " ".join("if (a) { a = a + 1; }" for _ in range(10))
    src = f"int busy(int a) {{ {decisions} return a; }}"
    ms = metrics_for(src, C_FAMILY)
    counts = []
    for threshold in (1, 5, 10, 11, 20):
        violations = check_rules(ms, load_rule_set({COMPLEXITY: {"threshold": threshold}}, C_FAMILY))
        counts.append(len([v for v in violations if v.rule_id == COMPLEXITY]))
    assert counts == sorted(counts, reverse=True)


def test_duplication_block_rule_fires_when_enabled():
    from xmaint.duplication import EXACT, find_clone_blocks, normalize_tokens, token_ids
    from xmaint.lexing import Token

    run = [f"s{i}" for i in range(6)]
    toks = [Token("identifier", t, i + 1, 1) for i, t in enumerate(run + ["gap"] + run)]
    seq = normalize_tokens(toks, EXACT, True, token_ids())
    blocks = find_clone_blocks({"f": seq}, 5)
    assert blocks
    rs = load_rule_set({DUPLICATION_BLOCK: {"enabled": True}}, C_FAMILY)
    violations = check_rules([], rs, clone_blocks=blocks)
    assert [v.rule_id for v in violations] == [DUPLICATION_BLOCK] * len(blocks)


# --- intersection ---


def _rule_set(profile, enabled_ids):
    config = {
        cid: {"enabled": cid in enabled_ids}
        for cid in (COMPLEXITY, UNIT_SIZE, TOO_MANY_PARAMS, NESTING_DEPTH, NAMING)
    }
    return load_rule_set(config, profile)


@pytest.mark.parametrize("config, expected", [
    ({}, {COMPLEXITY, UNIT_SIZE, TOO_MANY_PARAMS, NESTING_DEPTH, NAMING}),
    ({NAMING: {"enabled": False}, COMPLEXITY: {"enabled": False}}, {UNIT_SIZE, TOO_MANY_PARAMS, NESTING_DEPTH}),
], ids=["default", "two-disabled"])
def test_one_config_enables_the_same_ids_for_every_profile(config, expected):
    # enablement is keyed by rule id alone, which is why compare bills each project once
    custom = profile_from_dict({"id": "custom", "file_extensions": [".cst"],
                                "unit_detection": "keyword-pair", "verbosity_factor": 3.0})
    for profile in (*BUILTIN_PROFILES, custom):
        assert load_rule_set(config, profile).enabled_ids() == expected


def test_intersection_with_itself_is_identity():
    a = load_rule_set({}, C_FAMILY)
    b = load_rule_set({}, PYTHON)
    assert set(intersect_rule_sets([a, b])) == a.enabled_ids() == b.enabled_ids()
    assert intersect_rule_sets([a]) == sorted(a.enabled_ids())


def test_intersection_keeps_common_ids_only():
    a = _rule_set(C_FAMILY, {COMPLEXITY, UNIT_SIZE, NAMING})
    b = _rule_set(PYTHON, {COMPLEXITY, UNIT_SIZE, NESTING_DEPTH})
    assert intersect_rule_sets([a, b]) == [COMPLEXITY, UNIT_SIZE]


def test_intersection_requires_enabled_everywhere():
    a = _rule_set(C_FAMILY, {COMPLEXITY})  # naming disabled here
    b = _rule_set(PYTHON, {COMPLEXITY, NAMING})
    assert NAMING not in intersect_rule_sets([a, b])


def test_intersection_preserves_per_language_params():
    a = load_rule_set({UNIT_SIZE: {"threshold": 60}}, C_FAMILY)
    b = load_rule_set({UNIT_SIZE: {"threshold": 60}}, COBOL_LIKE)
    assert UNIT_SIZE in intersect_rule_sets([a, b])
    assert a.get(UNIT_SIZE).threshold == 60
    assert b.get(UNIT_SIZE).threshold == 120


def test_intersection_commutative_associative_idempotent():
    a = _rule_set(C_FAMILY, {COMPLEXITY, UNIT_SIZE, NAMING})
    b = _rule_set(PYTHON, {COMPLEXITY, NAMING})
    c = _rule_set(COBOL_LIKE, {NAMING, NESTING_DEPTH})
    assert intersect_rule_sets([a, b, c]) == intersect_rule_sets([c, b, a]) == [NAMING]
    assert set(intersect_rule_sets([a, a])) == a.enabled_ids()


def test_empty_intersection_is_reported_not_fatal():
    a = _rule_set(C_FAMILY, {COMPLEXITY})
    b = _rule_set(PYTHON, {NAMING})
    assert intersect_rule_sets([a, b]) == []

import copy
import json
import math
from pathlib import Path

import pytest

from xmaint.analysis import analyze_project
from xmaint.config import DEFAULT_CONFIG, load_config, validate_config
from xmaint.errors import InvalidConfig, InvalidProfileConfig, InvalidRuleConfig
from xmaint.profiles import BUILTIN_PROFILES, ProfileRegistry, profile_from_dict
from xmaint.rules import load_rule_set

EXAMPLE = Path(__file__).parent.parent / "docs" / "xmaint.example.json"
PARITY = Path(__file__).parent / "fixtures" / "parity"


@pytest.fixture(scope="module")
def example():
    return json.loads(EXAMPLE.read_text(encoding="utf-8"))


def test_example_config_sections_equal_defaults(example):
    assert set(example) == set(DEFAULT_CONFIG)
    for section in DEFAULT_CONFIG:
        if section != "rules":
            assert example[section] == DEFAULT_CONFIG[section], section


@pytest.mark.parametrize("profile", BUILTIN_PROFILES, ids=lambda p: p.id)
def test_example_config_rules_equal_defaults(example, profile):
    assert load_rule_set(example["rules"], profile) == load_rule_set({}, profile)


def test_example_config_loads(example):
    config = load_config(EXAMPLE)
    assert config == {**DEFAULT_CONFIG, "rules": example["rules"]}


def test_maps_keyed_by_data_stay_open(tmp_path):
    # project ids and integer ratings are data, not field names
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"models": {"sig": {
        "coverage": {"alpha": 0.5, "beta": 0.75},
        "profile_caps": {"6": [0.1, 0, 0]},
    }}}))
    sig = load_config(path)["models"]["sig"]
    assert sig["coverage"] == {"alpha": 0.5, "beta": 0.75}
    assert sig["profile_caps"]["6"] == [0.1, 0, 0] and "5" in sig["profile_caps"]


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"], ids=["bad-json", "not-utf8"])
def test_unreadable_config_file(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(InvalidConfig, match=r"^cannot load config .*bad\.json: "):
        load_config(path)


@pytest.mark.parametrize("profiles, message", [
    ({"files": 5}, "profiles.files must be a list of paths"),
    ({"files": ["a.json", 5]}, "profiles.files must be a list of paths"),
    ({"definitions": 5}, "profiles.definitions must be a list of profile objects"),
    ({"definitions": {"id": "x"}}, "profiles.definitions must be a list of profile objects"),
])
def test_profiles_section_holds_lists(tmp_path, profiles, message):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"profiles": profiles}))
    with pytest.raises(InvalidConfig, match=rf"^{message}$"):
        load_config(path)


def _with(path, value):
    """A copy of DEFAULT_CONFIG with ``value`` at ``path``."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    *parents, last = path
    holder = config
    for key in parents:
        holder = holder[key] if isinstance(holder, list) else holder.setdefault(key, {})
    holder[last] = value
    return config


_THRESHOLD = ("rules", "complexity-threshold", "threshold")


@pytest.mark.parametrize("path, value", [
    (_THRESHOLD, math.nan),
    (_THRESHOLD, math.inf),
    (("models", "sig", "volume_ladder", 0, 0), math.nan),
    (("models", "sig", "profile_caps", "4", 1), math.nan),
    (("composite", "indicators", "tdr", "low"), math.nan),
], ids=["rule-threshold-nan", "rule-threshold-inf", "sig-ladder-bound-nan", "profile-cap-nan", "composite-low-nan"])
def test_validate_config_refuses_a_non_finite_number(path, value):
    # files and flags refuse these already; a library caller's dict must too
    with pytest.raises((InvalidConfig, InvalidRuleConfig)):
        validate_config(_with(path, value))


def _analyzed_with(path):
    """Validate DEFAULT_CONFIG with a number at ``path``, then analyze the
    parity fixture under it, where a value that passed is converted."""
    def run(number):
        config = _with(path, number)
        validate_config(config)
        analyze_project(PARITY, config, ProfileRegistry())
    return run


def _profile_with_verbosity(number):
    profile_from_dict({"id": "x", "file_extensions": [".x"], "unit_detection": "brace-block",
                       "verbosity_factor": number})


_INT_CASES = {
    "complexity-threshold": _analyzed_with(_THRESHOLD),
    "unit-size-threshold": _analyzed_with(("rules", "unit-size-threshold", "threshold")),
    "complexity-effort": _analyzed_with(("rules", "complexity-threshold", "effort_minutes")),
    "composite-low": _analyzed_with(("composite", "indicators", "tdr", "low")),
    "cost-per-line": _analyzed_with(("models", "sqale", "cost_per_line_minutes")),
    "verbosity-factor": _profile_with_verbosity,
}


@pytest.mark.parametrize("case", _INT_CASES)
def test_an_int_beyond_a_double_s_range_is_refused(case):
    # float() of such an int raises OverflowError, so the config check must refuse it first
    with pytest.raises((InvalidConfig, InvalidRuleConfig, InvalidProfileConfig)):
        _INT_CASES[case](10 ** 400)


@pytest.mark.parametrize("case", _INT_CASES)
def test_an_int_within_a_double_s_range_is_taken(case):
    _INT_CASES[case](10 ** 300)

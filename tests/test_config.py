import json
from pathlib import Path

import pytest

from xmaint.config import DEFAULT_CONFIG, load_config
from xmaint.errors import InvalidConfig
from xmaint.profiles import BUILTIN_PROFILES
from xmaint.rules import load_rule_set

EXAMPLE = Path(__file__).parent.parent / "docs" / "xmaint.example.json"


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

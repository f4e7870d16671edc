import json
from pathlib import Path

import pytest

from xmaint.config import DEFAULT_CONFIG
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

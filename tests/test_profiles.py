import dataclasses
import json
from pathlib import Path

import pytest

from xmaint.errors import InvalidProfileConfig, UnknownLanguage
from xmaint.lexing import tokenize
from xmaint.profiles import (
    BUILTIN_PROFILES,
    LanguageProfile,
    ProfileRegistry,
    build_registry,
    detect_profile,
    load_profiles_file,
    _REQUIRED_KEYS,
    profile_from_dict,
)

SCHEMA = Path(__file__).parent.parent / "docs" / "profile-schema.json"


def test_detect_by_extension(registry):
    assert detect_profile("a.py", registry).id == "python"
    assert detect_profile("sub/dir/x.h", registry).id == "c-family"
    assert detect_profile("legacy/MAIN.CBL", registry).id == "cobol-like"


def test_detect_unknown_extension(registry):
    with pytest.raises(UnknownLanguage):
        detect_profile("src/main.foo", registry)


def test_builtin_profiles_are_well_formed():
    seen_extensions = set()
    for profile in BUILTIN_PROFILES:
        assert profile.decision_tokens and profile.operator_tokens
        assert profile.verbosity_factor > 0
        for ext in profile.file_extensions:
            assert ext not in seen_extensions, f"duplicate extension {ext}"
            seen_extensions.add(ext)


def test_registry_rejects_extension_collision(registry):
    clash = LanguageProfile(
        id="other",
        file_extensions=(".py",),
        line_comment_markers=("#",),
        block_comment_delimiters=(),
        string_delimiters=(),
        decision_tokens=frozenset({"if"}),
        operator_tokens=frozenset({"+"}),
        unit_detection="indent-block",
        unit_keywords=("def",),
    )
    with pytest.raises(InvalidProfileConfig):
        registry.register(clash)


def test_registry_replaces_same_id(registry):
    updated = LanguageProfile(
        id="python",
        file_extensions=(".py", ".pyw"),
        line_comment_markers=("#",),
        block_comment_delimiters=(),
        string_delimiters=(('"', '"', "\\"),),
        decision_tokens=frozenset({"if"}),
        operator_tokens=frozenset({"+"}),
        unit_detection="indent-block",
        unit_keywords=("def",),
    )
    registry.register(updated)
    assert detect_profile("x.pyw", registry).id == "python"


def test_profile_from_dict_roundtrip():
    for profile in BUILTIN_PROFILES:
        clone = profile_from_dict(profile.as_dict())
        assert clone == profile


def test_profile_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidProfileConfig):
        profile_from_dict({"id": "x", "file_extensions": [".x"], "unit_detection": "brace-block",
                           "bogus": True})


def test_profile_from_dict_requires_mandatory_keys():
    with pytest.raises(InvalidProfileConfig):
        profile_from_dict({"id": "x"})


def test_profile_rejects_bad_verbosity():
    with pytest.raises(InvalidProfileConfig):
        profile_from_dict({"id": "x", "file_extensions": [".x"], "unit_detection": "brace-block",
                           "verbosity_factor": 0})


def test_load_profiles_file_and_override(tmp_path, registry):
    definition = {
        "id": "shell-like",
        "file_extensions": [".sh"],
        "line_comment_markers": ["#"],
        "string_delimiters": [["\"", "\"", "\\"]],
        "decision_tokens": ["if", "elif", "while", "&&", "||"],
        "operator_tokens": ["=", "&&", "||"],
        "unit_detection": "brace-block",
        "unit_keywords": ["function"],
        "keywords": ["if", "elif", "while", "function"],
    }
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([definition]), encoding="utf-8")
    loaded = load_profiles_file(path)
    assert loaded[0].id == "shell-like"
    reg = build_registry(profile_files=[path])
    assert detect_profile("run.sh", reg).id == "shell-like"


def test_case_insensitive_fold():
    cobol = next(p for p in BUILTIN_PROFILES if p.id == "cobol-like")
    assert cobol.is_decision("if") and cobol.is_decision("IF")
    c = next(p for p in BUILTIN_PROFILES if p.id == "c-family")
    assert c.is_decision("if") and not c.is_decision("IF")


def test_schema_matches_profile_fields():
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))["$defs"]["profile"]
    fields = {f.name: f for f in dataclasses.fields(LanguageProfile)}
    assert set(schema["properties"]) == set(fields)
    assert schema["required"] == list(_REQUIRED_KEYS)
    declared = {k: v["default"] for k, v in schema["properties"].items() if "default" in v}
    assert declared == {k: fields[k].default for k in declared}
    # every optional scalar field declares its default in the schema
    assert set(declared) == {"identifier_pattern", "naming_pattern", "case_sensitive", "verbosity_factor"}


def _definition(**extra):
    return {"id": "x", "file_extensions": [".x"], "unit_detection": "brace-block", **extra}


@pytest.mark.parametrize("pattern", ["[a-z]*", r"\w*", "(?:ab)?", "x|"])
def test_profile_rejects_identifier_pattern_matching_empty(pattern):
    # "ab + 1" used to lex into 7 tokens, 4 of them empty identifiers
    with pytest.raises(InvalidProfileConfig, match="empty"):
        profile_from_dict(_definition(identifier_pattern=pattern))


# Tokens start at non-whitespace characters: a lexeme that begins with
# whitespace would change meaning ("a --x" a comment under marker " --"),
# so such a profile fails to load.
@pytest.mark.parametrize("extra", [
    {"line_comment_markers": ["#", " --"]},
    {"line_comment_markers": ["\t#"]},
    {"block_comment_delimiters": [[" /*", "*/"]]},
    {"string_delimiters": [["\n'", "'", ""]]},
    {"operator_tokens": ["+", " +"]},
    {"decision_tokens": [" ?"]},
    {"identifier_pattern": "[a-z ]+"},
    {"identifier_pattern": r"\s|[a-z]+"},
    {"identifier_pattern": "[a-z\n]+"},
], ids=["marker-space", "marker-tab", "block-opener", "string-opener", "operator", "decision",
        "identifier-space", "identifier-class", "identifier-newline"])
def test_profile_rejects_whitespace_leading_lexemes(extra):
    with pytest.raises(InvalidProfileConfig, match="whitespace"):
        profile_from_dict(_definition(**extra))


@pytest.mark.parametrize("extra", [
    {"line_comment_markers": [""]},
    {"block_comment_delimiters": [["", "*/"]]},
    {"block_comment_delimiters": [["/*", ""]]},
    {"string_delimiters": [["", "'", ""]]},
    {"string_delimiters": [["'", "", ""]]},
    {"operator_tokens": [""]},
], ids=["marker", "block-opener", "block-closer", "string-opener", "string-closer", "operator"])
def test_profile_rejects_empty_lexemes(extra):
    with pytest.raises(InvalidProfileConfig, match="empty"):
        profile_from_dict(_definition(**extra))


# The identifier pattern is one alternative of the lexer's master regex:
# global flags there are a re.error, and group names and numbers point into
# the master's own groups ("([a-z])\1*" used to lex "aa" as "a", "a").
@pytest.mark.parametrize("pattern, message", [
    ("(?i)[a-z]+", "global inline flags"),
    ("(?P<g0>[a-z]+)", "capturing group"),
    (r"([a-z])\1*", "capturing group"),
], ids=["global-flags", "named-group", "backreference"])
def test_profile_rejects_identifier_pattern_that_breaks_the_master_regex(pattern, message):
    with pytest.raises(InvalidProfileConfig, match=message):
        profile_from_dict(_definition(identifier_pattern=pattern))


def test_profile_accepts_scoped_flags_in_identifier_pattern():
    profile = profile_from_dict(_definition(identifier_pattern="(?i:[a-z])[a-z0-9]*"))
    tokens, _ = tokenize("Ab c", profile)
    assert [t.text for t in tokens] == ["Ab", "c"]


def test_profile_rejects_bad_naming_pattern():
    # the naming-convention rule compiles it; a bad one used to surface only
    # after every file had been analyzed
    with pytest.raises(InvalidProfileConfig, match="naming_pattern"):
        profile_from_dict(_definition(naming_pattern="[a-z"))


def test_profile_accepts_inner_whitespace_and_builtin_patterns():
    profile = profile_from_dict(_definition(
        operator_tokens=["not in", "+"], line_comment_markers=["REM "],
        identifier_pattern=r"[A-Za-z](?:[A-Za-z0-9]|-(?=[A-Za-z0-9]))*",
    ))
    assert "not in" in profile.operator_tokens


def test_directly_built_profile_is_checked_too():
    with pytest.raises(InvalidProfileConfig, match="empty"):
        dataclasses.replace(BUILTIN_PROFILES[0], identifier_pattern="[a-z]*")

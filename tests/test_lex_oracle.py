"""The tokenizer against ``lex_oracle``, its form before one regex group per
token class: (kind, text, line, column, end_line) of every token and the
diagnostics must agree, for the built-in profiles and for randomized
profile data."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import lex_oracle  # noqa: E402
from token_rows import rows  # noqa: E402
from xmaint.lexing import tokenize  # noqa: E402
from xmaint.profiles import BUILTIN_PROFILES, profile_from_dict  # noqa: E402

# code-shaped text, every kind of whitespace and line break, non-ASCII
# letters and digits, and characters no built-in profile declares
COMMON = (
    "a", "Z", "_", "x1", "IF", "if", "def", "END-IF", "-", "0", "3.5", "0x1F", "1e-3",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", ":", "=", "==", "+", "&&", "?", "*", "/",
    "<", ">", "\\", "$", "@",
    " ", "  ", "\t", "\n", "\n\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x85", "\xa0",
    " ", "　", "é", "λ", "€", "٣",
)

BUILTIN_FRAGMENTS = COMMON + (
    "//", "/*", "*/", "#", "*>", '"', "'", '"""', "'''", "PARAGRAPH", "END-PARAGRAPH",
)

LINE_MARKERS = ("#", "//", "--", "*>", ";", "%", "REM", "!", "-")
BLOCK_COMMENTS = (("/*", "*/"), ("(*", "*)"), ("{-", "-}"), ("<!--", "-->"), ("#|", "|#"),
                  ("/*", "*/*"))
STRINGS = (
    ('"', '"', "\\"), ("'", "'", ""), ('"""', '"""', "\\"), ("'''", "'''", ""),
    ("`", "`", ""), ("[[", "]]", ""), ("q'", "'", "\\"), ("<<", ">>", "^"),
    ('"', "'", "\\"), ("R\"(", ")\"", ""), ("'", "''", ""),
)
OPERATORS = ("+", "-", "*", "**", "==", "=", "<=", "<", ">", ">>", "and", "not", "::", "->",
             "-->", "|", "||", "#", "/", "not in", "!", "?", ".", "..")
DECISIONS = ("if", "IF", "&&", "?", "while", "or", "WHEN")
KEYWORDS = ("if", "else", "def", "IF", "End", "while", "and", "not", "e")
IDENTIFIERS = (
    r"[A-Za-z_][A-Za-z0-9_]*",
    r"[A-Za-z](?:[A-Za-z0-9]|-(?=[A-Za-z0-9]))*",
    r"[^\W\d]\w*",
    r"[a-z]+",
    r"\$?[A-Za-z]+",
    r"[A-Z][a-z]*|[a-z]+",
)


def _subset(pool, max_size):
    return st.lists(st.sampled_from(pool), max_size=max_size, unique=True)


profile_data = st.fixed_dictionaries({
    "id": st.just("random"),
    "file_extensions": st.just([".r"]),
    "unit_detection": st.sampled_from(["brace-block", "indent-block", "keyword-pair"]),
    "line_comment_markers": _subset(LINE_MARKERS, 3),
    "block_comment_delimiters": _subset(BLOCK_COMMENTS, 2),
    "string_delimiters": _subset(STRINGS, 4),
    "operator_tokens": _subset(OPERATORS, 10),
    "decision_tokens": _subset(DECISIONS, 4),
    "keywords": _subset(KEYWORDS, 5),
    "identifier_pattern": st.sampled_from(IDENTIFIERS),
    "case_sensitive": st.booleans(),
})


def _texts(fragments):
    return st.lists(st.sampled_from(fragments), max_size=50).map("".join)


def _lexemes(data):
    out = list(data["line_comment_markers"]) + list(data["operator_tokens"])
    out += list(data["decision_tokens"]) + list(data["keywords"])
    for pair in data["block_comment_delimiters"]:
        out += pair
    for opener, closer, escape in data["string_delimiters"]:
        out += [opener, closer] + ([escape] if escape else [])
    return tuple(out)


def _rows(tokens):
    return [(t.kind, t.text, t.line, t.column, t.end_line) for t in tokens]


def _assert_like_oracle(text, profile):
    tokens, diagnostics = tokenize(text, profile)
    expected_tokens, expected_diagnostics = lex_oracle.tokenize(text, profile)
    assert rows(tokens) == _rows(expected_tokens)
    assert diagnostics == expected_diagnostics


@pytest.mark.parametrize("profile", BUILTIN_PROFILES, ids=lambda p: p.id)
@settings(max_examples=300, deadline=None)
@given(text=_texts(BUILTIN_FRAGMENTS))
def test_builtin_profiles_lex_like_the_oracle(profile, text):
    _assert_like_oracle(text, profile)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), definition=profile_data)
def test_random_profiles_lex_like_the_oracle(data, definition):
    profile = profile_from_dict(definition)
    text = data.draw(_texts(COMMON + _lexemes(definition)), label="text")
    _assert_like_oracle(text, profile)


@pytest.mark.parametrize("profile", BUILTIN_PROFILES, ids=lambda p: p.id)
@pytest.mark.parametrize("text", [
    "", " ", "\n", "x", "x ", " x\n\n  ", "a\n  b\n\n\tc  \n",
    '"open', "'open\nnext", '"""never closed\n\n', "'''a\n", '"a\\', '"a\\\n"',
    "/* never closed\n", "/* a */ b /*", "# c\n", "*> c", "x = 1 // c\ny",
    '"""a\nb\nc""" x', "a /* b\n\nc */ d", "'''\n\n''' y\n z",
    "IF A > B\n  MOVE 1 TO X\nEND-IF.", "def f(x):\n    return x  \n",
    "\r\n".join(["int f() {", "  return 0;", "}"]) + "   ",
])
def test_edge_strings_lex_like_the_oracle(profile, text):
    _assert_like_oracle(text, profile)

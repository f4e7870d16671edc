"""Property tests for the tokenizer: positions, disjointness and coverage."""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from xmaint.lexing import tokenize  # noqa: E402
from xmaint.profiles import BUILTIN_PROFILES  # noqa: E402

# comment and string markers of every built-in profile, escapes, line breaks
# that are not "\n", and non-ASCII letters, digits and spaces
FRAGMENTS = (
    "a", "Z", "_", "x1", "IF", "if", "def", "PARAGRAPH", "END-PARAGRAPH", "-", "0", "3.5", "0x1F",
    "(", ")", "{", "}", ";", ",", ".", ":", "=", "==", "+", "&&", "?", "*", "/", "<", ">",
    "//", "/*", "*/", "#", "*>", '"', "'", '"""', "'''", "\\",
    " ", "\t", "\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x85", " ",
    "é", "λ", "€", "٣", " ",
)

texts = st.lists(st.sampled_from(FRAGMENTS), max_size=60).map("".join)


def _line_starts(text):
    return [0] + [m.end() for m in re.finditer("\n", text)]


@pytest.mark.parametrize("profile", BUILTIN_PROFILES, ids=lambda p: p.id)
@settings(max_examples=300, deadline=None)
@given(text=texts)
def test_tokens_sit_at_their_position_and_cover_all_non_whitespace(profile, text):
    tokens, _ = tokenize(text, profile)
    starts = _line_starts(text)
    covered = [False] * len(text)
    end = 0
    for tok in tokens:
        assert tok.text, "empty token"
        offset = starts[tok.line - 1] + tok.column - 1
        assert text[offset:offset + len(tok.text)] == tok.text
        assert offset >= end, "tokens overlap"
        end = offset + len(tok.text)
        covered[offset:end] = [True] * len(tok.text)
    for ch, inside in zip(text, covered):
        assert inside or ch.isspace(), repr(ch)

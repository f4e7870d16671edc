"""Property tests for the tokenizer (positions, disjointness, coverage) and
for the one line-break model that token lines and line counts share."""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from xmaint.analysis import analyze_file, read_source  # noqa: E402
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


# every character that str.splitlines treats as a line break
BREAKS = ("\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

mixed_texts = st.lists(st.sampled_from(FRAGMENTS + BREAKS), max_size=60).map("".join)

# LF-only lines in the shapes of every built-in profile's units and comments
SOURCE_LINES = (
    "int f(int a, int b) {", "}", "    if (a) { b = 1; }", "def g(x, y):", "    return x",
    "    if x:", "        y = 1", "PARAGRAPH P1.", "    IF A > B", "    END-IF", "END-PARAGRAPH.",
    "/* block", "   comment */", '"""doc', 'string"""', "# note", "// note", "*> note",
    "x = 1;", "", "    ", "'open", '"a\\',
)

lf_sources = st.tuples(
    st.lists(st.sampled_from(SOURCE_LINES), max_size=25), st.booleans()
).map(lambda t: "\n".join(t[0]) + ("\n" if t[1] else ""))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("breaks")


def _analyze(workdir, text, profile):
    """The analysis of ``text`` as a file, and the tokens analyze_file lexes from it."""
    path = workdir / "src.txt"
    path.write_bytes(text.encode("utf-8"))
    return analyze_file(path, "src.txt", profile), tokenize(read_source(path), profile)[0]


@pytest.mark.parametrize("profile", BUILTIN_PROFILES, ids=lambda p: p.id)
@settings(max_examples=200, deadline=None)
@given(text=mixed_texts)
def test_line_classes_sum_to_the_physical_count(workdir, profile, text):
    fa, tokens = _analyze(workdir, text, profile)
    lines = fa.lines
    assert lines.code + lines.comment + lines.blank + lines.mixed == lines.physical_lines
    # the line of each token's last character (a token may swallow the final break)
    assert all(1 <= t.line + t.text[:-1].count("\n") <= lines.physical_lines for t in tokens)
    if tokens and not text[-1].isspace():
        assert tokens[-1].end_line == lines.physical_lines  # no phantom last line


@pytest.mark.parametrize("profile", BUILTIN_PROFILES, ids=lambda p: p.id)
@settings(max_examples=150, deadline=None)
@given(text=lf_sources)
def test_lf_crlf_and_cr_sources_analyze_alike(workdir, profile, text):
    lf, lf_tokens = _analyze(workdir, text, profile)
    end_lines = [t.end_line for t in lf_tokens]
    for other in (text.replace("\n", "\r\n"), text.replace("\n", "\r")):
        fa, tokens = _analyze(workdir, other, profile)
        assert fa == lf
        assert [t.end_line for t in tokens] == end_lines

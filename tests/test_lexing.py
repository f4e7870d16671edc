import random

from token_rows import rows
from xmaint.analysis import analyze_file, read_source
from xmaint.duplication import token_ids
from xmaint.lexing import (
    COMMENT,
    IDENTIFIER,
    NUMBER_LITERAL,
    OPERATOR,
    STRING_LITERAL,
    TokenStream,
    classify_lines,
    physical_line_count,
    tokenize,
)
from xmaint.profiles import C_FAMILY, COBOL_LIKE, PYTHON


def lex(src, profile):
    """tokenize, with the tokens as rows."""
    tokens, diagnostics = tokenize(src, profile)
    return rows(tokens), diagnostics


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens]


def test_empty_input():
    tokens, diagnostics = lex("", C_FAMILY)
    assert tokens == [] and diagnostics == []


def test_c_family_line_with_comment():
    tokens, diagnostics = lex("a = b + c // sum", C_FAMILY)
    assert texts(tokens) == ["a", "=", "b", "+", "c", "// sum"]
    assert kinds(tokens) == [IDENTIFIER, OPERATOR, IDENTIFIER, OPERATOR, IDENTIFIER, COMMENT]
    assert diagnostics == []


def test_python_hash_inside_string_is_not_a_comment():
    tokens, _ = lex('s = "# not a comment"', PYTHON)
    assert kinds(tokens) == [IDENTIFIER, OPERATOR, STRING_LITERAL]
    assert not any(t.kind == COMMENT for t in tokens)


def test_block_comment_is_one_token_at_start_line():
    src = "x = 1; /* one\ntwo\nthree */ y = 2;"
    tokens, _ = lex(src, C_FAMILY)
    comments = [t for t in tokens if t.kind == COMMENT]
    assert len(comments) == 1
    assert comments[0].line == 1
    assert comments[0].text == "/* one\ntwo\nthree */"


def test_unterminated_string_recovers_to_end_of_line():
    tokens, diagnostics = lex('x = "abc\nnext = 2', C_FAMILY)
    assert [d.code for d in diagnostics] == ["unterminated-string"]
    assert diagnostics[0].line == 1
    lits = [t for t in tokens if t.kind == STRING_LITERAL]
    assert lits[0].text == '"abc'
    # tokenization continues on the following line
    assert any(t.text == "next" for t in tokens)


def test_unterminated_block_comment_recovers_to_end_of_file():
    tokens, diagnostics = lex("a = 1; /* no close\nstill comment", C_FAMILY)
    assert [d.code for d in diagnostics] == ["unterminated-comment"]
    assert tokens[-1].kind == COMMENT
    assert tokens[-1].text.endswith("still comment")


def test_python_triple_quoted_string_spans_lines():
    src = 's = """line1\nline2"""\nx = 1'
    tokens, _ = lex(src, PYTHON)
    lits = [t for t in tokens if t.kind == STRING_LITERAL]
    assert len(lits) == 1 and lits[0].end_line == 2


def test_token_stores_the_end_line_of_multi_line_text():
    tokens, _ = lex('x = 1\n  s = """a\n\nb"""\ny', PYTHON)
    assert [(t.text, t.line, t.end_line) for t in tokens if t.end_line != t.line] == [
        ('"""a\n\nb"""', 2, 4)]
    tokens, _ = lex("a /* c\nd */ y\n", C_FAMILY)
    assert [(t.line, t.column, t.end_line) for t in tokens] == [(1, 1, 1), (1, 3, 2), (2, 6, 2)]


def test_local_ids_number_each_kind_and_text_in_order_of_first_occurrence():
    tokens, _ = tokenize("a = b; a = 'a'; // a\nb", C_FAMILY)
    assert tokens.keys == [
        (IDENTIFIER, "a"), (OPERATOR, "="), (IDENTIFIER, "b"), ("punctuation", ";"),
        (STRING_LITERAL, "'a'"), (COMMENT, "// a"),
    ]
    assert list(tokens.ids) == [0, 1, 2, 3, 0, 1, 4, 3, 5, 2]
    assert len(tokens) == 10 and list(tokens.lines) == [1] * 9 + [2]
    assert list(tokens.columns) == [1, 3, 5, 6, 8, 10, 12, 15, 17, 1]


def test_escaped_quote_stays_inside_string():
    tokens, _ = lex(r's = "a\"b"', PYTHON)
    assert [t.text for t in tokens if t.kind == STRING_LITERAL] == [r'"a\"b"']


def test_cobol_hyphenated_identifier_and_case():
    tokens, _ = lex('MOVE TOTAL-AMOUNT TO out-rec.', COBOL_LIKE)
    ids = [t.text for t in tokens if t.kind == IDENTIFIER]
    assert "TOTAL-AMOUNT" in ids and "out-rec" in ids
    kws = [t.text for t in tokens if t.kind == "keyword"]
    assert "MOVE" in kws and "TO" in kws


def test_number_literals():
    tokens, _ = lex("x = 10 + 3.25 + 0xFF + 2e10", C_FAMILY)
    numbers = [t.text for t in tokens if t.kind == NUMBER_LITERAL]
    assert numbers == ["10", "3.25", "0xFF", "2e10"]


def test_tokens_strictly_ordered_and_non_overlapping():
    src = "int f(int a) {\n  return a * 2; // done\n}\n"
    tokens, _ = lex(src, C_FAMILY)
    positions = [(t.line, t.column) for t in tokens]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def _coverage_check(src, profile):
    """Every non-whitespace char is covered by exactly one token span."""
    tokens, _ = lex(src, profile)
    line_offsets = [0]
    for i, ch in enumerate(src):
        if ch == "\n":
            line_offsets.append(i + 1)
    covered = [0] * len(src)
    for tok in tokens:
        start = line_offsets[tok.line - 1] + tok.column - 1
        assert src[start : start + len(tok.text)] == tok.text
        for i in range(start, start + len(tok.text)):
            covered[i] += 1
    for i, ch in enumerate(src):
        if ch.isspace():
            continue
        assert covered[i] == 1, f"char {i!r} ({src[i]!r}) covered {covered[i]} times"


def test_token_coverage_c():
    _coverage_check(
        '/* head */\nint f(int a): { "s\\"tr" + 0x1F; } // t\n@ # $ ~weird\n', C_FAMILY
    )


def test_token_coverage_python():
    _coverage_check(
        'def f(a):\n    s = """x\ny"""\n    return a # tail\n!?$', PYTHON
    )


def test_token_coverage_cobol():
    _coverage_check('PARAGRAPH P-1.\n  MOVE "A" TO B *> note\nEND-PARAGRAPH.\n', COBOL_LIKE)


def test_token_coverage_random_soup():
    rng = random.Random(7)
    alphabet = list("abc123+=*/(){};,.\"'#\n\t _<>&|!%-")
    for profile in (C_FAMILY, PYTHON, COBOL_LIKE):
        for _ in range(25):
            src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 200)))
            _coverage_check(src, profile)


def test_determinism():
    src = 'int f() { /* c */ return "x"; }\n'
    first = lex(src, C_FAMILY)
    second = lex(src, C_FAMILY)
    assert first == second


def test_tokenizer_never_crashes_on_garbage():
    rng = random.Random(1312)
    for profile in (C_FAMILY, PYTHON, COBOL_LIKE):
        for _ in range(40):
            length = rng.randrange(0, 300)
            src = "".join(chr(rng.choice((
                rng.randrange(32, 127), rng.randrange(0x20, 0x2030),
                10, 9, 13))) for _ in range(length))
            tokens, _ = lex(src, profile)
            for tok in tokens:  # spans must always reconstruct the source
                assert tok.text != ""


# --- line classification ---


def test_classify_empty_file():
    lc = classify_lines(TokenStream(), 0)
    assert (lc.code, lc.comment, lc.blank, lc.mixed, lc.physical_lines) == (0, 0, 0, 0, 0)


def test_classify_five_line_fixture():
    src = "int x = 1;\n// only comment\n\nint y = 2; // trailing\nint z;"
    tokens, _ = tokenize(src, C_FAMILY)
    lc = classify_lines(tokens, physical_line_count(src))
    assert lc.classes == ("code", "comment", "blank", "mixed", "code")
    assert (lc.code, lc.comment, lc.blank, lc.mixed) == (2, 1, 1, 1)


def test_classify_block_comment_spanning_three_lines():
    src = "/* one\ntwo\nthree */"
    tokens, _ = tokenize(src, C_FAMILY)
    lc = classify_lines(tokens, physical_line_count(src))
    assert lc.comment == 3 and lc.code == 0


def test_line_conservation_random():
    rng = random.Random(99)
    pieces = ["int a = 1;", "// note", "", "/* multi", "line */", "x = 2; // mixed", "\t"]
    for _ in range(50):
        src = "\n".join(rng.choice(pieces) for _ in range(rng.randrange(0, 30)))
        tokens, _ = tokenize(src, C_FAMILY)
        lc = classify_lines(tokens, physical_line_count(src))
        assert lc.code + lc.comment + lc.blank + lc.mixed == lc.physical_lines


# --- one line-break model: only "\n" ends a line once CR and CRLF are mapped to it ---


def test_form_feed_is_not_a_line_break():
    src = "x = 1\n\f\ny = 2\n"
    tokens, _ = tokenize(src, PYTHON)
    lc = classify_lines(tokens, physical_line_count(src))
    assert physical_line_count(src) == 3
    assert lc.classes == ("code", "blank", "code")


def test_physical_line_count_counts_a_last_line_without_break():
    assert [physical_line_count(s) for s in ("", "a", "a\n", "a\nb", "\n\n")] == [0, 1, 1, 2, 2]


def _analyze_bytes(tmp_path, name, data, profile):
    """The file analysis of these bytes and its clone row."""
    path = tmp_path / name
    path.write_bytes(data)
    return analyze_file(path, name, profile, token_ids())


def _lex_bytes(tmp_path, name, data, profile):
    """The tokens analyze_file lexes from these bytes."""
    path = tmp_path / name
    path.write_bytes(data)
    return rows(tokenize(read_source(path), profile)[0])


def test_cr_only_file_counts_every_line(tmp_path):
    data = b"int a = 1;\rint b = 2;\rint c = 3;\r"
    fa, _ = _analyze_bytes(tmp_path, "cr.c", data, C_FAMILY)
    assert (fa.lines.code, fa.lines.physical_lines) == (3, 3)
    tokens = _lex_bytes(tmp_path, "cr.c", data, C_FAMILY)
    assert [t.line for t in tokens if t.text == ";"] == [1, 2, 3]


def test_crlf_and_lf_give_the_same_analysis(tmp_path):
    src = "int f(int a) {\n    /* two\n       lines */\n    return a;\n}\n"
    lf = _analyze_bytes(tmp_path, "m.c", src.encode(), C_FAMILY)
    crlf = _analyze_bytes(tmp_path, "m.c", src.replace("\n", "\r\n").encode(), C_FAMILY)
    assert crlf == lf and lf[0].lines.physical_lines == 5
    lf_tokens = _lex_bytes(tmp_path, "m.c", src.encode(), C_FAMILY)
    crlf_tokens = _lex_bytes(tmp_path, "m.c", src.replace("\n", "\r\n").encode(), C_FAMILY)
    assert [t.end_line for t in crlf_tokens] == [t.end_line for t in lf_tokens]


def test_unicode_line_separator_in_string_adds_no_line(tmp_path):
    src = 's = "a\u2028b"\nt = 1\n'
    assert physical_line_count(src) == 2
    fa, _ = _analyze_bytes(tmp_path, "u.py", src.encode(), PYTHON)
    assert (fa.lines.code, fa.lines.physical_lines) == (2, 2)

import pytest

from xmaint.errors import Diagnostic
from xmaint.lexing import tokenize
from xmaint.profiles import C_FAMILY, COBOL_LIKE, PYTHON
from xmaint.units import extract_units


def units_of(src, profile):
    tokens, _ = tokenize(src, profile)
    units, diagnostics = extract_units(tokens, profile)
    return tokens, units, diagnostics


def test_no_unit_keywords_means_no_units():
    _, units, diagnostics = units_of("x = 1;\ny = x + 2;\n", C_FAMILY)
    assert units == [] and diagnostics == []


def test_c_one_liner():
    _, units, _ = units_of("int f(int a, int b) { return a+b; }", C_FAMILY)
    assert len(units) == 1
    unit = units[0]
    assert unit.name == "f" and unit.param_count == 2
    assert unit.start_line == unit.end_line == 1


def test_c_empty_params():
    _, units, _ = units_of("void run() { go(); }", C_FAMILY)
    assert units[0].param_count == 0


def test_c_comments_between_keyword_name_and_params():
    _, units, _ = units_of("int /* a */ f /* b */ (/* none */) { }", C_FAMILY)
    assert [(u.name, u.param_count) for u in units] == [("f", 0)]


def test_c_prototype_is_not_a_unit():
    _, units, _ = units_of("int f(int a);\nint g(int b) { return b; }\n", C_FAMILY)
    assert [u.name for u in units] == ["g"]


def test_c_nested_braces_and_depth():
    src = "int f(int x) {\n  if (x) {\n    while (x) { x--; }\n  }\n  return x;\n}\n"
    _, units, _ = units_of(src, C_FAMILY)
    assert units[0].nesting_depth_max == 2


def test_c_unbalanced_braces_discards_candidate_but_continues():
    src = "int broken(int a) {\n  if (a) {\nint fine(int b) { return b; }\n"
    _, units, diagnostics = units_of(src, C_FAMILY)
    assert [d.code for d in diagnostics].count("unbalanced-delimiters") >= 1
    assert any(u.name == "fine" for u in units)


def test_python_simple_def():
    src = "def g():\n    x = 1\n    return x\n"
    _, units, _ = units_of(src, PYTHON)
    assert len(units) == 1
    unit = units[0]
    assert unit.name == "g" and unit.param_count == 0
    assert (unit.start_line, unit.end_line) == (1, 3)


def test_python_def_followed_by_toplevel_code():
    src = "def g(a, b):\n    return a + b\n\nz = g(1, 2)\n"
    _, units, _ = units_of(src, PYTHON)
    assert (units[0].start_line, units[0].end_line) == (1, 2)
    assert units[0].param_count == 2


def test_python_nested_defs():
    src = (
        "def outer():\n"
        "    x = 1\n"
        "    def inner(a):\n"
        "        return a\n"
        "    return inner\n"
    )
    _, units, _ = units_of(src, PYTHON)
    names = {u.name: u for u in units}
    assert set(names) == {"outer", "inner"}
    assert names["inner"].start_line == 3 and names["inner"].end_line == 4
    assert names["outer"].end_line == 5
    lo, hi = names["outer"].token_range
    ilo, ihi = names["inner"].token_range
    assert lo < ilo and ihi <= hi  # nested, never partially overlapping


def test_python_blank_and_comment_lines_do_not_end_block():
    src = (
        "def g():\n"
        "    a = 1\n"
        "\n"
        "    # comment at any indent\n"
        "    return a\n"
        "x = 1\n"
    )
    _, units, _ = units_of(src, PYTHON)
    assert (units[0].start_line, units[0].end_line) == (1, 5)


def test_python_bracket_continuation_at_column_one():
    src = (
        "def g():\n"
        "    total = sum([\n"
        "1,\n"
        "2,\n"
        "    ])\n"
        "    return total\n"
    )
    _, units, _ = units_of(src, PYTHON)
    assert (units[0].start_line, units[0].end_line) == (1, 6)
    assert units[0].nesting_depth_max == 0


def test_python_header_colon_search_gives_up_at_semicolon():
    _, units, diagnostics = units_of("def f(a); x = 1\ndef g(b):\n    return b\n", PYTHON)
    assert [(u.name, u.start_line, u.end_line) for u in units] == [("g", 2, 3)]
    assert diagnostics == []


@pytest.mark.parametrize("src", ["def (x):\n    return x\n", "x = 1\ndef", "def\n"])
def test_python_def_without_a_name_is_skipped_silently(src):
    _, units, diagnostics = units_of(src, PYTHON)
    assert units == [] and diagnostics == []


def test_python_header_colon_is_looked_for_two_lines_past_the_paren():
    found = "def f(a)\nx = 1\ny = 2:\n    pass\n"
    _, units, _ = units_of(found, PYTHON)
    assert [(u.name, u.start_line, u.end_line) for u in units] == [("f", 1, 4)]
    too_far = "def f(a)\nx = 1\ny = 2\nz = 3:\n    pass\ndef g(b):\n    return b\n"
    _, units, _ = units_of(too_far, PYTHON)
    assert [(u.name, u.start_line, u.end_line) for u in units] == [("g", 6, 7)]


def test_python_nesting_depth_two_ifs():
    src = (
        "def g(a, b):\n"
        "    x = 0\n"
        "    if a:\n"
        "        if b:\n"
        "            x = 1\n"
        "    return x\n"
    )
    _, units, _ = units_of(src, PYTHON)
    assert units[0].nesting_depth_max == 2


def test_python_method_inside_class():
    src = (
        "class C:\n"
        "    def method(self, a):\n"
        "        return a\n"
    )
    _, units, _ = units_of(src, PYTHON)
    assert [u.name for u in units] == ["method"]
    assert units[0].param_count == 2


def test_cobol_paragraph():
    src = (
        "PARAGRAPH COMPUTE-TOTAL.\n"
        "    MOVE 0 TO TOTAL.\n"
        "    IF AMOUNT > 0\n"
        "        ADD AMOUNT TO TOTAL\n"
        "    END-IF.\n"
        "END-PARAGRAPH.\n"
    )
    _, units, _ = units_of(src, COBOL_LIKE)
    assert len(units) == 1
    unit = units[0]
    assert unit.name == "COMPUTE-TOTAL"
    assert (unit.start_line, unit.end_line) == (1, 6)
    assert unit.param_count == 0
    assert unit.nesting_depth_max == 1


def test_cobol_missing_end_keyword_reports_and_continues():
    src = (
        "PARAGRAPH BAD-ONE.\n"
        "    MOVE A TO B.\n"
    )
    _, units, diagnostics = units_of(src, COBOL_LIKE)
    assert units == []
    assert [d.code for d in diagnostics] == ["unbalanced-delimiters"]


@pytest.mark.parametrize("src, profile, units_found, message, line", [
    (
        "int a;\nint f(int a,\n  int b {\n}\nint g(int b) { return b; }\n", C_FAMILY,
        [("g", 5, 5, 1)], "unclosed parameter list for 'f'", 2,
    ),
    (
        "int broken(int a)\n{\n  if (a) {\nint fine(int b) { return b; }\n", C_FAMILY,
        [("fine", 4, 4, 1)], "unclosed body for 'broken'", 2,
    ),
    (
        "x = 1\ndef f(a,\n    b:\n    pass\ndef g(x):\n    return x\n", PYTHON,
        [("g", 5, 6, 1)], "unclosed parameter list for 'f'", 2,
    ),
    (
        "PARAGRAPH A-1.\n    MOVE A TO B.\nEND-PARAGRAPH.\n\nPARAGRAPH B-2.\n    MOVE B TO C.\n",
        COBOL_LIKE, [("A-1", 1, 3, 0)], "missing end keyword for 'B-2'", 5,
    ),
], ids=["brace-params", "brace-body", "indent-params", "keyword-pair-end"])
def test_unbalanced_delimiter_diagnostics(src, profile, units_found, message, line):
    _, units, diagnostics = units_of(src, profile)
    assert [(u.name, u.start_line, u.end_line, u.param_count) for u in units] == units_found
    assert diagnostics == [Diagnostic("unbalanced-delimiters", message, None, line)]


def test_cobol_unclosed_parameter_list_counts_zero_without_diagnostic():
    _, units, diagnostics = units_of("PARAGRAPH P (A.\nEND-PARAGRAPH.\n", COBOL_LIKE)
    assert [(u.name, u.start_line, u.end_line, u.param_count) for u in units] == [("P", 1, 2, 0)]
    assert diagnostics == []


def test_cross_profile_unit_parity(parity_roots):
    """Paired fixtures: same unit count and per-unit param counts."""
    cfam_root, py_root = parity_roots
    _, c_units, _ = units_of((cfam_root / "algos.c").read_text(), C_FAMILY)
    _, p_units, _ = units_of((py_root / "algos.py").read_text(), PYTHON)
    assert len(c_units) == len(p_units) == 5
    assert [u.param_count for u in c_units] == [u.param_count for u in p_units]

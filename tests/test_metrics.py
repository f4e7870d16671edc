import copy
import math

import pytest

from conftest import write_tree
from xmaint.analysis import analyze_project
from xmaint.errors import EmptyProject
from xmaint.lexing import LineClassification, TokenStream, classify_lines, physical_line_count, tokenize
from xmaint.metrics import (
    HalsteadCounts,
    aggregate_project,
    comment_ratio,
    file_counts,
    file_unit_metrics,
)
from xmaint.profiles import C_FAMILY, PYTHON, ProfileRegistry
from xmaint.units import extract_units


def cyclomatic_complexity(tokens, profile):
    return file_counts(tokens, profile)[0]


def halstead(tokens, profile):
    return file_counts(tokens, profile)[1]


def analyze(src, profile):
    tokens, _ = tokenize(src, profile)
    lines = classify_lines(tokens, physical_line_count(src))
    units, _ = extract_units(tokens, profile)
    metrics = file_unit_metrics(units, tokens, lines, profile)
    return tokens, lines, units, metrics


# --- cyclomatic complexity ---


def test_cc_straight_line_is_one():
    tokens, _ = tokenize("a = b + c;", C_FAMILY)
    assert cyclomatic_complexity(tokens, C_FAMILY) == 1


def test_cc_c_family_if_while_and():
    src = "int f(int a, int b) { if (a && b) { while (a) { a = a - 1; } } return a; }"
    _, _, _, metrics = analyze(src, C_FAMILY)
    assert metrics[0].cc == 4  # 1 + if + && + while


def test_cc_python_if_elif_or():
    src = "def g(a, b):\n    if a or b:\n        return 1\n    elif b:\n        return 2\n    return 0\n"
    _, _, _, metrics = analyze(src, PYTHON)
    assert metrics[0].cc == 4  # 1 + if + or + elif


def test_cc_cross_language_parity(parity_roots):
    cfam_root, py_root = parity_roots
    _, _, _, c_metrics = analyze((cfam_root / "algos.c").read_text(), C_FAMILY)
    _, _, _, p_metrics = analyze((py_root / "algos.py").read_text(), PYTHON)
    assert [m.cc for m in c_metrics] == [m.cc for m in p_metrics]


def test_decision_token_inside_string_does_not_count():
    tokens, _ = tokenize('msg = "if while for";', C_FAMILY)
    assert cyclomatic_complexity(tokens, C_FAMILY) == 1


# --- Halstead ---


def test_halstead_empty():
    counts = halstead(TokenStream(), C_FAMILY)
    assert counts == HalsteadCounts(0, 0, 0, 0)
    assert counts.volume == 0.0


def test_halstead_a_equals_b_plus_c():
    tokens, _ = tokenize("a = b + c", C_FAMILY)
    counts = halstead(tokens, C_FAMILY)
    assert (counts.n1, counts.N1, counts.n2, counts.N2) == (2, 2, 3, 3)
    assert counts.vocabulary == 5 and counts.length == 5
    assert counts.volume == pytest.approx(5 * math.log2(5), rel=1e-9)
    assert counts.volume == pytest.approx(11.6096, abs=1e-4)


def test_halstead_repeated_operand():
    tokens, _ = tokenize("x = x + x", C_FAMILY)
    counts = halstead(tokens, C_FAMILY)
    assert (counts.n1, counts.N1, counts.n2, counts.N2) == (2, 2, 1, 3)
    assert counts.volume == pytest.approx(5 * math.log2(3), rel=1e-9)
    assert counts.volume == pytest.approx(7.9248, abs=1e-4)


def test_halstead_comments_excluded():
    tokens, _ = tokenize("a = b // trailing words here", C_FAMILY)
    counts = halstead(tokens, C_FAMILY)
    assert counts.N2 == 2


def test_halstead_volume_formula_invariant():
    sources = ["a = b + c", "x = x + x", "f(a, b) * g(1) - 2", "s = \"txt\" + name"]
    for src in sources:
        tokens, _ = tokenize(src, C_FAMILY)
        counts = halstead(tokens, C_FAMILY)
        assert counts.n1 <= counts.N1 and counts.n2 <= counts.N2
        if counts.vocabulary > 1:
            expected = counts.length * math.log2(counts.vocabulary)
            assert counts.volume == pytest.approx(expected, rel=1e-9)


# --- comment ratio ---


def _lc(code=0, comment=0, blank=0, mixed=0):
    classes = ("code",) * code + ("comment",) * comment + ("blank",) * blank + ("mixed",) * mixed
    return LineClassification(
        classes=classes, code=code, comment=comment, blank=blank, mixed=mixed,
        physical_lines=code + comment + blank + mixed,
    )


def test_comment_ratio_all_blank():
    assert comment_ratio(_lc(blank=4)) == 0.0


def test_comment_ratio_quarter():
    assert comment_ratio(_lc(code=6, comment=2, blank=2)) == pytest.approx(0.25)


def test_comment_ratio_comment_only_file():
    assert comment_ratio(_lc(comment=5)) == 1.0


def test_comment_ratio_mixed_counts_as_comment():
    assert comment_ratio(_lc(code=2, mixed=2)) == pytest.approx(0.5)


# --- unit metrics ---


def test_unit_metrics_one_liner():
    src = "int f(int a, int b) { return a + b; }"
    _, _, _, metrics = analyze(src, C_FAMILY)
    m = metrics[0]
    assert (m.loc, m.cc, m.unit.param_count) == (1, 1, 2)


def test_unit_metrics_nested_unit_excluded():
    src = (
        "def outer():\n"
        "    a = 1\n"
        "    def inner(x):\n"
        "        if x:\n"
        "            return 1\n"
        "        return 0\n"
        "    return inner\n"
    )
    _, _, _, metrics = analyze(src, PYTHON)
    by_name = {m.unit.name: m for m in metrics}
    assert by_name["inner"].cc == 2
    assert by_name["outer"].cc == 1  # inner's `if` not double counted
    # outer owns: header, a=1, def line of inner is inner's, return inner
    assert by_name["outer"].loc == 3
    assert by_name["inner"].loc == 4


def test_unit_metrics_python_12_line_nesting():
    src = (
        "def h(a, b):\n"
        "    total = 0\n"
        "    items = range(10)\n"
        "    for i in items:\n"
        "        if a:\n"
        "            if b:\n"
        "                total = total + i\n"
        "    other = 1\n"
        "    more = 2\n"
        "    again = 3\n"
        "    final = total + other + more + again\n"
        "    return final\n"
    )
    _, _, _, metrics = analyze(src, PYTHON)
    assert metrics[0].unit.nesting_depth_max == 3  # for > if > if


# --- aggregation ---


def test_aggregate_single_unit_mean():
    src = "int f(int a) { if (a) { return 1; } return 0; }"
    _, lines, _, metrics = analyze(src, C_FAMILY)
    project = aggregate_project([lines], metrics)
    assert project.acc == metrics[0].cc
    assert project.unit_count == 1


def test_aggregate_two_units_arithmetic_mean():
    src = (
        "int f(int a) { return a; }\n"
        "int g(int a) {\n"
        "    if (a) { a = a + 1; }\n"
        "    if (a) { a = a + 2; }\n"
        "    return a;\n"
        "}\n"
    )
    _, lines, _, metrics = analyze(src, C_FAMILY)
    assert [m.cc for m in metrics] == [1, 3]
    project = aggregate_project([lines], metrics)
    assert project.acc == pytest.approx(2.0)
    assert project.aloc == pytest.approx((metrics[0].loc + metrics[1].loc) / 2)
    assert project.max_cc == 3


def test_aggregate_zero_units_reports_absent_means():
    src = "x = 1;\ny = 2;\n"
    _, lines, _, metrics = analyze(src, C_FAMILY)
    project = aggregate_project([lines], metrics)
    assert project.unit_count == 0
    assert project.ahv is None and project.acc is None and project.aloc is None
    assert project.total_loc == 2


def test_aggregate_empty_project_raises():
    with pytest.raises(EmptyProject):
        aggregate_project([], [])


def test_mean_consistency_invariant():
    src = (
        "int f(int a) { return a; }\n"
        "int g(int a) { if (a) { return 1; } return 0; }\n"
        "int h(int a) {\n  int b = a;\n  return b;\n}\n"
    )
    _, lines, _, metrics = analyze(src, C_FAMILY)
    project = aggregate_project([lines], metrics)
    assert project.aloc * project.unit_count == pytest.approx(
        sum(m.loc for m in metrics), rel=1e-9
    )
    assert project.acc >= 1.0


def test_weighted_means_variant():
    src = (
        "int f(int a) { return a; }\n"
        "int g(int a) {\n  if (a) { a = 1; }\n  if (a) { a = 2; }\n  if (a) { a = 3; }\n  return a;\n}\n"
    )
    _, lines, _, metrics = analyze(src, C_FAMILY)
    unweighted = aggregate_project([lines], metrics, weighted=False)
    weighted = aggregate_project([lines], metrics, weighted=True)
    # the larger unit has higher cc, so loc-weighting must pull the mean up
    assert weighted.acc > unweighted.acc


# --- analyze_project config variants, on a hand-counted two-file corpus ---

# a.c: one statement outside any unit, then f (1 operator '+', operands
# f a a 1, cc 1, 3 code lines). The file adds '=' and the operands total 0.
A_C = "int total = 0;\nint f(int a) {\n    return a + 1;\n}\n"
# b.c: a comment line, then g (operators > && >, operands g x y x y y 0 x y,
# cc 3, 6 code lines); g covers every code token of the file.
B_C = "/* pick */\nint g(int x, int y) {\n    if (x > y && y > 0) {\n        return x;\n    }\n    return y;\n}\n"

F_VOLUME = (1 + 4) * math.log2(1 + 3)  # N1 + N2 = 5, n1 + n2 = 4
G_VOLUME = (3 + 9) * math.log2(2 + 4)  # N1 + N2 = 12, n1 + n2 = 6
A_FILE_VOLUME = (2 + 6) * math.log2(2 + 5)  # adds '=' and total 0


def mi_of(ahv, acc, aloc):
    return 100 * (171 - 5.2 * math.log(ahv) - 0.23 * acc - 16.2 * math.log(aloc)) / 171


def analyze_two_files(tmp_path, config):
    root = write_tree(tmp_path / "proj", {"a.c": A_C, "b.c": B_C})
    return analyze_project(root, config, ProfileRegistry())


def test_default_unit_means_on_two_files(tmp_path, default_config):
    pa = analyze_two_files(tmp_path, default_config)
    assert pa.metrics.ahv == pytest.approx((F_VOLUME + G_VOLUME) / 2)
    assert (pa.metrics.acc, pa.metrics.aloc) == (2.0, 4.5)
    assert pa.mi.mi == pytest.approx(mi_of((F_VOLUME + G_VOLUME) / 2, 2.0, 4.5))


def test_weighted_unit_means_on_two_files(tmp_path, default_config):
    config = copy.deepcopy(default_config)
    config["metrics"]["weighted_unit_means"] = True
    pa = analyze_two_files(tmp_path, config)
    ahv = (F_VOLUME * 3 + G_VOLUME * 6) / 9
    acc = (1 * 3 + 3 * 6) / 9
    aloc = (3 * 3 + 6 * 6) / 9
    assert (pa.metrics.ahv, pa.metrics.acc, pa.metrics.aloc) == pytest.approx((ahv, acc, aloc))
    assert (pa.mi.ahv, pa.mi.acc, pa.mi.aloc) == pytest.approx((ahv, acc, aloc))
    assert pa.mi.mi == pytest.approx(mi_of(ahv, acc, aloc))


def test_file_scope_mi_on_two_files(tmp_path, default_config):
    config = copy.deepcopy(default_config)
    config["models"]["mi"]["scope"] = "file"
    pa = analyze_two_files(tmp_path, config)
    ahv = (A_FILE_VOLUME + G_VOLUME) / 2
    acc = (1 + 3) / 2
    aloc = (4 + 6) / 2
    assert (pa.mi.ahv, pa.mi.acc, pa.mi.aloc) == pytest.approx((ahv, acc, aloc))
    assert pa.mi.mi == pytest.approx(mi_of(ahv, acc, aloc))
    # the project's unit means are untouched by the MI scope
    assert (pa.metrics.acc, pa.metrics.aloc) == (2.0, 4.5)

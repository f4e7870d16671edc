"""The containment index and the unit scanners against unit_oracle.py.

``units.contained_units`` plus its two filters must give the same inner sets,
nesting depths, own tokens and own lines as the old all-units scans: on
random range families, on generated sources for every detection mode, and
on hand-written nesting cases. The scanners, which match brackets and end
keywords from one-pass tables, must find the same raw units and diagnostics
as the old forward scans, also when closers are missing.
"""

import random

import unit_oracle
from token_rows import Row, rows, stream
from unit_oracle import (
    oracle_extract_inner,
    oracle_extract_units,
    oracle_nesting_depth,
    oracle_own_lines,
    oracle_own_tokens,
    oracle_unit_inner,
    oracle_unit_metrics,
)
from xmaint import metrics, units as units_mod
from xmaint.lexing import (
    COMMENT,
    IDENTIFIER,
    KEYWORD,
    PUNCTUATION,
    classify_lines,
    physical_line_count,
    tokenize,
)
from xmaint.metrics import file_unit_metrics
from xmaint.profiles import (
    BRACE_BLOCK,
    BUILTIN_PROFILES,
    C_FAMILY,
    COBOL_LIKE,
    INDENT_BLOCK,
    KEYWORD_PAIR,
    PYTHON,
)
from xmaint.units import (
    Unit,
    contained_units,
    extract_units,
    inner_after_start,
    inner_not_identical,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the generated-source tests need Hypothesis
    given = None

# --- random range families ---

_VOCABULARY = (
    (PUNCTUATION, "{"), (PUNCTUATION, "}"), (KEYWORD, "IF"), (KEYWORD, "END-IF"),
    (KEYWORD, "PERFORM"), (KEYWORD, "END-PERFORM"), (IDENTIFIER, "x"), (COMMENT, "/* c */"),
)


def _random_tokens(rng, n):
    tokens, line = [], 1
    for _ in range(n):
        kind, text = rng.choice(_VOCABULARY)
        if kind == COMMENT and rng.random() < 0.3:
            text = "/* a\nb */"  # a multi-line token
        tokens.append(Row(kind, text, line, rng.randint(1, 9), line + text.count("\n")))
        line = tokens[-1].end_line + rng.choice((0, 0, 1, 2))
    return tokens


def _random_ranges(rng, n):
    """Non-empty ranges with equal starts, identical ranges and partial overlaps."""
    ranges = []
    for _ in range(rng.randint(1, 14)):
        roll = rng.random()
        if ranges and roll < 0.2:
            ranges.append(rng.choice(ranges))
        elif ranges and roll < 0.4:
            lo = rng.choice(ranges)[0]
            ranges.append((lo, rng.randint(lo + 1, n)))
        else:
            lo = rng.randrange(n)
            ranges.append((lo, rng.randint(lo + 1, min(n, lo + rng.choice((2, 6, n))))))
    return ranges


def test_index_matches_oracle_on_random_range_families():
    rng = random.Random(20240601)
    for trial in range(600):
        n = rng.randint(1, 40)
        tokens = _random_tokens(rng, n)
        token_stream = stream(tokens)
        positions = list(range(n))
        ranges = _random_ranges(rng, n)
        raw = [{"token_range": r} for r in ranges]
        units = [
            Unit(f"u{i}", tokens[lo].line, tokens[hi - 1].end_line, 0, (lo, hi), 0)
            for i, (lo, hi) in enumerate(ranges)
        ]
        index = contained_units(ranges)
        for i, (unit, contained) in enumerate(zip(units, index)):
            lo, hi = ranges[i]
            assert [ranges[j][0] for j in contained] == sorted(ranges[j][0] for j in contained)
            inner = inner_after_start(ranges, i, contained)
            masked = inner_not_identical(ranges, i, contained)
            oracle_inner = oracle_unit_inner(unit, units)
            context = f"trial {trial}, ranges {ranges}, unit {i}"
            assert sorted(ranges[j] for j in inner) == sorted(oracle_extract_inner(raw, raw[i])), context
            assert sorted(units[j].name for j in inner) == sorted(u.name for u in oracle_inner), context
            assert metrics._own_ids(unit, [ranges[j] for j in masked], positions) == (
                oracle_own_tokens(unit, units, positions)
            ), context
            assert metrics._own_lines(unit, [units[j] for j in inner]) == (
                oracle_own_lines(unit, oracle_inner)
            ), context
            entry = {
                "token_range": (lo, hi),
                "body_range": (lo + 1, hi - 1),
                "header_end_line": tokens[lo].line,
                "continuation": {tokens[lo].line + 2},
            }
            for profile in BUILTIN_PROFILES:
                assert units_mod._nesting_depth(
                    token_stream, profile, entry, [ranges[j] for j in inner],
                    units_mod._nesting_steps(token_stream, profile),
                ) == oracle_nesting_depth(
                    tokens, profile, entry, oracle_extract_inner(raw, raw[i])
                ), f"{context}, {profile.id}"


# --- generated sources, one fragment soup per detection mode ---

_C_FRAGMENTS = (
    "int f(int a) {", "void g() {", "long h(int a, int b) const {", "int p(int a);",
    "{", "}", "}", "if (a && b) {", "x = a + 1;", "while (x) { x--; }", "/* } */",
    "// c", "\n", " ", "\n", "int q(int a, int (*cb)(int, int)) {",
)
_PY_LINES = (
    "def f(a):", "def g(): pass", "def a(): pass; def b(): pass", "async def h(x, y):",
    "if a:", "x = 1", "return x", "# c", "", "y = (1,", "2)", '"""doc', 'end"""',
    "for i in x:", "class C:", "def k(a, b=(1, 2)):",
)
_COBOL_LINES = (
    "PARAGRAPH P-1.", "PARAGRAPH Q-2 (A, B).", "END-PARAGRAPH.", "IF A > 0", "END-IF.",
    "PERFORM X", "END-PERFORM.", "MOVE A TO B.", "*> c", "", "PARAGRAPH R-3 (A, (B, C)).",
)


def _check_against_oracle(src, profile):
    token_stream, _ = tokenize(src, profile)
    tokens = rows(token_stream)
    units, diagnostics = extract_units(token_stream, profile)
    assert (units, diagnostics) == oracle_extract_units(tokens, profile)
    lines = classify_lines(token_stream, physical_line_count(src))
    assert file_unit_metrics(units, token_stream, lines, profile) == [
        oracle_unit_metrics(u, tokens, lines, profile, units) for u in units
    ]
    if profile.unit_detection == INDENT_BLOCK:
        # the block ends before the first token below the unit's last line
        for unit in units:
            lo, hi = unit.token_range
            assert all(tok.line <= unit.end_line for tok in tokens[lo:hi])
            assert hi == len(tokens) or tokens[hi].line > unit.end_line
    return units


if given is not None:
    _c_sources = st.lists(st.sampled_from(_C_FRAGMENTS), max_size=50).map(" ".join)
    _py_sources = st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(_PY_LINES)), max_size=30
    ).map(lambda rows: "\n".join("    " * depth + text for depth, text in rows) + "\n")
    _cobol_sources = st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(_COBOL_LINES)), max_size=30
    ).map(lambda rows: "\n".join("  " * depth + text for depth, text in rows) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(src=_c_sources)
    def test_brace_block_sources_match_oracle(src):
        _check_against_oracle(src, C_FAMILY)

    @settings(max_examples=300, deadline=None)
    @given(src=_py_sources)
    def test_indent_block_sources_match_oracle(src):
        _check_against_oracle(src, PYTHON)

    @settings(max_examples=300, deadline=None)
    @given(src=_cobol_sources)
    def test_keyword_pair_sources_match_oracle(src):
        _check_against_oracle(src, COBOL_LIKE)

    _ORACLE_SCANNERS = {
        BRACE_BLOCK: unit_oracle._extract_brace,
        INDENT_BLOCK: unit_oracle._extract_indent,
        KEYWORD_PAIR: unit_oracle._extract_keyword_pair,
    }

    def _check_with_dropped_closers(src, profile, rng):
        # dropping tokens leaves every other token at its position, as blanks would
        end_kw = {profile.fold(k) for k in profile.unit_end_keywords}
        tokens = [
            tok for tok in rows(tokenize(src, profile)[0])
            if not ((tok.text in (")", "]", "}") or profile.fold(tok.text) in end_kw)
                    and rng.random() < 0.4)
        ]
        token_stream = stream(tokens)
        oracle_raw, oracle_diagnostics = _ORACLE_SCANNERS[profile.unit_detection](tokens, profile)
        for entry in oracle_raw:
            entry.pop("header_col", None)  # the oracle's indent entries keep a field nothing reads
        assert units_mod._scan_units(token_stream, profile) == (oracle_raw, oracle_diagnostics)
        assert extract_units(token_stream, profile) == oracle_extract_units(tokens, profile)

    @settings(max_examples=300, deadline=None)
    @given(src=_c_sources, rng=st.randoms(use_true_random=False))
    def test_brace_scanner_matches_oracle_with_dropped_closers(src, rng):
        _check_with_dropped_closers(src, C_FAMILY, rng)

    @settings(max_examples=300, deadline=None)
    @given(src=_py_sources, rng=st.randoms(use_true_random=False))
    def test_indent_scanner_matches_oracle_with_dropped_closers(src, rng):
        _check_with_dropped_closers(src, PYTHON, rng)

    @settings(max_examples=300, deadline=None)
    @given(src=_cobol_sources, rng=st.randoms(use_true_random=False))
    def test_keyword_pair_scanner_matches_oracle_with_dropped_closers(src, rng):
        _check_with_dropped_closers(src, COBOL_LIKE, rng)


# --- hand cases ---


def test_two_defs_on_one_header_line():
    src = "def a(x): return x; def b(): pass\n    y = 1\nz = 2\n"
    units = _check_against_oracle(src, PYTHON)
    assert [u.name for u in units] == ["a", "b"]
    # both pull in the whole header line: identical ranges, neither inside the other
    assert units[0].token_range == units[1].token_range
    index = contained_units([u.token_range for u in units])
    ranges = [u.token_range for u in units]
    assert inner_after_start(ranges, 0, index[0]) == []
    assert inner_not_identical(ranges, 0, index[0]) == []


def test_defs_nested_three_deep():
    src = (
        "def a():\n"
        "    x = 1\n"
        "    def b():\n"
        "        def c():\n"
        "            def d():\n"
        "                if x:\n"
        "                    return 4\n"
        "            return 3\n"
        "        return 2\n"
        "    return b\n"
    )
    units = _check_against_oracle(src, PYTHON)
    tokens, _ = tokenize(src, PYTHON)
    lines = classify_lines(tokens, physical_line_count(src))
    by_name = {m.unit.name: m for m in file_unit_metrics(units, tokens, lines, PYTHON)}
    assert {name: (m.loc, m.cc, m.unit.nesting_depth_max) for name, m in by_name.items()} == {
        "a": (3, 1, 0), "b": (2, 1, 0), "c": (2, 1, 0), "d": (3, 2, 1),
    }


def test_brace_function_inside_function_body():
    src = (
        "int outer(int a) {\n"
        "    if (a) {\n"
        "        int inner(int b) { if (b) { return 1; } return 0; }\n"
        "    }\n"
        "    return a;\n"
        "}\n"
    )
    units = _check_against_oracle(src, C_FAMILY)
    tokens, _ = tokenize(src, C_FAMILY)
    lines = classify_lines(tokens, physical_line_count(src))
    by_name = {m.unit.name: m for m in file_unit_metrics(units, tokens, lines, C_FAMILY)}
    assert {name: (m.loc, m.cc, m.unit.nesting_depth_max) for name, m in by_name.items()} == {
        "outer": (5, 2, 1), "inner": (1, 2, 1),
    }

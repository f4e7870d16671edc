"""The per-unit all-units scans that defined containment before the index.

Kept verbatim as the reference for ``units.contained_units`` and the
filters derived from it; only names changed, and the two inner-unit
comprehensions moved into functions of their own. Two rules live here:

* ``oracle_extract_inner`` and ``oracle_unit_inner`` (nesting depth, own
  lines): an inner unit starts strictly after the outer unit's start and
  ends at or before its end;
* ``oracle_own_tokens``: a masked unit may share the outer unit's start but
  must not have exactly its range.

Each outer unit scans every unit of the file, so this is quadratic in units
per file; only tests use it.

The unit scanners (``_extract_brace``, ``_extract_indent``,
``_extract_keyword_pair`` and their helpers) are copied verbatim from
``units`` as they were before the one-pass bracket and end-keyword tables:
each open bracket or unit keyword scans forward for its partner, to the end
of the file when there is none.
"""

from __future__ import annotations

from bisect import bisect_right

from xmaint.errors import Diagnostic
from xmaint.lexing import (
    CODE_LINE, COMMENT, IDENTIFIER, KEYWORD, MIXED_LINE, LineClassification, Token,
)
from xmaint.metrics import UnitMetrics, cyclomatic_complexity, halstead
from xmaint.profiles import BRACE_BLOCK, INDENT_BLOCK, KEYWORD_PAIR, LanguageProfile
from xmaint.units import Unit

_OPEN_BRACKETS = {"(": ")", "[": "]", "{": "}"}
_CLOSE_BRACKETS = {v: k for k, v in _OPEN_BRACKETS.items()}


def _next_code(tokens: list[Token], i: int) -> int:
    """Index of the next non-comment token at or after i, or len(tokens)."""
    while i < len(tokens) and tokens[i].kind == COMMENT:
        i += 1
    return i


def _match_paren(tokens: list[Token], open_idx: int) -> tuple[int, int] | None:
    """Given index of '(', return (index of matching ')', top-level comma count)."""
    depth = 0
    commas = 0
    for i in range(open_idx, len(tokens)):
        text = tokens[i].text
        if tokens[i].kind == COMMENT:
            continue
        if text in _OPEN_BRACKETS:
            depth += 1
        elif text in _CLOSE_BRACKETS:
            depth -= 1
            if depth == 0:
                return i, commas
        elif text == "," and depth == 1:
            commas += 1
    return None


def _param_count(tokens: list[Token], open_idx: int, close_idx: int, commas: int) -> int:
    has_content = _next_code(tokens, open_idx + 1) < close_idx
    return commas + 1 if has_content else 0


def _extract_brace(tokens, profile, file):
    unit_kw = {profile.fold(k) for k in profile.unit_keywords}
    raw = []
    diagnostics = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind != KEYWORD or profile.fold(tok.text) not in unit_kw:
            i += 1
            continue
        name_idx = _next_code(tokens, i + 1)
        if name_idx >= n or tokens[name_idx].kind != IDENTIFIER:
            i += 1
            continue
        paren_idx = _next_code(tokens, name_idx + 1)
        if paren_idx >= n or tokens[paren_idx].text != "(":
            i += 1
            continue
        matched = _match_paren(tokens, paren_idx)
        if matched is None:
            diagnostics.append(Diagnostic(
                code="unbalanced-delimiters",
                message=f"unclosed parameter list for '{tokens[name_idx].text}'",
                file=file, line=tokens[paren_idx].line))
            i = paren_idx + 1
            continue
        close_paren, commas = matched
        # Skip trailing signature tokens (const, throws X, ...) up to body or ';'.
        j = _next_code(tokens, close_paren + 1)
        while j < n and tokens[j].text not in ("{", ";") and tokens[j].kind in (IDENTIFIER, KEYWORD, COMMENT):
            j = _next_code(tokens, j + 1)
        if j >= n or tokens[j].text != "{":
            i = close_paren + 1  # declaration or mismatch, keep scanning
            continue
        body = _match_brace(tokens, j)
        if body is None:
            diagnostics.append(Diagnostic(
                code="unbalanced-delimiters",
                message=f"unclosed body for '{tokens[name_idx].text}'",
                file=file, line=tokens[j].line))
            i = j + 1
            continue
        raw.append({
            "name": tokens[name_idx].text,
            "start_line": tok.line,
            "end_line": tokens[body].end_line,
            "param_count": _param_count(tokens, paren_idx, close_paren, commas),
            "token_range": (i, body + 1),
            "body_range": (j + 1, body),
        })
        i = j + 1  # scan inside the body for nested units
    return raw, diagnostics


def _match_brace(tokens, open_idx):
    depth = 0
    for i in range(open_idx, len(tokens)):
        if tokens[i].kind == COMMENT:
            continue
        if tokens[i].text == "{":
            depth += 1
        elif tokens[i].text == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def _line_table(tokens):
    """Per-line lexical facts used by indent-block extraction.

    Returns (first_col, first_code_col, code_lines, continuation) where
    continuation marks lines starting inside brackets or inside a
    multi-line token.
    """
    max_line = 0
    for tok in tokens:
        max_line = max(max_line, tok.end_line)
    first_col = {}
    first_code_col = {}
    code_lines = set()
    continuation = set()
    depth = 0
    for tok in tokens:
        if tok.line not in first_col:
            first_col[tok.line] = tok.column
            if depth > 0:
                continuation.add(tok.line)
        if tok.kind != COMMENT:
            if tok.line not in first_code_col:
                first_code_col[tok.line] = tok.column
            for line in range(tok.line, tok.end_line + 1):
                code_lines.add(line)
            for line in range(tok.line + 1, tok.end_line + 1):
                continuation.add(line)
        if tok.text in _OPEN_BRACKETS:
            depth += 1
        elif tok.text in _CLOSE_BRACKETS:
            depth = max(0, depth - 1)
    return first_col, first_code_col, code_lines, continuation, max_line


def _extract_indent(tokens, profile, file):
    unit_kw = {profile.fold(k) for k in profile.unit_keywords}
    first_col, first_code_col, code_lines, continuation, max_line = _line_table(tokens)
    token_lines = [tok.line for tok in tokens]
    raw = []
    diagnostics = []
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != KEYWORD or profile.fold(tok.text) not in unit_kw:
            continue
        header_line = tok.line
        header_col = first_col.get(header_line, tok.column)
        name_idx = _next_code(tokens, i + 1)
        if name_idx >= n or tokens[name_idx].kind != IDENTIFIER:
            continue
        paren_idx = _next_code(tokens, name_idx + 1)
        if paren_idx >= n or tokens[paren_idx].text != "(":
            continue
        matched = _match_paren(tokens, paren_idx)
        if matched is None:
            diagnostics.append(Diagnostic(
                code="unbalanced-delimiters",
                message=f"unclosed parameter list for '{tokens[name_idx].text}'",
                file=file, line=tokens[paren_idx].line))
            continue
        close_paren, commas = matched
        colon_idx = _next_code(tokens, close_paren + 1)
        while colon_idx < n and tokens[colon_idx].text != ":":
            if tokens[colon_idx].text == ";" or tokens[colon_idx].line > tokens[close_paren].end_line + 2:
                colon_idx = n
                break
            colon_idx = _next_code(tokens, colon_idx + 1)
        if colon_idx >= n:
            continue
        header_end_line = tokens[colon_idx].end_line

        end_line = header_end_line  # inline bodies keep the unit on the header line
        line = header_end_line + 1
        while line <= max_line:
            if line in continuation:
                if line in code_lines:
                    end_line = line
                line += 1
                continue
            col = first_code_col.get(line)
            if col is None:
                line += 1  # blank or comment-only line: block may continue below
                continue
            if col > header_col:
                end_line = line
                line += 1
                continue
            break
        # extend over trailing interior lines of a multi-line token
        while end_line + 1 <= max_line and end_line + 1 in continuation and end_line + 1 in code_lines:
            end_line += 1

        start_idx = i
        while start_idx > 0 and tokens[start_idx - 1].line == header_line:
            start_idx -= 1  # pull in 'async' etc. on the header line
        end_idx = bisect_right(token_lines, end_line, i)
        raw.append({
            "name": tokens[name_idx].text,
            "start_line": header_line,
            "end_line": end_line,
            "param_count": _param_count(tokens, paren_idx, close_paren, commas),
            "token_range": (start_idx, end_idx),
            "header_end_line": header_end_line,
            "header_col": header_col,
            "continuation": continuation,
        })
    return raw, diagnostics


def _extract_keyword_pair(tokens, profile, file):
    unit_kw = {profile.fold(k) for k in profile.unit_keywords}
    end_kw = {profile.fold(k) for k in profile.unit_end_keywords}
    raw = []
    diagnostics = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind != KEYWORD or profile.fold(tok.text) not in unit_kw:
            i += 1
            continue
        name_idx = _next_code(tokens, i + 1)
        if name_idx >= n or tokens[name_idx].kind != IDENTIFIER:
            i += 1
            continue
        param_count = 0
        after = _next_code(tokens, name_idx + 1)
        if after < n and tokens[after].text == "(":
            matched = _match_paren(tokens, after)
            if matched is not None:
                close_paren, commas = matched
                param_count = _param_count(tokens, after, close_paren, commas)
        close_idx = None
        for j in range(name_idx + 1, n):
            if tokens[j].kind == KEYWORD and profile.fold(tokens[j].text) in end_kw:
                close_idx = j
                break
        if close_idx is None:
            diagnostics.append(Diagnostic(
                code="unbalanced-delimiters",
                message=f"missing end keyword for '{tokens[name_idx].text}'",
                file=file, line=tok.line))
            i += 1
            continue
        raw.append({
            "name": tokens[name_idx].text,
            "start_line": tok.line,
            "end_line": tokens[close_idx].end_line,
            "param_count": param_count,
            "token_range": (i, close_idx + 1),
            "body_range": (name_idx + 1, close_idx),
        })
        i = close_idx + 1
    return raw, diagnostics


def oracle_extract_inner(raw, entry):
    return [
        other["token_range"]
        for other in raw
        if other is not entry
        and entry["token_range"][0] < other["token_range"][0]
        and other["token_range"][1] <= entry["token_range"][1]
    ]


def oracle_unit_inner(unit, all_units):
    return [
        other
        for other in all_units
        if other is not unit
        and unit.token_range[0] < other.token_range[0]
        and other.token_range[1] <= unit.token_range[1]
    ]


def oracle_extract_units(
    tokens: list[Token], profile: LanguageProfile, file: str | None = None
) -> tuple[list[Unit], list[Diagnostic]]:
    """Find all units in one file's token stream; recovery never aborts."""
    if profile.unit_detection == BRACE_BLOCK:
        raw, diagnostics = _extract_brace(tokens, profile, file)
    elif profile.unit_detection == INDENT_BLOCK:
        raw, diagnostics = _extract_indent(tokens, profile, file)
    else:
        raw, diagnostics = _extract_keyword_pair(tokens, profile, file)

    units = []
    for entry in raw:
        inner_ranges = oracle_extract_inner(raw, entry)
        depth = oracle_nesting_depth(tokens, profile, entry, inner_ranges)
        units.append(
            Unit(
                name=entry["name"],
                file=file,
                start_line=entry["start_line"],
                end_line=entry["end_line"],
                param_count=entry["param_count"],
                token_range=entry["token_range"],
                nesting_depth_max=depth,
                profile_id=profile.id,
            )
        )
    units.sort(key=lambda u: (u.start_line, u.token_range))
    return units, diagnostics


def oracle_nesting_depth(tokens, profile, entry, inner_ranges):
    def excluded(idx):
        return any(lo <= idx < hi for lo, hi in inner_ranges)

    if profile.unit_detection == BRACE_BLOCK:
        lo, hi = entry["body_range"]
        depth = max_depth = 0
        for i in range(lo, hi):
            if excluded(i) or tokens[i].kind == COMMENT:
                continue
            if tokens[i].text == "{":
                depth += 1
                max_depth = max(max_depth, depth)
            elif tokens[i].text == "}":
                depth = max(0, depth - 1)
        return max_depth

    if profile.unit_detection == KEYWORD_PAIR:
        opens = {profile.fold(o) for o, _ in profile.nesting_keywords}
        closes = {profile.fold(c) for _, c in profile.nesting_keywords}
        lo, hi = entry["body_range"]
        depth = max_depth = 0
        for i in range(lo, hi):
            if excluded(i) or tokens[i].kind != KEYWORD:
                continue
            folded = profile.fold(tokens[i].text)
            if folded in opens:
                depth += 1
                max_depth = max(max_depth, depth)
            elif folded in closes:
                depth = max(0, depth - 1)
        return max_depth

    # indent-block: column stack over the body's (non-continuation) code lines
    lo, hi = entry["token_range"]
    header_end = entry["header_end_line"]
    continuation = entry["continuation"]
    inner_lines = set()
    for ilo, ihi in inner_ranges:
        for line in range(tokens[ilo].line + 1, tokens[ihi - 1].end_line + 1):
            inner_lines.add(line)
    cols = []
    seen = set()
    for i in range(lo, hi):
        tok = tokens[i]
        if (tok.kind == COMMENT or tok.line <= header_end or tok.line in seen
                or tok.line in inner_lines or tok.line in continuation):
            continue
        if excluded(i):
            continue
        seen.add(tok.line)
        cols.append(tok.column)
    stack: list[int] = []
    max_depth = 0
    for col in cols:
        if not stack:
            stack.append(col)
        elif col > stack[-1]:
            stack.append(col)
        else:
            while len(stack) > 1 and stack[-1] > col:
                stack.pop()
        max_depth = max(max_depth, len(stack) - 1)
    return max_depth


def oracle_own_lines(unit: Unit, inner_units: list[Unit]) -> set[int]:
    lines = set(range(unit.start_line, unit.end_line + 1))
    for inner in inner_units:
        lines -= set(range(inner.start_line, inner.end_line + 1))
    lines.add(unit.start_line)  # the header always belongs to the unit itself
    return lines


def oracle_own_tokens(unit: Unit, all_units: list[Unit], file_tokens: list[Token]) -> list[Token]:
    lo, hi = unit.token_range
    masked = [False] * (hi - lo)
    for other in all_units:
        olo, ohi = other.token_range
        if other is unit or olo < lo or ohi > hi or (olo, ohi) == (lo, hi):
            continue
        for i in range(max(olo, lo), min(ohi, hi)):
            masked[i - lo] = True
    return [file_tokens[i] for i in range(lo, hi) if not masked[i - lo]]


def oracle_unit_metrics(
    unit: Unit,
    file_tokens: list[Token],
    file_lines: LineClassification,
    profile: LanguageProfile,
    all_units: list[Unit] | None = None,
) -> UnitMetrics:
    """Per-unit metrics with nested units' tokens and lines excluded."""
    all_units = all_units or [unit]
    inner = oracle_unit_inner(unit, all_units)
    own_tokens = oracle_own_tokens(unit, all_units, file_tokens)
    own_lines = oracle_own_lines(unit, inner)
    loc = sum(
        1
        for line in own_lines
        if 1 <= line <= file_lines.physical_lines
        and file_lines.classes[line - 1] in (CODE_LINE, MIXED_LINE)
    )
    return UnitMetrics(
        unit=unit,
        loc=max(loc, 1),
        cc=cyclomatic_complexity(own_tokens, profile),
        halstead=halstead(own_tokens, profile),
    )

"""Unit (function / paragraph) extraction from token streams.

Three detection modes driven by profile data:

* brace-block:  a unit keyword, a name, a parenthesized parameter list,
                then a balanced ``{ ... }`` body (C / Java / C# shape);
* indent-block: a unit keyword header ending in ``:``, body = maximal
                following block of deeper indentation (Python shape);
* keyword-pair: a unit keyword and name, body closed by a configured
                end keyword (COBOL-like paragraph shape).

Nested units are extracted as their own units; metric code later excludes
an inner unit's tokens and lines from its enclosing unit so nothing is
counted twice. ``contained_units`` is the one definition of which units lie
inside which: nesting depth and the metric layer filter its entries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import Diagnostic
from .lexing import COMMENT, IDENTIFIER, KEYWORD, Token
from .profiles import BRACE_BLOCK, INDENT_BLOCK, KEYWORD_PAIR, LanguageProfile, folded_tokens

_OPEN_BRACKETS = {"(": ")", "[": "]", "{": "}"}
_CLOSE_BRACKETS = {v: k for k, v in _OPEN_BRACKETS.items()}
_BRACKETS_AND_COMMA = {*_OPEN_BRACKETS, *_CLOSE_BRACKETS, ","}


@dataclass(frozen=True)
class Unit:
    name: str
    file: str | None
    start_line: int
    end_line: int
    param_count: int
    token_range: tuple[int, int]  # [start, end) into the file token sequence
    nesting_depth_max: int
    profile_id: str


def contained_units(ranges: list[tuple[int, int]]) -> list[list[int]]:
    """Containment index over one file's non-empty ``[lo, hi)`` unit token ranges.

    Entry i lists, in start order, every j != i with lo_i <= lo_j and
    hi_j <= hi_i. Starts are sorted once; each unit bisects to the units
    starting inside it and keeps those that also end inside it, so the cost
    is O(n log n) plus, per unit, the units that start inside it: linear in
    units for bounded nesting.
    """
    order = sorted(range(len(ranges)), key=lambda k: ranges[k][0])
    starts = [ranges[k][0] for k in order]
    index = []
    for i, (lo, hi) in enumerate(ranges):
        first = bisect_left(starts, lo)
        last = bisect_left(starts, hi, first)
        index.append([k for k in order[first:last] if k != i and ranges[k][1] <= hi])
    return index


def inner_after_start(ranges: list[tuple[int, int]], i: int, contained: list[int]) -> list[int]:
    """Inner units for nesting depth and own lines: those starting after unit i."""
    lo = ranges[i][0]
    return [j for j in contained if ranges[j][0] > lo]


def inner_not_identical(ranges: list[tuple[int, int]], i: int, contained: list[int]) -> list[int]:
    """Inner units for own tokens: any contained range other than unit i's own."""
    own = ranges[i]
    return [j for j in contained if ranges[j] != own]


def uncovered_spans(lo: int, hi: int, covered: list[tuple[int, int]]):
    """The parts of ``[lo, hi)`` outside every range of ``covered`` (sorted by start)."""
    pos = lo
    for clo, chi in covered:
        if clo >= hi:
            break
        if clo > pos:
            yield pos, clo
        pos = max(pos, chi)
    if pos < hi:
        yield pos, hi


def _next_code(tokens: list[Token], i: int) -> int:
    """Index of the next non-comment token at or after i, or len(tokens)."""
    while i < len(tokens) and tokens[i].kind == COMMENT:
        i += 1
    return i


def _bracket_partners(tokens: list[Token]) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
    """Match one file's brackets in one pass over its non-comment tokens.

    Returns ``(params, bodies)``. ``params`` maps each matched opening bracket
    to (its closer, its top-level comma count); any closer closes the
    innermost open bracket, whatever its kind (parameter lists). ``bodies``
    maps each matched ``{`` to its ``}``, counting braces only (unit bodies).
    An opener without a partner is absent, so an unclosed unit costs a lookup,
    not a scan to the end of the file.
    """
    params: dict[int, tuple[int, int]] = {}
    bodies: dict[int, int] = {}
    open_brackets: list[list[int]] = []  # [index, top-level commas so far]
    open_braces: list[int] = []
    for i, tok in enumerate(tokens):
        text = tok.text
        if text not in _BRACKETS_AND_COMMA or tok.kind == COMMENT:
            continue
        if text in _OPEN_BRACKETS:
            open_brackets.append([i, 0])
            if text == "{":
                open_braces.append(i)
        elif text in _CLOSE_BRACKETS:
            if open_brackets:
                opener, commas = open_brackets.pop()
                params[opener] = (i, commas)
            if text == "}" and open_braces:
                bodies[open_braces.pop()] = i
        elif open_brackets:  # a comma
            open_brackets[-1][1] += 1
    return params, bodies


def _param_count(tokens: list[Token], open_idx: int, close_idx: int, commas: int) -> int:
    has_content = _next_code(tokens, open_idx + 1) < close_idx
    return commas + 1 if has_content else 0


def extract_units(
    tokens: list[Token], profile: LanguageProfile, file: str | None = None
) -> tuple[list[Unit], list[Diagnostic]]:
    """Find all units in one file's token stream; recovery never aborts."""
    if profile.unit_detection == BRACE_BLOCK:
        raw, diagnostics = _extract_brace(tokens, profile, file)
    elif profile.unit_detection == INDENT_BLOCK:
        raw, diagnostics = _extract_indent(tokens, profile, file)
    else:
        raw, diagnostics = _extract_keyword_pair(tokens, profile, file)

    ranges = [entry["token_range"] for entry in raw]
    units = []
    for i, (entry, contained) in enumerate(zip(raw, contained_units(ranges))):
        inner_ranges = [ranges[j] for j in inner_after_start(ranges, i, contained)]
        depth = _nesting_depth(tokens, profile, entry, inner_ranges)
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


def _extract_brace(tokens, profile, file):
    unit_kw = {profile.fold(k) for k in profile.unit_keywords}
    params, bodies = _bracket_partners(tokens)
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
        matched = params.get(paren_idx)
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
        body = bodies.get(j)
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


def _line_table(tokens):
    """Per-line lexical facts used by indent-block extraction.

    Returns (first_col, first_code_col, code_lines, continuation) where
    continuation marks lines starting inside brackets or inside a
    multi-line token.
    """
    max_line = max((tok.end_line for tok in tokens), default=0)
    first_col = {}
    first_code_col = {}
    code_lines = set()
    continuation = set()
    depth = 0
    for tok in tokens:
        line, end_line = tok.line, tok.end_line
        if line not in first_col:
            first_col[line] = tok.column
            if depth > 0:
                continuation.add(line)
        if tok.kind != COMMENT:
            if line not in first_code_col:
                first_code_col[line] = tok.column
            code_lines.add(line)
            if end_line != line:
                code_lines.update(range(line + 1, end_line + 1))
                continuation.update(range(line + 1, end_line + 1))
        if tok.text in _OPEN_BRACKETS:
            depth += 1
        elif tok.text in _CLOSE_BRACKETS:
            depth = max(0, depth - 1)
    return first_col, first_code_col, code_lines, continuation, max_line


def _extract_indent(tokens, profile, file):
    unit_kw = {profile.fold(k) for k in profile.unit_keywords}
    first_col, first_code_col, code_lines, continuation, max_line = _line_table(tokens)
    params, _ = _bracket_partners(tokens)
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
        matched = params.get(paren_idx)
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
    params, _ = _bracket_partners(tokens)
    ends = [j for j, tok in enumerate(tokens) if tok.kind == KEYWORD and profile.fold(tok.text) in end_kw]
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
            matched = params.get(after)
            if matched is not None:
                close_paren, commas = matched
                param_count = _param_count(tokens, after, close_paren, commas)
        k = bisect_left(ends, name_idx + 1)
        if k == len(ends):
            diagnostics.append(Diagnostic(
                code="unbalanced-delimiters",
                message=f"missing end keyword for '{tokens[name_idx].text}'",
                file=file, line=tok.line))
            i += 1
            continue
        close_idx = ends[k]
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


def _nesting_depth(tokens, profile, entry, inner_ranges):
    """Deepest block nesting of the unit's own tokens; ``inner_ranges`` are the
    nested units' token ranges in start order, skipped as whole spans."""
    if profile.unit_detection == BRACE_BLOCK:
        lo, hi = entry["body_range"]
        depth = max_depth = 0
        for a, b in uncovered_spans(lo, hi, inner_ranges):
            for tok in tokens[a:b]:
                if tok.kind == COMMENT:
                    continue
                if tok.text == "{":
                    depth += 1
                    max_depth = max(max_depth, depth)
                elif tok.text == "}":
                    depth = max(0, depth - 1)
        return max_depth

    if profile.unit_detection == KEYWORD_PAIR:
        folded = folded_tokens(profile)
        lo, hi = entry["body_range"]
        depth = max_depth = 0
        for a, b in uncovered_spans(lo, hi, inner_ranges):
            for tok in tokens[a:b]:
                if tok.kind != KEYWORD:
                    continue
                text = profile.fold(tok.text)
                if text in folded.nesting_opens:
                    depth += 1
                    max_depth = max(max_depth, depth)
                elif text in folded.nesting_closes:
                    depth = max(0, depth - 1)
        return max_depth

    # indent-block: column stack over the body's (non-continuation) code lines
    lo, hi = entry["token_range"]
    header_end = entry["header_end_line"]
    continuation = entry["continuation"]
    inner_lines = set()
    reach = -1
    for ilo, ihi in inner_ranges:
        if ihi <= reach:
            continue  # inside an earlier inner range, so are its lines
        reach = ihi
        inner_lines.update(range(tokens[ilo].line + 1, tokens[ihi - 1].end_line + 1))
    cols = []
    seen = set()
    for a, b in uncovered_spans(lo, hi, inner_ranges):
        for tok in tokens[a:b]:
            if (tok.kind == COMMENT or tok.line <= header_end or tok.line in seen
                    or tok.line in inner_lines or tok.line in continuation):
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

"""Unit (function / paragraph) extraction from token streams.

One scanner reads every unit header the same way: a unit keyword, a name
and an optional parenthesized parameter list. The profile's detection mode
only chooses the body rule that ends the unit:

* brace-block:  the parameter list, then a balanced ``{ ... }`` body
                (C / Java / C# shape);
* indent-block: the parameter list, then a header ending in ``:``, body =
                maximal following block of deeper indentation (Python shape);
* keyword-pair: a body closed by a configured end keyword (COBOL-like
                paragraph shape).

The scanner reads a file's ``TokenStream`` columns. Unit keywords, names
and comments are tested as sets of local ids built once per file, and
brackets are matched in one pass over the positions of bracket and comma
ids only. ``token_range`` is a ``[start, end)`` range of token positions.

Nested units are extracted as their own units; metric code later excludes
an inner unit's tokens and lines from its enclosing unit so nothing is
counted twice. ``contained_units`` is the one definition of which units lie
inside which: nesting depth and the metric layer filter its entries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count
from typing import NamedTuple

from .errors import Diagnostic
from .lexing import COMMENT, IDENTIFIER, KEYWORD, TokenStream
from .profiles import BRACE_BLOCK, INDENT_BLOCK, KEYWORD_PAIR, LanguageProfile

_OPEN_BRACKETS = {"(": ")", "[": "]", "{": "}"}
_CLOSE_BRACKETS = {v: k for k, v in _OPEN_BRACKETS.items()}
_BRACKETS_AND_COMMA = {*_OPEN_BRACKETS, *_CLOSE_BRACKETS, ","}
_BRACKET_STEPS = {**dict.fromkeys(_OPEN_BRACKETS, 1), **dict.fromkeys(_CLOSE_BRACKETS, -1)}


class Unit(NamedTuple):
    name: str
    start_line: int
    end_line: int
    param_count: int
    token_range: tuple[int, int]  # [start, end) into the file token sequence
    nesting_depth_max: int


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


def _kind_ids(keys: list[tuple[str, str]], kind: str) -> set[int]:
    """The local ids of one token kind."""
    return {lid for lid, (k, _) in enumerate(keys) if k == kind}


def _keyword_ids(keys: list[tuple[str, str]], profile: LanguageProfile, words) -> set[int]:
    """The local ids of the keywords among ``words``, compared under the profile's folding."""
    folded = {profile.fold(w) for w in words}
    return {lid for lid, (k, text) in enumerate(keys) if k == KEYWORD and profile.fold(text) in folded}


def _positions(ids, wanted) -> list[int]:
    """The token indices whose local id lies in ``wanted``, in order."""
    return list(compress(count(), map(wanted.__contains__, ids)))


def _next_code(ids, comments: set[int], i: int) -> int:
    """Index of the next non-comment token at or after i, or len(ids)."""
    n = len(ids)
    while i < n and ids[i] in comments:
        i += 1
    return i


def _bracket_partners(tokens: TokenStream) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
    """Match one file's brackets in one pass over its non-comment brackets and commas.

    Returns ``(params, bodies)``. ``params`` maps each matched opening bracket
    to (its closer, its top-level comma count); any closer closes the
    innermost open bracket, whatever its kind (parameter lists). ``bodies``
    maps each matched ``{`` to its ``}``, counting braces only (unit bodies).
    An opener without a partner is absent, so an unclosed unit costs a lookup,
    not a scan to the end of the file.
    """
    text_of = {
        lid: text for lid, (kind, text) in enumerate(tokens.keys)
        if text in _BRACKETS_AND_COMMA and kind != COMMENT
    }
    ids = tokens.ids
    params: dict[int, tuple[int, int]] = {}
    bodies: dict[int, int] = {}
    open_brackets: list[list[int]] = []  # [index, top-level commas so far]
    open_braces: list[int] = []
    for i in _positions(ids, text_of):
        text = text_of[ids[i]]
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


def _param_count(ids, comments: set[int], open_idx: int, close_idx: int, commas: int) -> int:
    has_content = _next_code(ids, comments, open_idx + 1) < close_idx
    return commas + 1 if has_content else 0


def extract_units(tokens: TokenStream, profile: LanguageProfile) -> tuple[list[Unit], list[Diagnostic]]:
    """Find all units in one file's token stream; recovery never aborts.
    The diagnostics carry a line and no file."""
    raw, diagnostics = _scan_units(tokens, profile)
    ranges = [entry["token_range"] for entry in raw]
    nesting = _nesting_steps(tokens, profile) if raw else None
    units = []
    for i, (entry, contained) in enumerate(zip(raw, contained_units(ranges))):
        inner_ranges = [ranges[j] for j in inner_after_start(ranges, i, contained)]
        depth = _nesting_depth(tokens, profile, entry, inner_ranges, nesting)
        units.append(
            Unit(
                name=entry["name"],
                start_line=entry["start_line"],
                end_line=entry["end_line"],
                param_count=entry["param_count"],
                token_range=entry["token_range"],
                nesting_depth_max=depth,
            )
        )
    units.sort(key=lambda u: (u.start_line, u.token_range))
    return units, diagnostics


def _scan_units(tokens, profile):
    """Raw unit entries and diagnostics: one header walk, one body rule per mode.

    Every mode reads a header as unit keyword, name and optional ``(...)``
    parameter list. Brace and indent units need that list; a keyword-pair
    unit counts an absent or unclosed one as zero parameters. The body rule
    then finds where the unit ends. A unit keyword before ``resume`` lies in
    a header already read or inside an extracted keyword-pair unit.
    """
    ids, keys, lines, end_lines = tokens.ids, tokens.keys, tokens.lines, tokens.end_lines
    mode = profile.unit_detection
    comments = _kind_ids(keys, COMMENT)
    identifiers = _kind_ids(keys, IDENTIFIER)
    params, bodies = _bracket_partners(tokens)
    if mode == INDENT_BLOCK:
        first_code_col, code_lines, continuation, max_line = _line_table(tokens)
    elif mode == KEYWORD_PAIR:
        ends = _positions(ids, _keyword_ids(keys, profile, profile.unit_end_keywords))
    raw = []
    diagnostics = []
    n = len(ids)
    resume = 0
    for i in _positions(ids, _keyword_ids(keys, profile, profile.unit_keywords)):
        if i < resume:
            continue
        name_idx = _next_code(ids, comments, i + 1)
        if name_idx >= n or ids[name_idx] not in identifiers:
            continue
        name = keys[ids[name_idx]][1]
        paren_idx = _next_code(ids, comments, name_idx + 1)
        has_paren = paren_idx < n and keys[ids[paren_idx]][1] == "("
        matched = params.get(paren_idx) if has_paren else None
        if matched is not None:
            close_paren, commas = matched
            param_count = _param_count(ids, comments, paren_idx, close_paren, commas)
        elif mode == KEYWORD_PAIR:
            param_count = 0
        else:
            if has_paren:
                diagnostics.append(Diagnostic(
                    code="unbalanced-delimiters",
                    message=f"unclosed parameter list for '{name}'",
                    line=lines[paren_idx]))
                resume = paren_idx + 1
            continue

        if mode == BRACE_BLOCK:
            # Skip trailing signature tokens (const, throws X, ...) up to body or ';'.
            j = _next_code(ids, comments, close_paren + 1)
            while j < n and keys[ids[j]][1] not in ("{", ";") and keys[ids[j]][0] in (IDENTIFIER, KEYWORD, COMMENT):
                j = _next_code(ids, comments, j + 1)
            if j >= n or keys[ids[j]][1] != "{":
                resume = close_paren + 1  # declaration or mismatch, keep scanning
                continue
            body = bodies.get(j)
            resume = j + 1  # scan inside the body for nested units
            if body is None:
                diagnostics.append(Diagnostic(
                    code="unbalanced-delimiters",
                    message=f"unclosed body for '{name}'",
                    line=lines[j]))
                continue
            entry = {
                "end_line": end_lines[body],
                "token_range": (i, body + 1),
                "body_range": (j + 1, body),
            }
        elif mode == INDENT_BLOCK:
            colon_idx = _next_code(ids, comments, close_paren + 1)
            while colon_idx < n and keys[ids[colon_idx]][1] != ":":
                if keys[ids[colon_idx]][1] == ";" or lines[colon_idx] > end_lines[close_paren] + 2:
                    colon_idx = n
                    break
                colon_idx = _next_code(ids, comments, colon_idx + 1)
            if colon_idx >= n:
                continue
            header_line = lines[i]
            start_idx = i
            while start_idx > 0 and lines[start_idx - 1] == header_line:
                start_idx -= 1  # pull in 'async' etc. on the header line
            header_col = tokens.columns[start_idx]
            header_end_line = end_lines[colon_idx]

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

            entry = {
                "end_line": end_line,
                "token_range": (start_idx, bisect_right(lines, end_line, i)),
                "header_end_line": header_end_line,
                "continuation": continuation,
            }
        else:
            k = bisect_left(ends, name_idx + 1)
            if k == len(ends):
                diagnostics.append(Diagnostic(
                    code="unbalanced-delimiters",
                    message=f"missing end keyword for '{name}'",
                    line=lines[i]))
                continue
            close_idx = ends[k]
            resume = close_idx + 1
            entry = {
                "end_line": end_lines[close_idx],
                "token_range": (i, close_idx + 1),
                "body_range": (name_idx + 1, close_idx),
            }
        raw.append({"name": name, "start_line": lines[i], "param_count": param_count, **entry})
    return raw, diagnostics


def _line_table(tokens):
    """Per-line lexical facts used by indent-block extraction.

    Returns (first_code_col, code_lines, continuation, max_line):
    the column of each line's first code token, the lines that hold code,
    the lines that start inside brackets or inside a multi-line token, and
    the last line a token ends on. Token lines never decrease, so a token
    starts a line exactly when its line differs from the token before it.
    """
    # per local id: None for a one-line code token that is no bracket (most
    # tokens), else (is comment, line breaks in the text, bracket depth step)
    special = [
        None if kind != COMMENT and "\n" not in text and text not in _BRACKET_STEPS
        else (kind == COMMENT, text.count("\n"), _BRACKET_STEPS.get(text, 0))
        for kind, text in tokens.keys
    ]
    first_code_col = {}
    code_lines = set()
    continuation = set()
    depth = 0
    last_line = last_code_line = 0
    for lid, line, column in zip(tokens.ids, tokens.lines, tokens.columns):
        if line != last_line:
            last_line = line
            if depth > 0:
                continuation.add(line)
        facts = special[lid]
        if facts is None or not facts[0]:
            if line != last_code_line:
                last_code_line = line
                first_code_col[line] = column
                code_lines.add(line)
            if facts is None:
                continue
            if facts[1]:
                code_lines.update(range(line + 1, line + facts[1] + 1))
                continuation.update(range(line + 1, line + facts[1] + 1))
        if facts[2]:
            depth = max(0, depth + facts[2])
    max_line = tokens.end_lines[-1] if len(tokens) else 0  # end lines never decrease either
    return first_code_col, code_lines, continuation, max_line


def _nesting_steps(tokens, profile):
    """What nesting depth reads per local id: for brace and keyword-pair
    units, +1 or -1 for each id that opens or closes a block; for
    indent-block units, the comment ids."""
    keys = tokens.keys
    if profile.unit_detection == BRACE_BLOCK:
        steps = {"{": 1, "}": -1}
        return {lid: steps[text] for lid, (kind, text) in enumerate(keys)
                if text in steps and kind != COMMENT}
    if profile.unit_detection == KEYWORD_PAIR:  # a keyword that opens and closes opens
        closes = _keyword_ids(keys, profile, [close for _, close in profile.nesting_keywords])
        opens = _keyword_ids(keys, profile, [open_ for open_, _ in profile.nesting_keywords])
        return {**dict.fromkeys(closes, -1), **dict.fromkeys(opens, 1)}
    return _kind_ids(keys, COMMENT)


def _nesting_depth(tokens, profile, entry, inner_ranges, nesting):
    """Deepest block nesting of the unit's own tokens; ``inner_ranges`` are the
    nested units' token ranges in start order, skipped as whole spans, and
    ``nesting`` is the file's ``_nesting_steps``."""
    ids = tokens.ids
    if profile.unit_detection != INDENT_BLOCK:
        lo, hi = entry["body_range"]
        depth = max_depth = 0
        for a, b in uncovered_spans(lo, hi, inner_ranges):
            for lid in ids[a:b]:
                step = nesting.get(lid)
                if step == 1:
                    depth += 1
                    max_depth = max(max_depth, depth)
                elif step == -1:
                    depth = max(0, depth - 1)
        return max_depth

    # indent-block: column stack over the body's (non-continuation) code lines
    lines, end_lines, columns = tokens.lines, tokens.end_lines, tokens.columns
    lo, hi = entry["token_range"]
    header_end = entry["header_end_line"]
    continuation = entry["continuation"]
    inner_lines = set()
    reach = -1
    for ilo, ihi in inner_ranges:
        if ihi <= reach:
            continue  # inside an earlier inner range, so are its lines
        reach = ihi
        inner_lines.update(range(lines[ilo] + 1, end_lines[ihi - 1] + 1))
    cols = []
    seen = set()
    for a, b in uncovered_spans(lo, hi, inner_ranges):
        # token lines never decrease, so each line's tokens form one run
        i = a
        while i < b:
            line = lines[i]
            run_end = bisect_right(lines, line, i, b)
            if not (line in seen or line <= header_end or line in inner_lines or line in continuation):
                while i < run_end and ids[i] in nesting:
                    i += 1  # a comment
                if i < run_end:
                    seen.add(line)
                    cols.append(columns[i])
            i = run_end
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

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
"""

from __future__ import annotations

from xmaint.errors import Diagnostic
from xmaint.lexing import CODE_LINE, COMMENT, KEYWORD, MIXED_LINE, LineClassification, Token
from xmaint.metrics import UnitMetrics, cyclomatic_complexity, halstead
from xmaint.profiles import BRACE_BLOCK, INDENT_BLOCK, KEYWORD_PAIR, LanguageProfile
from xmaint.units import Unit, _extract_brace, _extract_indent, _extract_keyword_pair


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
        param_count=unit.param_count,
        halstead=halstead(own_tokens, profile),
        nesting_depth_max=unit.nesting_depth_max,
    )

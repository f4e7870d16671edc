"""Language-independent base metrics: complexity, Halstead, LOC, unit sizes.

Everything here consumes the token/line/unit representation, so the same
code computes metrics for every registered language profile.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import EmptyProject
from .lexing import (
    CODE_LINE,
    COMMENT,
    IDENTIFIER,
    KEYWORD,
    MIXED_LINE,
    NUMBER_LITERAL,
    OPERATOR,
    PUNCTUATION,
    STRING_LITERAL,
    LineClassification,
    Token,
)
from .profiles import LanguageProfile, folded_tokens
from .units import Unit, contained_units, inner_after_start, inner_not_identical, uncovered_spans

_OPERAND_KINDS = (IDENTIFIER, NUMBER_LITERAL, STRING_LITERAL)
_OPERATOR_CANDIDATE_KINDS = (OPERATOR, KEYWORD, PUNCTUATION)
_DECISION_KINDS = (KEYWORD, OPERATOR)


@dataclass(frozen=True)
class HalsteadCounts:
    n1: int  # distinct operators
    n2: int  # distinct operands
    N1: int  # total operators
    N2: int  # total operands

    @property
    def vocabulary(self) -> int:
        return self.n1 + self.n2

    @property
    def length(self) -> int:
        return self.N1 + self.N2

    @property
    def volume(self) -> float:
        if self.vocabulary <= 1:
            return 0.0
        return self.length * math.log2(self.vocabulary)


@dataclass(frozen=True)
class UnitMetrics:
    unit: Unit
    loc: int
    cc: int
    halstead: HalsteadCounts


@dataclass(frozen=True)
class ProjectMetrics:
    total_loc: int
    physical_lines: int
    comment_ratio: float
    unit_count: int
    ahv: float | None  # mean Halstead volume per unit; None when no units
    acc: float | None  # mean cyclomatic complexity per unit
    aloc: float | None  # mean code lines per unit
    max_cc: int | None


def cyclomatic_complexity(unit_tokens: list[Token], profile: LanguageProfile) -> int:
    """1 + number of decision tokens (branch/loop/guard keywords, short-circuit ops)."""
    decisions = folded_tokens(profile).decisions
    count = sum(
        1
        for tok in unit_tokens
        if tok.kind in _DECISION_KINDS and profile.fold(tok.text) in decisions
    )
    return 1 + count


def halstead(unit_tokens: list[Token], profile: LanguageProfile) -> HalsteadCounts:
    """Count operators/operands; distinctness is by (kind, text), case-folded
    when the profile is case-insensitive."""
    operators = folded_tokens(profile).operators
    distinct_ops: set[tuple[str, str]] = set()
    distinct_operands: set[tuple[str, str]] = set()
    total_ops = 0
    total_operands = 0
    for tok in unit_tokens:
        if tok.kind == COMMENT:
            continue
        folded = profile.fold(tok.text)
        if tok.kind in _OPERAND_KINDS:
            total_operands += 1
            distinct_operands.add((tok.kind, folded))
        elif tok.kind in _OPERATOR_CANDIDATE_KINDS and folded in operators:
            total_ops += 1
            distinct_ops.add((tok.kind, folded))
    return HalsteadCounts(
        n1=len(distinct_ops), n2=len(distinct_operands), N1=total_ops, N2=total_operands
    )


def comment_ratio(lines: LineClassification) -> float:
    """(comment + mixed) / (code + comment + mixed); 0 for an all-blank file."""
    denominator = lines.code + lines.comment + lines.mixed
    if denominator == 0:
        return 0.0
    return (lines.comment + lines.mixed) / denominator


def _own_lines(unit: Unit, inner_units: Sequence[Unit]) -> set[int]:
    lines = set(range(unit.start_line, unit.end_line + 1))
    for inner in inner_units:
        lines.difference_update(range(inner.start_line, inner.end_line + 1))
    lines.add(unit.start_line)  # the header always belongs to the unit itself
    return lines


def _own_tokens(
    unit: Unit, masked_ranges: Sequence[tuple[int, int]], file_tokens: list[Token]
) -> list[Token]:
    lo, hi = unit.token_range
    return [tok for a, b in uncovered_spans(lo, hi, masked_ranges) for tok in file_tokens[a:b]]


def unit_metrics(
    unit: Unit,
    file_tokens: list[Token],
    file_lines: LineClassification,
    profile: LanguageProfile,
    inner_units: Sequence[Unit] = (),
    masked_ranges: Sequence[tuple[int, int]] = (),
) -> UnitMetrics:
    """Per-unit metrics with nested units' tokens and lines excluded.

    ``inner_units`` give up their lines and ``masked_ranges`` (sorted by
    start) their tokens; ``file_unit_metrics`` derives both from the file's
    containment index.
    """
    own_tokens = _own_tokens(unit, masked_ranges, file_tokens)
    own_lines = _own_lines(unit, inner_units)
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


def file_unit_metrics(
    units: list[Unit],
    file_tokens: list[Token],
    file_lines: LineClassification,
    profile: LanguageProfile,
) -> list[UnitMetrics]:
    """``unit_metrics`` for every unit of one file, from one containment index."""
    ranges = [unit.token_range for unit in units]
    return [
        unit_metrics(
            unit, file_tokens, file_lines, profile,
            [units[j] for j in inner_after_start(ranges, i, contained)],
            [ranges[j] for j in inner_not_identical(ranges, i, contained)],
        )
        for i, (unit, contained) in enumerate(zip(units, contained_units(ranges)))
    ]


def aggregate_project(
    file_lines: list[LineClassification],
    all_unit_metrics: list[UnitMetrics],
    weighted: bool = False,
) -> ProjectMetrics:
    """Project totals plus unweighted (default) per-unit means.

    Lines outside any unit still count toward total LOC and the comment
    ratio; they just do not influence the unit averages.
    """
    if not file_lines:
        raise EmptyProject("no files to aggregate")
    total_code = sum(lc.code for lc in file_lines)
    total_comment = sum(lc.comment for lc in file_lines)
    total_mixed = sum(lc.mixed for lc in file_lines)
    total_blank = sum(lc.blank for lc in file_lines)
    physical = sum(lc.physical_lines for lc in file_lines)
    total_loc = total_code + total_mixed
    denominator = total_code + total_comment + total_mixed
    ratio = (total_comment + total_mixed) / denominator if denominator else 0.0
    assert total_code + total_comment + total_mixed + total_blank == physical

    if all_unit_metrics:
        if weighted:
            loc_sum = sum(m.loc for m in all_unit_metrics)
            ahv = sum(m.halstead.volume * m.loc for m in all_unit_metrics) / loc_sum
            acc = sum(m.cc * m.loc for m in all_unit_metrics) / loc_sum
            aloc = sum(m.loc * m.loc for m in all_unit_metrics) / loc_sum
        else:
            count = len(all_unit_metrics)
            ahv = sum(m.halstead.volume for m in all_unit_metrics) / count
            acc = sum(m.cc for m in all_unit_metrics) / count
            aloc = sum(m.loc for m in all_unit_metrics) / count
        max_cc = max(m.cc for m in all_unit_metrics)
    else:
        ahv = acc = aloc = max_cc = None

    return ProjectMetrics(
        total_loc=total_loc,
        physical_lines=physical,
        comment_ratio=ratio,
        unit_count=len(all_unit_metrics),
        ahv=ahv,
        acc=acc,
        aloc=aloc,
        max_cc=max_cc,
    )

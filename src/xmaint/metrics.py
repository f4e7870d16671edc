"""Language-independent base metrics: complexity, Halstead, LOC, unit sizes.

Everything here consumes the token/line/unit representation, so the same
code computes metrics for every registered language profile. McCabe and
Halstead read local ids: ``id_classes`` gives each distinct (kind, text) of
a file its roles once, from ``profiles.folded_tokens``, and a unit is
counted as the multiset of its own ids.
"""

import math
from collections import Counter
from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

from .errors import EmptyProject
from .lexing import (
    CODE_LINE,
    IDENTIFIER,
    KEYWORD,
    MIXED_LINE,
    NUMBER_LITERAL,
    OPERATOR,
    PUNCTUATION,
    STRING_LITERAL,
    LineClassification,
    TokenStream,
)
from .profiles import LanguageProfile, folded_tokens
from .units import Unit, contained_units, inner_after_start, inner_not_identical, uncovered_spans

_OPERAND_KINDS = (IDENTIFIER, NUMBER_LITERAL, STRING_LITERAL)
_OPERATOR_CANDIDATE_KINDS = (OPERATOR, KEYWORD, PUNCTUATION)
_DECISION_KINDS = (KEYWORD, OPERATOR)


class HalsteadCounts(NamedTuple):
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


class UnitMetrics(NamedTuple):
    unit: Unit
    loc: int
    cc: int
    halstead: HalsteadCounts


class ProjectMetrics(NamedTuple):
    total_loc: int
    physical_lines: int
    comment_ratio: float
    unit_count: int
    ahv: float | None  # mean Halstead volume per unit; None when no units
    acc: float | None  # mean cyclomatic complexity per unit
    aloc: float | None  # mean code lines per unit
    max_cc: int | None


# the roles a local id can play, as bit flags
_OPERAND, _OPERATOR, _DECISION = 1, 2, 4


# How McCabe and Halstead count each local id of one file's stream: per local
# id, its roles (_OPERAND, or _OPERATOR and/or _DECISION, or 0) and its
# Halstead identity, (kind, folded text).
IdClasses = tuple[list[int], list[tuple[str, str]]]


def id_classes(tokens: TokenStream, profile: LanguageProfile) -> IdClasses:
    """Classify a stream's distinct (kind, text) keys once. Halstead
    distinctness is by (kind, text), case-folded when the profile is
    case-insensitive, so two local ids may share one Halstead key."""
    folded = folded_tokens(profile)
    roles = []
    for kind, text in tokens.keys:
        role = 0
        if kind in _OPERAND_KINDS:
            role = _OPERAND
        elif kind in _OPERATOR_CANDIDATE_KINDS:
            text = profile.fold(text)
            if text in folded.operators:
                role = _OPERATOR
            if kind in _DECISION_KINDS and text in folded.decisions:
                role |= _DECISION
        roles.append(role)
    # folding is the identity under a case-sensitive profile
    keys = tokens.keys if profile.case_sensitive else [(kind, profile.fold(text)) for kind, text in tokens.keys]
    return roles, keys


def _count(ids, classes: IdClasses) -> tuple[int, HalsteadCounts]:
    """McCabe's count and the Halstead counts of a sequence of local ids,
    read once per distinct id."""
    roles, keys = classes
    cc = 1
    total_ops = total_operands = 0
    distinct_ops: set[tuple[str, str]] = set()
    distinct_operands: set[tuple[str, str]] = set()
    for lid, n in Counter(ids).items():
        role = roles[lid]
        if role:
            if role & _OPERAND:
                total_operands += n
                distinct_operands.add(keys[lid])
            elif role & _OPERATOR:
                total_ops += n
                distinct_ops.add(keys[lid])
            if role & _DECISION:
                cc += n
    return cc, HalsteadCounts(
        n1=len(distinct_ops), n2=len(distinct_operands), N1=total_ops, N2=total_operands
    )


def file_counts(tokens: TokenStream, profile: LanguageProfile) -> tuple[int, HalsteadCounts]:
    """McCabe's count of a whole stream, 1 + its decision tokens
    (branch/loop/guard keywords, short-circuit ops), and its Halstead
    counts, whose distinctness is by (kind, text), case-folded when the
    profile is case-insensitive."""
    return _count(tokens.ids, id_classes(tokens, profile))


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


def _own_ids(unit: Unit, masked_ranges: Sequence[tuple[int, int]], file_ids) -> list[int]:
    lo, hi = unit.token_range
    return list(chain.from_iterable(file_ids[a:b] for a, b in uncovered_spans(lo, hi, masked_ranges)))


def unit_metrics(
    unit: Unit,
    file_tokens: TokenStream,
    file_lines: LineClassification,
    inner_units: Sequence[Unit] = (),
    masked_ranges: Sequence[tuple[int, int]] = (),
    *,
    classes: IdClasses,
) -> UnitMetrics:
    """Per-unit metrics with nested units' tokens and lines excluded.

    ``inner_units`` give up their lines and ``masked_ranges`` (sorted by
    start) their tokens; ``file_unit_metrics`` derives both from the file's
    containment index, and ``classes`` once for all its units.
    """
    cc, counts = _count(_own_ids(unit, masked_ranges, file_tokens.ids), classes)
    own_lines = _own_lines(unit, inner_units)
    loc = sum(
        1
        for line in own_lines
        if 1 <= line <= file_lines.physical_lines
        and file_lines.classes[line - 1] in (CODE_LINE, MIXED_LINE)
    )
    return UnitMetrics(unit=unit, loc=max(loc, 1), cc=cc, halstead=counts)


def file_unit_metrics(
    units: list[Unit],
    file_tokens: TokenStream,
    file_lines: LineClassification,
    profile: LanguageProfile,
) -> list[UnitMetrics]:
    """``unit_metrics`` for every unit of one file, from one containment index."""
    ranges = [unit.token_range for unit in units]
    classes = id_classes(file_tokens, profile)
    return [
        unit_metrics(
            unit, file_tokens, file_lines,
            [units[j] for j in inner_after_start(ranges, i, contained)],
            [ranges[j] for j in inner_not_identical(ranges, i, contained)],
            classes=classes,
        )
        for i, (unit, contained) in enumerate(zip(units, contained_units(ranges)))
    ]


def means(rows: Sequence[tuple[float, int, int]], weights: Sequence[int] | None = None) -> tuple[float, ...]:
    """MI's aHV, aCC and aLOC: the mean of each column of one or more
    (volume, cc, loc) rows, one per module, weighted by ``weights`` if given."""
    if weights is None:
        return tuple(sum(column) / len(rows) for column in zip(*rows))
    total = sum(weights)
    return tuple(sum(value * weight for value, weight in zip(column, weights)) / total for column in zip(*rows))


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
    totals = LineClassification(
        classes=(),
        code=sum(lc.code for lc in file_lines),
        comment=sum(lc.comment for lc in file_lines),
        blank=sum(lc.blank for lc in file_lines),
        mixed=sum(lc.mixed for lc in file_lines),
        physical_lines=sum(lc.physical_lines for lc in file_lines),
    )
    assert totals.code + totals.comment + totals.mixed + totals.blank == totals.physical_lines

    if all_unit_metrics:
        rows = [(m.halstead.volume, m.cc, m.loc) for m in all_unit_metrics]
        ahv, acc, aloc = means(rows, [m.loc for m in all_unit_metrics] if weighted else None)
        max_cc = max(m.cc for m in all_unit_metrics)
    else:
        ahv = acc = aloc = max_cc = None

    return ProjectMetrics(
        total_loc=totals.code + totals.mixed,
        physical_lines=totals.physical_lines,
        comment_ratio=comment_ratio(totals),
        unit_count=len(all_unit_metrics),
        ahv=ahv,
        acc=acc,
        aloc=aloc,
        max_cc=max_cc,
    )

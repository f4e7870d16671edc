"""Weighted composite scoring on a shared 0..100 scale, plus sensitivity analysis.

Indicators are mapped onto 0..100 with simple declared shapes and combined
with explainable weights. The guard that each quality attribute counts
exactly once (either as an indicator or as a debt rule, never both) is
``config.validate_config``, run on every loaded config. Volumetry is
relative to the compared set: the smallest code base scores 100, anything
at or past 1.5x the minimum scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EstimatorMismatch, NoWeightLeft, RuleSetMismatch

RISING_LINEAR = "rising-linear"
FALLING_LINEAR = "falling-linear"
RISING_THEN_FALLING = "rising-then-falling"
RELATIVE_MIN = "relative-min"
SHAPES = (RISING_LINEAR, FALLING_LINEAR, RISING_THEN_FALLING, RELATIVE_MIN)

INDICATORS = ("commentRatio", "duplicationRatio", "tdr", "volumetry")

WEIGHT_TOLERANCE = 1e-9

DEFAULT_DELTA_PP = 5.0


@dataclass(frozen=True)
class IndicatorMapping:
    indicator: str
    shape: str
    low: float
    high: float
    weight: float

    def __post_init__(self):
        """The one check of a mapping's shape, bounds and weight; volumetry,
        and only volumetry, is relative to the compared set."""
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {list(SHAPES)}, got '{self.shape}'")
        if (self.shape == RELATIVE_MIN) != (self.indicator == "volumetry"):
            raise ValueError(f"volumetry takes shape '{RELATIVE_MIN}', and no other indicator does")
        if self.low == self.high:
            raise ValueError("low and high bounds must differ")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")


# the source of config.DEFAULT_CONFIG's composite.indicators section
DEFAULT_MAPPINGS = (
    IndicatorMapping("commentRatio", RISING_THEN_FALLING, 0.15, 0.40, 0.15),
    IndicatorMapping("duplicationRatio", FALLING_LINEAR, 0.05, 0.15, 0.15),
    IndicatorMapping("tdr", FALLING_LINEAR, 0.0, 0.20, 0.45),
    IndicatorMapping("volumetry", RELATIVE_MIN, 1.0, 1.5, 0.25),
)

_DEFAULT_BY_INDICATOR = {m.indicator: m for m in DEFAULT_MAPPINGS}


@dataclass(frozen=True)
class ProjectIndicators:
    """The raw per-project inputs the composite consumes."""

    project_id: str
    comment_ratio: float | None
    duplication_ratio: float | None
    tdr: float | None
    total_loc: int | None
    cost_per_line: float
    rule_ids: tuple[str, ...] = ()

    def raw_value(self, indicator: str):
        return {
            "commentRatio": self.comment_ratio,
            "duplicationRatio": self.duplication_ratio,
            "tdr": self.tdr,
            "volumetry": self.total_loc,
        }[indicator]


@dataclass(frozen=True)
class CompositeScore:
    project_id: str
    per_indicator: dict[str, tuple[float, float]]  # indicator -> (raw, mapped score)
    weights_used: dict[str, float]
    total: float
    rank: int
    absent_indicators: tuple[str, ...]


def _clamp(score: float) -> float:
    return min(100.0, max(0.0, score))


def map_indicator(value: float, mapping: IndicatorMapping) -> float:
    """Map a raw indicator value onto the 0..100 reference scale (any shape
    but relative-min, which only volumetry has)."""
    low, high = mapping.low, mapping.high
    span = high - low
    if mapping.shape == RISING_LINEAR:
        return _clamp(100.0 * (value - low) / span)
    if mapping.shape == FALLING_LINEAR:
        return _clamp(100.0 * (high - value) / span)
    if value <= high:  # rising-then-falling
        return _clamp(100.0 * (value - low) / span)
    return _clamp(100.0 - 100.0 * (value - high) / span)  # same slope back down


def map_volumetry(
    loc_by_project: dict[str, int],
    low: float = _DEFAULT_BY_INDICATOR["volumetry"].low,
    high: float = _DEFAULT_BY_INDICATOR["volumetry"].high,
) -> dict[str, float]:
    """Relative size score: 100 at the minimum LOC, 0 at or beyond high x min.
    Every LOC must be positive; ``_mapped_scores`` calls it only then."""
    minimum = min(loc_by_project.values())
    scores = {}
    for project_id, loc in loc_by_project.items():
        x = loc / minimum
        scores[project_id] = _clamp(100.0 * (high - x) / (high - low))
    return scores


def validate_weights(mappings: list[IndicatorMapping]) -> None:
    total = sum(m.weight for m in mappings)
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise ValueError(f"indicator weights must sum to 1, got {total}")


def _mapped_scores(
    projects: list[ProjectIndicators], mappings: list[IndicatorMapping]
) -> tuple[dict[str, dict[str, tuple[float, float]]], list[str]]:
    """Raw and mapped values per project; indicators missing anywhere are
    dropped everywhere so the compared totals stay on one scale."""
    by_indicator = {m.indicator: m for m in mappings}
    absent = set()

    volumetry_scores = {}
    if "volumetry" in by_indicator:
        locs = {p.project_id: p.total_loc for p in projects}
        if len(projects) < 2 or any(v is None or v <= 0 for v in locs.values()):
            absent.add("volumetry")
        else:
            vm = by_indicator["volumetry"]
            volumetry_scores = map_volumetry(locs, vm.low, vm.high)

    for mapping in mappings:
        if mapping.indicator == "volumetry":
            continue
        if any(p.raw_value(mapping.indicator) is None for p in projects):
            absent.add(mapping.indicator)

    scores: dict[str, dict[str, tuple[float, float]]] = {}
    for project in projects:
        row = {}
        for mapping in mappings:
            if mapping.indicator in absent:
                continue
            raw = project.raw_value(mapping.indicator)
            if mapping.indicator == "volumetry":
                row[mapping.indicator] = (float(raw), volumetry_scores[project.project_id])
            else:
                row[mapping.indicator] = (float(raw), map_indicator(raw, mapping))
        scores[project.project_id] = row
    return scores, sorted(absent)


def _renormalize(weights: dict[str, float]) -> dict[str, float]:
    """Scale to sum 1; the caller guarantees a positive total."""
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def composite_score(
    projects: list[ProjectIndicators],
    mappings: list[IndicatorMapping] | None = None,
) -> list[CompositeScore]:
    """Rank projects by weighted mapped scores.

    All compared projects must share the production-effort convention and
    the intersected rule-id set; otherwise their debt ratios would not be
    comparable and the comparison is refused.
    """
    mappings = list(mappings) if mappings is not None else list(DEFAULT_MAPPINGS)
    if len(projects) > 1:
        costs = {p.cost_per_line for p in projects}
        if len(costs) > 1:
            raise EstimatorMismatch(
                f"projects use different cost-per-line estimates: {sorted(costs)}"
            )
        rule_sets = {tuple(sorted(p.rule_ids)) for p in projects}
        if len(rule_sets) > 1:
            raise RuleSetMismatch(
                "projects were checked against different rule sets; intersect first"
            )

    scores, absent = _mapped_scores(projects, mappings)
    present = {m.indicator: m.weight for m in mappings if m.indicator not in absent}
    if sum(present.values()) <= 0:
        raise NoWeightLeft(
            f"no weighted indicator left to score; absent indicators: {', '.join(absent)}"
        )
    weights = _renormalize(present)

    totals = [
        (sum(weights[ind] * mapped for ind, (_, mapped) in scores[p.project_id].items()), p.project_id)
        for p in projects
    ]
    totals.sort(key=lambda t: (-t[0], t[1]))
    return [
        CompositeScore(
            project_id=project_id,
            per_indicator=scores[project_id],
            weights_used=dict(weights),
            total=total,
            rank=rank,
            absent_indicators=tuple(absent),
        )
        for rank, (total, project_id) in enumerate(totals, 1)
    ]


@dataclass(frozen=True)
class Perturbation:
    indicator: str
    direction: str  # "+" or "-"
    weights: dict[str, float]
    totals: dict[str, float]
    ranking: tuple[str, ...]
    top1: str


@dataclass(frozen=True)
class SensitivityReport:
    base_ranking: tuple[str, ...]
    perturbations: tuple[Perturbation, ...]
    top1_stable: bool
    full_ranking_stable: bool
    total_range: dict[str, tuple[float, float]]  # project -> (min, max) total seen
    delta_pp: float


def sensitivity_analysis(
    projects: list[ProjectIndicators],
    mappings: list[IndicatorMapping] | None = None,
    delta_pp: float = DEFAULT_DELTA_PP,
) -> SensitivityReport:
    """Re-rank under +/- delta perturbations of each indicator weight.

    The perturbed weight is floored at 0, all weights are renormalized to
    sum 1, and mapped scores are reused: only the weighting changes. The
    base weights sum to 1, so with 0 < delta_pp < 100 (``validate_config``
    holds it there) every perturbed total stays positive.
    """
    mappings = list(mappings) if mappings is not None else list(DEFAULT_MAPPINGS)
    base = composite_score(projects, mappings)
    base_ranking = tuple(r.project_id for r in base)
    base_weights = base[0].weights_used
    mapped = {r.project_id: {ind: s for ind, (_, s) in r.per_indicator.items()} for r in base}

    totals_seen: dict[str, list[float]] = {r.project_id: [r.total] for r in base}
    perturbations = []
    delta = delta_pp / 100.0
    for indicator in sorted(base_weights):
        for direction in ("+", "-"):
            weights = dict(base_weights)
            shifted = weights[indicator] + (delta if direction == "+" else -delta)
            weights[indicator] = max(0.0, shifted)
            weights = _renormalize(weights)
            totals = {
                pid: sum(weights[ind] * score for ind, score in row.items())
                for pid, row in mapped.items()
            }
            ranking = tuple(sorted(totals, key=lambda pid: (-totals[pid], pid)))
            for pid, total in totals.items():
                totals_seen[pid].append(total)
            perturbations.append(
                Perturbation(
                    indicator=indicator,
                    direction=direction,
                    weights=weights,
                    totals=totals,
                    ranking=ranking,
                    top1=ranking[0],
                )
            )

    return SensitivityReport(
        base_ranking=base_ranking,
        perturbations=tuple(perturbations),
        top1_stable=all(p.top1 == base_ranking[0] for p in perturbations),
        full_ranking_stable=all(p.ranking == base_ranking for p in perturbations),
        total_range={pid: (min(vals), max(vals)) for pid, vals in sorted(totals_seen.items())},
        delta_pp=delta_pp,
    )

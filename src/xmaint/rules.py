"""Coding rules, violations with remediation effort, and rule-set intersection.

Rules carry canonical ids so rule sets of different languages can be
compared: intersecting finds the ids enabled for every language, while
each language keeps its own thresholds and patterns.
"""

import math
import re
from typing import NamedTuple

from .errors import InvalidRuleConfig
from .metrics import UnitMetrics
from .profiles import LanguageProfile

COMPLEXITY = "complexity-threshold"
UNIT_SIZE = "unit-size-threshold"
TOO_MANY_PARAMS = "too-many-params"
NESTING_DEPTH = "nesting-depth"
NAMING = "naming-convention"
DUPLICATION_BLOCK = "duplication-block"
COMMENT_DENSITY = "comment-density"

CANONICAL_IDS = (
    COMPLEXITY,
    UNIT_SIZE,
    TOO_MANY_PARAMS,
    NESTING_DEPTH,
    NAMING,
    DUPLICATION_BLOCK,
    COMMENT_DENSITY,
)

# (threshold, effort minutes, enabled); None threshold = pattern/ratio param elsewhere
_DEFAULTS = {
    COMPLEXITY: (15, 60.0, True),
    UNIT_SIZE: (60, 45.0, True),
    TOO_MANY_PARAMS: (5, 20.0, True),
    NESTING_DEPTH: (4, 30.0, True),
    NAMING: (None, 10.0, True),
    DUPLICATION_BLOCK: (None, 15.0, False),  # disabled: duplication is an indicator by default
    COMMENT_DENSITY: (0.10, 30.0, False),  # disabled: comment ratio is an indicator by default
}
_ENTRY_KEYS = frozenset({"threshold", "pattern", "effort_minutes", "enabled"})


class Rule(NamedTuple):
    canonical_id: str
    threshold: float | None
    pattern: str | None
    effort_minutes: float
    enabled: bool


class Violation(NamedTuple):
    rule_id: str
    file: str
    line: int
    unit_name: str | None
    observed_value: float | str
    threshold: float | str | None
    effort_minutes: float


class RuleSet(NamedTuple):
    rules: tuple[Rule, ...]

    def get(self, canonical_id: str) -> Rule:
        """The rule with this id; ``load_rule_set`` gives every set every id."""
        return next(rule for rule in self.rules if rule.canonical_id == canonical_id)

    def enabled_ids(self) -> frozenset[str]:
        return frozenset(r.canonical_id for r in self.rules if r.enabled)


def _is_number(value) -> bool:
    if isinstance(value, float):  # an int is never converted, so a large one cannot overflow
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def check_rule_config(config: dict) -> None:
    """Reject a ``rules`` config section entry by entry: an unknown rule id
    or key, an entry that is not an object, a threshold that is not a
    number, effort_minutes that is not a number > 0, enabled that is not a
    boolean, or a pattern that is not a string holding a valid regex."""
    unknown = set(config) - set(CANONICAL_IDS)
    if unknown:
        raise InvalidRuleConfig(f"unknown rule ids in config: {sorted(unknown)}")
    for canonical_id, entry in config.items():
        name = f"rules.{canonical_id}"
        if not isinstance(entry, dict):
            raise InvalidRuleConfig(f"{name} must be an object")
        extra = set(entry) - _ENTRY_KEYS
        if extra:
            raise InvalidRuleConfig(f"{name}: unknown keys {sorted(extra)}")
        if "threshold" in entry and not _is_number(entry["threshold"]):
            raise InvalidRuleConfig(f"{name}.threshold must be a number, got {entry['threshold']!r}")
        effort = entry.get("effort_minutes", 1)
        if not (_is_number(effort) and effort > 0):
            raise InvalidRuleConfig(f"{name}.effort_minutes must be a number > 0, got {effort!r}")
        if not isinstance(entry.get("enabled", True), bool):
            raise InvalidRuleConfig(f"{name}.enabled must be true or false, got {entry['enabled']!r}")
        if "pattern" in entry:
            if not isinstance(entry["pattern"], str):
                raise InvalidRuleConfig(f"{name}.pattern must be a string, got {entry['pattern']!r}")
            try:
                re.compile(entry["pattern"])
            except re.error as exc:
                raise InvalidRuleConfig(f"{name}.pattern is not a valid regex: {exc}") from None


def load_rule_set(config: dict | None, profile: LanguageProfile) -> RuleSet:
    """Defaults overlaid with the config's ``rules`` section.

    The unit-size threshold is scaled by the profile's verbosity factor so
    "too long" means comparable logic volume across languages.
    """
    config = config or {}
    check_rule_config(config)

    rules = []
    for canonical_id in CANONICAL_IDS:
        threshold, effort, enabled = _DEFAULTS[canonical_id]
        pattern = profile.naming_pattern if canonical_id == NAMING else None
        entry = config.get(canonical_id, {})
        threshold = entry.get("threshold", threshold)
        pattern = entry.get("pattern", pattern)
        effort = float(entry.get("effort_minutes", effort))
        enabled = entry.get("enabled", enabled)
        if canonical_id == UNIT_SIZE and threshold is not None:
            scaled = threshold * profile.verbosity_factor
            if not math.isfinite(scaled):
                raise InvalidRuleConfig(
                    f"rules.{UNIT_SIZE}.threshold {threshold!r} times profile '{profile.id}' "
                    f"verbosity_factor {profile.verbosity_factor!r} overflows a double"
                )
            threshold = round(scaled)
        rules.append(
            Rule(
                canonical_id=canonical_id,
                threshold=threshold,
                pattern=pattern,
                effort_minutes=effort,
                enabled=enabled,
            )
        )
    return RuleSet(rules=tuple(rules))


def check_rules(
    unit_metrics_list: list[UnitMetrics],
    rule_set: RuleSet,
    file: str = "",
    comment_ratio: float | None = None,
    clone_blocks=None,
) -> list[Violation]:
    """Evaluate every enabled rule; one violation per (rule, unit). The units
    are all of one file, ``file``, of ``rule_set``'s profile.

    The file's ``comment_ratio`` feeds the optional comment-density rule and
    ``clone_blocks`` the optional duplication-block rule; both are off by
    default because those attributes are composite indicators.
    """
    violations = []

    def fire(rule, path, line, unit_name, observed, threshold):
        violations.append(
            Violation(
                rule_id=rule.canonical_id,
                file=path,
                line=line,
                unit_name=unit_name,
                observed_value=observed,
                threshold=threshold,
                effort_minutes=rule.effort_minutes,
            )
        )

    for metrics in unit_metrics_list:
        unit = metrics.unit
        for rule in rule_set.rules:
            if not rule.enabled:
                continue
            if rule.canonical_id == COMPLEXITY and metrics.cc > rule.threshold:
                fire(rule, file, unit.start_line, unit.name, metrics.cc, rule.threshold)
            elif rule.canonical_id == UNIT_SIZE and metrics.loc > rule.threshold:
                fire(rule, file, unit.start_line, unit.name, metrics.loc, rule.threshold)
            elif rule.canonical_id == TOO_MANY_PARAMS and unit.param_count > rule.threshold:
                fire(rule, file, unit.start_line, unit.name, unit.param_count, rule.threshold)
            elif rule.canonical_id == NESTING_DEPTH and unit.nesting_depth_max > rule.threshold:
                fire(rule, file, unit.start_line, unit.name, unit.nesting_depth_max, rule.threshold)
            elif rule.canonical_id == NAMING and rule.pattern and not re.fullmatch(rule.pattern, unit.name):
                fire(rule, file, unit.start_line, unit.name, unit.name, rule.pattern)

    density = rule_set.get(COMMENT_DENSITY)
    if density.enabled and comment_ratio is not None and comment_ratio < density.threshold:
        fire(density, file, 1, None, round(comment_ratio, 4), density.threshold)

    dup_rule = rule_set.get(DUPLICATION_BLOCK)
    if dup_rule.enabled and clone_blocks:
        for block in clone_blocks:
            fire(
                dup_rule,
                block.file_a,
                block.start_line_a,
                None,
                block.length_tokens,
                dup_rule.threshold,
            )

    violations.sort(key=lambda v: (v.file, v.line, v.rule_id))
    return violations


def intersect_rule_sets(rule_sets: list[RuleSet]) -> list[str]:
    """The sorted canonical ids enabled in every one of one or more rule
    sets. An empty intersection is reported by the caller as a warning,
    never as a failure."""
    return sorted(frozenset.intersection(*(rs.enabled_ids() for rs in rule_sets)))

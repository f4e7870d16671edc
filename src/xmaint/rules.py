"""Coding rules, violations with remediation effort, and rule-set intersection.

Rules carry canonical ids so rule sets of different languages can be
compared: intersecting finds the ids enabled for every language, while
each language keeps its own thresholds and patterns; enablement is keyed
by id alone (``rule_enabled``). A unit rule compares one measure of each
unit (``UNIT_MEASURES``) with its threshold; ``analysis.evaluate_debt``
fires the optional duplication-block rule, once per clone block.
"""

import re
from operator import attrgetter
from typing import NamedTuple

from .errors import InvalidRuleConfig
from .metrics import UnitMetrics
from .profiles import LanguageProfile, is_number

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

# unit rule id -> the measure of a unit's metrics that exceeds the threshold
UNIT_MEASURES = {
    COMPLEXITY: attrgetter("cc"),
    UNIT_SIZE: attrgetter("loc"),
    TOO_MANY_PARAMS: attrgetter("unit.param_count"),
    NESTING_DEPTH: attrgetter("unit.nesting_depth_max"),
}


class Violation(NamedTuple):
    rule_id: str
    file: str
    line: int
    unit_name: str | None
    observed_value: float | str
    threshold: float | str | None
    effort_minutes: float


class Rule(NamedTuple):
    canonical_id: str
    threshold: float | None
    pattern: str | None
    effort_minutes: float
    enabled: bool

    def violation(self, file: str, line: int, unit_name: str | None, observed, threshold) -> Violation:
        return Violation(self.canonical_id, file, line, unit_name, observed, threshold, self.effort_minutes)


class RuleSet(NamedTuple):
    rules: tuple[Rule, ...]

    def get(self, canonical_id: str) -> Rule:
        """The rule with this id; ``load_rule_set`` gives every set every id."""
        return next(rule for rule in self.rules if rule.canonical_id == canonical_id)

    def enabled_ids(self) -> frozenset[str]:
        return frozenset(r.canonical_id for r in self.rules if r.enabled)


def rule_enabled(config: dict, canonical_id: str) -> bool:
    """Whether a checked ``rules`` config section enables the rule, by its entry or by default."""
    return config.get(canonical_id, {}).get("enabled", _DEFAULTS[canonical_id][2])


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
        if "threshold" in entry and not is_number(entry["threshold"]):
            raise InvalidRuleConfig(f"{name}.threshold must be a number, got {entry['threshold']!r}")
        effort = entry.get("effort_minutes", 1)
        if not (is_number(effort) and effort > 0):
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
        threshold, effort, _ = _DEFAULTS[canonical_id]
        pattern = profile.naming_pattern if canonical_id == NAMING else None
        entry = config.get(canonical_id, {})
        threshold = entry.get("threshold", threshold)
        pattern = entry.get("pattern", pattern)
        effort = float(entry.get("effort_minutes", effort))
        if canonical_id == UNIT_SIZE and threshold is not None:
            scaled = threshold * profile.verbosity_factor
            if not is_number(scaled):
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
                enabled=rule_enabled(config, canonical_id),
            )
        )
    return RuleSet(rules=tuple(rules))


def check_rules(
    unit_metrics_list: list[UnitMetrics],
    rule_set: RuleSet,
    file: str = "",
    comment_ratio: float | None = None,
) -> list[Violation]:
    """The violations of the units of one file, ``file``, of ``rule_set``'s
    profile: one per (enabled rule, unit), rule by rule, each in unit order,
    and one of the optional comment-density rule if the file's
    ``comment_ratio`` is below its threshold. The caller sorts them."""
    violations = []
    for rule in rule_set.rules:
        if not rule.enabled:
            continue
        measure = UNIT_MEASURES.get(rule.canonical_id)
        if measure is not None:
            violations.extend(rule.violation(file, m.unit.start_line, m.unit.name, measure(m), rule.threshold)
                              for m in unit_metrics_list if measure(m) > rule.threshold)
        elif rule.canonical_id == NAMING and rule.pattern:
            violations.extend(rule.violation(file, m.unit.start_line, m.unit.name, m.unit.name, rule.pattern)
                              for m in unit_metrics_list if not re.fullmatch(rule.pattern, m.unit.name))
        elif rule.canonical_id == COMMENT_DENSITY and comment_ratio is not None and comment_ratio < rule.threshold:
            violations.append(rule.violation(file, 1, None, round(comment_ratio, 4), rule.threshold))
    return violations


def intersect_rule_sets(rule_sets: list[RuleSet]) -> list[str]:
    """The sorted canonical ids enabled in every one of one or more rule
    sets. An empty intersection is reported by the caller as a warning,
    never as a failure."""
    return sorted(frozenset.intersection(*(rs.enabled_ids() for rs in rule_sets)))

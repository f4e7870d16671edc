"""Configuration loading, validation, and the comparability hash.

One JSON document with sections ``profiles``, ``rules``, ``models``,
``composite``, ``duplication``, ``metrics``, ``report``. Defaults are
complete, so an empty config is valid. The effective-config hash covers
everything that can change a measured value, which is what snapshot
comparability and the same-estimator guard key on.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path

from . import debt_models
from .composite import DEFAULT_DELTA_PP, DEFAULT_MAPPINGS, INDICATORS, IndicatorMapping, validate_weights
from .duplication import DUPLICATION_MODES
from .errors import InvalidConfig, SingleCountingViolation
from .rules import COMMENT_DENSITY, DUPLICATION_BLOCK, _DEFAULTS, _is_number, check_rule_config

ENV_CONFIG = "XMAINT_CONFIG"

REPORT_FORMATS = ("json", "md", "csv")

DEFAULT_CONFIG: dict = {
    "profiles": {"files": [], "definitions": []},
    "rules": {},
    "models": {
        "mi": {"scope": "unit"},
        "sqale": {"cost_per_line_minutes": debt_models.DEFAULT_COST_PER_LINE_MINUTES},
        "sig": {
            "cc_bands": list(debt_models.DEFAULT_CC_BANDS),
            "unit_size_bands": list(debt_models.DEFAULT_UNIT_SIZE_BANDS),
            "volume_ladder": [list(step) for step in debt_models.DEFAULT_VOLUME_LADDER],
            "duplication_ladder": [list(step) for step in debt_models.DEFAULT_DUPLICATION_LADDER],
            "coverage_ladder": [list(step) for step in debt_models.DEFAULT_COVERAGE_LADDER],
            "profile_caps": {str(r): list(caps) for r, caps in debt_models.DEFAULT_PROFILE_CAPS.items()},
            "matrix": {name: list(props) for name, props in debt_models.DEFAULT_SIG_MATRIX.items()},
            "coverage": None,
        },
    },
    "metrics": {"weighted_unit_means": False},
    "duplication": {"min_tokens": 50, "mode": "exact"},
    "composite": {
        "indicators": {
            m.indicator: {"shape": m.shape, "low": m.low, "high": m.high, "weight": m.weight}
            for m in DEFAULT_MAPPINGS
        },
        "duplication_source": "token",
        "sensitivity": {"delta_pp": DEFAULT_DELTA_PP},
    },
    "report": {"format": "json"},
}

# Maps keyed by data rather than by field names; every other object in
# DEFAULT_CONFIG lists all the keys it accepts.
_OPEN_MAPS = ("rules", "models.sig.profile_caps")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check_keys(data: dict, defaults: dict, prefix: str = "") -> None:
    """Reject any key that DEFAULT_CONFIG lacks, and any non-object where it
    has an object, naming the dotted path."""
    for key, value in data.items():
        dotted = prefix + key
        if key not in defaults:
            raise InvalidConfig(f"unknown config key '{dotted}'")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise InvalidConfig(f"{dotted} must be an object")
            if dotted not in _OPEN_MAPS:
                _check_keys(value, defaults[key], dotted + ".")


def load_config(path: str | os.PathLike | None = None, *, min_tokens=None, dup_mode=None,
                cost_per_line=None, coverage=None) -> dict:
    """Read a config file, merge it over the defaults, let the CLI flags given
    override their config keys, and validate the result: the one check of
    every config value.

    ``path=None`` falls back to the XMAINT_CONFIG environment variable and
    then to pure defaults.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise InvalidConfig(f"cannot load config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidConfig("config root must be a JSON object")
    _check_keys(data, DEFAULT_CONFIG)
    merged = _merge(DEFAULT_CONFIG, data)
    if min_tokens is not None:
        merged["duplication"]["min_tokens"] = min_tokens
    if dup_mode is not None:
        merged["duplication"]["mode"] = dup_mode
    if cost_per_line is not None:
        merged["models"]["sqale"]["cost_per_line_minutes"] = cost_per_line
    if coverage is not None:
        merged["models"]["sig"]["coverage"] = coverage
    validate_config(merged)
    return merged


def composite_mappings(config: dict) -> list[IndicatorMapping]:
    indicators = config["composite"]["indicators"]
    mappings = []
    for name in INDICATORS:
        if name not in indicators:
            continue
        entry = indicators[name]
        try:
            mappings.append(
                IndicatorMapping(
                    indicator=name,
                    shape=str(entry["shape"]),
                    low=float(entry["low"]),
                    high=float(entry["high"]),
                    weight=float(entry["weight"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"composite.indicators.{name}: {exc}") from exc
    return mappings


def _rule_enabled(config: dict, canonical_id: str) -> bool:
    return config["rules"].get(canonical_id, {}).get("enabled", _DEFAULTS[canonical_id][2])


def _number(config: dict, dotted_key: str) -> float:
    value = config
    for key in dotted_key.split("."):
        value = value[key]
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{dotted_key} must be a number, got {value!r}") from None


def _is_integer_text(text) -> bool:
    try:
        int(text)
    except (TypeError, ValueError):
        return False
    return True


def _numbers(value, count: int) -> bool:
    return isinstance(value, list) and len(value) == count and all(map(_is_number, value))


def _validate_sig(sig) -> None:
    """models.sig must have the shapes that analysis and debt_models unpack."""
    for key in ("cc_bands", "unit_size_bands"):
        bands = sig[key]
        if not (_numbers(bands, 3) and bands[0] < bands[1] < bands[2]):
            raise InvalidConfig(f"models.sig.{key} must be three increasing numbers, got {bands!r}")
    for key in ("volume_ladder", "duplication_ladder", "coverage_ladder"):
        ladder = sig[key]
        if not (isinstance(ladder, list) and all(_numbers(step, 2) for step in ladder)):
            raise InvalidConfig(f"models.sig.{key} must be a list of [bound, rating] number pairs")
    caps = sig["profile_caps"]
    if not (isinstance(caps, dict) and all(
            _is_integer_text(key) and _numbers(value, 3) for key, value in caps.items())):
        raise InvalidConfig(
            "models.sig.profile_caps must map integer ratings to three numbers "
            "(moderate, high, veryHigh caps)"
        )
    matrix = sig["matrix"]
    if not (isinstance(matrix, dict) and all(
            key in debt_models.SIG_CHARACTERISTICS and isinstance(value, list)
            and all(p in debt_models.SIG_PROPERTIES for p in value)
            for key, value in matrix.items())):
        raise InvalidConfig(
            f"models.sig.matrix must map characteristics {list(debt_models.SIG_CHARACTERISTICS)} "
            f"to lists of properties {list(debt_models.SIG_PROPERTIES)}"
        )
    coverage = sig["coverage"]
    values = coverage.values() if isinstance(coverage, dict) else [coverage]
    if not all(v is None or (_is_number(v) and 0 <= v <= 1) for v in values):
        raise InvalidConfig(
            f"models.sig.coverage must be null, a number in [0, 1] or an object of such "
            f"numbers keyed by project id, got {coverage!r}"
        )


def validate_config(config: dict) -> None:
    """Structural checks plus the single-counting guard.

    An attribute wired in as a weighted indicator must not also be an
    enabled debt rule; such configs are rejected outright with the
    conflicting pair named.
    """
    check_rule_config(config["rules"])
    mappings = composite_mappings(config)
    try:
        validate_weights(mappings)
    except ValueError as exc:
        raise InvalidConfig(f"composite.indicators: {exc}") from exc
    mode = config["duplication"]["mode"]
    if mode not in DUPLICATION_MODES:
        raise InvalidConfig(f"duplication.mode must be one of {list(DUPLICATION_MODES)}, got '{mode}'")
    min_tokens = config["duplication"]["min_tokens"]
    if isinstance(min_tokens, bool) or not isinstance(min_tokens, int):
        raise InvalidConfig("duplication.min_tokens must be an integer")
    if min_tokens < 3:
        raise InvalidConfig("duplication.min_tokens must be >= 3")
    if _number(config, "models.sqale.cost_per_line_minutes") <= 0:
        raise InvalidConfig("models.sqale.cost_per_line_minutes must be > 0")
    if config["models"]["mi"]["scope"] not in ("unit", "file"):
        raise InvalidConfig("models.mi.scope must be 'unit' or 'file'")
    _validate_sig(config["models"]["sig"])
    if not isinstance(config["metrics"]["weighted_unit_means"], bool):
        raise InvalidConfig("metrics.weighted_unit_means must be true or false")
    if config["report"]["format"] not in REPORT_FORMATS:
        raise InvalidConfig(f"report.format must be one of {list(REPORT_FORMATS)}")
    if config["composite"]["duplication_source"] not in ("token", "line"):
        raise InvalidConfig("composite.duplication_source must be 'token' or 'line'")
    if not 0 < _number(config, "composite.sensitivity.delta_pp") < 100:
        raise InvalidConfig("composite.sensitivity.delta_pp must be > 0 and < 100")

    weighted = {m.indicator for m in mappings if m.weight > 0}
    conflicts = []
    if "duplicationRatio" in weighted and _rule_enabled(config, DUPLICATION_BLOCK):
        conflicts.append(("duplicationRatio", DUPLICATION_BLOCK))
    if "commentRatio" in weighted and _rule_enabled(config, COMMENT_DENSITY):
        conflicts.append(("commentRatio", COMMENT_DENSITY))
    if conflicts:
        raise SingleCountingViolation(conflicts)


def config_hash(config: dict, profiles: list[dict], discovery: dict) -> str:
    """Digest of everything that affects measured values.

    Output format and store options are deliberately excluded: they change
    presentation, not results.
    """
    payload = {
        "config": {k: v for k, v in config.items() if k != "report"},
        "profiles": profiles,
        "discovery": discovery,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

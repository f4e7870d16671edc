"""The three reference maintainability models: MI, SQALE debt ratio, SIG ratings."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroProductionEffort
from .rules import Violation

# grade -> inclusive upper bound on the ratio; E is everything above D
_GRADE_BOUNDS = (("A", 0.05), ("B", 0.10), ("C", 0.20), ("D", 0.50))

DEFAULT_COST_PER_LINE_MINUTES = 30.0

RISK_BANDS = ("low", "moderate", "high", "veryHigh")

SIG_PROPERTIES = ("volume", "complexity", "duplication", "unitSize", "unitTesting")
SIG_CHARACTERISTICS = ("analysability", "changeability", "stability", "testability")

# Shipped defaults, copied into config.DEFAULT_CONFIG's models.sig section;
# all overridable there.
DEFAULT_CC_BANDS = (10, 20, 50)
DEFAULT_UNIT_SIZE_BANDS = (30, 60, 120)

# rating -> caps on (moderate, high, veryHigh) shares of code volume
DEFAULT_PROFILE_CAPS = {
    5: (0.25, 0.0, 0.0),
    4: (0.30, 0.05, 0.0),
    3: (0.40, 0.10, 0.0),
    2: (0.50, 0.15, 0.05),
    1: (1.0, 1.0, 1.0),
}

# descending ladders: value <= bound -> rating
DEFAULT_VOLUME_LADDER = ((20_000, 5), (50_000, 4), (120_000, 3), (300_000, 2))
DEFAULT_DUPLICATION_LADDER = ((0.03, 5), (0.05, 4), (0.10, 3), (0.20, 2))
# ascending ladder: value >= bound -> rating
DEFAULT_COVERAGE_LADDER = ((0.95, 5), (0.80, 4), (0.60, 3), (0.20, 2))

DEFAULT_SIG_MATRIX = {
    "analysability": ("volume", "duplication", "unitSize", "unitTesting"),
    "changeability": ("complexity", "duplication"),
    "stability": ("unitTesting",),
    "testability": ("complexity", "unitSize", "unitTesting"),
}


@dataclass(frozen=True)
class MiResult:
    ahv: float
    acc: float
    aloc: float
    mi: float


@dataclass(frozen=True)
class TdrResult:
    remediation_minutes: float
    production_minutes: float
    tdr: float
    grade: str


@dataclass(frozen=True)
class SigResult:
    property_ratings: dict[str, int | None]
    characteristic_ratings: dict[str, float | None]
    overall: float | None


def maintainability_index(ahv: float, acc: float, aloc: float) -> MiResult:
    """Visual-Studio-style index on 0..100 from mean volume, complexity, size.

    Averages below 1 are clamped to 1 so the logarithms stay defined; the
    result is clamped at 0 and cannot exceed 100 for valid inputs.
    """
    if ahv is None or aloc is None or acc is None:
        raise ValueError("maintainability index needs unit averages")
    ahv = max(float(ahv), 1.0)
    aloc = max(float(aloc), 1.0)
    inner = 171.0 - 5.2 * math.log(ahv) - 0.23 * acc - 16.2 * math.log(aloc)
    mi = max(0.0, 100.0 * inner / 171.0)
    return MiResult(ahv=ahv, acc=acc, aloc=aloc, mi=mi)


def production_effort(total_loc: int, cost_per_line_minutes: float = DEFAULT_COST_PER_LINE_MINUTES) -> float:
    """Declared rebuild-cost estimate; the same method must be used for every
    project that will ever be compared. ``validate_config`` holds the cost
    above 0."""
    return total_loc * cost_per_line_minutes


def tdr_grade(tdr: float) -> str:
    if tdr < 0:
        raise ValueError(f"technical debt ratio cannot be negative: {tdr}")
    for grade, bound in _GRADE_BOUNDS:
        if tdr <= bound:
            return grade
    return "E"  # includes ratios above 100%


def technical_debt_ratio(violations: list[Violation], production_minutes: float) -> TdrResult:
    """Sum of remediation efforts over the production-effort estimate."""
    if production_minutes <= 0:
        raise ZeroProductionEffort("cannot compute a debt ratio for zero production effort")
    remediation = float(sum(v.effort_minutes for v in violations))
    tdr = remediation / production_minutes
    return TdrResult(
        remediation_minutes=remediation,
        production_minutes=float(production_minutes),
        tdr=tdr,
        grade=tdr_grade(tdr),
    )


def sig_risk_profile(values_and_loc: list[tuple[float, int]], bands: tuple[float, float, float]) -> dict[str, float]:
    """Share of code volume per risk band; band upper bounds are inclusive."""
    if not values_and_loc:
        raise ValueError("risk profile needs at least one unit")
    low, moderate, high = bands  # increasing, as config._validate_sig holds them
    totals = dict.fromkeys(RISK_BANDS, 0)
    for value, loc in values_and_loc:
        if value <= low:
            band = "low"
        elif value <= moderate:
            band = "moderate"
        elif value <= high:
            band = "high"
        else:
            band = "veryHigh"
        totals[band] += loc
    overall = sum(totals.values())
    return {band: totals[band] / overall for band in RISK_BANDS}


def sig_rate_risk_profile(profile: dict[str, float], caps: dict[int, tuple[float, float, float]] | None = None) -> int:
    """Highest rating whose caps on moderate/high/veryHigh shares all hold."""
    caps = caps or DEFAULT_PROFILE_CAPS
    for rating in sorted(caps, reverse=True):
        cap_moderate, cap_high, cap_very_high = caps[rating]
        if (
            profile.get("moderate", 0.0) <= cap_moderate
            and profile.get("high", 0.0) <= cap_high
            and profile.get("veryHigh", 0.0) <= cap_very_high
        ):
            return rating
    return 1


def sig_rate_scalar(value: float, ladder, ascending: bool = False) -> int:
    """Threshold-ladder rating for scalar properties (volume, duplication, coverage)."""
    for bound, rating in ladder:
        if (value >= bound) if ascending else (value <= bound):
            return rating
    return 1


def sig_characteristics(
    property_ratings: dict[str, int | None],
    matrix: dict[str, tuple[str, ...]] | None = None,
) -> SigResult:
    """Characteristic = mean of its mapped, present properties.

    Absent properties (e.g. no externally supplied test coverage) drop out
    row-wise; a characteristic left with nothing is itself reported absent
    and excluded from the overall mean.
    """
    matrix = matrix or DEFAULT_SIG_MATRIX
    characteristics: dict[str, float | None] = {}
    for characteristic in SIG_CHARACTERISTICS:
        mapped = matrix.get(characteristic, ())
        present = [property_ratings[p] for p in mapped if property_ratings.get(p) is not None]
        characteristics[characteristic] = sum(present) / len(present) if present else None
    present_chars = [v for v in characteristics.values() if v is not None]
    overall = sum(present_chars) / len(present_chars) if present_chars else None
    return SigResult(
        property_ratings=dict(property_ratings),
        characteristic_ratings=characteristics,
        overall=overall,
    )

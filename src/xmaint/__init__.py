"""Cross-language source-code maintainability measurement toolchain."""

from .analysis import FileAnalysis, ProjectAnalysis, analyze_project
from .composite import (
    CompositeScore,
    IndicatorMapping,
    ProjectIndicators,
    composite_score,
    sensitivity_analysis,
)
from .config import load_config
from .debt_models import maintainability_index, tdr_grade, technical_debt_ratio
from .profiles import BUILTIN_PROFILES, LanguageProfile, ProfileRegistry, detect_profile

__version__ = "0.1.0"


def __getattr__(name):
    """``SnapshotStore`` is imported on first use: only the snapshot and
    trend commands need it."""
    if name == "SnapshotStore":
        from .snapshots import SnapshotStore

        return SnapshotStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BUILTIN_PROFILES",
    "CompositeScore",
    "FileAnalysis",
    "IndicatorMapping",
    "LanguageProfile",
    "ProfileRegistry",
    "ProjectAnalysis",
    "ProjectIndicators",
    "SnapshotStore",
    "__version__",
    "analyze_project",
    "composite_score",
    "detect_profile",
    "load_config",
    "maintainability_index",
    "sensitivity_analysis",
    "tdr_grade",
    "technical_debt_ratio",
]

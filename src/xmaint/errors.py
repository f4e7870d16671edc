"""Fatal error types and non-fatal per-file diagnostics."""

from __future__ import annotations

from typing import NamedTuple


class XmaintError(Exception):
    """Base class for every fatal error raised by this package."""


class UnknownLanguage(XmaintError):
    pass


class EmptyProject(XmaintError):
    pass


class ZeroProductionEffort(XmaintError):
    pass


class InvalidRuleConfig(XmaintError):
    pass


class InvalidProfileConfig(XmaintError):
    pass


class InvalidConfig(XmaintError):
    pass


class NoWeightLeft(XmaintError):
    """Every indicator left after the absent ones are dropped weighs 0."""


class EstimatorMismatch(XmaintError):
    pass


class RuleSetMismatch(XmaintError):
    pass


class SingleCountingViolation(XmaintError):
    """A quality attribute is counted both as an indicator and as a debt rule."""

    def __init__(self, pairs):
        self.pairs = [tuple(p) for p in pairs]
        named = "; ".join(f"indicator '{ind}' conflicts with rule '{rule}'" for ind, rule in self.pairs)
        super().__init__(f"single-counting violation: {named}")


class StoreUnwritable(XmaintError):
    pass


class UnknownMetricKey(XmaintError):
    pass


class NoSnapshots(XmaintError):
    pass


class Diagnostic(NamedTuple):
    """Non-fatal problem attached to a run; never aborts the analysis."""

    code: str
    message: str
    file: str | None = None
    line: int | None = None

    def as_dict(self) -> dict:
        return self._asdict()

"""End-to-end project analysis: discovery, lexing, metrics, clones, rules, models.

Files are analyzed one after another in one loop. The per-file results are
sorted by relative path before any project-level stage, so every report
depends on the file set alone, never on discovery order.
"""

from __future__ import annotations

import fnmatch
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from . import debt_models, duplication, metrics, rules
from .composite import ProjectIndicators
from .debt_models import MiResult, SigResult, TdrResult
from .errors import Diagnostic, EmptyProject, UnknownLanguage, ZeroProductionEffort
from .lexing import LineClassification, classify_lines, physical_line_count, tokenize
from .metrics import ProjectMetrics, UnitMetrics
from .profiles import LanguageProfile, ProfileRegistry, detect_profile
from .rules import RuleSet, Violation
from .units import extract_units

DEFAULT_EXCLUDES = (
    ".git", ".hg", ".svn", "__pycache__", "node_modules", "build", "dist",
    "target", ".venv", "venv", ".idea", ".vscode", ".tox", ".eggs",
)


@dataclass(frozen=True)
class FileAnalysis:
    path: str  # POSIX-style path relative to the project root
    profile_id: str
    lines: LineClassification
    unit_metrics: tuple[UnitMetrics, ...]
    diagnostics: tuple[Diagnostic, ...]
    clone_row: duplication.CloneRow
    # the whole file's Halstead volume and McCabe count, kept under mi.scope "file" only
    halstead_volume: float | None = None
    cyclomatic: int | None = None


@dataclass(frozen=True)
class ProjectAnalysis:
    project_id: str
    root: str
    files: tuple[FileAnalysis, ...]
    metrics: ProjectMetrics
    duplication: duplication.DuplicationReport
    rule_sets: dict[str, RuleSet]
    shared_rule_ids: tuple[str, ...]
    violations: tuple[Violation, ...]
    mi: MiResult | None
    tdr: TdrResult | None
    sig: SigResult
    cost_per_line: float
    coverage: float | None
    diagnostics: tuple[Diagnostic, ...]

    def indicators(self, dup_source: str = "token") -> ProjectIndicators:
        if dup_source == "line":
            dup_ratio = self.duplication.duplicated_line_ratio
        else:
            dup_ratio = self.duplication.duplicated_token_ratio
        return ProjectIndicators(
            project_id=self.project_id,
            comment_ratio=self.metrics.comment_ratio,
            duplication_ratio=dup_ratio,
            tdr=self.tdr.tdr if self.tdr else None,
            total_loc=self.metrics.total_loc,
            cost_per_line=self.cost_per_line,
            rule_ids=self.shared_rule_ids,
        )


def discover_files(
    root: Path,
    registry: ProfileRegistry,
    forced_profile: str | None = None,
    includes: tuple[str, ...] = (),
    excludes: tuple[str, ...] = (),
) -> list[tuple[Path, str, LanguageProfile]]:
    """Recursive walk (symlinks not followed) yielding (abs, rel, profile).

    Files are kept when their extension belongs to a registered profile,
    or, under a forced profile, to that profile; explicit include globs
    widen the forced net to any matching file.
    """
    if not root.exists():
        raise EmptyProject(f"path does not exist: {root}")
    if root.is_file():
        candidates = [root]
        base = root.parent
    else:
        base = root
        candidates = []
        stack = [root]
        while stack:
            directory = stack.pop()
            try:
                entries = sorted(directory.iterdir())
            except OSError:
                continue
            for entry in entries:
                if entry.is_symlink():
                    continue
                if entry.is_dir():
                    if entry.name in DEFAULT_EXCLUDES:
                        continue
                    stack.append(entry)
                elif entry.is_file():
                    candidates.append(entry)

    exclude_patterns = tuple(excludes)
    include_patterns = tuple(includes)
    selected = []
    for path in sorted(candidates):
        rel = path.relative_to(base).as_posix()
        if any(fnmatch.fnmatch(rel, pat) or fnmatch.fnmatch(path.name, pat) for pat in exclude_patterns):
            continue
        if include_patterns and not any(
            fnmatch.fnmatch(rel, pat) or fnmatch.fnmatch(path.name, pat) for pat in include_patterns
        ):
            continue
        if forced_profile is not None:
            profile = registry.get(forced_profile)
            if not include_patterns and path.suffix.lower() not in profile.file_extensions:
                continue
        else:
            try:
                profile = detect_profile(path, registry)
            except UnknownLanguage:
                continue  # unrecognized extensions are simply not analyzed
        selected.append((path, rel, profile))
    return selected


def read_source(abs_path: Path) -> str:
    """A file's text under the one line-break model: "\r\n" and a lone "\r"
    end a line like "\n"; no other character does. Raises OSError or
    UnicodeDecodeError."""
    text = abs_path.read_bytes().decode("utf-8-sig")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def analyze_file(
    abs_path: Path,
    rel: str,
    profile: LanguageProfile,
    dup_mode: str = duplication.EXACT,
    ids: duplication.TokenIds | None = None,
    file_scope: bool = False,
) -> FileAnalysis:
    """Everything the project stages need of one file; its tokens are dropped
    on return. The clone row's ids come from ``ids``, the project's table (a
    fresh one when omitted). ``file_scope`` keeps the file's Halstead volume
    and McCabe count for file-level MI."""
    tokens = []
    unit_metrics = ()
    try:
        text = read_source(abs_path)
    except OSError as exc:
        lines = classify_lines([], 0)
        diagnostics = [Diagnostic("unreadable-file", str(exc), file=rel)]
    except UnicodeDecodeError as exc:
        lines = classify_lines([], 0)
        diagnostics = [Diagnostic("not-utf8", f"not valid UTF-8: {exc}", file=rel)]
    else:
        tokens, diagnostics = tokenize(text, profile, file=rel)
        lines = classify_lines(tokens, physical_line_count(text))
        units, unit_diags = extract_units(tokens, profile, file=rel)
        diagnostics.extend(unit_diags)
        unit_metrics = metrics.file_unit_metrics(units, tokens, lines, profile)
    return FileAnalysis(
        path=rel,
        profile_id=profile.id,
        lines=lines,
        unit_metrics=tuple(unit_metrics),
        diagnostics=tuple(diagnostics),
        clone_row=duplication.normalize_tokens(
            tokens, dup_mode, profile.case_sensitive, duplication.token_ids() if ids is None else ids
        ),
        halstead_volume=metrics.halstead(tokens, profile).volume if file_scope else None,
        cyclomatic=metrics.cyclomatic_complexity(tokens, profile) if file_scope else None,
    )


def _file_level_means(files: list[FileAnalysis]):
    """aHV/aCC/aLOC with module = file instead of unit (config variant), over
    the one or more files of a project."""
    count = len(files)
    volumes = sum(fa.halstead_volume for fa in files)
    ccs = sum(fa.cyclomatic for fa in files)
    locs = sum(fa.lines.code + fa.lines.mixed for fa in files)
    return volumes / count, ccs / count, locs / count


def _evaluate_sig(
    project_metrics: ProjectMetrics,
    unit_metric_list: list[UnitMetrics],
    dup_token_ratio: float,
    coverage: float | None,
    sig_cfg: dict,
    registry: ProfileRegistry,
) -> SigResult:
    cc_bands = tuple(sig_cfg["cc_bands"])
    size_bands = tuple(sig_cfg["unit_size_bands"])
    caps = {int(k): tuple(v) for k, v in sig_cfg["profile_caps"].items()}
    matrix = {k: tuple(v) for k, v in sig_cfg["matrix"].items()}

    ratings: dict[str, int | None] = {}
    ratings["volume"] = debt_models.sig_rate_scalar(
        project_metrics.total_loc, [tuple(x) for x in sig_cfg["volume_ladder"]]
    )
    ratings["duplication"] = debt_models.sig_rate_scalar(
        dup_token_ratio, [tuple(x) for x in sig_cfg["duplication_ladder"]]
    )
    if unit_metric_list:
        cc_profile = debt_models.sig_risk_profile(
            [(m.cc, m.loc) for m in unit_metric_list], cc_bands
        )
        ratings["complexity"] = debt_models.sig_rate_risk_profile(cc_profile, caps)
        # unit size is compared verbosity-normalized so 'long' is language-fair
        size_profile = debt_models.sig_risk_profile(
            [
                (m.loc / registry.get(m.unit.profile_id).verbosity_factor, m.loc)
                for m in unit_metric_list
            ],
            size_bands,
        )
        ratings["unitSize"] = debt_models.sig_rate_risk_profile(size_profile, caps)
    else:
        ratings["complexity"] = None
        ratings["unitSize"] = None
    if coverage is not None:
        ratings["unitTesting"] = debt_models.sig_rate_scalar(
            coverage, [tuple(x) for x in sig_cfg["coverage_ladder"]], ascending=True
        )
    else:
        ratings["unitTesting"] = None
    return debt_models.sig_characteristics(ratings, matrix)


def _project_coverage(sig_cfg: dict, project_id: str) -> float | None:
    coverage = sig_cfg.get("coverage")
    if isinstance(coverage, dict):
        value = coverage.get(project_id)
        return float(value) if value is not None else None
    return float(coverage) if coverage is not None else None


def evaluate_debt(
    files: list[FileAnalysis],
    rule_sets: dict[str, RuleSet],
    clone_blocks,
    cost_per_line: float,
    total_loc: int,
) -> tuple[tuple[Violation, ...], TdrResult | None, list[Diagnostic]]:
    """Rule evaluation plus the debt ratio: each file's units, comment ratio
    and clone blocks (those whose first copy it holds) are checked against
    the rule set of the file's own profile."""
    blocks_by_file = defaultdict(list)
    for block in clone_blocks:
        blocks_by_file[block.file_a].append(block)
    violations: list[Violation] = []
    for fa in files:
        violations.extend(rules.check_rules(
            fa.unit_metrics, rule_sets[fa.profile_id],
            {fa.path: metrics.comment_ratio(fa.lines)}, blocks_by_file[fa.path],
        ))
    violations.sort(key=lambda v: (v.file, v.line, v.rule_id))

    try:
        production = debt_models.production_effort(total_loc, cost_per_line)
        return tuple(violations), debt_models.technical_debt_ratio(violations, production), []
    except ZeroProductionEffort:
        return tuple(violations), None, [Diagnostic(
            "zero-production-effort",
            "project has no code lines; debt ratio undefined",
        )]


def analyze_project(
    root: str | Path,
    config: dict,
    registry: ProfileRegistry,
    project_id: str | None = None,
    forced_profile: str | None = None,
    includes: tuple[str, ...] = (),
    excludes: tuple[str, ...] = (),
) -> ProjectAnalysis:
    """Full pipeline for one code base."""
    root = Path(root)
    project_id = project_id or root.name
    found = discover_files(root, registry, forced_profile, includes, excludes)
    if not found:
        raise EmptyProject(f"no analyzable files under {root}")

    dup_cfg = config["duplication"]
    ids = duplication.token_ids()
    file_scope = config["models"]["mi"]["scope"] == "file"
    files = [analyze_file(*item, dup_cfg["mode"], ids, file_scope) for item in found]
    del ids  # the rows keep their ids; the texts behind them can go
    files.sort(key=lambda fa: fa.path)

    diagnostics = [d for fa in files for d in fa.diagnostics]

    all_unit_metrics = [m for fa in files for m in fa.unit_metrics]
    project_metrics = metrics.aggregate_project(
        [fa.lines for fa in files],
        all_unit_metrics,
        weighted=bool(config["metrics"]["weighted_unit_means"]),
    )

    dup_report = duplication.build_report(
        {fa.path: fa.clone_row for fa in files},
        int(dup_cfg["min_tokens"]),
        dup_cfg["mode"],
        project_metrics.total_loc,
    )

    profile_ids = sorted({fa.profile_id for fa in files})
    rule_sets = {
        pid: rules.load_rule_set(config["rules"], registry.get(pid)) for pid in profile_ids
    }
    shared_rule_ids = tuple(rules.intersect_rule_sets(list(rule_sets.values())))

    cost_per_line = float(config["models"]["sqale"]["cost_per_line_minutes"])
    violations, tdr, debt_diags = evaluate_debt(
        files, rule_sets, dup_report.blocks, cost_per_line, project_metrics.total_loc
    )
    diagnostics.extend(debt_diags)

    mi_result: MiResult | None = None
    if file_scope:
        ahv, acc, aloc = _file_level_means(files)
    else:
        ahv, acc, aloc = project_metrics.ahv, project_metrics.acc, project_metrics.aloc
    if ahv is not None:
        mi_result = debt_models.maintainability_index(ahv, acc, aloc)

    coverage = _project_coverage(config["models"]["sig"], project_id)
    sig_result = _evaluate_sig(
        project_metrics,
        all_unit_metrics,
        dup_report.duplicated_token_ratio,
        coverage,
        config["models"]["sig"],
        registry,
    )

    return ProjectAnalysis(
        project_id=project_id,
        root=str(root),
        files=tuple(files),
        metrics=project_metrics,
        duplication=dup_report,
        rule_sets=rule_sets,
        shared_rule_ids=shared_rule_ids,
        violations=violations,
        mi=mi_result,
        tdr=tdr,
        sig=sig_result,
        cost_per_line=cost_per_line,
        coverage=coverage,
        diagnostics=tuple(diagnostics),
    )


def shared_rules(analyses: list[ProjectAnalysis]) -> tuple[list[str], Diagnostic | None]:
    """The rule ids enabled for every profile of two or more compared
    projects, plus a warning when there are none. Rule enablement is
    config-wide, so every rule set of one run enables the same ids: each
    project was already billed against exactly these."""
    shared = rules.intersect_rule_sets([rs for pa in analyses for rs in pa.rule_sets.values()])
    warning = None
    if not shared:
        warning = Diagnostic(
            "empty-intersection",
            "no coding rule is enabled for every compared language; debt ratios compare only rule-free attributes",
        )
    return shared, warning

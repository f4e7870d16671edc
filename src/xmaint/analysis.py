"""End-to-end project analysis: discovery, lexing, metrics, clones, rules, models.

The per-file stage (read, tokenize, classify lines, extract units, unit
metrics, normalize) runs in shares of the files: one share, in this
process, or, when the source holds at least two shares of
``_MIN_SHARE_BYTES``, up to one share per core, of near-equal size, the
largest file first, each to the lightest share. This process analyzes the
first share against the project's id table. One forked worker per later
share analyzes its files against a table of its own and pickles that
table's keys and then each result back through a pipe; the parent maps the
worker's ids to project ids once per share. Project ids then come out in
another order than one process gives them, and the reports are still the
same bytes: the clone stage only compares ids for equality and hashes
them, a hash collision is settled by comparing window contents, and blocks
are sorted by a key that holds no id. One share is used whenever
``os.fork`` is missing, the process may use one core, or another thread is
alive, since a forked child holds only the thread that forked it.

The per-file results are sorted by relative path before any project-level
stage, so every report depends on the file set alone, never on discovery
order.
"""

import fnmatch
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from . import debt_models, duplication, metrics, rules
from .composite import ProjectIndicators
from .debt_models import MiResult, SigResult, TdrResult
from .errors import Diagnostic, EmptyProject, UnknownLanguage, XmaintError, ZeroProductionEffort
from .lexing import LineClassification, TokenStream, classify_lines, physical_line_count, tokenize
from .metrics import ProjectMetrics, UnitMetrics
from .profiles import LanguageProfile, ProfileRegistry, detect_profile
from .rules import RuleSet, Violation
from .units import extract_units

DEFAULT_EXCLUDES = (
    ".git", ".hg", ".svn", "__pycache__", "node_modules", "build", "dist",
    "target", ".venv", "venv", ".idea", ".vscode", ".tox", ".eggs",
)

# The per-file stage uses one process per this many bytes of source, up to
# the process's cores. Two shares, 224 KiB, is where two processes began to
# gain clearly over one loop in a break-even series on stdlib prefixes
# (CHANGES.md logs it): below it their median time was 0.93 to 1.02 of the
# loop's, from it up 0.82 to 0.89 at all but one size.
_MIN_SHARE_BYTES = 112 * 1024


class FileAnalysis(NamedTuple):
    path: str  # POSIX-style path relative to the project root
    profile_id: str
    lines: LineClassification  # counts only: the per-line classes are dropped
    unit_metrics: tuple[UnitMetrics, ...]
    diagnostics: tuple[Diagnostic, ...]
    clone_row: duplication.CloneRow
    # the whole file's Halstead volume and McCabe count, kept under mi.scope "file" only
    halstead_volume: float | None = None
    cyclomatic: int | None = None


class ProjectAnalysis(NamedTuple):
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
    ids: duplication.TokenIds,
    dup_mode: str = duplication.EXACT,
    file_scope: bool = False,
) -> FileAnalysis:
    """Everything the project stages need of one file; its tokens are dropped
    on return. The clone row's ids come from ``ids``, the project's table
    or a worker share's. ``file_scope`` keeps the file's Halstead volume and
    McCabe count for file-level MI."""
    tokens = TokenStream()
    unit_metrics = ()
    try:
        text = read_source(abs_path)
    except OSError as exc:
        lines = classify_lines(tokens, 0)
        diagnostics = [Diagnostic("unreadable-file", str(exc), file=rel)]
    except UnicodeDecodeError as exc:
        lines = classify_lines(tokens, 0)
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
        lines=lines._replace(classes=()),  # the unit metrics have read them
        unit_metrics=tuple(unit_metrics),
        diagnostics=tuple(diagnostics),
        clone_row=duplication.normalize_tokens(tokens, dup_mode, profile.case_sensitive, ids),
        halstead_volume=metrics.halstead(tokens, profile).volume if file_scope else None,
        cyclomatic=metrics.cyclomatic_complexity(tokens, profile) if file_scope else None,
    )


def _analyze_files(
    found: list[tuple[Path, str, LanguageProfile]], dup_mode: str, file_scope: bool
) -> list[FileAnalysis]:
    """``analyze_file`` for every discovered file, in discovery order, with
    clone row ids from one project table. This process analyzes the first
    of ``_shares`` against that table, and one forked worker each later
    share, each started on its own CPU. A worker's exception is raised here;
    a worker that exits before its last result, killed for memory say, is
    an XmaintError. No worker or pipe outlives the call, and a worker whose
    parent is gone, killed by a signal say, exits before its next file. The
    rows keep their ids; the table, and the texts behind its keys, go on
    return."""
    shares, cpus = _shares(found)
    results = [None] * len(found)
    workers = {}  # pid -> (the read end of its pipe, its share)
    if len(shares) > 1:
        import pickle
        import signal

        parent = os.getpid()
        _start_on(cpus[0], cpus)
    try:
        for worker, share in enumerate(shares[1:], 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the worker: never returns into the caller's code
                status = 1
                try:
                    os.close(read_fd)
                    _start_on(cpus[worker], cpus)
                    table = duplication.token_ids()
                    with os.fdopen(write_fd, "wb") as pipe:
                        try:
                            analyses = []
                            for index in share:
                                if os.getppid() != parent:  # nobody reads this share
                                    os._exit(1)
                                analyses.append(analyze_file(*found[index], table, dup_mode, file_scope))
                        except BaseException as exc:  # raised again by the parent
                            pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)
                        else:
                            # the table's keys, then one pickle per file, which
                            # keeps each load's memo small; an array sends 4
                            # bytes an id and makes no int object per id on
                            # the other side
                            pickle.dump(list(table), pipe, pickle.HIGHEST_PROTOCOL)
                            for fa in analyses:
                                fa.clone_row.ids = array("i", fa.clone_row.ids)
                                pickle.dump(fa, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers[pid] = os.fdopen(read_fd, "rb"), share
        ids = duplication.token_ids()
        for index in shares[0]:
            results[index] = analyze_file(*found[index], ids, dup_mode, file_scope)
        for pid, (pipe, share) in list(workers.items()):
            with pipe:
                try:
                    keys = pickle.load(pipe)  # or the worker's exception
                    if isinstance(keys, list):
                        to_project = [ids[key] for key in keys]
                        for index in share:
                            fa = results[index] = pickle.load(pipe)
                            fa.clone_row.ids = list(map(to_project.__getitem__, fa.clone_row.ids))
                except (EOFError, pickle.UnpicklingError):
                    keys = None  # the stream ended early
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if isinstance(keys, BaseException):
                raise keys
            if keys is None:
                raise XmaintError(
                    f"per-file worker {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without its result"
                )
    finally:
        for pid, (pipe, _) in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _shares(
    found: list[tuple[Path, str, LanguageProfile]],
) -> tuple[list[list[int]], list[int]]:
    """The per-file stage's shares, as indices into ``found``, and the CPUs
    this process may run on. Every file is in one share, in discovery order,
    unless the process can fork onto two CPUs or more and the files hold at
    least two shares of ``_MIN_SHARE_BYTES``."""
    whole = [list(range(len(found)))], []
    threading = sys.modules.get("threading")  # not imported just to ask
    if not hasattr(os, "fork") or len(found) < 2 or (
        threading is not None and threading.active_count() > 1
    ):
        return whole
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = list(range(os.cpu_count() or 1))
    if len(cpus) < 2:
        return whole
    sizes = []
    for path, _, _ in found:
        try:
            sizes.append(path.stat().st_size)
        except OSError:
            sizes.append(0)  # analyze_file reports it
    count = min(len(cpus), len(found), sum(sizes) // _MIN_SHARE_BYTES)
    return (_balanced_shares(sizes, count), cpus) if count > 1 else whole


def _start_on(cpu: int, cpus: list[int]) -> None:
    """Move this process to ``cpu``, then let it run on any of ``cpus``
    again. A kernel that does not balance load across CPUs (a cpuset with
    ``sched_load_balance`` off) leaves a forked worker on its parent's CPU
    for good; one that does may still move it later."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, (cpu,))
    except OSError:
        return  # the CPU has left the set since it was read
    os.sched_setaffinity(0, cpus)


def _balanced_shares(sizes: list[int], count: int) -> list[list[int]]:
    """File indices split into ``count`` shares of near-equal total size:
    the largest file first, each to the share that is lightest so far."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for index in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest].append(index)
        loads[lightest] += sizes[index]
    return shares


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
    file_scope = config["models"]["mi"]["scope"] == "file"
    files = _analyze_files(found, dup_cfg["mode"], file_scope)
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
        dup_cfg["min_tokens"],
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

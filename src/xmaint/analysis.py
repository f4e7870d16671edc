"""End-to-end project analysis: discovery, lexing, metrics, clones, rules, models.

The per-file stage (read, tokenize, classify lines, extract units, unit
metrics, normalize) runs in shares of the files: one share, in this
process, or, when the source holds at least two shares of
``_MIN_SHARE_BYTES``, up to one share per core, of near-equal size, the
largest file first, each to the lightest share. This process analyzes the
first share against the project's id table. One forked worker per later
share analyzes its files against a table of its own and pickles that
table's keys and then each result, tagged by file index, back through a
pipe; the parent maps the worker's ids to project ids once per share and
keeps every result in one dict by index. Project ids then come out in
another order than one process gives them, and the reports are still the
same bytes: the clone stage only compares ids for equality and hashes
them, a hash collision is settled by comparing window contents, and blocks
are sorted by a key that holds no id. One share is used whenever
``os.fork`` is missing, the process may use one core, or another thread is
alive, since a forked child holds only the thread that forked it.

Each process analyzes each distinct file content of a project once. A file
whose profile and bytes equal those of a file it analyzed earlier for the
same project gets that file's result under its own path: only the file
analysis names its file and profile, so the copy is that analysis with its
path replaced, sharing its unit metrics and diagnostics, and the clone row,
whose ids come from the same table, is shared too. A per-file diagnostic
gets its file when the project's diagnostics are gathered. So 30 copies of
a file of twelve units hold 1.27 times one copy's per-file output
(tracemalloc), and of a file of 80 one-line functions 1.09 times. The memo
key is the profile id, the size and ``hash`` of the bytes; on a key hit the
earlier file is read again and the bytes compared, so a collision or a file
changed between the reads is analyzed afresh, and no source bytes are
kept. A ``hashlib`` digest would load OpenSSL's libcrypto into every run.
The memo goes with the project's id table, and each worker keeps its own;
equal-size copies go to the shares in turn, so k copies cost one analysis
per share.

``analyze_projects``, which ``compare`` runs, discovers every project
first and runs one per-file stage over the files of all of them, each
project with an id table of its own in every process, so a large project's
files spread over every share and many small projects share the cores. A
project whose files all lie in one share gets its project-level stages in
that share's process, right after its last file, and a worker sends back
its finished ``ProjectAnalysis``, tagged by that file; a project whose
files are split over shares gets them in this process once every share has
ended. One share thus finishes each project before it reads the next one's
files. The error raised is the one a process analyzing the projects one
after another raises: that of the first failing project in the order
given, found as the failure at the lowest file index.

The per-file results are sorted by relative path before any project-level
stage, so every report depends on the file set alone, never on discovery
order. The clone rows live beside the file analyses until their project's
analysis is built; a ``ProjectAnalysis`` holds none.
"""

import bisect
import fnmatch
import itertools
import os
import sys
from array import array
from collections import Counter, defaultdict
from collections.abc import Callable
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
    diagnostics: tuple[Diagnostic, ...]  # with a line and no file: the project's names it
    # the whole file's Halstead volume and McCabe count, kept under mi.scope "file" only
    halstead_volume: float | None = None
    cyclomatic: int | None = None


class ProjectAnalysis(NamedTuple):
    project_id: str
    root: str
    files: tuple[FileAnalysis, ...]
    metrics: ProjectMetrics
    duplication: duplication.DuplicationReport
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
    """(abs, rel, profile) of each file under ``root``, sorted by path.

    ``os.walk`` follows no symlinked directory, skips one it cannot read and
    enters none that ``DEFAULT_EXCLUDES`` names. A regular file that is no
    symlink is kept when its extension belongs to a registered profile, or,
    under a forced profile, to that profile; explicit include globs widen
    the forced net to any matching file.
    """
    if not root.exists():
        raise EmptyProject(f"path does not exist: {root}")
    if root.is_file():
        candidates = [root]
        base = root.parent
    else:
        base = root
        candidates = []
        for directory, dirnames, filenames in os.walk(root):
            dirnames[:] = [name for name in dirnames if name not in DEFAULT_EXCLUDES]
            paths = (Path(directory, name) for name in filenames)
            candidates.extend(path for path in paths if not path.is_symlink() and path.is_file())

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


def read_source(abs_path: Path, data: bytes | None = None) -> str:
    """A file's text under the one line-break model: "\r\n" and a lone "\r"
    end a line like "\n"; no other character does. ``data`` is the file's
    bytes when they are already read. Raises OSError or UnicodeDecodeError."""
    text = (abs_path.read_bytes() if data is None else data).decode("utf-8-sig")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def analyze_file(
    abs_path: Path,
    rel: str,
    profile: LanguageProfile,
    ids: duplication.TokenIds,
    dup_mode: str = duplication.EXACT,
    file_scope: bool = False,
    data: bytes | None = None,
) -> tuple[FileAnalysis, duplication.CloneRow]:
    """Everything the project stages need of one file, and its clone row;
    its tokens are dropped on return. The result alone names the file and
    its profile: its units and diagnostics carry neither. The row's ids
    come from ``ids``, the project's table or a worker share's.
    ``file_scope`` keeps the file's Halstead volume and McCabe count for
    file-level MI. ``data`` is the file's bytes when they are already read."""
    tokens = TokenStream()
    unit_metrics = ()
    try:
        text = read_source(abs_path, data)
    except OSError as exc:
        lines = classify_lines(tokens, 0)
        diagnostics = [Diagnostic("unreadable-file", str(exc))]
    except UnicodeDecodeError as exc:
        lines = classify_lines(tokens, 0)
        diagnostics = [Diagnostic("not-utf8", f"not valid UTF-8: {exc}")]
    else:
        tokens, diagnostics = tokenize(text, profile)
        lines = classify_lines(tokens, physical_line_count(text))
        units, unit_diags = extract_units(tokens, profile)
        diagnostics.extend(unit_diags)
        unit_metrics = metrics.file_unit_metrics(units, tokens, lines, profile)
    cyclomatic, counts = metrics.file_counts(tokens, profile) if file_scope else (None, None)
    return FileAnalysis(
        path=rel,
        profile_id=profile.id,
        lines=lines._replace(classes=()),  # the unit metrics have read them
        unit_metrics=tuple(unit_metrics),
        diagnostics=tuple(diagnostics),
        halstead_volume=counts and counts.volume,
        cyclomatic=cyclomatic,
    ), duplication.normalize_tokens(tokens, dup_mode, profile.case_sensitive, ids)


def _analyze_or_reuse(
    item: tuple[Path, str, LanguageProfile],
    ids: duplication.TokenIds,
    memo: dict,
    dup_mode: str,
    file_scope: bool,
) -> tuple[FileAnalysis, duplication.CloneRow]:
    """``analyze_file`` of ``item``, or, when ``memo`` holds a file of the
    same profile and bytes, that file's analysis with ``item``'s path, which
    shares its unit metrics, diagnostics and clone row. ``memo`` maps
    ``(profile id, size, hash(bytes))`` to the last file analyzed with that
    key, with ids from ``ids``, and its result. A key hit counts only if
    that file, read again, holds the same bytes; the bytes themselves are
    never kept."""
    abs_path, rel, profile = item
    try:
        data = abs_path.read_bytes()
    except OSError:  # analyze_file reports it
        return analyze_file(abs_path, rel, profile, ids, dup_mode, file_scope)
    key = profile.id, len(data), hash(data)
    if key in memo:
        earlier, (fa, row) = memo[key]
        try:
            same = earlier.read_bytes() == data
        except OSError:
            same = False
        if same:
            return fa._replace(path=rel), row
    result = analyze_file(abs_path, rel, profile, ids, dup_mode, file_scope, data)
    memo[key] = abs_path, result
    return result


def _analyze_files(
    projects: list[list[tuple[Path, str, LanguageProfile]]],
    dup_mode: str,
    file_scope: bool,
    finish: Callable[[int, list[FileAnalysis], dict[str, duplication.CloneRow]], object],
) -> tuple[list, Exception | None]:
    """``analyze_file`` for every discovered file of ``projects``, in
    ``_shares`` of all their files, each project's rows with ids from a table
    of its own, and ``finish(project, files, rows)`` over each project's file
    analyses, sorted by path, and its rows by path. Returns what ``finish``
    returned for each project before the first that fails, in project order,
    and that failure, or None. This process runs the first share, and one
    forked worker each later share, each started on its own CPU. Within a
    share, a file whose profile and bytes equal an earlier file's of the
    same project reuses its result (``_analyze_or_reuse``), from a memo that
    goes with the project's id table.

    A share yields ``(file index, result)`` pairs in discovery order: one per
    file of a project split over shares, and for a project it holds whole,
    what ``finish`` returned, tagged with the project's last file; the
    project's rows and id table go there. Its first failure, in a
    file or in ``finish``, ends it as ``(file index, exception)``. A worker
    pickles the keys of each split project's table, then its pairs, and the
    parent maps a split project's rows to project ids once per share and
    project. A worker whose stream ends early, killed for memory say, fails
    with an XmaintError at the first file of its share after its last pair.
    The failure at the lowest index is the one a lone process would meet; each
    split project before it is finished here once the id tables have gone,
    so it reuses their memory. A failing ``os.pipe`` or ``os.fork`` raises an
    XmaintError. No worker or pipe outlives the call, and a worker whose
    parent is gone exits before its next file, so after the project-level
    stages of a project whose last file it has just analyzed."""
    items = [(project, item) for project, found in enumerate(projects) for item in found]
    ends = list(itertools.accumulate(map(len, projects)))  # one past each project's last file
    shares, cpus = _shares([item for _, item in items])
    holders = Counter(project for share in shares for project in {items[index][0] for index in share})
    split = {project for project, count in holders.items() if count > 1}  # held by two shares or more
    parent = os.getpid()
    results = {}  # file index -> the result of its pair, or the exception a share stopped at
    received = []  # the last worker's keys and the project ids they map to

    def run(share, tables):
        """The share's pairs, the last one its failure if it fails."""
        whole = []  # the current whole project's files
        memos = defaultdict(dict)  # project -> its results here by content, beside its table
        for index in share:
            if os.getpid() != parent and os.getppid() != parent:  # nobody reads this share
                os._exit(1)
            project, item = items[index]
            try:
                result = _analyze_or_reuse(item, tables[project], memos[project], dup_mode, file_scope)
                if project not in split:
                    whole.append(result)
                    if index + 1 < ends[project]:
                        continue
                    del tables[project], memos[project]
                    result, whole = finish(project, *_by_path(whole)), []
            except Exception as exc:
                yield index, exc
                return
            yield index, result

    def receive(pipe, tables):
        """A worker's pairs, its ids mapped to project ids, into ``results``
        to the end of its stream; the index of its last pair, or -1."""
        last = -1
        try:
            keys = pickle.load(pipe)
            to_ids = {project: list(map(tables[project].__getitem__, project_keys))
                      for project, project_keys in keys.items()}
            received[:] = keys, to_ids  # an earlier worker's go now
            while True:
                last, result = pickle.load(pipe)
                project = items[last][0]
                if project in split and not isinstance(result, Exception):
                    # an array fills faster from a list than from an iterator
                    result[1].ids = array("i", list(map(to_ids[project].__getitem__, result[1].ids)))
                results[last] = result
        except (EOFError, pickle.UnpicklingError):
            return last

    workers = {}  # pid -> (the read end of its pipe, its share)
    if len(shares) > 1:
        import pickle
        import signal

        _start_on(cpus[0], cpus)
    try:
        for worker, share in enumerate(shares[1:], 1):
            fds = ()
            try:
                fds = read_fd, write_fd = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in fds:
                    os.close(fd)
                call = "os.fork" if fds else "os.pipe"
                raise XmaintError(f"cannot start a per-file worker: {call} failed: {exc}") from None
            if pid == 0:  # the worker: never returns into the caller's code
                status = 1
                try:
                    os.close(read_fd)
                    _start_on(cpus[worker], cpus)
                    tables = defaultdict(duplication.token_ids)  # project -> its ids here
                    pairs = list(run(share, tables))
                    # one pickle per pair keeps each load's memo small
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump({project: list(table) for project, table in tables.items() if project in split},
                                    pipe, pickle.HIGHEST_PROTOCOL)
                        for pair in pairs:
                            pickle.dump(pair, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers[pid] = os.fdopen(read_fd, "rb"), share
        tables = defaultdict(duplication.token_ids)
        results.update(run(shares[0], tables))
        for pid, (pipe, share) in list(workers.items()):
            with pipe:
                last = receive(pipe, tables)
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if last != share[-1] and not isinstance(results.get(last), Exception):  # the stream ended early
                results[share[bisect.bisect(share, last)]] = XmaintError(
                    f"per-file worker {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without its result"
                )
    finally:
        for pid, (pipe, _) in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # freed together: freed one by one, with small objects allocated in
    # between, they leave the small-object allocator's arenas partly used
    del tables, received
    failed = min((index for index, result in results.items() if isinstance(result, Exception)),
                 default=len(items))
    analyses = []
    for project, end in enumerate(ends):
        if end > failed:
            return analyses, results[failed]
        if project in split:
            try:
                results[end - 1] = finish(project, *_by_path(
                    [results.pop(index) for index in range(end - len(projects[project]), end)]))
            except Exception as exc:
                return analyses, exc
        analyses.append(results.pop(end - 1))
    return analyses, None


def _by_path(results: list[tuple[FileAnalysis, duplication.CloneRow]]):
    """A project's file analyses sorted by path, and their clone rows by path."""
    results.sort(key=lambda result: result[0].path)
    return [fa for fa, _ in results], {fa.path: row for fa, row in results}


def _shares(found: list[tuple[Path, str, LanguageProfile]]) -> tuple[list[list[int]], list[int]]:
    """The per-file stage's shares, as ascending indices into ``found``, and
    the CPUs this process may run on. Every file is in one share unless the
    process can fork onto two CPUs or more and the files hold at least two
    shares of ``_MIN_SHARE_BYTES``. There are at most as many shares as CPUs
    and as files, and at most the total size over the largest file's,
    rounded up: the share that holds that file takes as long as it at least,
    and that many shares can already end no later."""
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
    total = sum(sizes)
    count = min(len(cpus), len(found), total // _MIN_SHARE_BYTES, -(-total // (max(sizes) or 1)))
    if count < 2:
        return whole
    return [sorted(share) for share in _balanced_shares(sizes, count)], cpus


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
    """File indices split into at most ``count`` shares of near-equal total
    size: the largest file first, each to the share that is lightest so far.
    No share is empty."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for index in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest].append(index)
        loads[lightest] += sizes[index]
    return [share for share in shares if share]


def _evaluate_sig(
    project_metrics: ProjectMetrics,
    files: list[FileAnalysis],
    dup_token_ratio: float,
    coverage: float | None,
    sig_cfg: dict,
    registry: ProfileRegistry,
) -> SigResult:
    caps = {int(rating): shares for rating, shares in sig_cfg["profile_caps"].items()}  # JSON keys are text

    ratings: dict[str, int | None] = {}
    ratings["volume"] = debt_models.sig_rate_scalar(project_metrics.total_loc, sig_cfg["volume_ladder"])
    ratings["duplication"] = debt_models.sig_rate_scalar(dup_token_ratio, sig_cfg["duplication_ladder"])
    if project_metrics.unit_count:
        cc_profile = debt_models.sig_risk_profile(
            [(m.cc, m.loc) for fa in files for m in fa.unit_metrics], sig_cfg["cc_bands"]
        )
        ratings["complexity"] = debt_models.sig_rate_risk_profile(cc_profile, caps)
        # unit size is compared verbosity-normalized so 'long' is language-fair
        sizes = []
        for fa in files:
            verbosity = registry.get(fa.profile_id).verbosity_factor
            sizes.extend((m.loc / verbosity, m.loc) for m in fa.unit_metrics)
        size_profile = debt_models.sig_risk_profile(sizes, sig_cfg["unit_size_bands"])
        ratings["unitSize"] = debt_models.sig_rate_risk_profile(size_profile, caps)
    else:
        ratings["complexity"] = None
        ratings["unitSize"] = None
    ratings["unitTesting"] = (None if coverage is None
                              else debt_models.sig_rate_scalar(coverage, sig_cfg["coverage_ladder"], ascending=True))
    return debt_models.sig_characteristics(ratings, sig_cfg["matrix"])


def _project_coverage(sig_cfg: dict, project_id: str) -> float | None:
    coverage = sig_cfg["coverage"]
    if isinstance(coverage, dict):  # keyed by project id
        coverage = coverage.get(project_id)
    return None if coverage is None else float(coverage)


def evaluate_debt(
    files: list[FileAnalysis],
    rule_sets: dict[str, RuleSet],
    clone_blocks,
    cost_per_line: float,
    total_loc: int,
) -> tuple[tuple[Violation, ...], TdrResult | None, list[Diagnostic]]:
    """Rule evaluation plus the debt ratio: each file's units and comment
    ratio are checked against the rule set of the file's own profile, and an
    enabled duplication-block rule fires once per clone block, at its first
    copy. The violations are sorted by (file, line, rule id); ties keep unit
    and block order."""
    violations: list[Violation] = []
    for fa in files:
        violations.extend(rules.check_rules(
            fa.unit_metrics, rule_sets[fa.profile_id], fa.path, metrics.comment_ratio(fa.lines)
        ))
    block_rule = next(iter(rule_sets.values())).get(rules.DUPLICATION_BLOCK)  # the same in every rule set
    if block_rule.enabled:
        violations.extend(
            block_rule.violation(block.file_a, block.start_line_a, None, block.length_tokens, block_rule.threshold)
            for block in clone_blocks
        )
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
    return analyze_projects(
        [root], [project_id or Path(root).name], config, registry, forced_profile, includes, excludes
    )[0]


def analyze_projects(
    roots: list[str | Path],
    project_ids: list[str],
    config: dict,
    registry: ProfileRegistry,
    forced_profile: str | None = None,
    includes: tuple[str, ...] = (),
    excludes: tuple[str, ...] = (),
) -> list[ProjectAnalysis]:
    """The full pipeline for each root, in the order given. Every project
    is discovered first, and each registered profile's rule set is loaded
    once; then ``_analyze_files`` runs one per-file stage over the files of
    all of them and hands back each finished project: its project-level
    stages run in the process that analyzed its files, right after its last
    file, or here once the stage has ended when its files are split over
    processes. A project's clone rows go once its analysis is built. The
    error raised is the one a process analyzing the projects one after
    another in the order given raises: that of the first failing project,
    discovery included. ``config`` is one ``load_config`` has validated: the
    rule sets are loaded before any file is analyzed, so an invalid ``rules``
    section raises ahead of every project's error."""
    roots = [Path(root) for root in roots]
    found, failure = [], None
    for root in roots:
        try:
            files = discover_files(root, registry, forced_profile, includes, excludes)
            if not files:
                raise EmptyProject(f"no analyzable files under {root}")
        except Exception as exc:  # raised once every earlier project is analyzed
            failure = exc
            break
        found.append(files)

    # rule enablement is config-wide, so every project shares the run's ids
    rule_sets = {profile.id: rules.load_rule_set(config["rules"], profile) for profile in registry.profiles()}
    shared_rule_ids = tuple(rules.intersect_rule_sets(list(rule_sets.values())))

    def finish(project, files, rows):
        return _project_analysis(roots[project], project_ids[project], files, rows, config, registry,
                                 rule_sets, shared_rule_ids)

    file_scope = config["models"]["mi"]["scope"] == "file"
    analyses, file_failure = _analyze_files(found, config["duplication"]["mode"], file_scope, finish)
    if file_failure is not None:
        raise file_failure
    if failure is not None:
        raise failure
    return analyses


def _project_analysis(
    root: Path,
    project_id: str,
    files: list[FileAnalysis],
    rows: dict[str, duplication.CloneRow],
    config: dict,
    registry: ProfileRegistry,
    rule_sets: dict[str, RuleSet],
    shared_rule_ids: tuple[str, ...],
) -> ProjectAnalysis:
    """The project-level stages over a project's file analyses, sorted by
    path, and their clone rows, with the run's rule set of each profile and
    the ids they all enable."""
    dup_cfg = config["duplication"]
    file_scope = config["models"]["mi"]["scope"] == "file"
    # a per-file diagnostic names its file here, once: a reused copy shares its tuple
    diagnostics = [d._replace(file=fa.path) for fa in files for d in fa.diagnostics]

    project_metrics = metrics.aggregate_project(
        [fa.lines for fa in files],
        [m for fa in files for m in fa.unit_metrics],
        weighted=bool(config["metrics"]["weighted_unit_means"]),
    )

    limit = None if rules.DUPLICATION_BLOCK in shared_rule_ids else duplication.MAX_BLOCKS  # fires per block
    dup_report = duplication.build_report(
        rows, dup_cfg["min_tokens"], dup_cfg["mode"], project_metrics.total_loc, limit
    )

    cost_per_line = float(config["models"]["sqale"]["cost_per_line_minutes"])
    violations, tdr, debt_diags = evaluate_debt(
        files, rule_sets, dup_report.blocks, cost_per_line, project_metrics.total_loc
    )
    diagnostics.extend(debt_diags)

    if file_scope:  # module = file: one row per file of the project
        ahv, acc, aloc = metrics.means([(fa.halstead_volume, fa.cyclomatic, fa.lines.code + fa.lines.mixed)
                                        for fa in files])
    else:
        ahv, acc, aloc = project_metrics.ahv, project_metrics.acc, project_metrics.aloc
    mi_result = None if ahv is None else debt_models.maintainability_index(ahv, acc, aloc)

    coverage = _project_coverage(config["models"]["sig"], project_id)
    sig_result = _evaluate_sig(
        project_metrics,
        files,
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
        shared_rule_ids=shared_rule_ids,
        violations=violations,
        mi=mi_result,
        tdr=tdr,
        sig=sig_result,
        cost_per_line=cost_per_line,
        coverage=coverage,
        diagnostics=tuple(diagnostics),
    )

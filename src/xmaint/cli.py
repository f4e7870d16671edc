"""The ``xmaint`` command line: analyze, compare, snapshot, trend, rules, profiles.

Exit codes: 0 clean success, 2 success with diagnostics, 1 fatal error
(usage errors included), fixed so CI pipelines can gate on them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__, report as report_mod
from .analysis import analyze_project, shared_rules
from .composite import composite_score, sensitivity_analysis
from .config import REPORT_FORMATS, composite_mappings, config_hash, load_config
from .duplication import DUPLICATION_MODES
from .errors import XmaintError
from .profiles import build_registry
from .rules import load_rule_set
from .snapshots import SnapshotStore, utc_now_iso


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is the success-with-diagnostics
    code here; a usage error is fatal, so it exits 1. Subparsers inherit this
    class, and each rejects the flags it does not define itself, so the error
    shows the usage of the subcommand that was given them."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xmaint",
        description="Measure and compare source-code maintainability across languages.",
    )
    parser.add_argument("--version", action="version", version=f"xmaint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def analysis_flags(p):
        p.add_argument("--profile", default=None, help="force a language profile for all files")
        p.add_argument("--config", default=None, help="config file (or XMAINT_CONFIG env var)")
        p.add_argument("--min-tokens", type=int, default=None, help="clone detection threshold")
        p.add_argument("--dup-mode", default=None, choices=DUPLICATION_MODES)
        p.add_argument("--cost-per-line", type=float, default=None,
                       help="production effort estimate, minutes per LOC")
        p.add_argument("--coverage", type=float, default=None,
                       help="externally measured test coverage in [0,1]")
        p.add_argument("--include", action="append", default=[], metavar="GLOB")
        p.add_argument("--exclude", action="append", default=[], metavar="GLOB")

    def report_flags(p):
        p.add_argument("--format", default=None, choices=REPORT_FORMATS)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p_analyze = sub.add_parser("analyze", help="analyze one project")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--project-id", default=None)
    analysis_flags(p_analyze)
    report_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = sub.add_parser("compare", help="rank two or more projects")
    p_compare.add_argument("paths", nargs="+")
    p_compare.add_argument("--sensitivity", action="store_true",
                           help="add weight-sensitivity analysis to the report")
    analysis_flags(p_compare)
    report_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_snapshot = sub.add_parser("snapshot", help="persist or list analysis snapshots")
    snap_sub = p_snapshot.add_subparsers(dest="snapshot_command", required=True)
    p_save = snap_sub.add_parser("save", help="analyze and append a snapshot")
    p_save.add_argument("path")
    p_save.add_argument("--store", required=True)
    p_save.add_argument("--label", default="")
    p_save.add_argument("--project-id", default=None)
    analysis_flags(p_save)
    p_save.set_defaults(func=cmd_snapshot_save)
    p_list = snap_sub.add_parser("list", help="list stored snapshots")
    p_list.add_argument("--store", required=True)
    p_list.add_argument("--project-id", default=None)
    p_list.set_defaults(func=cmd_snapshot_list)

    p_trend = sub.add_parser("trend", help="time series of one snapshot metric")
    p_trend.add_argument("project_id")
    p_trend.add_argument("--store", required=True)
    p_trend.add_argument("--metric", required=True)
    p_trend.add_argument("--force", action="store_true",
                         help="treat snapshots with differing config hashes as comparable")
    p_trend.add_argument("--format", default="json", choices=REPORT_FORMATS)
    p_trend.add_argument("--out", default=None)
    p_trend.set_defaults(func=cmd_trend)

    p_rules = sub.add_parser("rules", help="rule inspection")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_rules_list = rules_sub.add_parser("list", help="effective rules per profile")
    p_rules_list.add_argument("--profile", default=None)
    p_rules_list.add_argument("--config", default=None)
    p_rules_list.set_defaults(func=cmd_rules_list)

    p_profiles = sub.add_parser("profiles", help="profile inspection")
    profiles_sub = p_profiles.add_subparsers(dest="profiles_command", required=True)
    p_profiles_list = profiles_sub.add_parser("list", help="registered language profiles")
    p_profiles_list.add_argument("--config", default=None)
    p_profiles_list.set_defaults(func=cmd_profiles_list)

    return parser


def _registry(config):
    """The built-in profiles plus those the config defines or names files of."""
    return build_registry(
        extra_profiles=config["profiles"]["definitions"],
        profile_files=config["profiles"]["files"],
    )


def _prepare(args):
    config = load_config(
        args.config,
        min_tokens=args.min_tokens,
        dup_mode=args.dup_mode,
        cost_per_line=args.cost_per_line,
        coverage=args.coverage,
    )
    registry = _registry(config)
    discovery = {
        "forced_profile": args.profile,
        "includes": sorted(args.include),
        "excludes": sorted(args.exclude),
    }
    digest = config_hash(config, [p.as_dict() for p in registry.profiles()], discovery)
    return config, registry, digest


def _analyze(args, path, project_id, config, registry):
    return analyze_project(
        path, config, registry,
        project_id=project_id,
        forced_profile=args.profile,
        includes=tuple(args.include),
        excludes=tuple(args.exclude),
    )


def _single_score(analysis, config):
    """The composite of one project alone, as analyze and snapshot save report it."""
    return composite_score(
        [analysis.indicators(config["composite"]["duplication_source"])],
        composite_mappings(config),
    )


def _flags_block(args, extra=None) -> dict:
    flags = {
        "profile": args.profile,
        "config": args.config,
        "format": args.format,
        "min_tokens": args.min_tokens,
        "dup_mode": args.dup_mode,
        "cost_per_line": args.cost_per_line,
        "coverage": args.coverage,
        "include": sorted(args.include),
        "exclude": sorted(args.exclude),
        "out": args.out,
    }
    flags.update(extra or {})
    return flags


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` the report could not be written to before any
    project file is read; the file itself is written only by ``_emit``."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        problem = "is a directory"
    elif not os.access(path.parent, os.W_OK):
        problem = f"directory missing or not writable: '{path.parent}'"
    else:
        return
    raise XmaintError(f"cannot write report: {out}: {problem}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise XmaintError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _fmt(args, config) -> str:
    return args.format or config["report"]["format"]


def cmd_analyze(args) -> int:
    _check_out(args.out)
    config, registry, digest = _prepare(args)
    analysis = _analyze(args, args.path, args.project_id, config, registry)
    scores = _single_score(analysis, config)
    report = report_mod.build_report(
        [analysis],
        tool_version=__version__,
        generated_at=utc_now_iso(),
        effective_config={"config": config, "flags": _flags_block(args, {"path": args.path, "project_id": args.project_id})},
        config_hash=digest,
        composite=scores,
    )
    _emit(report_mod.render(report, _fmt(args, config)), args.out)
    return 2 if report["diagnostics"] else 0


def cmd_compare(args) -> int:
    if len(args.paths) < 2:
        raise XmaintError("compare needs at least two project paths")
    ids = [Path(p).name for p in args.paths]
    if len(set(ids)) != len(ids):
        ids = [str(Path(p)) for p in args.paths]  # disambiguate same-named roots
        repeated = sorted({pid for pid in ids if ids.count(pid) > 1})
        if repeated:
            raise XmaintError(f"compare: project path given twice: {', '.join(repeated)}")
    _check_out(args.out)
    config, registry, digest = _prepare(args)

    analyses = [
        _analyze(args, path, pid, config, registry) for path, pid in zip(args.paths, ids)
    ]
    shared, warning = shared_rules(analyses)

    mappings = composite_mappings(config)
    dup_source = config["composite"]["duplication_source"]
    indicators = [pa.indicators(dup_source) for pa in analyses]
    scores = composite_score(indicators, mappings)
    sensitivity = None
    if args.sensitivity:
        sensitivity = sensitivity_analysis(
            indicators, mappings, float(config["composite"]["sensitivity"]["delta_pp"])
        )

    report = report_mod.build_report(
        analyses,
        tool_version=__version__,
        generated_at=utc_now_iso(),
        effective_config={"config": config, "flags": _flags_block(
            args, {"paths": list(args.paths), "sensitivity": args.sensitivity})},
        config_hash=digest,
        composite=scores,
        sensitivity=sensitivity,
        shared_rules=shared,
        extra_diagnostics=[warning] if warning else [],
    )
    _emit(report_mod.render(report, _fmt(args, config)), args.out)
    return 2 if report["diagnostics"] else 0


def cmd_snapshot_save(args) -> int:
    config, registry, digest = _prepare(args)
    analysis = _analyze(args, args.path, args.project_id, config, registry)
    scores = _single_score(analysis, config)
    snapshot = {
        "project_id": analysis.project_id,
        "label": args.label,
        "timestamp_utc": utc_now_iso(),
        "tool_version": __version__,
        "config_hash": digest,
        "metrics_summary": report_mod.metrics_summary(analysis, scores[0].total),
    }
    store = SnapshotStore(args.store)
    snapshot_id = store.save(snapshot)
    sys.stdout.write(snapshot_id + "\n")
    return 2 if analysis.diagnostics else 0


def cmd_snapshot_list(args) -> int:
    store = SnapshotStore(args.store)
    records = store.list_snapshots(args.project_id)
    for record in records:
        sys.stdout.write(
            f"{record['project_id']}\t{record['snapshot_id']}\t{record['timestamp_utc']}"
            f"\t{record.get('label', '')}\t{record['config_hash'][:12]}\n"
        )
    return 0


def cmd_trend(args) -> int:
    store = SnapshotStore(args.store)
    points = store.trend(args.project_id, args.metric, force=args.force)
    payload = {
        "project_id": args.project_id,
        "metric": args.metric,
        "series": [
            {
                "timestamp_utc": p.timestamp_utc,
                "value": p.value,
                "comparable": p.comparable,
                "snapshot_id": p.snapshot_id,
            }
            for p in points
        ],
    }
    if args.format == "json":
        import json
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "md":
        lines = [f"# Trend: {args.metric} for {args.project_id}", ""]
        lines.append("| timestamp | value | comparable |")
        lines.append("| --- | --- | --- |")
        for p in points:
            lines.append(f"| {p.timestamp_utc} | {p.value} | {p.comparable} |")
        text = "\n".join(lines) + "\n"
    else:
        import csv as _csv
        import io
        buffer = io.StringIO()
        writer = _csv.writer(buffer, lineterminator="\n")
        writer.writerow(["timestamp_utc", "value", "comparable", "snapshot_id"])
        for p in points:
            writer.writerow([p.timestamp_utc, p.value, p.comparable, p.snapshot_id])
        text = buffer.getvalue()
    _emit(text, args.out)
    return 0


def cmd_rules_list(args) -> int:
    config = load_config(args.config)
    registry = _registry(config)
    profiles = [registry.get(args.profile)] if args.profile else registry.profiles()
    for profile in profiles:
        rule_set = load_rule_set(config["rules"], profile)
        sys.stdout.write(f"{profile.id}:\n")
        for rule in rule_set.rules:
            state = "on " if rule.enabled else "off"
            param = rule.pattern if rule.pattern is not None else rule.threshold
            sys.stdout.write(
                f"  [{state}] {rule.canonical_id:<22} param={param!r:<28} "
                f"effort={rule.effort_minutes:g}min\n"
            )
    return 0


def cmd_profiles_list(args) -> int:
    config = load_config(args.config)
    registry = _registry(config)
    for profile in registry.profiles():
        exts = " ".join(profile.file_extensions)
        sys.stdout.write(
            f"{profile.id:<12} {profile.unit_detection:<13} verbosity={profile.verbosity_factor:g} "
            f"extensions: {exts}\n"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XmaintError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

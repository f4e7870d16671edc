"""Deterministic report construction and rendering (JSON, Markdown, CSV).

JSON is the canonical format; Markdown and CSV are projections of the same
rounded data. Keys are emitted sorted and numbers at fixed precision
(ratios and shares 4 decimals, scores 2, minutes as integers), so two runs
over identical inputs differ only in the generated_at field.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter

from .analysis import ProjectAnalysis
from .composite import CompositeScore, SensitivityReport


def _r4(value):
    return None if value is None else round(float(value), 4)


def _r2(value):
    return None if value is None else round(float(value), 2)


def _minutes(value):
    return None if value is None else int(round(float(value)))


def project_block(pa: ProjectAnalysis, max_blocks: int = 50) -> dict:
    violation_counts = Counter(v.rule_id for v in pa.violations)
    blocks = [
        {
            "file_a": b.file_a,
            "start_line_a": b.start_line_a,
            "file_b": b.file_b,
            "start_line_b": b.start_line_b,
            "length_tokens": b.length_tokens,
            "length_lines_a": b.length_lines_a,
            "length_lines_b": b.length_lines_b,
        }
        for b in pa.duplication.blocks[:max_blocks]
    ]
    return {
        "project_id": pa.project_id,
        "root": pa.root,
        "file_count": len(pa.files),
        "files_by_profile": dict(sorted(Counter(f.profile_id for f in pa.files).items())),
        "metrics": {
            "total_loc": pa.metrics.total_loc,
            "physical_lines": pa.metrics.physical_lines,
            "comment_ratio": _r4(pa.metrics.comment_ratio),
            "unit_count": pa.metrics.unit_count,
            "ahv": _r4(pa.metrics.ahv),
            "acc": _r4(pa.metrics.acc),
            "aloc": _r4(pa.metrics.aloc),
            "max_cc": pa.metrics.max_cc,
            "unit_size_distribution": [
                {"file": m.unit.file or "", "name": m.unit.name, "line": m.unit.start_line, "loc": m.loc}
                for m in sorted(
                    (m for fa in pa.files for m in fa.unit_metrics),
                    key=lambda m: (-m.loc, m.unit.file or "", m.unit.start_line, m.unit.name),
                )
            ],
        },
        "duplication": {
            "token_ratio": _r4(pa.duplication.duplicated_token_ratio),
            "line_ratio": _r4(pa.duplication.duplicated_line_ratio),
            "min_tokens": pa.duplication.min_tokens,
            "mode": pa.duplication.normalization_mode,
            "block_count": len(pa.duplication.blocks),
            "duplicated_tokens": pa.duplication.duplicated_tokens,
            "total_tokens": pa.duplication.total_tokens,
            "duplicated_lines": pa.duplication.duplicated_lines,
            "total_code_lines": pa.duplication.total_code_lines,
            "blocks": blocks,
        },
        "violations": {
            "total": len(pa.violations),
            "by_rule": dict(sorted(violation_counts.items())),
        },
        "models": {
            "mi": None if pa.mi is None else {
                "ahv": _r4(pa.mi.ahv),
                "acc": _r4(pa.mi.acc),
                "aloc": _r4(pa.mi.aloc),
                "mi": _r2(pa.mi.mi),
            },
            "tdr": None if pa.tdr is None else {
                "remediation_minutes": _minutes(pa.tdr.remediation_minutes),
                "production_minutes": _minutes(pa.tdr.production_minutes),
                "tdr": _r4(pa.tdr.tdr),
                "grade": pa.tdr.grade,
            },
            "sig": {
                "properties": {k: pa.sig.property_ratings[k] for k in sorted(pa.sig.property_ratings)},
                "characteristics": {
                    k: _r2(v) for k, v in sorted(pa.sig.characteristic_ratings.items())
                },
                "overall": _r2(pa.sig.overall),
            },
        },
        "shared_rule_ids": list(pa.shared_rule_ids),
        "cost_per_line_minutes": _r2(pa.cost_per_line),
        "coverage": _r4(pa.coverage),
    }


def composite_block(scores: list[CompositeScore]) -> list[dict]:
    return [
        {
            "project_id": s.project_id,
            "rank": s.rank,
            "total": _r2(s.total),
            "per_indicator": {
                ind: {"raw": _r4(raw), "score": _r2(mapped)}
                for ind, (raw, mapped) in sorted(s.per_indicator.items())
            },
            "weights_used": {k: _r4(v) for k, v in sorted(s.weights_used.items())},
            "absent_indicators": list(s.absent_indicators),
        }
        for s in scores
    ]


def sensitivity_block(report: SensitivityReport) -> dict:
    return {
        "delta_pp": _r2(report.delta_pp),
        "base_ranking": list(report.base_ranking),
        "top1_stable": report.top1_stable,
        "full_ranking_stable": report.full_ranking_stable,
        "total_range": {
            pid: {"min": _r2(lo), "max": _r2(hi)}
            for pid, (lo, hi) in sorted(report.total_range.items())
        },
        "perturbations": [
            {
                "indicator": p.indicator,
                "direction": p.direction,
                "weights": {k: _r4(v) for k, v in sorted(p.weights.items())},
                "totals": {k: _r2(v) for k, v in sorted(p.totals.items())},
                "ranking": list(p.ranking),
                "top1": p.top1,
            }
            for p in report.perturbations
        ],
    }


def build_report(
    projects: list[ProjectAnalysis],
    *,
    tool_version: str,
    generated_at: str,
    effective_config: dict,
    config_hash: str,
    composite: list[CompositeScore] | None = None,
    sensitivity: SensitivityReport | None = None,
    shared_rules: list[str] | None = None,
    extra_diagnostics=(),
) -> dict:
    diagnostics = list(extra_diagnostics)
    for pa in projects:
        diagnostics.extend(pa.diagnostics)
    report = {
        "tool_version": tool_version,
        "generated_at": generated_at,
        "config_hash": config_hash,
        "effective_config": effective_config,
        "projects": [project_block(pa) for pa in projects],
        "diagnostics": sorted(
            (d.as_dict() for d in diagnostics),
            key=lambda d: (d["file"] or "", d["line"] or 0, d["code"]),
        ),
    }
    if composite is not None:
        report["composite"] = composite_block(composite)
    if shared_rules is not None:
        report["shared_rules"] = list(shared_rules)
    if sensitivity is not None:
        report["sensitivity"] = sensitivity_block(sensitivity)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join("" if c is None else str(c) for c in row) + " |")
    return out


def render_markdown(report: dict) -> str:
    lines = [f"# xmaint report", ""]
    lines.append(f"- tool version: {report['tool_version']}")
    lines.append(f"- generated at: {report['generated_at']}")
    lines.append(f"- config hash: `{report['config_hash']}`")
    lines.append("")
    for block in report.get("projects", []):
        m = block["metrics"]
        dup = block["duplication"]
        models = block["models"]
        lines.append(f"## Project `{block['project_id']}`")
        lines.append("")
        rows = [
            ["total LOC", m["total_loc"]],
            ["physical lines", m["physical_lines"]],
            ["comment ratio", m["comment_ratio"]],
            ["units", m["unit_count"]],
            ["mean Halstead volume", m["ahv"]],
            ["mean cyclomatic complexity", m["acc"]],
            ["mean unit LOC", m["aloc"]],
            ["max cyclomatic complexity", m["max_cc"]],
            ["duplication (token ratio)", dup["token_ratio"]],
            ["duplication (line ratio)", dup["line_ratio"]],
            ["violations", block["violations"]["total"]],
            ["MI", None if models["mi"] is None else models["mi"]["mi"]],
            ["TDR", None if models["tdr"] is None else models["tdr"]["tdr"]],
            ["TDR grade", None if models["tdr"] is None else models["tdr"]["grade"]],
            ["SIG overall", models["sig"]["overall"]],
        ]
        lines.extend(_md_table(["metric", "value"], rows))
        lines.append("")
    if "composite" in report:
        lines.append("## Composite ranking")
        lines.append("")
        rows = [
            [c["rank"], c["project_id"], c["total"],
             ", ".join(f"{k}={v['score']}" for k, v in c["per_indicator"].items())]
            for c in report["composite"]
        ]
        lines.extend(_md_table(["rank", "project", "total", "indicator scores"], rows))
        lines.append("")
    if "sensitivity" in report:
        s = report["sensitivity"]
        lines.append("## Sensitivity")
        lines.append("")
        lines.append(f"- delta: {s['delta_pp']} pp")
        lines.append(f"- top-1 stable: {s['top1_stable']}")
        lines.append(f"- full ranking stable: {s['full_ranking_stable']}")
        rows = [
            [p["indicator"], p["direction"], p["top1"], " > ".join(p["ranking"])]
            for p in s["perturbations"]
        ]
        lines.append("")
        lines.extend(_md_table(["indicator", "direction", "top-1", "ranking"], rows))
        lines.append("")
    if report.get("diagnostics"):
        lines.append("## Diagnostics")
        lines.append("")
        for d in report["diagnostics"]:
            where = f"{d['file']}:{d['line']}" if d.get("file") else "(project)"
            lines.append(f"- `{d['code']}` {where}: {d['message']}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _flatten(prefix: str, value, rows: list[tuple[str, str]]):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    else:
        rows.append((prefix, "" if value is None else value))


def render_csv(report: dict) -> str:
    """Long-format projection: one (project, key, value) row per datum."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["project_id", "key", "value"])
    for block in report.get("projects", []):
        rows: list[tuple[str, str]] = []
        for section in ("metrics", "duplication", "violations", "models"):
            payload = block[section]
            if section == "duplication":
                payload = {k: v for k, v in payload.items() if k != "blocks"}
            elif section == "metrics":
                payload = {k: v for k, v in payload.items() if k != "unit_size_distribution"}
            _flatten(section, payload, rows)
        for key, value in rows:
            writer.writerow([block["project_id"], key, value])
    for c in report.get("composite", []):
        writer.writerow([c["project_id"], "composite.rank", c["rank"]])
        writer.writerow([c["project_id"], "composite.total", c["total"]])
        for ind in sorted(c["per_indicator"]):
            writer.writerow([c["project_id"], f"composite.{ind}.score", c["per_indicator"][ind]["score"]])
    return buffer.getvalue()


def render(report: dict, fmt: str) -> str:
    """``fmt`` is one of config.REPORT_FORMATS, which the CLI and
    ``validate_config`` hold it to."""
    return {"json": render_json, "md": render_markdown, "csv": render_csv}[fmt](report)


def metrics_summary(pa: ProjectAnalysis, composite_total: float) -> dict:
    """The flat key set snapshots persist and trends select from."""
    return {
        "total_loc": pa.metrics.total_loc,
        "physical_lines": pa.metrics.physical_lines,
        "comment_ratio": _r4(pa.metrics.comment_ratio),
        "unit_count": pa.metrics.unit_count,
        "ahv": _r4(pa.metrics.ahv),
        "acc": _r4(pa.metrics.acc),
        "aloc": _r4(pa.metrics.aloc),
        "max_cc": pa.metrics.max_cc,
        "duplicated_token_ratio": _r4(pa.duplication.duplicated_token_ratio),
        "duplicated_line_ratio": _r4(pa.duplication.duplicated_line_ratio),
        "violation_count": len(pa.violations),
        "remediation_minutes": None if pa.tdr is None else _minutes(pa.tdr.remediation_minutes),
        "production_minutes": None if pa.tdr is None else _minutes(pa.tdr.production_minutes),
        "tdr": None if pa.tdr is None else _r4(pa.tdr.tdr),
        "tdr_grade": None if pa.tdr is None else pa.tdr.grade,
        "mi": None if pa.mi is None else _r2(pa.mi.mi),
        "sig_overall": _r2(pa.sig.overall),
        "composite_total": _r2(composite_total),
    }

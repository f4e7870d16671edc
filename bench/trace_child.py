"""One traced xmaint CLI run, in process.

Usage: python trace_child.py RESULT_JSON CLI_ARG...

Wraps the public functions at the module attributes the pipeline looks up
at call time, calls ``xmaint.cli.main(CLI_ARG...)``, and writes per-span
self times and the counts taken at the same boundaries to RESULT_JSON. The
exit code is the CLI's. Spans stay in memory until the run ends. A wrapper
target that no longer exists is listed under ``absent_targets``, and a
span left with no target under ``absent_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent_targets: list[str] = []
        self.declared: set[str] = set()
        self.installed: set[str] = set()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span. ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` record counts outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, name, module_name, attr, before=None, after=None):
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        self.declared.add(name)
        if not hasattr(module, attr):
            self.absent_targets.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, self.span(name, getattr(module, attr), before, after))
        self.installed.add(name)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name sum of span duration minus its direct children's."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
            calls[name] += 1
        return dict(totals), dict(calls)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def install_all(tracer: Tracer) -> None:
    counts = tracer.counts

    def add(key, value):
        counts[key] += value

    def record_max(key, value):
        counts[key] = max(counts[key], value)

    def after_tokenize(args, kwargs, result):
        add("lexing.tokens", len(result[0]))

    def after_extract(args, kwargs, result):
        add("units.units", len(result[0]))
        record_max("units.max_per_file", len(result[0]))

    def before_aggregate(args, kwargs):
        # aggregation starts right after the per-file stage
        record_max("analysis.files.rss_bytes", current_rss_bytes())

    def after_find(args, kwargs, result):
        sequences = _arg(args, kwargs, 0, "sequences")
        min_tokens = _arg(args, kwargs, 1, "min_tokens")
        add("duplication.windows",
            sum(max(0, len(seq) - min_tokens + 1) for seq in sequences.values()))
        add("duplication.blocks", len(result))

    def after_ratios(args, kwargs, result):
        blocks = _arg(args, kwargs, 0, "blocks")
        add("duplication.block_token_visits", 2 * sum(b.length_tokens for b in blocks))
        add("duplication.duplicated_tokens", result[2])
        record_max("duplication.rss_bytes", current_rss_bytes())

    def after_evaluate(args, kwargs, result):
        add("rules.violations", len(result[0]))

    def after_render(args, kwargs, result):
        add("report.bytes", len(result.encode("utf-8")))

    analysis = "xmaint.analysis"
    tracer.install("analysis.discover", analysis, "discover_files")
    tracer.install("analysis.read", analysis, "analyze_file")
    tracer.install("lexing.tokenize", analysis, "tokenize", after=after_tokenize)
    tracer.install("lexing.classify", analysis, "classify_lines")
    tracer.install("units.extract", analysis, "extract_units", after=after_extract)
    tracer.install("rules.evaluate", analysis, "evaluate_debt", after=after_evaluate)
    tracer.install("metrics.unit", "xmaint.metrics", "unit_metrics")
    tracer.install("metrics.aggregate", "xmaint.metrics", "aggregate_project",
                   before=before_aggregate)
    tracer.install("duplication.normalize", "xmaint.duplication", "normalize_tokens")
    tracer.install("duplication.find", "xmaint.duplication", "find_clone_blocks", after=after_find)
    tracer.install("duplication.ratios", "xmaint.duplication", "duplication_ratios", after=after_ratios)
    tracer.install("rules.intersect", "xmaint.rules", "intersect_rule_sets")
    for attr in ("maintainability_index", "production_effort", "technical_debt_ratio",
                 "sig_risk_profile", "sig_rate_risk_profile", "sig_rate_scalar",
                 "sig_characteristics"):
        tracer.install("debt_models", "xmaint.debt_models", attr)
    tracer.install("composite.score", "xmaint.cli", "composite_score")
    tracer.install("composite.sensitivity", "xmaint.cli", "sensitivity_analysis")
    tracer.install("report.build", "xmaint.report", "build_report")
    tracer.install("report.render", "xmaint.report", "render", after=after_render)


def main(argv: list[str]) -> int:
    result_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install_all(tracer)
    cli = importlib.import_module("xmaint.cli")
    rss_start = current_rss_bytes()
    code = tracer.span("cli.main", cli.main)(cli_args)
    self_s, calls = tracer.self_times()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "self_s": self_s,
            "calls": calls,
            "counts": dict(tracer.counts),
            "rss_start_bytes": rss_start,
            "absent_targets": tracer.absent_targets,
            "absent_spans": sorted(tracer.declared - tracer.installed),
            "spans": len(tracer.spans),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

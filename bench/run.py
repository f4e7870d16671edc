"""End-to-end and per-layer benchmark of the xmaint CLI.

Usage (from the repository root):

    python3 bench/run.py --workload stdlib|clone_copies|unit_dense_compare \
        --seed N --seconds S --trace 0|1

Each run generates its inputs from the seed under ``.bench_work/``, then
runs ``python -m xmaint.cli`` from ``src/`` as one fresh child process at a
time, with the default worker count, until ``--seconds`` have been spent.
Every report is checked against values derived without xmaint and hashed
(generated_at removed, keys sorted); all digests of a run must agree.

``--trace 0`` reports the end-to-end metrics: wall time, tokens per
second, the child's own peak RSS (from ``os.wait4``, median) and the
set-up time of a fresh interpreter (median). ``--trace 1`` alternates
untraced runs with runs of ``trace_child.py``, which wraps the pipeline's
layers in process, and reports per-layer self times and counts plus the
tracing overhead. The last line of standard output is the result as JSON.

Every measured time is scaled by the machine's speed at that moment: a
fixed pure-Python task (``SpeedProbe``) is timed before and after each run,
and the run's time is multiplied by REFERENCE_TASK_S over the task's mean
time. On a shared 2-core machine the CPU speed other tenants left over
drifted by up to 2x within a minute: over four minutes of back-to-back runs
on one input, 30-second medians of raw wall time had a quartile spread of
about 20% of their median, and medians of scaled time about 4%. Raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Prepared

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120

# What every xmaint invocation pays before it reads a file: interpreter
# start, imports, config and profile registry, and one lexer compile per
# profile.
SETUP_CODE = """\
import xmaint.cli
from xmaint.config import load_config
from xmaint.lexing import tokenize
from xmaint.profiles import build_registry
config = load_config(None)
registry = build_registry(
    extra_profiles=config["profiles"]["definitions"],
    profile_files=config["profiles"]["files"],
)
for profile in registry.profiles():
    tokenize("x = 1\\n", profile)
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (metric, unit, span it depends on); a metric whose span has no wrapper
# target left in the program is reported as absent, never as 0.
PER_LAYER = (
    ("analysis.discover.self_s", "s", "analysis.discover"),
    ("analysis.read.self_s", "s", "analysis.read"),
    ("lexing.tokenize.self_s", "s", "lexing.tokenize"),
    ("lexing.tokens", "count", "lexing.tokenize"),
    ("lexing.tokens_per_s", "tokens/s", "lexing.tokenize"),
    ("lexing.classify.self_s", "s", "lexing.classify"),
    ("units.extract.self_s", "s", "units.extract"),
    ("units.units", "count", "units.extract"),
    ("units.max_per_file", "count", "units.extract"),
    ("metrics.unit.self_s", "s", "metrics.unit"),
    ("metrics.unit.calls", "count", "metrics.unit"),
    ("metrics.aggregate.self_s", "s", "metrics.aggregate"),
    ("duplication.normalize.self_s", "s", "duplication.normalize"),
    ("duplication.find.self_s", "s", "duplication.find"),
    ("duplication.windows", "count", "duplication.find"),
    ("duplication.blocks", "count", "duplication.find"),
    ("duplication.ratios.self_s", "s", "duplication.ratios"),
    ("duplication.block_token_visits", "count", "duplication.ratios"),
    ("duplication.coverage_yield", "ratio", "duplication.ratios"),
    ("rules.evaluate.self_s", "s", "rules.evaluate"),
    ("rules.intersect.self_s", "s", "rules.intersect"),
    ("rules.violations", "count", "rules.evaluate"),
    ("debt_models.self_s", "s", "debt_models"),
    ("composite.score.self_s", "s", "composite.score"),
    ("composite.sensitivity.self_s", "s", "composite.sensitivity"),
    ("report.build.self_s", "s", "report.build"),
    ("report.render.self_s", "s", "report.render"),
    ("report.bytes", "bytes", "report.render"),
    ("analysis.files.rss_mb", "MB", "metrics.aggregate"),
    ("duplication.rss_mb", "MB", "duplication.ratios"),
    ("rss_bytes_per_token", "B/token", "metrics.aggregate"),
    ("cli.main.self_s", "s", "cli.main"),
    ("trace.wall_s", "s", "cli.main"),
    ("trace.overhead_s", "s", "cli.main"),
)


# A fixed pure-Python task, independent of xmaint, timed next to every
# measurement: the stdlib tokenizer over generated source, about 0.1 s here.
REFERENCE_TASK_S = 0.1
_REFERENCE_SOURCE = "".join(
    f"def fn_{i}(a, b):\n    t = a * {3 * i + 2} + b\n    if t > {5 * i + 7}:\n"
    f"        t = t - {7 * i + 11}\n    return t\n\n"
    for i in range(1000)
)


class SpeedProbe:
    """How fast the machine is right now, for scaling measured times.

    ``scale()`` times the reference task and returns REFERENCE_TASK_S divided
    by the mean of this and the previous timing, which bracket the
    measurement just taken. A time multiplied by it is the time on a machine
    that runs the reference task in REFERENCE_TASK_S.
    """

    def __init__(self):
        self._task()  # warm-up: compiles the tokenizer's regexes
        self._last = self._task()

    @staticmethod
    def _task() -> float:
        start = time.perf_counter()
        counts: dict[tuple[int, str], int] = {}
        for tok in tokenize.generate_tokens(io.StringIO(_REFERENCE_SOURCE).readline):
            key = (tok.type, tok.string)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start

    def scale(self) -> float:
        now = self._task()
        factor = REFERENCE_TASK_S / ((self._last + now) / 2)
        self._last = now
        return factor


class BenchError(Exception):
    """The benchmark cannot run: no program to measure, or inputs unusable."""


@dataclass
class Run:
    wall_s: float  # as measured
    peak_rss_mb: float
    scale: float  # SpeedProbe factor taken around this run
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    tokens: int | None = None

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("XMAINT_CONFIG", None)  # measure the defaults
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, env: dict) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, its peak RSS in MB, exit code)."""
    start = time.perf_counter()
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    reaped = False
    try:
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep
        # the maximum over every child so far
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def report_digest(report: dict) -> str:
    canonical = {k: v for k, v in report.items() if k != "generated_at"}
    text = json.dumps(canonical, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_tokens(report: dict) -> int:
    return sum(p["duplication"]["total_tokens"] for p in report["projects"])


def stderr_tail(work: Path) -> str:
    text = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def cli_run(argv: list[str], prepared: Prepared, check, work: Path, env: dict,
            probe: SpeedProbe) -> Run:
    """One timed child run, then its report checked outside the timing."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    wall, rss, code = spawn(argv, work, env)
    run = Run(wall_s=wall, peak_rss_mb=rss, scale=probe.scale())
    if code == 1 or not report_path.is_file():
        run.problems.append(f"exit code {code}, no report: {stderr_tail(work)}")
        return run
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        run.problems.extend(check(report, code, prepared.expected))
        run.tokens = report_tokens(report)
    except (ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"malformed report: {exc!r}")
        return run
    run.digest = report_digest(report)
    return run


def prepare(workload: str, seed: int, work: Path, env: dict) -> Prepared:
    build, _ = WORKLOADS[workload]
    prepared = build(work, seed)
    if prepared.reference_argv is not None:
        _, _, code = spawn([sys.executable, "-m", "xmaint.cli", *prepared.reference_argv],
                           work, env)
        out = work / prepared.reference_argv[-1]
        if code == 1 or not out.is_file():
            raise BenchError(f"reference run failed: {stderr_tail(work)}")
        report = json.loads(out.read_text(encoding="utf-8"))
        prepared.expected["single_copy_tokens"] = report_tokens(report)
    return prepared


def setup_times(work: Path, env: dict, samples: int, probe: SpeedProbe) -> list[float]:
    """Scaled wall times of fresh interpreters doing xmaint's set-up."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(samples + 1):  # the first one also writes bytecode caches
        wall, _, code = spawn(argv, work, env)
        if code != 0:
            raise BenchError(f"xmaint set-up failed: {stderr_tail(work)}")
        times.append(wall * probe.scale())
    return times[1:]


def trace_run(prepared: Prepared, check, work: Path, env: dict, probe: SpeedProbe):
    trace_path = work / "trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "trace_child.py"), str(trace_path), *prepared.argv]
    run = cli_run(argv, prepared, check, work, env, probe)
    trace = None
    if trace_path.is_file():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    elif not run.problems:
        run.problems.append(f"no trace written: {stderr_tail(work)}")
    return run, trace


def layer_values(trace: dict, run: Run) -> dict[str, float]:
    """One traced run's per-layer values; times scaled like wall times."""
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    tokens = counts.get("lexing.tokens", 0)
    visits = counts.get("duplication.block_token_visits", 0)
    files_rss = counts.get("analysis.files.rss_bytes", 0)
    values = {
        f"{name}.self_s": self_s.get(name, 0.0) * run.scale
        for metric, _, name in PER_LAYER if metric.endswith(".self_s")
    }
    values.update({
        "lexing.tokens": tokens,
        "units.units": counts.get("units.units", 0),
        "units.max_per_file": counts.get("units.max_per_file", 0),
        "metrics.unit.calls": calls.get("metrics.unit", 0),
        "duplication.windows": counts.get("duplication.windows", 0),
        "duplication.blocks": counts.get("duplication.blocks", 0),
        "duplication.block_token_visits": visits,
        "duplication.coverage_yield":
            counts.get("duplication.duplicated_tokens", 0) / visits if visits else 0.0,
        "rules.violations": counts.get("rules.violations", 0),
        "report.bytes": counts.get("report.bytes", 0),
        "analysis.files.rss_mb": files_rss / 2**20,
        "duplication.rss_mb": counts.get("duplication.rss_bytes", 0) / 2**20,
        "rss_bytes_per_token": (files_rss - trace["rss_start_bytes"]) / tokens if tokens else 0.0,
        "trace.wall_s": run.scaled_wall_s,
    })
    return values


def highest_percentile(values: list[float]) -> tuple[int | None, float | None]:
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, -(-n * p // 100) - 1)]
    return None, None


def measure(args, prepared: Prepared, check, work: Path, env: dict) -> dict:
    argv = [sys.executable, "-m", "xmaint.cli", *prepared.argv]
    probe = SpeedProbe()
    setup = [] if args.trace else setup_times(work, env, SETUP_SAMPLES, probe)
    runs: list[Run] = []
    traced: list[tuple[Run, dict | None]] = []
    started = time.perf_counter()
    while True:
        runs.append(cli_run(argv, prepared, check, work, env, probe))
        if args.trace:
            traced.append(trace_run(prepared, check, work, env, probe))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(runs)
        if elapsed > args.seconds or (len(runs) >= MIN_RUNS and elapsed + per_round > args.seconds):
            break
    return {"setup": setup, "runs": runs, "traced": traced}


def mark_digest_mismatches(every_run: list[Run]) -> set[str]:
    """All runs of one set must produce the same report; a run whose digest
    differs from the first run's fails."""
    digests = [run.digest for run in every_run if run.digest is not None]
    for run in every_run:
        if run.digest is not None and run.digest != digests[0]:
            run.problems.append("report digest differs from the first run's")
    return set(digests)


def end_to_end_metrics(runs: list[Run], tokens: int, setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(run.scaled_wall_s for run in runs),
        "tokens_per_s": statistics.median(tokens / run.scaled_wall_s for run in runs),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
        "setup_s": statistics.median(setup),
    }


def layer_metrics(runs: list[Run], traced: list[tuple[Run, dict | None]]) -> tuple[dict, list[str]]:
    """Per-layer values, each the median over the traced runs (counts
    repeat exactly), and the metrics whose layer is absent."""
    traces = [(run, trace) for run, trace in traced if trace is not None]
    absent_spans = {span for _, trace in traces for span in trace["absent_spans"]}
    rows = [layer_values(trace, run) for run, trace in traces]
    medians = {name: statistics.median(row[name] for row in rows) for name in rows[0]} if rows else {}
    tokenize_s = medians.get("lexing.tokenize.self_s", 0.0)
    medians["lexing.tokens_per_s"] = medians.get("lexing.tokens", 0) / tokenize_s if tokenize_s else 0.0
    medians["trace.overhead_s"] = (medians.get("trace.wall_s", 0.0)
                                   - statistics.median(run.scaled_wall_s for run in runs))
    values, absent = {}, []
    for name, _, span in PER_LAYER:
        if span in absent_spans:
            absent.append(name)
        elif rows:
            values[name] = medians[name]
    for target in sorted({t for _, trace in traces for t in trace["absent_targets"]}):
        print(f"absent wrapper target: {target}")
    return values, absent


def summarize(args, prepared: Prepared, measured: dict) -> dict:
    runs: list[Run] = measured["runs"]
    traced = measured["traced"]
    every_run = runs + [run for run, _ in traced]
    digests = mark_digest_mismatches(every_run)
    failed = sum(1 for run in every_run if run.problems)
    walls = [run.scaled_wall_s for run in runs]
    tokens = next((run.tokens for run in every_run if run.tokens), 0)

    print(f"workload {args.workload}")
    print("provenance " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "corpus": {**prepared.provenance, "tokens": tokens},
        "report_sha256": sorted(digests),
    }, sort_keys=True))
    for run in every_run:
        for problem in run.problems:
            print(f"FAILED run: {problem}")
    print(f"failed_ratio {failed / len(every_run):.4f} ratio ({failed} of {len(every_run)} runs)")
    raw = [run.wall_s for run in runs]
    print(f"wall as measured: min {min(raw):.4f} s, median {statistics.median(raw):.4f} s, "
          f"max {max(raw):.4f} s; speed scale median "
          f"{statistics.median(run.scale for run in runs):.4f}")
    p, p_value = highest_percentile(walls)
    print(f"wall_s (scaled): median {statistics.median(walls):.4f} s, min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s, n={len(walls)}; "
          + (f"p{p} {p_value:.4f} s" if p else "no percentile has 10 samples beyond it"))

    if args.trace:
        values, absent = layer_metrics(runs, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"per-layer, median over {len(traced)} traced runs:")
        for name in absent:
            print(f"  {name:<34} absent")
    else:
        values = end_to_end_metrics(runs, tokens, measured["setup"])
        units = END_TO_END_UNITS
        print(f"end-to-end (medians of {len(walls)} runs; setup_s of "
              f"{len(measured['setup'])} fresh interpreters):")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(every_run),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xmaint" / "cli.py").is_file():
        print(f"error: no xmaint sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        _, check = WORKLOADS[args.workload]
        prepared = prepare(args.workload, args.seed, work, env)
        measured = measure(args, prepared, check, work, env)
        result = summarize(args, prepared, measured)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

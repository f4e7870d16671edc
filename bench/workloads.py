"""Seeded input generators and report checks for the benchmark workloads.

Each workload writes its inputs under a work directory and returns a
``Prepared`` record: the CLI arguments (relative to the work directory, so
report digests do not depend on where the checkout lives), the values the
report must show, and provenance. The expected values come from the
generators themselves or from the filesystem, never from the run under
test. The one exception is the clone_copies token total: k copies must give
k times the tokens of a separate, untimed run on a single copy.

Sizes are chosen so that one CLI run takes one to three seconds on a 2-core
machine and so that different seeds give inputs of nearly equal cost: the
stdlib sample is filled to a token budget, the clone source is drawn from a
narrow token band, and the unit-dense files have a fixed shape.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import shutil
import sysconfig
from dataclasses import dataclass
from pathlib import Path

# stdlib sample: normalized-token budget of the whole sample
STDLIB_TOKENS = 80_000
# clone_copies: tokens of the copied file (+/- 3%) and the number of copies
CLONE_SOURCE_TOKENS = 800
CLONE_COPIES = 30
# unit_dense_compare: units per language, one file per project
DENSE_UNITS = 1_200

_STDLIB_EXCLUDED_DIRS = {"test", "site-packages", "idlelib", "lib2to3", "__pycache__"}

# Rough Python token count used only to size samples: comments dropped;
# strings, words, numbers and multi-char operators one token each, any other
# non-blank char one token. It is within a few percent of xmaint's count.
_PROXY_TOKEN = re.compile(
    r'#[^\n]*'
    r'|[rbuRBUfF]{0,2}(?:"""[\s\S]*?"""|\'\'\'[\s\S]*?\'\'\''
    r'|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\')'
    r'|[A-Za-z_]\w*|0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
    r'|(?://|\*\*|>>|<<|[-+*/%&|^@<>=!:]=|->)=?|\S'
)


@dataclass
class Prepared:
    argv: list[str]
    expected: dict
    provenance: dict
    # run once before timing; its report's total_tokens becomes
    # expected["single_copy_tokens"]
    reference_argv: list[str] | None = None


def _proxy_tokens(text: str) -> int:
    return sum(1 for m in _PROXY_TOKEN.finditer(text) if not m.group().startswith("#"))


def _file_list_sha256(names) -> str:
    return hashlib.sha256("\n".join(sorted(names)).encode("utf-8")).hexdigest()


def stdlib_files() -> tuple[Path, list[Path]]:
    """All ``.py`` files of this interpreter's stdlib, minus tests and tools."""
    root = Path(sysconfig.get_paths()["stdlib"])
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _STDLIB_EXCLUDED_DIRS)
        found.extend(Path(dirpath) / f for f in sorted(filenames) if f.endswith(".py"))
    return root, found


def _flat_name(root: Path, path: Path) -> str:
    # Flattened so no copied file sits under a directory xmaint skips by
    # default (the stdlib has a ``venv`` package).
    return "-".join(path.relative_to(root).parts)


def _corpus_provenance(corpus: Path) -> dict:
    files = sorted(p for p in corpus.rglob("*") if p.is_file())
    return {
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
        "file_list_sha256": _file_list_sha256(p.relative_to(corpus).as_posix() for p in files),
    }


def prepare_stdlib(work: Path, seed: int) -> Prepared:
    root, files = stdlib_files()
    random.Random(seed).shuffle(files)
    corpus = work / "corpus"
    corpus.mkdir()
    budget, total, taken = STDLIB_TOKENS, 0, 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        tokens = _proxy_tokens(text)
        if total + tokens > budget:
            continue  # keep drawing: a smaller file may still fit
        shutil.copyfile(path, corpus / _flat_name(root, path))
        total += tokens
        taken += 1
        if total >= budget * 0.995:
            break
    return Prepared(
        argv=["analyze", "corpus", "--out", "report.json"],
        expected={"file_count": taken},
        provenance=_corpus_provenance(corpus),
    )


def check_stdlib(report: dict, exit_code: int, expected: dict) -> list[str]:
    problems = []
    if exit_code not in (0, 2):
        problems.append(f"exit code {exit_code}, expected 0 or 2")
    (project,) = report["projects"]
    if project["file_count"] != expected["file_count"]:
        problems.append(f"file_count {project['file_count']} != sample size {expected['file_count']}")
    for key in ("token_ratio", "line_ratio"):
        value = project["duplication"][key]
        if not 0.0 <= value <= 1.0:
            problems.append(f"{key} {value} outside [0, 1]")
    return problems


def prepare_clone_copies(work: Path, seed: int) -> Prepared:
    root, files = stdlib_files()
    low, high = CLONE_SOURCE_TOKENS * 0.97, CLONE_SOURCE_TOKENS * 1.03
    band = [p for p in files if low <= _proxy_tokens(p.read_text(encoding="utf-8")) <= high]
    source = random.Random(seed).choice(band)
    name = _flat_name(root, source)
    single = work / "single"
    single.mkdir()
    shutil.copyfile(source, single / name)
    corpus = work / "corpus"
    corpus.mkdir()
    for i in range(CLONE_COPIES):
        shutil.copyfile(source, corpus / f"copy{i:03d}-{name}")
    provenance = _corpus_provenance(corpus)
    provenance["source"] = name
    return Prepared(
        argv=["analyze", "corpus", "--out", "report.json"],
        expected={"file_count": CLONE_COPIES},
        provenance=provenance,
        reference_argv=["analyze", "single", "--out", "single.json"],
    )


def check_clone_copies(report: dict, exit_code: int, expected: dict) -> list[str]:
    problems = []
    if exit_code not in (0, 2):
        problems.append(f"exit code {exit_code}, expected 0 or 2")
    (project,) = report["projects"]
    dup = project["duplication"]
    if dup["token_ratio"] != 1.0 or dup["line_ratio"] != 1.0:
        problems.append(f"ratios {dup['token_ratio']}/{dup['line_ratio']}, expected 1.0/1.0")
    if project["file_count"] != expected["file_count"]:
        problems.append(f"file_count {project['file_count']} != {expected['file_count']}")
    want = expected["file_count"] * expected["single_copy_tokens"]
    if dup["total_tokens"] != want:
        problems.append(f"total_tokens {dup['total_tokens']} != k x single copy = {want}")
    return problems


def _c_unit(name: str, c1: int, c2: int, c3: int, i: int) -> list[tuple[str, str]]:
    return [
        ("comment", f"/* unit {i} */"),
        ("code", f"int {name}(int a, int b) {{"),
        ("code", f"    int t = a * {c1} + b;"),
        ("code", f"    if (t > {c2}) {{"),
        ("code", f"        t = t - {c3};"),
        ("code", "    }"),
        ("code", "    return t;"),
        ("code", "}"),
        ("blank", ""),
    ]


def _py_unit(name: str, c1: int, c2: int, c3: int, i: int) -> list[tuple[str, str]]:
    return [
        ("comment", f"# unit {i}"),
        ("code", f"def {name}(a, b):"),
        ("code", f"    t = a * {c1} + b"),
        ("code", f"    if t > {c2}:"),
        ("code", f"        t = t - {c3}"),
        ("code", "    return t"),
        ("blank", ""),
    ]


def _cobol_unit(name: str, c1: int, c2: int, c3: int, i: int) -> list[tuple[str, str]]:
    return [
        ("comment", f"*> unit {i}"),
        ("code", f"PARAGRAPH {name.upper().replace('_', '-')}."),
        ("code", f"    MOVE {c1} TO TOTAL."),
        ("code", f"    IF AMOUNT > {c2}"),
        ("code", f"        ADD {c3} TO TOTAL"),
        ("code", "    END-IF."),
        ("code", "END-PARAGRAPH."),
        ("blank", ""),
    ]


# project directory, file name, unit template
_DENSE_LANGUAGES = (
    ("c_family", "units.c", _c_unit),
    ("python", "units.py", _py_unit),
    ("cobol_like", "units.cbl", _cobol_unit),
)


def prepare_unit_dense_compare(work: Path, seed: int) -> Prepared:
    rng = random.Random(seed)
    expected_projects = {}
    for project, filename, template in _DENSE_LANGUAGES:
        tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
        lines: list[tuple[str, str]] = []
        for i in range(DENSE_UNITS):
            # every tenth C and Python name breaks the naming rule, so violations are billed
            name = f"{'Fn' if i % 10 == 0 else 'fn'}_{tag}_{i}"
            lines.extend(template(name, rng.randint(2, 99_999), rng.randint(2, 99_999),
                                  rng.randint(2, 99_999), i))
        (work / project).mkdir()
        (work / project / filename).write_text(
            "".join(text + "\n" for _, text in lines), encoding="utf-8"
        )
        expected_projects[project] = {
            "file_count": 1,
            "unit_count": DENSE_UNITS,
            "physical_lines": len(lines),
            "total_loc": sum(1 for kind, _ in lines if kind == "code"),
        }
    provenance = {
        "files": len(_DENSE_LANGUAGES),
        "bytes": sum(p.stat().st_size for p in work.rglob("*") if p.is_file()),
        "file_list_sha256": _file_list_sha256(
            f"{project}/{filename}" for project, filename, _ in _DENSE_LANGUAGES
        ),
    }
    return Prepared(
        argv=["compare", *(p for p, _, _ in _DENSE_LANGUAGES), "--sensitivity",
              "--out", "report.json"],
        expected={"projects": expected_projects},
        provenance=provenance,
    )


def check_unit_dense_compare(report: dict, exit_code: int, expected: dict) -> list[str]:
    problems = []
    if exit_code not in (0, 2):
        problems.append(f"exit code {exit_code}, expected 0 or 2")
    by_id = {p["project_id"]: p for p in report["projects"]}
    for project, want in expected["projects"].items():
        got = by_id.get(project)
        if got is None:
            problems.append(f"project {project} missing")
            continue
        actual = {"file_count": got["file_count"], **{k: got["metrics"][k] for k in
                  ("unit_count", "physical_lines", "total_loc")}}
        if actual != want:
            problems.append(f"{project}: {actual} != generator counts {want}")
    ranks = sorted(entry["rank"] for entry in report.get("composite", []))
    if ranks != [1, 2, 3]:
        problems.append(f"composite ranks {ranks}, expected [1, 2, 3]")
    if "sensitivity" not in report:
        problems.append("sensitivity block missing")
    return problems


# name -> (prepare, check); why each workload exists is in BENCHMARK.json
WORKLOADS = {
    "stdlib": (prepare_stdlib, check_stdlib),
    "clone_copies": (prepare_clone_copies, check_clone_copies),
    "unit_dense_compare": (prepare_unit_dense_compare, check_unit_dense_compare),
}

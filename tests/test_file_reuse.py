"""Each distinct file content is analyzed once per project and process.

A file whose bytes and profile equal those of a file analyzed earlier in
the same project and process gets that file's result under its own path,
its unit metrics, diagnostics and clone row shared. The result
must be the one a fresh analysis of the file gives, a hash collision must
be settled by comparing the bytes, and the work must not grow with the
number of copies.
"""

import gc
import json
import os
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from test_parallel import SERIAL, _fake_cpus, _no_child_left, _renumbered
from xmaint import analysis, cli
from xmaint.duplication import EXACT, token_ids
from xmaint.profiles import ProfileRegistry

# two units and an unterminated string, so a copy has unit and diagnostic paths
SOURCE = (
    "def f(a, b):\n"
    "    if a:\n"
    "        return b\n"
    "    return a\n"
    "\n"
    "def g(x):\n"
    "    s = \"open\n"
    "    return x\n"
)
OTHER = "def h(y):\n    return y * 2\n"


def _copies(root, k):
    """k copies of ``SOURCE`` and one distinct file after them in path order."""
    root.mkdir(parents=True)
    for i in range(k):
        (root / f"copy{i:03}.py").write_text(SOURCE)
    (root / "z_other.py").write_text(OTHER)
    return root


def _stage(root):
    """The per-file stage's file analyses and rows of one project."""
    found = analysis.discover_files(root, ProfileRegistry())
    [(files, rows)], failure = analysis._analyze_files(
        [found], EXACT, False, lambda project, files, rows: (files, rows))
    assert failure is None
    return found, files, rows


@pytest.fixture
def one_share(monkeypatch):
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("one share must not fork"))


@pytest.fixture
def three_shares(monkeypatch):
    """Fork at any size on three faked CPUs."""
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1)
    _fake_cpus(monkeypatch, {0, 1, 2})


def _counted_tokenize(monkeypatch, log):
    """Log this process's id to ``log`` at each tokenize call, in any process."""
    real = analysis.tokenize

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "tokenize", counted)


def _calls(log):
    return Counter(log.read_text().split()) if log.exists() else Counter()


def test_a_reused_copy_equals_its_fresh_analysis(tmp_path, one_share, default_config):
    root = _copies(tmp_path / "p", 4)
    found, files, rows = _stage(root)
    profile = ProfileRegistry().get("python")
    copies = [fa for fa in files if fa.path.startswith("copy")]
    assert len(copies) == 4
    for fa in copies:
        fresh, fresh_row = analysis.analyze_file(root / fa.path, fa.path, profile, token_ids())
        assert fa == fresh
        assert fa.unit_metrics is copies[0].unit_metrics  # one tuple, shared
        # the copies come first, so the project's ids are a fresh table's
        assert rows[fa.path] == fresh_row
        assert rows[fa.path] is rows[copies[0].path]  # one row, shared
    assert rows["z_other.py"] is not rows[copies[0].path]
    # the project names each copy's diagnostic by the copy's path
    project = analysis.analyze_project(root, default_config, ProfileRegistry())
    assert [(d.code, d.file) for d in project.diagnostics] == [
        ("unterminated-string", fa.path) for fa in copies]


@pytest.mark.parametrize("shares", ["one_share", "three_shares"])
def test_tokenize_runs_once_per_distinct_content_and_share(request, tmp_path, monkeypatch, shares):
    request.getfixturevalue(shares)
    counts = []
    for k in (6, 12):
        root = _copies(tmp_path / f"k{k}", k)
        log = tmp_path / f"k{k}.log"
        with monkeypatch.context() as patched:
            _counted_tokenize(patched, log)
            found, files, _ = _stage(root)
        _no_child_left()
        assert len(files) == k + 1
        split, _ = analysis._shares(found)
        distinct = sorted(len({found[index][0].read_bytes() for index in share}) for share in split)
        assert sorted(_calls(log).values()) == distinct
        assert _calls(log)[str(os.getpid())] == len({found[index][0].read_bytes() for index in split[0]})
        counts.append(sum(distinct))
    assert counts[0] == counts[1] == (2 if shares == "one_share" else 4)


def test_a_hash_collision_is_settled_by_the_bytes(tmp_path, one_share, monkeypatch):
    # two distinct files of one length under one key, then a copy of the second
    root = tmp_path / "p"
    root.mkdir()
    (root / "a.py").write_text("x = 1\n")
    (root / "b.py").write_text("y = 2\n")
    (root / "c.py").write_text("y = 2\n")
    expected = _stage(root)[1:]
    log = tmp_path / "calls.log"
    _counted_tokenize(monkeypatch, log)
    monkeypatch.setattr(analysis, "hash", lambda data: 0, raising=False)
    _, files, rows = _stage(root)
    assert sum(_calls(log).values()) == 2  # a and b; c reuses b
    assert (files, rows) == expected
    assert rows["a.py"] != rows["b.py"] and rows["b.py"] is rows["c.py"]


def test_a_copy_changed_since_its_key_was_taken_is_analyzed_afresh(tmp_path, one_share, monkeypatch):
    # the earlier file is re-read on a key hit; bytes that no longer match miss
    root = _copies(tmp_path / "p", 2)
    real = analysis.analyze_file

    def rewriting(abs_path, rel, *args):
        result = real(abs_path, rel, *args)
        if rel == "copy000.py":
            abs_path.write_text(SOURCE.replace("g(x)", "k(x)"))
        return result

    monkeypatch.setattr(analysis, "analyze_file", rewriting)
    log = tmp_path / "calls.log"
    _counted_tokenize(monkeypatch, log)
    _, files, _ = _stage(root)
    assert sum(_calls(log).values()) == 3
    assert [m.unit.name for m in files[1].unit_metrics] == ["f", "g"]


def test_a_copy_whose_earlier_file_cannot_be_read_again_is_analyzed_afresh(
        tmp_path, one_share, monkeypatch, default_config):
    # each run reads copy000.py for itself, then again for copy001.py's key hit
    root = _copies(tmp_path / "p", 2)
    expected = _stage(root)[1:], analysis.analyze_project(root, default_config, ProfileRegistry())
    reads = Counter()
    real = Path.read_bytes

    def failing_reread(path):
        reads[path.name] += 1
        if path.name == "copy000.py" and reads[path.name] % 2 == 0:
            raise PermissionError(13, "Permission denied", str(path))
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", failing_reread)
    log = tmp_path / "calls.log"
    _counted_tokenize(monkeypatch, log)
    _, files, rows = _stage(root)
    assert sum(_calls(log).values()) == 3
    assert rows["copy000.py"] is not rows["copy001.py"]
    assert ((files, rows), analysis.analyze_project(root, default_config, ProfileRegistry())) == expected
    assert reads["copy000.py"] == 4


def test_equal_bytes_under_two_profiles_are_analyzed_once_each(tmp_path, one_share, monkeypatch):
    root = tmp_path / "p"
    root.mkdir()
    for name in ("x.c", "x.py", "y.c", "y.py"):
        (root / name).write_text("int f(int a) { return a; }\n")
    log = tmp_path / "calls.log"
    _counted_tokenize(monkeypatch, log)
    _, files, rows = _stage(root)
    assert sum(_calls(log).values()) == 2
    registry = ProfileRegistry()
    for fa in files:
        profile = registry.get("c-family" if fa.path.endswith(".c") else "python")
        assert fa == analysis.analyze_file(root / fa.path, fa.path, profile, token_ids())[0]
    assert rows["x.c"] is rows["y.c"] and rows["x.py"] is rows["y.py"] and rows["x.c"] is not rows["x.py"]


def test_equal_files_in_two_projects_get_each_project_s_ids(tmp_path, one_share):
    # project b numbers its ids from its own first file, so its copy of a's
    # file must not take a's row
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "m.py").write_text(SOURCE)
    (b / "a_first.py").write_text(OTHER)
    (b / "m.py").write_text(SOURCE)
    registry = ProfileRegistry()
    found = [analysis.discover_files(root, registry) for root in (a, b)]
    both, failure = analysis._analyze_files(found, EXACT, False, lambda project, files, rows: (files, rows))
    assert failure is None
    assert both == [_stage(a)[1:], _stage(b)[1:]]
    assert both[0][1]["m.py"] != both[1][1]["m.py"]


@pytest.mark.parametrize("shares", ["one_share", "three_shares"])
def test_compare_of_projects_with_equal_files_gives_the_analyze_blocks(request, tmp_path, shares):
    request.getfixturevalue(shares)
    roots = [_copies(tmp_path / name, 3) for name in ("a", "b")]
    (roots[1] / "a_first.py").write_text(OTHER.replace("h(y)", "first(y)"))
    blocks = []
    for root in roots:
        out = tmp_path / f"{root.name}.json"
        assert cli.main(["analyze", str(root), "--out", str(out)]) == 2  # the unterminated strings
        blocks.append(json.loads(out.read_text())["projects"][0])
    out = tmp_path / "compare.json"
    assert cli.main(["compare", *map(str, roots), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["projects"] == blocks
    _no_child_left()


def test_forked_copies_equal_the_one_share_run(tmp_path, monkeypatch):
    root = _copies(tmp_path / "p", 9)
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    _, serial_files, serial_rows = _stage(root)
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1)
    _fake_cpus(monkeypatch, {0, 1, 2})
    _, forked_files, forked_rows = _stage(root)
    _no_child_left()
    assert forked_files == serial_files
    assert _renumbered(forked_rows) == _renumbered(serial_rows)


def _retained(found):
    """tracemalloc bytes held by the per-file stage's output for ``found``."""
    def stage():
        return analysis._analyze_files([found], EXACT, False, lambda project, files, rows: (files, rows))

    stage()  # warm the lexer and profile caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [(files, rows)], failure = stage()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert failure is None and len(files) == len(found)
    return retained


def test_copies_share_one_row_in_the_per_file_output(tmp_path, one_share):
    # 30 copies of a file hold one clone row and one tuple of unit metrics
    # and diagnostics, beside 30 file analyses: 1.3 times what one copy of
    # the twelve-unit file holds and 1.1 times for the eighty one-line defs,
    # against 6.1 and 11.5 when each copy held units naming its own path
    twelve_units = "".join(
        f"def step{i}(items, limit):\n    total = {i}\n    for item in items:\n"
        f"        if item > limit and item % {i + 2} == 0:\n            total = total + item * {i + 3}\n"
        f"        elif item < {i}:\n            total = total - item\n"
        f"    return total, [x for x in items if x != {i}]\n\n"
        for i in range(12))
    eighty_defs = "".join(f"def f{i}(x): return x + {i}\n" for i in range(80))
    for name, text in (("twelve", twelve_units), ("eighty", eighty_defs)):
        root = tmp_path / name
        root.mkdir()
        for i in range(30):
            (root / f"copy{i:02}.py").write_text(text)
        found = analysis.discover_files(root, ProfileRegistry())
        one, thirty = _retained(found[:1]), _retained(found)
        assert thirty <= 2 * one, f"30 copies of {name} hold {thirty / one:.1f} times one copy's bytes"

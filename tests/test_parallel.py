"""The per-file stage in forked workers gives the one-share run's results.

This process analyzes the first share against the project's id table and
each worker its share against a table of its own, whose ids the parent maps
to project ids once per share. So a forked run hands out other project ids
than a one-share run, and must equal it field by field once each run's ids
are renumbered in the order they first occur, and in its report bytes
under any hash seed. A worker's failure must reach the caller, and no
worker may outlive the call.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from test_acceptance import _mixed_corpus
from xmaint import analysis
from xmaint.analysis import analyze_project
from xmaint.config import load_config
from xmaint.errors import XmaintError
from xmaint.profiles import ProfileRegistry

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")

SERIAL = 1 << 62  # more bytes per share than any corpus here holds


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    return _mixed_corpus(tmp_path_factory.mktemp("parallel") / "mixed", lines_target=3000)


@pytest.fixture
def forks(monkeypatch):
    """Force three workers whatever the machine's cores, and count forks."""
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _renumbered(files):
    """Each file's clone row ids, every id renumbered by the order it first
    occurs in, taking the files in path order."""
    first = {}
    return [[first.setdefault(i, len(first)) for i in fa.clone_row.ids] for fa in files]


def test_forked_shares_equal_the_loop_field_by_field(mixed, forks, monkeypatch):
    forked = analyze_project(mixed, load_config(), ProfileRegistry())
    assert len(forks) == 2  # three shares: this process and two workers
    _no_child_left()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("one share must not fork"))
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    serial = analyze_project(mixed, load_config(), ProfileRegistry())
    assert len(serial.files) == len(forked.files) > 3
    for a, b in zip(serial.files, forked.files):
        for name in a._fields:
            if name != "clone_row":
                assert getattr(a, name) == getattr(b, name), (a.path, name)
        assert (a.clone_row.lines, a.clone_row.end_lines) == (b.clone_row.lines, b.clone_row.end_lines)
    assert _renumbered(serial.files) == _renumbered(forked.files)
    # the forked ids are other ids, and only the renumbering equates them
    assert [fa.clone_row.ids for fa in serial.files] != [fa.clone_row.ids for fa in forked.files]
    for name in serial._fields:
        if name != "files":
            assert getattr(serial, name) == getattr(forked, name), name


@pytest.mark.parametrize("share", [1, SERIAL], ids=["forked", "serial"])
def test_file_analyses_keep_line_counts_only(mixed, forks, monkeypatch, share):
    # the per-line classes are read inside the per-file stage and dropped there
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", share)
    result = analyze_project(mixed, load_config(), ProfileRegistry())
    for fa in result.files:
        assert fa.lines.classes == ()
        assert fa.lines.physical_lines > 0


_FORCED_RUN = """
import os, sys
from xmaint import analysis, cli
analysis._MIN_SHARE_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
os.sched_setaffinity = lambda pid, cpus: None
sys.exit(cli.main(["analyze", sys.argv[1], "--min-tokens", "20"]))
"""


def test_forked_report_is_the_same_under_any_hash_seed(mixed, capsys):
    import xmaint
    from xmaint.cli import main

    src = str(Path(xmaint.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def digest(text):
        data = json.loads(text)
        data.pop("generated_at")
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

    digests = set()
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        env.pop("XMAINT_CONFIG", None)
        result = subprocess.run([sys.executable, "-c", _FORCED_RUN, str(mixed)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode in (0, 2), result.stderr
        digests.add(digest(result.stdout))
    assert len(digests) == 1
    main(["analyze", str(mixed), "--min-tokens", "20"])  # this process, in one share
    assert digests == {digest(capsys.readouterr().out)}


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_an_exception_in_any_share_reaches_the_caller(mixed, forks, monkeypatch, where):
    parent = os.getpid()
    real = analysis.analyze_file

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise ValueError(f"failed in the {where}")
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "analyze_file", failing)
    with pytest.raises(ValueError, match=f"failed in the {where}"):
        analyze_project(mixed, load_config(), ProfileRegistry())
    assert len(forks) == 2
    _no_child_left()


def test_a_worker_that_dies_without_a_result_is_an_error(mixed, forks, monkeypatch):
    parent = os.getpid()
    real = analysis.analyze_file

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "analyze_file", dying)
    with pytest.raises(XmaintError, match="exited with status 3 without its result"):
        analyze_project(mixed, load_config(), ProfileRegistry())
    _no_child_left()


def test_a_worker_that_stops_after_its_keys_is_an_error(mixed, forks, monkeypatch):
    # a worker sends its table's keys, then one pickle per file: it exits
    # on the second file, after the keys and the first file have reached
    # the parent
    import pickle

    parent = os.getpid()
    real = pickle.dump
    dumps = []

    def dump(obj, file, *args):
        if os.getpid() != parent:
            dumps.append(obj)
            if len(dumps) == 3:
                os._exit(4)
        real(obj, file, *args)
        file.flush()

    monkeypatch.setattr(pickle, "dump", dump)
    with pytest.raises(XmaintError, match="exited with status 4 without its result"):
        analyze_project(mixed, load_config(), ProfileRegistry())
    assert len(forks) == 2
    _no_child_left()


_ORPHANED_RUN = """
import os, sys, time
from xmaint import analysis
from xmaint.config import load_config
from xmaint.profiles import ProfileRegistry
analysis._MIN_SHARE_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None
parent, real = os.getpid(), analysis.analyze_file

def slow(*args):
    if os.getpid() == parent:
        time.sleep(120)  # killed in its own share
    print(os.getpid(), flush=True)
    time.sleep(0.5)
    return real(*args)

analysis.analyze_file = slow
analysis.analyze_project(sys.argv[1], load_config(), ProfileRegistry())
"""


def _gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_worker_whose_parent_is_killed_stops(tmp_path):
    # the worker's share holds 20 files of half a second each; it must stop
    # at its next file once the parent is gone, not finish the share
    import signal
    import xmaint

    for i in range(40):
        (tmp_path / f"m{i:02d}.py").write_text(f"x = {i}\n")
    src = str(Path(xmaint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.Popen([sys.executable, "-c", _ORPHANED_RUN, str(tmp_path)],
                           stdout=subprocess.PIPE, text=True, env=env)
    worker = None
    try:
        worker = int(run.stdout.readline())
        assert worker != run.pid  # printed by a worker, not by this process's share
        run.kill()
        run.wait(timeout=30)
        deadline = time.monotonic() + 5
        while not _gone(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _gone(worker)
    finally:
        run.kill()
        run.wait(timeout=30)
        run.stdout.close()
        if worker is not None and not _gone(worker):
            os.kill(worker, signal.SIGKILL)


def test_a_second_live_thread_keeps_the_loop(mixed, forks, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a live thread"))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        result = analyze_project(mixed, load_config(), ProfileRegistry())
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert len(result.files) > 3


def test_a_project_below_two_shares_keeps_the_loop(tmp_path, monkeypatch):
    # 30 copies of a 5,999-byte file, the benchmark's clone_copies input at
    # seed 1 on Python 3.11, lie below two shares, and a one-file project,
    # as each unit_dense_compare project is, never forks; one byte short of
    # two shares is one process, two shares are two, however many cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    registry = ProfileRegistry()
    copies = tmp_path / "copies"
    copies.mkdir()
    for i in range(30):
        (copies / f"copy{i:03d}.py").write_text("x = 1\n" * 999 + "y=2\n\n")  # 5,999 B
    found = analysis.discover_files(copies, registry)
    assert sum(path.stat().st_size for path, _, _ in found) == 179_970
    assert len(analysis._shares(found)[0]) == 1
    rest = 2 * analysis._MIN_SHARE_BYTES - 179_970
    (copies / "rest.py").write_text("#" * (rest - 2) + "\n")
    assert len(analysis._shares(analysis.discover_files(copies, registry))[0]) == 1
    (copies / "rest.py").write_text("#" * (rest - 1) + "\n")
    assert len(analysis._shares(analysis.discover_files(copies, registry))[0]) == 2
    single = analysis.discover_files(copies / "rest.py", registry)
    assert len(analysis._shares(single)[0]) == 1


def test_balanced_shares_take_the_largest_file_first():
    assert analysis._balanced_shares([5, 1, 9, 4, 4], 2) == [[2, 4], [0, 3, 1]]
    assert analysis._balanced_shares([3, 3, 3], 3) == [[0], [1], [2]]

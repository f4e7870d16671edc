"""The per-file stage in forked workers gives the one-share run's results,
and so does ``compare``, whose one per-file stage spans all its projects.

This process analyzes the first share against the project's id table and
each worker its share against a table of its own, whose ids the parent maps
to project ids once per share. So a forked run hands out other project ids
than a one-share run, and must equal it field by field once each run's ids
are renumbered in the order they first occur, and in its report bytes
under any hash seed. A failure must reach the caller as one process would
raise it, no worker may outlive the call, and no more processes may run
than there are CPUs.
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


@pytest.fixture(scope="module")
def projects(tmp_path_factory):
    """Three mixed-language projects of different sizes."""
    root = tmp_path_factory.mktemp("projects")
    return [_mixed_corpus(root / name, lines_target=lines)
            for name, lines in (("small", 600), ("large", 2400), ("medium", 1200))]


def _fake_cpus(monkeypatch, cpus):
    """Fake CPUs for the affinity calls. Like the kernel's, the faked
    affinity is each process's own: a forked child starts with its parent's
    and changes only its own."""
    allowed = [set(cpus)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed[0]), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: allowed.__setitem__(0, set(cpus)),
                        raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Fork at any size on three faked CPUs, whatever the machine's cores,
    and count this process's forks."""
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1)
    _fake_cpus(monkeypatch, {0, 1, 2})
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


def _renumbered(rows):
    """Each clone row's ids, every id renumbered by the order it first
    occurs in, taking the rows in path order."""
    first = {}
    return [[first.setdefault(i, len(first)) for i in row.ids] for row in rows.values()]


def _files_and_rows(project, files, rows):
    return files, rows


def test_forked_shares_equal_the_loop_field_by_field(mixed, forks, monkeypatch):
    # the clone rows live beside the file analyses until the clone stage
    found = analysis.discover_files(mixed, ProfileRegistry())
    # one project over three shares is split, and finished here once every
    # share has ended
    [(forked_files, forked_rows)], failure = analysis._analyze_files([found], "exact", False, _files_and_rows)
    assert failure is None
    forked = analyze_project(mixed, load_config(), ProfileRegistry())
    assert len(forks) == 4  # three shares a run: this process and two workers
    _no_child_left()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("one share must not fork"))
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    # in one share it is held whole, and finished right after its last file
    [(serial_files, serial_rows)], failure = analysis._analyze_files([found], "exact", False, _files_and_rows)
    assert failure is None
    serial = analyze_project(mixed, load_config(), ProfileRegistry())
    assert len(serial_files) == len(forked_files) > 3
    assert serial_files == forked_files == list(serial.files)
    assert list(serial_rows) == list(forked_rows) == [fa.path for fa in serial_files]
    for a, b in zip(serial_rows.values(), forked_rows.values()):
        assert (a.lines, a.end_lines) == (b.lines, b.end_lines)
    assert _renumbered(serial_rows) == _renumbered(forked_rows)
    # the forked ids are other ids, and only the renumbering equates them
    assert [row.ids for row in serial_rows.values()] != [row.ids for row in forked_rows.values()]
    assert serial == forked


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
analysis.analyze_projects(sys.argv[1:], sys.argv[1:], load_config(), ProfileRegistry())
"""


def _gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_worker_whose_parent_is_killed_stops(tmp_path):
    _orphaned_worker_stops(tmp_path, 1)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_compare_worker_whose_parent_is_killed_stops(tmp_path):
    _orphaned_worker_stops(tmp_path, 2)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_worker_that_finishes_whole_projects_stops_when_its_parent_is_killed(tmp_path):
    # one-file projects are held whole, so the worker runs each one's
    # project-level stages right after its file
    _orphaned_worker_stops(tmp_path, 40)


def _orphaned_worker_stops(tmp_path, count):
    # the worker's share holds 20 files of half a second each, of ``count``
    # projects; it must stop at its next file once the parent is gone, not
    # finish the share
    import signal
    import xmaint

    roots = [tmp_path / f"p{project}" for project in range(count)]
    for i in range(40):
        roots[i % count].mkdir(exist_ok=True)
        (roots[i % count] / f"m{i:02d}.py").write_text(f"x = {i}\n")
    src = str(Path(xmaint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.Popen([sys.executable, "-c", _ORPHANED_RUN, *map(str, roots)],
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


def test_balanced_shares_make_no_empty_share():
    assert analysis._balanced_shares([400, 0, 0], 3) == [[0], [1, 2]]


def test_a_project_whose_bytes_sit_in_one_file_forks_no_idle_worker(tmp_path, forks):
    # three CPUs and three files, but only one holds any bytes: a worker
    # could only end at once while this process analyzes that file
    (tmp_path / "big.py").write_text("x = 1\n" * 100)
    for package in ("a", "b"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "__init__.py").write_text("")
    result = analyze_project(tmp_path, load_config(), ProfileRegistry())
    assert len(result.files) == 3 and forks == []
    # a second file as large is worth one worker, which gets it
    (tmp_path / "big2.py").write_text("y = 2\n" * 100)
    found = analysis.discover_files(tmp_path, ProfileRegistry())
    shares, _ = analysis._shares(found)
    assert [[found[index][1] for index in share] for share in shares] == [
        ["a/__init__.py", "b/__init__.py", "big.py"], ["big2.py"]]
    assert len(analyze_project(tmp_path, load_config(), ProfileRegistry()).files) == 4
    assert len(forks) == 1
    _no_child_left()


_FORCED_COMPARE = """
import os, sys
from xmaint import analysis, cli
analysis._MIN_SHARE_BYTES = 1
allowed = [{0, 1, 2}]
os.sched_getaffinity = lambda pid: set(allowed[0])
os.sched_setaffinity = lambda pid, cpus: allowed.__setitem__(0, set(cpus))
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
code = cli.main(["compare", *sys.argv[1:], "--sensitivity"])
print(len(forks), file=sys.stderr)
sys.exit(code)
"""


def _without_generated_at(text):
    return "".join(line for line in text.splitlines(True) if '"generated_at"' not in line)


def test_forked_compare_gives_the_one_process_report_under_any_hash_seed(projects, monkeypatch, capsys):
    # three faked CPUs: the files of all three projects in three shares
    import xmaint
    from xmaint.cli import main

    src = str(Path(xmaint.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    reports = set()
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        env.pop("XMAINT_CONFIG", None)
        result = subprocess.run([sys.executable, "-c", _FORCED_COMPARE, *map(str, projects)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode in (0, 2), result.stderr
        assert result.stderr.splitlines()[-1] == "2"  # two workers
        reports.add(_without_generated_at(result.stdout))
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("one process must not fork"))
    main(["compare", *map(str, projects), "--sensitivity"])
    assert reports == {_without_generated_at(capsys.readouterr().out)}


def test_a_compare_of_split_and_whole_projects_gives_the_one_process_report(
        projects, one_file_projects, forks, monkeypatch, capsys):
    # the large project's files fill all three shares and are finished here;
    # each one-file project is finished by the share that holds it
    from xmaint.cli import main

    paths = [str(one_file_projects[0]), str(projects[1]), str(one_file_projects[2])]
    registry = ProfileRegistry()
    items = [(project, item) for project, path in enumerate(paths)
             for item in analysis.discover_files(Path(path), registry)]
    shares, _ = analysis._shares([item for _, item in items])
    holders = [sum(any(items[index][0] == project for index in share) for share in shares) for project in range(3)]
    assert holders == [1, 3, 1]
    assert main(["compare", *paths, "--sensitivity"]) in (0, 2)
    forked = capsys.readouterr().out
    assert len(forks) == 2
    _no_child_left()
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    assert main(["compare", *paths, "--sensitivity"]) in (0, 2)
    assert _without_generated_at(forked) == _without_generated_at(capsys.readouterr().out)


def test_a_large_project_beside_a_small_one_spreads_over_every_share(projects, tmp_path, monkeypatch):
    # a project is not a unit of work: the large one's files fill both shares
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1)
    _fake_cpus(monkeypatch, {0, 1})
    (tmp_path / "small.py").write_text("x = 1\n")
    registry = ProfileRegistry()
    large = analysis.discover_files(projects[1], registry)
    shares, _ = analysis._shares(large + analysis.discover_files(tmp_path, registry))
    assert len(shares) == 2 and all(min(share) < len(large) for share in shares)


@pytest.fixture
def one_file_projects(tmp_path):
    """Three one-file projects. On two shares this process holds the large
    one whole and a worker the small and the medium one."""
    roots = []
    for name, lines in (("small", 10), ("large", 30), ("medium", 15)):
        (tmp_path / name).mkdir()
        (tmp_path / name / f"{name}.py").write_text("".join(f"x{i} = {i}\n" for i in range(lines)))
        roots.append(tmp_path / name)
    return roots


_STOPPED = r"^per-file worker \d+ exited with status 4 without its result$"


@pytest.mark.parametrize("layout, failing, raised", [
    ("projects", {"small": "project", "large": "files"}, (ValueError, "^small failed$")),
    ("projects", {"large": "project", "medium": "files"}, (ValueError, "^large failed$")),
    ("projects", {"large": "files", "medium": "files"}, (ValueError, "^large failed$")),
    ("projects", {"small": "sent", "large": "files"}, (XmaintError, _STOPPED)),
    ("small large medium", {"small": "project", "large": "files"}, (ValueError, "^small failed$")),
    ("small large medium", {"large": "project", "medium": "files"}, (ValueError, "^large failed$")),
    ("small medium large", {"small": "sent", "large": "files"}, (XmaintError, _STOPPED)),
    ("medium large small", {"medium": "sent", "large": "project"}, (ValueError, "^large failed$")),
], ids=["project-then-files", "project-then-later-files", "files-then-files", "worker-stops-then-files",
        "worker-project-then-files-here", "project-here-then-worker-files",
        "worker-stops-then-files-here", "project-here-then-worker-stops"])
def test_the_first_failing_project_in_order_is_raised(request, forks, monkeypatch, layout, failing, raised):
    # a project fails in its files, in any share, or in its project-level
    # stages, which run in the share that holds all of its files right after
    # the last of them, or here once every share has ended when its files
    # are split over shares; a worker whose stream ends right after it sent
    # its first result of a project ("sent") fails at the next file of its
    # share
    import pickle

    if layout == "projects":
        projects = request.getfixturevalue(layout)
    else:  # one-file projects in this order; this process holds the large one
        by_name = {root.name: root for root in request.getfixturevalue("one_file_projects")}
        projects = [by_name[name] for name in layout.split()]
    registry = ProfileRegistry()
    found = {root.name: analysis.discover_files(root, registry) for root in projects}
    names = [name for name, files in found.items() for _ in files]  # by file index
    shares, _ = analysis._shares([item for files in found.values() for item in files])
    if layout == "projects":
        assert len(shares) == 3  # every project's files spread over this process and two workers
    else:
        large = layout.split().index("large")
        assert shares == [[large], [index for index in range(3) if index != large]]
    roots = {str(root): root.name for root in projects}
    real_file, real_project, real_dump = analysis.analyze_file, analysis._project_analysis, pickle.dump

    def failing_file(abs_path, *args):
        project = next(name for root, name in roots.items() if str(abs_path).startswith(root + os.sep))
        if failing.get(project) == "files":
            raise ValueError(f"{project} failed")
        return real_file(abs_path, *args)

    def failing_project(root, project_id, *args):
        if failing.get(project_id) == "project":
            raise ValueError(f"{project_id} failed")
        return real_project(root, project_id, *args)

    def stopping_dump(obj, file, *args):
        real_dump(obj, file, *args)
        if isinstance(obj, tuple) and failing.get(names[obj[0]]) == "sent":  # a (file index, result) pair
            file.flush()
            os._exit(4)

    monkeypatch.setattr(analysis, "analyze_file", failing_file)
    monkeypatch.setattr(analysis, "_project_analysis", failing_project)
    monkeypatch.setattr(pickle, "dump", stopping_dump)
    kind, message = raised
    with pytest.raises(kind, match=message) as error:
        analysis.analyze_projects(projects, [p.name for p in projects], load_config(), registry)
    assert error.type is kind  # a worker relays the exception it met, not a stand-in
    assert len(forks) == len(shares) - 1
    _no_child_left()


def test_a_serial_compare_finishes_each_project_before_the_next_one_s_files(projects, monkeypatch):
    # in one share a project's rows go before the next project's files are read
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    names = {str(root): root.name for root in projects}
    events = []
    real_file, real_project = analysis.analyze_file, analysis._project_analysis

    def logged_file(abs_path, *args):
        name = next(name for root, name in names.items() if str(abs_path).startswith(root + os.sep))
        events.append(("file", name))
        return real_file(abs_path, *args)

    def logged_project(root, project_id, *args):
        events.append(("project", project_id))
        return real_project(root, project_id, *args)

    monkeypatch.setattr(analysis, "analyze_file", logged_file)
    monkeypatch.setattr(analysis, "_project_analysis", logged_project)
    analysis.analyze_projects(projects, [p.name for p in projects], load_config(), ProfileRegistry())
    order = [event for index, event in enumerate(events) if index == 0 or events[index - 1] != event]
    assert order == [(stage, name) for name in ("small", "large", "medium") for stage in ("file", "project")]


def test_every_error_survives_a_pickle_round_trip():
    # a worker relays its failure by pickling it
    import pickle

    from xmaint import errors

    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.XmaintError)]
    assert len(classes) > 10 and errors.SingleCountingViolation in classes
    for cls in classes:
        if cls is errors.SingleCountingViolation:
            exc = cls([("commentRatio", "comment-density")])
        else:
            exc = cls(f"{cls.__name__} raised")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls and str(copy) == str(exc)


def test_a_worker_s_project_level_error_gives_the_one_process_error_line(
        one_file_projects, forks, monkeypatch, capsys):
    # the small project is held whole by a worker, which relays the error
    from xmaint.cli import main
    from xmaint.errors import SingleCountingViolation

    parent = os.getpid()
    real = analysis._project_analysis
    anywhere = []

    def failing(root, project_id, *args):
        if project_id == "small" and (anywhere or os.getpid() != parent):
            raise SingleCountingViolation([("commentRatio", "comment-density")])
        return real(root, project_id, *args)

    monkeypatch.setattr(analysis, "_project_analysis", failing)
    paths = [str(root) for root in one_file_projects]
    assert main(["compare", *paths]) == 1
    forked = capsys.readouterr()
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    anywhere.append(True)
    assert main(["compare", *paths]) == 1
    assert forked == capsys.readouterr()
    assert forked.out == "" and forked.err == (
        "error: single-counting violation: indicator 'commentRatio' conflicts with rule 'comment-density'\n")


@pytest.mark.parametrize("missing", [1, 2], ids=["second", "third"])
def test_a_missing_path_fails_as_in_one_process(projects, forks, monkeypatch, capsys, tmp_path, missing):
    from xmaint.cli import main

    paths = [str(p) for p in projects]
    paths[missing] = str(tmp_path / "missing")
    assert main(["compare", *paths]) == 1
    forked = capsys.readouterr()
    # the projects before the missing one are analyzed in three shares
    assert len(forks) == 2
    _no_child_left()
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", SERIAL)
    assert main(["compare", *paths]) == 1
    assert forked == capsys.readouterr()
    assert forked.out == "" and forked.err == f"error: path does not exist: {tmp_path / 'missing'}\n"


def test_no_more_processes_run_at_once_than_cpus(projects, monkeypatch, tmp_path):
    # four faked CPUs: a process is counted from its fork to its reaping
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1)
    _fake_cpus(monkeypatch, range(4))
    log = tmp_path / "processes.log"
    real_fork, real_waitpid = os.fork, os.waitpid

    def note(event, pid):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{time.monotonic()} {event} {pid}\n".encode())
        finally:
            os.close(fd)

    def fork():
        pid = real_fork()
        if pid:
            note("start", pid)
        return pid

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        if reaped[0] > 0:
            note("stop", reaped[0])
        return reaped

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    analyses = analysis.analyze_projects(projects, [p.name for p in projects], load_config(), ProfileRegistry())
    assert [pa.project_id for pa in analyses] == ["small", "large", "medium"]
    events = sorted((float(t), event != "start") for t, event, _ in map(str.split, log.read_text().splitlines()))
    assert sum(not stop for _, stop in events) == 3
    running = most = 1
    for _, stop in events:
        running += -1 if stop else 1
        most = max(most, running)
    assert running == 1 and most <= 4

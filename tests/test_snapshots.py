import errno
import json
import os
import subprocess
import sys

import pytest

from xmaint import snapshots
from xmaint.errors import NoSnapshots, StoreUnwritable, UnknownMetricKey, XmaintError
from xmaint.cli import main, utc_now_iso
from xmaint.snapshots import SnapshotStore

fcntl = pytest.importorskip("fcntl")  # the store lock is POSIX flock


def snapshot(project="proj", tdr=0.3, config_hash="cafe" * 16, label=""):
    return {
        "project_id": project,
        "label": label,
        "timestamp_utc": utc_now_iso(),
        "tool_version": "0.1.0",
        "config_hash": config_hash,
        "metrics_summary": {"tdr": tdr, "total_loc": 100, "mi": 70.0},
    }


def test_first_save_creates_one_snapshot(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot())
    assert len(store.list_snapshots()) == 1


def test_two_identical_saves_are_distinct_with_equal_hash(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    id_one = store.save(snapshot(tdr=0.2))
    id_two = store.save(snapshot(tdr=0.2))
    assert id_one != id_two
    records = store.list_snapshots("proj")
    assert len(records) == 2
    assert records[0]["config_hash"] == records[1]["config_hash"]


def test_config_change_recorded(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot(config_hash="a" * 64))
    store.save(snapshot(config_hash="b" * 64))
    hashes = {r["config_hash"] for r in store.list_snapshots("proj")}
    assert hashes == {"a" * 64, "b" * 64}


def test_round_trip_preserves_fields(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    original = snapshot(label="before refactor")
    snapshot_id = store.save(original)
    record = store.list_snapshots("proj")[0]
    assert record["snapshot_id"] == snapshot_id
    for key, value in original.items():
        assert record[key] == value


def test_snapshot_id_is_pinned(tmp_path):
    # the stamp, then SHA-256 of the other fields as compact sorted JSON
    original = dict(snapshot(label="før"), timestamp_utc="2026-01-02T03:04:05.678901Z")
    assert SnapshotStore(tmp_path / "store").save(original) == "20260102T030405678901Z-b923a90d"


def test_append_only(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    seen = set()
    for i in range(4):
        store.save(snapshot(tdr=i / 10))
        ids = {r["snapshot_id"] for r in store.list_snapshots()}
        assert seen.issubset(ids)
        seen = ids
    assert len(seen) == 4


def test_trend_descending_series(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    for tdr in (0.30, 0.18, 0.09):
        store.save(snapshot(tdr=tdr))
    points = store.trend("proj", "tdr")
    assert [p.value for p in points] == [0.30, 0.18, 0.09]
    stamps = [p.timestamp_utc for p in points]
    assert stamps == sorted(stamps)
    assert all(p.comparable for p in points)


def test_trend_flags_incomparable_config(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot(tdr=0.30, config_hash="a" * 64))
    store.save(snapshot(tdr=0.18, config_hash="b" * 64))
    store.save(snapshot(tdr=0.09, config_hash="a" * 64))
    points = store.trend("proj", "tdr")
    assert [p.comparable for p in points] == [True, False, True]
    forced = store.trend("proj", "tdr", force=True)
    assert all(p.comparable for p in forced)


def test_trend_empty_store(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    with pytest.raises(NoSnapshots):
        store.trend("proj", "tdr")


def test_trend_unknown_metric(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot())
    with pytest.raises(UnknownMetricKey):
        store.trend("proj", "bogus_metric")


# --- branches a CLI run never takes, each pinned to a value ---

FIXED_STAMP = "2024-01-02T03:04:05.000006Z"


def test_snapshot_with_missing_keys_is_refused(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    partial = snapshot()
    del partial["label"], partial["metrics_summary"]
    with pytest.raises(ValueError, match=r"^snapshot missing keys: \['label', 'metrics_summary'\]$"):
        store.save(partial)
    assert not (tmp_path / "store").exists()


def test_store_holds_only_the_lock_and_project_directories(tmp_path):
    root = tmp_path / "store"
    store = SnapshotStore(root)
    first = store.save(snapshot())
    assert sorted(p.name for p in root.iterdir()) == [".lock", "proj"]
    (root / "index.json").write_text("{not json", encoding="utf-8")  # left by an older store
    second = store.save(snapshot())
    assert (root / "index.json").read_text(encoding="utf-8") == "{not json"
    assert [r["snapshot_id"] for r in store.list_snapshots()] == [first, second]


@pytest.mark.parametrize("project_id", ["", ".", "..", "../esc", "a/b", "a\\b"])
def test_a_project_id_that_is_not_one_directory_name_is_refused(tmp_path, project_id):
    store = SnapshotStore(tmp_path / "store")
    with pytest.raises(XmaintError, match="^invalid project id"):
        store.save(snapshot(project=project_id))
    with pytest.raises(XmaintError, match="^invalid project id"):
        store.list_snapshots(project_id)
    with pytest.raises(XmaintError, match="^invalid project id"):
        store.trend(project_id, "tdr")
    assert list(tmp_path.iterdir()) == []


def test_store_root_that_is_a_file_is_unwritable(tmp_path):
    (tmp_path / "store").write_text("", encoding="utf-8")
    store = SnapshotStore(tmp_path / "store")
    with pytest.raises(StoreUnwritable, match="^cannot create store directory"):
        store.save(snapshot())
    assert store.list_snapshots() == []


def test_lock_file_that_is_a_directory_is_unwritable(tmp_path):
    (tmp_path / "store" / ".lock").mkdir(parents=True)
    store = SnapshotStore(tmp_path / "store")
    with pytest.raises(StoreUnwritable, match="^cannot lock store"):
        store.save(snapshot())
    assert store.list_snapshots() == []


def test_failed_flock_ends_snapshot_save_and_closes_the_lock(tmp_path, monkeypatch, capsys):
    # a kernel without lock support refuses flock with ENOLCK
    locked = []

    def no_locks(fd, operation):
        locked.append(fd)
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(fcntl, "flock", no_locks)
    (tmp_path / "proj").mkdir()
    (tmp_path / "proj" / "a.py").write_text("def f(x):\n    return x\n", encoding="utf-8")
    code = main(["snapshot", "save", str(tmp_path / "proj"), "--store", str(tmp_path / "store")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot lock store: ") and "No locks available" in err
    (fd,) = locked
    with pytest.raises(OSError) as closed:
        os.fstat(fd)
    assert closed.value.errno == errno.EBADF
    assert SnapshotStore(tmp_path / "store").list_snapshots() == []


def test_failed_snapshot_write_is_unwritable(tmp_path, monkeypatch):
    # permission bits do not stop a write by root, so the write itself fails
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(snapshots.Path, "write_text", disk_full)
    store = SnapshotStore(tmp_path / "store")
    with pytest.raises(StoreUnwritable, match="^cannot write snapshot .*No space left on device"):
        store.save(snapshot())
    assert store.list_snapshots() == []
    fd = _try_lock(tmp_path / "store")
    assert fd is not None  # the failed writer let the lock go
    os.close(fd)


def test_equal_stamp_and_body_get_a_numbered_suffix(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    fixed = {**snapshot(), "timestamp_utc": FIXED_STAMP}
    ids = [store.save(dict(fixed)) for _ in range(3)]
    assert ids == ["20240102T030405000006Z-292399e0",
                   "20240102T030405000006Z-292399e0-2",
                   "20240102T030405000006Z-292399e0-3"]
    assert [r["snapshot_id"] for r in store.list_snapshots("proj")] == ids


def test_unreadable_snapshot_files_are_skipped(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    saved = store.save(snapshot())
    project_dir = tmp_path / "store" / "proj"
    (project_dir / "0-corrupt.json").write_text("{not json", encoding="utf-8")
    (project_dir / "1-directory.json").mkdir()  # reading it raises IsADirectoryError
    assert [r["snapshot_id"] for r in store.list_snapshots("proj")] == [saved]
    assert [r["snapshot_id"] for r in store.list_snapshots()] == [saved]


@pytest.mark.parametrize("content", [b"{}", b"[]", b"\xff\xfe"],
                         ids=["no-index-keys", "list", "not-utf8"])
def test_snapshot_files_without_a_record_are_skipped(tmp_path, capsys, content):
    store = SnapshotStore(tmp_path / "store")
    saved = store.save(snapshot(tdr=0.1))
    (tmp_path / "store" / "proj" / "0-stray.json").write_bytes(content)
    assert [r["snapshot_id"] for r in store.list_snapshots("proj")] == [saved]
    assert [r["snapshot_id"] for r in store.list_snapshots()] == [saved]
    assert [p.value for p in store.trend("proj", "tdr")] == [0.1]
    second = store.save(snapshot(tdr=0.2))
    assert main(["snapshot", "list", "--store", str(tmp_path / "store")]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[1] for line in listed] == [saved, second]


def _write_stray_record(store_root, **fields):
    """A snapshot file with every record key, older than any saved snapshot,
    with ``fields`` in place of the saved values."""
    record = {**snapshot(), "timestamp_utc": "2000-01-01T00:00:00Z",
              "snapshot_id": "20000101T000000Z-00000000", **fields}
    (store_root / "proj" / "0-stray.json").write_text(json.dumps(record), encoding="utf-8")


@pytest.mark.parametrize("key", snapshots._RECORD_KEYS)
def test_snapshot_list_skips_a_record_whose_index_value_is_not_a_string(tmp_path, capsys, key):
    store = SnapshotStore(tmp_path / "store")
    saved = store.save(snapshot())
    _write_stray_record(tmp_path / "store", **{key: None})
    assert main(["snapshot", "list", "--store", str(tmp_path / "store")]) == 0
    assert [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()] == [saved]


def test_trend_skips_a_record_whose_metrics_summary_is_not_an_object(tmp_path, capsys):
    store = SnapshotStore(tmp_path / "store")
    saved = store.save(snapshot(tdr=0.4))
    _write_stray_record(tmp_path / "store", metrics_summary=[])
    assert main(["trend", "proj", "--store", str(tmp_path / "store"), "--metric", "tdr"]) == 0
    series = json.loads(capsys.readouterr().out)["series"]
    assert [(point["snapshot_id"], point["value"]) for point in series] == [(saved, 0.4)]


def _try_lock(store_root):
    """Take the store's lock on a descriptor of our own without waiting;
    returns the descriptor, or None while another descriptor holds it."""
    store_root.mkdir(parents=True, exist_ok=True)
    fd = os.open(store_root / ".lock", os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        return None
    return fd


def test_lock_released_after_save(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot())
    fd = _try_lock(tmp_path / "store")
    assert fd is not None
    os.close(fd)


def test_lock_left_by_dead_writer_is_taken_over(tmp_path):
    # the writer takes the lock and dies holding it; the kernel drops it
    store_root = tmp_path / "store"
    store_root.mkdir()
    with subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, os, sys; fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR); "
         "fcntl.flock(fd, fcntl.LOCK_EX); print('locked', flush=True); sys.stdin.read()",
         str(store_root / ".lock")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as writer:
        try:
            assert writer.stdout.readline().strip() == "locked"
            assert _try_lock(store_root) is None
        finally:
            writer.kill()  # leaving the block closes the pipes and reaps it
    store = SnapshotStore(store_root)
    store.save(snapshot())
    assert len(store.list_snapshots("proj")) == 1


def test_lock_held_by_live_writer_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(snapshots, "_LOCK_TIMEOUT_S", 0.2)
    fd = _try_lock(tmp_path / "store")
    assert fd is not None
    try:
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(StoreUnwritable):
            store.save(snapshot())
        assert store.list_snapshots("proj") == []
    finally:
        os.close(fd)


def test_leftover_lock_file_naming_a_live_pid_does_not_block(tmp_path, monkeypatch):
    # a lock file is not a lock: only a held flock blocks a writer
    monkeypatch.setattr(snapshots, "_LOCK_TIMEOUT_S", 0.5)
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / ".lock").write_text(str(os.getppid()))
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot())
    assert len(store.list_snapshots("proj")) == 1

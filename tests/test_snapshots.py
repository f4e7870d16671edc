import json
import os
import subprocess
import sys

import pytest

from xmaint import snapshots
from xmaint.errors import NoSnapshots, StoreUnwritable, UnknownMetricKey
from xmaint.snapshots import SnapshotStore, utc_now_iso

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
    record = store.load("proj")[0]
    assert record["snapshot_id"] == snapshot_id
    for key, value in original.items():
        assert record[key] == value


def test_append_only(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    seen = set()
    for i in range(4):
        store.save(snapshot(tdr=i / 10))
        ids = {r["snapshot_id"] for r in store.list_snapshots()}
        assert seen.issubset(ids)
        seen = ids
    assert len(seen) == 4


def test_index_matches_store_and_is_rebuildable(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    for i in range(3):
        store.save(snapshot(tdr=i / 10))
    index = json.loads((tmp_path / "store" / "index.json").read_text())
    assert len(index["snapshots"]) == 3
    (tmp_path / "store" / "index.json").unlink()
    assert store.rebuild_index() == 3
    rebuilt = json.loads((tmp_path / "store" / "index.json").read_text())
    assert rebuilt == index


def test_rebuild_index_wraps_a_write_failure(tmp_path):
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot())
    (tmp_path / "store" / "index.json").unlink()
    (tmp_path / "store" / "index.json").mkdir()  # the rename onto it fails
    with pytest.raises(StoreUnwritable, match="cannot write index"):
        store.rebuild_index()


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
    assert len(store.load("proj")) == 1


def test_lock_held_by_live_writer_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(snapshots, "_LOCK_TIMEOUT_S", 0.2)
    fd = _try_lock(tmp_path / "store")
    assert fd is not None
    try:
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(StoreUnwritable):
            store.save(snapshot())
        assert store.load("proj") == []
    finally:
        os.close(fd)


def test_leftover_lock_file_naming_a_live_pid_does_not_block(tmp_path, monkeypatch):
    # a lock file is not a lock: only a held flock blocks a writer
    monkeypatch.setattr(snapshots, "_LOCK_TIMEOUT_S", 0.5)
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / ".lock").write_text(str(os.getppid()))
    store = SnapshotStore(tmp_path / "store")
    store.save(snapshot())
    assert len(store.load("proj")) == 1

"""Append-only snapshot store and trend extraction.

Layout: ``<store>/<projectId>/<snapshotId>.json`` plus a rebuildable
``<store>/index.json``. Snapshots are immutable once written; a lock file
serializes writers while readers stay lock-free.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import NoSnapshots, StoreUnwritable, UnknownMetricKey

_LOCK_TIMEOUT_S = 10.0
_INDEX_KEYS = ("project_id", "snapshot_id", "timestamp_utc", "config_hash", "label")


@dataclass(frozen=True)
class TrendPoint:
    timestamp_utc: str
    value: float | str | None
    comparable: bool
    snapshot_id: str


class SnapshotStore:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _lock(self):
        return _StoreLock(self.root / ".lock")

    def save(self, snapshot: dict) -> str:
        """Append one snapshot; never overwrites an existing one."""
        required = ("project_id", "label", "timestamp_utc", "tool_version",
                    "config_hash", "metrics_summary")
        missing = [k for k in required if k not in snapshot]
        if missing:
            raise ValueError(f"snapshot missing keys: {missing}")
        project_dir = self.root / snapshot["project_id"]
        try:
            project_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreUnwritable(f"cannot create store directory {project_dir}: {exc}") from exc

        body = {k: v for k, v in snapshot.items() if k != "timestamp_utc"}
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()[:8]
        stamp = snapshot["timestamp_utc"].replace("-", "").replace(":", "").replace(".", "")
        snapshot_id = f"{stamp}-{digest}"

        with self._lock():
            suffix = 1
            candidate = snapshot_id
            while (project_dir / f"{candidate}.json").exists():
                suffix += 1
                candidate = f"{snapshot_id}-{suffix}"
            snapshot_id = candidate
            record = dict(snapshot)
            record["snapshot_id"] = snapshot_id
            path = project_dir / f"{snapshot_id}.json"
            try:
                tmp = path.with_suffix(".json.tmp")
                tmp.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
                tmp.rename(path)
            except OSError as exc:
                raise StoreUnwritable(f"cannot write snapshot {path}: {exc}") from exc
            self._update_index(record)
        return snapshot_id

    def _update_index(self, record: dict) -> None:
        index_path = self.root / "index.json"
        entries = []
        if index_path.exists():
            try:
                entries = json.loads(index_path.read_text(encoding="utf-8")).get("snapshots", [])
            except (OSError, json.JSONDecodeError):
                entries = []  # the index is rebuildable; never block a save on it
        self._write_index([*entries, record])

    def rebuild_index(self) -> int:
        """Rescan snapshot files and rewrite index.json; returns entry count."""
        with self._lock():
            return self._write_index(self._scan())

    def _write_index(self, records) -> int:
        """Write index.json (through a rename, so readers never see half of
        it) with one sorted entry per snapshot record or index entry given."""
        entries = sorted(
            ({key: record[key] for key in _INDEX_KEYS} for record in records),
            key=lambda e: (e["project_id"], e["timestamp_utc"], e["snapshot_id"]),
        )
        index_path = self.root / "index.json"
        try:
            tmp = index_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps({"snapshots": entries}, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
            tmp.rename(index_path)
        except OSError as exc:
            raise StoreUnwritable(f"cannot write index {index_path}: {exc}") from exc
        return len(entries)

    def _scan(self):
        if not self.root.exists():
            return
        for project_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for path in sorted(project_dir.glob("*.json")):
                try:
                    yield json.loads(path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError):
                    continue

    def load(self, project_id: str) -> list[dict]:
        project_dir = self.root / project_id
        records = []
        if project_dir.is_dir():
            for path in sorted(project_dir.glob("*.json")):
                try:
                    records.append(json.loads(path.read_text(encoding="utf-8")))
                except (OSError, json.JSONDecodeError):
                    continue
        records.sort(key=lambda r: (r.get("timestamp_utc", ""), r.get("snapshot_id", "")))
        return records

    def list_snapshots(self, project_id: str | None = None) -> list[dict]:
        records = []
        for record in self._scan():
            if project_id is None or record.get("project_id") == project_id:
                records.append(record)
        records.sort(key=lambda r: (r.get("project_id", ""), r.get("timestamp_utc", ""),
                                    r.get("snapshot_id", "")))
        return records

    def trend(self, project_id: str, metric_key: str, force: bool = False) -> list[TrendPoint]:
        """Ascending (timestamp, value) series for one summary metric.

        Points whose config hash differs from the latest snapshot's are
        flagged incomparable (and kept) unless ``force`` marks everything
        comparable.
        """
        records = self.load(project_id)
        if not records:
            raise NoSnapshots(f"no snapshots for project '{project_id}' in {self.root}")
        latest_summary = records[-1].get("metrics_summary", {})
        if metric_key not in latest_summary:
            raise UnknownMetricKey(
                f"'{metric_key}' is not a snapshot metric; available: {sorted(latest_summary)}"
            )
        reference_hash = records[-1].get("config_hash")
        points = []
        for record in records:
            comparable = force or record.get("config_hash") == reference_hash
            points.append(TrendPoint(
                timestamp_utc=record["timestamp_utc"],
                value=record.get("metrics_summary", {}).get(metric_key),
                comparable=comparable,
                snapshot_id=record["snapshot_id"],
            ))
        return points


class _StoreLock:
    """Advisory single-writer lock: ``flock`` on the store's lock file. The
    kernel releases it when its holder closes the file or dies, so a lock
    never outlives its writer. The file stays; its content means nothing.
    ``fcntl`` is POSIX-only, so it is imported here: analysis runs without it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.fd = -1

    def __enter__(self):
        import fcntl

        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        except OSError as exc:
            raise StoreUnwritable(f"cannot lock store: {exc}") from exc
        deadline = time.monotonic() + _LOCK_TIMEOUT_S
        while True:
            try:
                fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return self
            except BlockingIOError:
                if time.monotonic() > deadline:
                    os.close(self.fd)
                    raise StoreUnwritable(f"store locked by another writer: {self.path}")
                time.sleep(0.05)
            except OSError as exc:
                os.close(self.fd)
                raise StoreUnwritable(f"cannot lock store: {exc}") from exc

    def __exit__(self, *exc_info):
        os.close(self.fd)  # releases the lock
        return False


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")

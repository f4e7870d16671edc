"""Append-only snapshot store and trend extraction.

Layout: ``<store>/<projectId>/<snapshotId>.json``, one file per snapshot,
and ``<store>/.lock``. The snapshot files are the whole store: listing and
trends read them, and nothing else records what they hold. A project id is
one directory name. Snapshots are immutable once written; the lock file
serializes writers while readers stay lock-free.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import NamedTuple

from .config import canonical_digest
from .errors import NoSnapshots, StoreUnwritable, UnknownMetricKey, XmaintError
from .profiles import read_json

_LOCK_TIMEOUT_S = 10.0
_RECORD_KEYS = ("project_id", "snapshot_id", "timestamp_utc", "config_hash", "label")


class TrendPoint(NamedTuple):
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
        project_dir = self.root / check_project_id(snapshot["project_id"])
        try:
            project_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreUnwritable(f"cannot create store directory {project_dir}: {exc}") from exc

        body = {k: v for k, v in snapshot.items() if k != "timestamp_utc"}
        digest = canonical_digest(body)[:8]
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
                tmp.write_text(json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n",
                               encoding="utf-8")
                tmp.rename(path)
            except OSError as exc:
                raise StoreUnwritable(f"cannot write snapshot {path}: {exc}") from exc
        return snapshot_id

    def list_snapshots(self, project_id: str | None = None) -> list[dict]:
        """The readable records of one project's directory, or of every
        project directory, sorted by project id, timestamp and snapshot id."""
        if project_id is not None:
            project_dirs = [self.root / check_project_id(project_id)]
        elif self.root.is_dir():
            project_dirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        else:
            project_dirs = []
        records = [record for d in project_dirs for record in _read_records(d)]
        records.sort(key=lambda r: (r["project_id"], r["timestamp_utc"], r["snapshot_id"]))
        return records

    def trend(self, project_id: str, metric_key: str, force: bool = False) -> list[TrendPoint]:
        """Ascending (timestamp, value) series for one summary metric.

        Points whose config hash differs from the latest snapshot's are
        flagged incomparable (and kept) unless ``force`` marks everything
        comparable.
        """
        records = self.list_snapshots(project_id)
        if not records:
            raise NoSnapshots(f"no snapshots for project '{project_id}' in {self.root}")
        latest_summary = records[-1].get("metrics_summary", {})
        if metric_key not in latest_summary:
            raise UnknownMetricKey(
                f"'{metric_key}' is not a snapshot metric; available: {sorted(latest_summary)}"
            )
        reference_hash = records[-1]["config_hash"]
        points = []
        for record in records:
            comparable = force or record["config_hash"] == reference_hash
            points.append(TrendPoint(
                timestamp_utc=record["timestamp_utc"],
                value=record.get("metrics_summary", {}).get(metric_key),
                comparable=comparable,
                snapshot_id=record["snapshot_id"],
            ))
        return points


def _read_records(project_dir: Path):
    """The snapshot records of one project directory, in file name order.
    A file is skipped if it cannot be read, is not UTF-8 JSON (a NaN or an
    infinity is not JSON either) or is not a JSON object, if one of the record keys is missing or not a string, or if
    its metrics summary is not an object: every record yielded can be listed
    and read for a trend."""
    for path in sorted(project_dir.glob("*.json")):
        try:
            record = read_json(path)
        except (OSError, ValueError):  # ValueError: bad JSON, NaN or bad UTF-8
            continue
        if (
            isinstance(record, dict)
            and all(isinstance(record.get(key), str) for key in _RECORD_KEYS)
            and isinstance(record.get("metrics_summary", {}), dict)
        ):
            yield record


def check_project_id(project_id: str) -> str:
    """``project_id`` if it names one directory of the store, else an error:
    an empty id, ``.``, ``..`` or one with a path separator would put its
    snapshots outside the store or where no reader looks."""
    if project_id in ("", ".", "..") or "/" in project_id or "\\" in project_id:
        raise XmaintError(
            f"invalid project id {project_id!r}: it must be one directory name, "
            "not '.' or '..', with no '/' or '\\'"
        )
    return project_id


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

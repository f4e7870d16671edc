"""Start-up cost: ``import xmaint.cli`` loads only what every run needs.

Each CLI run is a fresh process, so a module imported at start-up is paid
for by every run. Modules that only some subcommands use are imported inside
them; this checks that in a child interpreter started without ``site`` (so
no ``.pth`` file of the environment can import them first), and that the
subcommands that import them on demand still work there. No command loads
``hashlib``, whose OpenSSL backend costs more memory than all of xmaint:
digests come from the interpreter's builtin SHA-256.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_report import DEFAULT_CONFIG_HASH

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
import xmaint.cli
loaded = sorted(m for m in sys.argv[1].split(",") if m in sys.modules)
hashing = sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)
import xmaint
store_class = xmaint.SnapshotStore.__module__ + "." + xmaint.SnapshotStore.__name__
main = xmaint.cli.main
fixtures, work = sys.argv[2], sys.argv[3]
codes = [
    main(["analyze", fixtures, "--format", "csv", "--out", work + "/report.csv"]),
    main(["snapshot", "save", fixtures, "--store", work + "/store", "--project-id", "p"]),
    main(["trend", "p", "--store", work + "/store", "--metric", "total_loc", "--format", "csv",
          "--out", work + "/trend.csv"]),
]
hashing_after_commands = sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)
print(json.dumps({"loaded_after_import": loaded, "hashing": [hashing, hashing_after_commands],
                  "pickle_after_commands": "pickle" in sys.modules,
                  "store_class": store_class, "codes": codes}))
"""

# pickle serves only the forked workers of a large per-file stage, so the
# fixtures' one-share runs never load it
_NOT_AT_START = ("dataclasses", "inspect", "csv", "datetime", "xmaint.snapshots", "pickle")


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("XMAINT_CONFIG", None)
    return env


def test_cli_import_loads_no_subcommand_only_module(tmp_path):
    env = _child_env()
    fixtures = ROOT / "tests" / "fixtures" / "parity"
    result = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, ",".join(_NOT_AT_START), str(fixtures), str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout.strip().splitlines()[-1])
    assert found["loaded_after_import"] == []
    assert found["hashing"] == [[], []]
    assert found["pickle_after_commands"] is False
    assert found["store_class"] == "xmaint.snapshots.SnapshotStore"
    assert found["codes"] == [0, 0, 0]
    report = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "project_id,key,value"
    total_loc = next(row.split(",")[2] for row in report if row.startswith("parity,metrics.total_loc,"))
    trend = (tmp_path / "trend.csv").read_text(encoding="utf-8").splitlines()
    assert trend[0] == "timestamp_utc,value,comparable,snapshot_id"
    assert len(trend) == 2 and trend[1].split(",")[1:3] == [total_loc, "True"]


_NO_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from xmaint import config
from xmaint.cli import main
assert config.sha256 is hashlib.sha256, config.sha256
main(["analyze", sys.argv[1], "--out", sys.argv[2]])
"""


def test_a_build_without_builtin_sha256_falls_back_to_hashlib(tmp_path):
    fixtures = ROOT / "tests" / "fixtures" / "parity"
    out = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, "-S", "-c", _NO_BUILTIN_SHA256, str(fixtures), str(out)],
        env=_child_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode in (0, 2), result.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["config_hash"] == DEFAULT_CONFIG_HASH

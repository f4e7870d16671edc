"""The benchmark tracer wraps pipeline functions by module attribute name;
a rename in ``src/`` must not silently drop one of its spans."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# install_all rebinds module attributes, so it runs in a child process
_PROBE = """
import json
import trace_child
tracer = trace_child.Tracer()
trace_child.install_all(tracer)
print(json.dumps({"absent_targets": tracer.absent_targets,
                  "absent_spans": sorted(tracer.declared - tracer.installed),
                  "installed": len(tracer.installed)}))
"""


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="the tracer reads POSIX page sizes")
def test_every_tracer_target_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout.strip().splitlines()[-1])
    assert found["absent_targets"] == [] and found["absent_spans"] == []
    assert found["installed"] > 0

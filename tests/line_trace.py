"""A hand-run pytest plugin that lists the executable lines of ``src/xmaint``
a test run never executes.

Run it from the repository root, over the whole suite or any part of it:

    PYTHONPATH=src:tests python -m pytest -p line_trace -q

It records with ``sys.settrace`` each line of ``src/xmaint`` that runs in the
pytest process, in its threads and in every process forked from it, such as
the per-file workers of ``xmaint.analysis``. A forked worker leaves through
``os._exit``, which runs no exit hook, so the plugin wraps ``os._exit`` to
write the worker's record first. At the end it prints, per module, the lines
that hold bytecode and that no process ran. Tests that spawn ``python -m
xmaint.cli`` are not traced, so a line only such a test reaches is listed.
A traced run of the whole suite takes a few minutes. Tier-1 neither collects
nor runs this file: its name lacks the ``test_`` prefix.
"""

import marshal
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xmaint"
_PREFIX = str(SRC) + os.sep

_executed: set[tuple[str, int]] = set()  # (file name, line) run in this process
_records = ""  # the directory of one record per forked process that exited
_parent = os.getpid()
_real_exit = os._exit


def _trace_lines(frame, event, arg):
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _executed.add((frame.f_code.co_filename, frame.f_lineno))  # a def line, once it is called
    return _trace_lines


def _exit_with_record(status):
    if os.getpid() != _parent:
        with open(os.path.join(_records, str(os.getpid())), "wb") as record:
            marshal.dump(_executed, record)
    _real_exit(status)


def _executable(path: Path) -> set[int]:
    """The lines of one module that hold bytecode, its nested code included."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None and line > 0)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as ranges: 3, 7-9."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    """Start ahead of the conftest files, which import ``xmaint``."""
    global _records
    _records = tempfile.mkdtemp(prefix="xmaint-line-trace-")
    os.register_at_fork(after_in_child=_executed.clear)  # a child records only what it runs
    os._exit = _exit_with_record
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    os._exit = _real_exit
    executed = set(_executed)
    for name in os.listdir(_records):
        with open(os.path.join(_records, name), "rb") as record:
            executed |= marshal.load(record)
    shutil.rmtree(_records)
    write = terminalreporter.write_line
    write("")
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = _executable(path)
        never = sorted(lines - {line for name, line in executed if name == str(path)})
        total += len(lines)
        missed += len(never)
        if never:
            write(f"{path.name}: {_spans(never)}")
    write(f"line trace: {missed} of {total} executable lines of src/xmaint never ran")

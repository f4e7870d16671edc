"""Every config leaf, rule key and profile key given each hostile value ends
in one ``error:`` line, or in output that strict JSON reading accepts: the
report of ``analyze`` and ``compare --sensitivity``, the snapshot that
``snapshot save`` writes; ``rules list`` lists the rules."""

import copy
import json

import pytest

from conftest import FIXTURES
from xmaint import cli
from xmaint.config import DEFAULT_CONFIG
from xmaint.profiles import PYTHON

# JSON texts: json.dumps writes NaN and the infinities as these constants
_VALUES = ["NaN", "Infinity", "-Infinity", '"30"', "true", "null", "[]", "{}", "-1", "0", "1e308",
           "5000000000"]
_MISSING = None
# a profile key is also dropped, emptied, or given a list of one empty string
_PROFILE_VALUES = [*_VALUES, _MISSING, '""', '[""]']


def _leaves(value, path=()):
    """The path of every value in ``value`` that holds no other: each
    scalar and each empty list or object, down through objects and lists."""
    items = list(value.items() if isinstance(value, dict) else enumerate(value)
                 if isinstance(value, list) else ())
    if not items:
        yield path
    for key, item in items:
        yield from _leaves(item, (*path, key))


def _placed(data, path, text):
    """A copy of ``data`` as JSON text, with the value at ``path`` replaced
    by the JSON text ``text`` or, for _MISSING, dropped."""
    data = copy.deepcopy(data)
    marker = "\x00fuzz\x00"
    *parents, last = path
    holder = data
    for key in parents:
        holder = holder[key]
    if text is _MISSING:
        del holder[last]
        return json.dumps(data)
    holder[last] = marker
    return json.dumps(data).replace(json.dumps(marker), text)


_RULE = {"threshold": 60, "pattern": "^x$", "effort_minutes": 45.0, "enabled": True}
# the builtin python profile under its own id, so it replaces the builtin
# and lexes the parity fixture's Python file
_PROFILE = PYTHON.as_dict()
_TARGETS = [
    (DEFAULT_CONFIG, list(_leaves(DEFAULT_CONFIG)), _VALUES),
    ({"rules": {"unit-size-threshold": _RULE}}, [("rules", "unit-size-threshold", key) for key in _RULE],
     _VALUES),
    ({"profiles": {"definitions": [_PROFILE]}}, [("profiles", "definitions", 0, key) for key in _PROFILE],
     _PROFILE_VALUES),
]
_CASES = [(_placed(config, path, text), ".".join(map(str, path)), text)
          for config, paths, values in _TARGETS for path in paths for text in values]


def _strict(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _fuzz(tmp_path, capsys, monkeypatch, cases, argv, check):
    """The (where, value, fault) of each case whose run of ``main(argv(n)
    + ["--config", file])``, the case's text in that file and ``n`` its
    number, ends neither in exit 0 or 2 with ``check(n, out)`` passing nor
    in one ``error:`` line. The runs share one parser, which reads no
    config: building it takes most of a failing run's time."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    config = tmp_path / "config.json"
    failures = []
    for n, (text, where, value) in enumerate(cases):
        config.write_text(text, encoding="utf-8")
        try:
            code = cli.main([*argv(n), "--config", str(config)])
        except Exception as exc:  # a traceback, as a user would see it
            code = repr(exc)
        out, err = capsys.readouterr()
        if code in (0, 2):
            try:
                check(n, out)
            except ValueError as exc:
                failures.append((where, value, f"exit {code}, output refused: {exc}"))
        elif code == 1:
            if not (out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")):
                failures.append((where, value, f"exit 1, stderr {err!r}"))
        else:
            failures.append((where, value, code))
    return failures


@pytest.mark.parametrize("cases", [_CASES], ids=[f"{len(_CASES)}-cases"])
def test_config_fuzz_ends_in_a_report_or_one_error_line(tmp_path, capsys, monkeypatch, cases):
    argv = ["analyze", str(FIXTURES / "parity")]
    assert _fuzz(tmp_path, capsys, monkeypatch, cases, lambda n: argv, lambda n, out: _strict(out)) == []


def _saved(store):
    """The one snapshot file in ``store``, read as strict JSON."""
    [path] = store.glob("*/*.json")
    return _strict(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["compare", "snapshot-save", "rules-list"])
def test_config_fuzz_ends_in_output_or_one_error_line_in_every_command(tmp_path, capsys, monkeypatch, command):
    parity = FIXTURES / "parity"
    argv, check = {
        "compare": (lambda n: ["compare", str(parity / "py"), str(parity / "cfam"), "--sensitivity"],
                    lambda n, out: _strict(out)),
        # each case saves into a store of its own, which holds its one snapshot
        "snapshot-save": (lambda n: ["snapshot", "save", str(parity), "--store", str(tmp_path / f"store{n}")],
                          lambda n, out: _saved(tmp_path / f"store{n}")),
        "rules-list": (lambda n: ["rules", "list"], lambda n, out: None),
    }[command]
    assert _fuzz(tmp_path, capsys, monkeypatch, _CASES, argv, check) == []

import argparse
import hashlib
import json
import shutil

import pytest

from conftest import FIXTURES, write_tree
from test_acceptance import _mixed_corpus
from xmaint import analysis
from xmaint.analysis import discover_files
from xmaint.cli import build_parser, main

C_FILE = """\
/* fixture */
int addUp(int a, int b) {
    return a + b;  // sum
}

int Check_Me(int x) {
    if (x > 0) { return 1; }
    return 0;
}
"""

PY_FILE = """\
# fixture
def scale(v, factor):
    return v * factor
"""


@pytest.fixture
def corpus(tmp_path):
    return write_tree(tmp_path / "proj", {"src/a.c": C_FILE, "src/b.py": PY_FILE})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_generated(text):
    data = json.loads(text)
    data.pop("generated_at", None)
    return json.dumps(data, sort_keys=True)


# --- analyze ---


def test_analyze_single_project(corpus, capsys):
    code, out, _ = run(capsys, "analyze", str(corpus))
    assert code == 0
    report = json.loads(out)
    project = report["projects"][0]
    assert project["file_count"] == 2
    assert project["metrics"]["unit_count"] == 3
    distribution = project["metrics"]["unit_size_distribution"]
    assert len(distribution) == 3
    assert [e["loc"] for e in distribution] == sorted((e["loc"] for e in distribution), reverse=True)
    assert project["models"]["mi"]["mi"] > 0
    assert project["models"]["tdr"]["grade"] in "ABCDE"
    assert project["violations"]["by_rule"].get("naming-convention") == 1
    assert report["composite"][0]["absent_indicators"] == ["volumetry"]


def test_unit_size_distribution_order_on_ties(tmp_path, capsys):
    # larger LOC first; equal LOC by file, then start line, then name
    root = write_tree(tmp_path / "ties", {
        "b.c": "int zeta(int a) { return a; } int alpha(int b) { return b; }\n",
        "a.c": "\n\nint mid(int c) { return c; }\nint big(int d) {\n    return d;\n}\n",
    })
    code, out, _ = run(capsys, "analyze", str(root))
    assert code == 0
    distribution = json.loads(out)["projects"][0]["metrics"]["unit_size_distribution"]
    assert [(e["file"], e["name"], e["line"], e["loc"]) for e in distribution] == [
        ("a.c", "big", 4, 3),
        ("a.c", "mid", 3, 1),
        ("b.c", "alpha", 1, 1),
        ("b.c", "zeta", 1, 1),
    ]


def test_analyze_comment_only_project_has_no_debt_ratio(tmp_path, capsys):
    root = write_tree(tmp_path / "docsonly", {"notes.c": "// one\n// two\n\n/* three */\n"})
    code, out, _ = run(capsys, "analyze", str(root))
    assert code == 2
    report = json.loads(out)
    project = report["projects"][0]
    assert project["metrics"]["total_loc"] == 0
    assert project["models"]["tdr"] is None
    assert any(d["code"] == "zero-production-effort" for d in report["diagnostics"])


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_no_weighted_indicator_left_is_an_error_line(tmp_path, capsys, command):
    # a comments-only project has no debt ratio and no volumetry, and the
    # config weighs nothing else
    config = tmp_path / "w.json"
    config.write_text(json.dumps({"composite": {"indicators": {
        "duplicationRatio": {"weight": 0}, "commentRatio": {"weight": 0},
        "tdr": {"weight": 0.6}, "volumetry": {"weight": 0.4}}}}))
    root = write_tree(tmp_path / "comments", {"a.py": "# only a comment\n# another\n"})
    paths = [str(root)] if command == "analyze" else [str(FIXTURES / "parity" / "py"), str(root)]
    code, out, err = run(capsys, command, *paths, "--config", str(config))
    assert code == 1 and out == ""
    assert err == "error: no weighted indicator left to score; absent indicators: tdr, volumetry\n"


def test_comment_density_rule_bills_each_sparse_file(tmp_path, capsys):
    config = tmp_path / "density.json"
    config.write_text(json.dumps({
        "rules": {"comment-density": {"enabled": True}},
        "composite": {"indicators": {"commentRatio": {"weight": 0}, "tdr": {"weight": 0.6}}},
    }))
    root = write_tree(tmp_path / "dens", {"bare.c": "int bare(int a) { return a; }\n", "m.c": C_FILE})
    code, out, _ = run(capsys, "analyze", str(root), "--config", str(config))
    assert code == 0
    project = json.loads(out)["projects"][0]
    # bare.c has no comment at all; m.c is above the 0.10 threshold
    assert project["violations"]["by_rule"] == {"comment-density": 1, "naming-convention": 1}
    assert project["models"]["tdr"] == {
        "grade": "C", "production_minutes": 240, "remediation_minutes": 40, "tdr": 0.1667}


def test_sig_unit_testing_from_scalar_and_per_project_coverage(pair, tmp_path, capsys):
    a, b = pair
    code, out, _ = run(capsys, "analyze", str(a), "--coverage", "0.85")
    assert code == 0
    project = json.loads(out)["projects"][0]
    assert project["coverage"] == 0.85
    assert project["models"]["sig"]["properties"]["unitTesting"] == 4
    config = tmp_path / "cov.json"
    config.write_text(json.dumps({"models": {"sig": {"coverage": {"alpha": 0.97}}}}))
    code, out, _ = run(capsys, "compare", str(a), str(b), "--config", str(config))
    assert code == 0
    by_id = {p["project_id"]: p for p in json.loads(out)["projects"]}
    assert by_id["alpha"]["coverage"] == 0.97
    assert by_id["alpha"]["models"]["sig"]["properties"]["unitTesting"] == 5
    assert by_id["beta"]["coverage"] is None
    assert by_id["beta"]["models"]["sig"]["properties"]["unitTesting"] is None
    assert by_id["beta"]["models"]["sig"]["characteristics"]["stability"] is None


def test_analyze_empty_directory_is_fatal(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "analyze", str(empty))
    assert code == 1
    assert "no analyzable files" in err


def test_analyze_missing_path_is_fatal(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope"))
    assert code == 1 and "error" in err


def test_analyze_not_utf8_file_gives_diagnostics_exit_2(tmp_path, capsys):
    root = write_tree(tmp_path / "p", {"ok.c": C_FILE})
    (root / "bad.c").write_bytes(b"int f() { return '\xff\xfe'; }")
    code, out, _ = run(capsys, "analyze", str(root))
    assert code == 2
    report = json.loads(out)
    assert any(d["code"] == "not-utf8" and d["file"] == "bad.c" for d in report["diagnostics"])
    assert report["projects"][0]["metrics"]["unit_count"] >= 2  # ok.c still analyzed


def test_analyze_unreadable_file_named_in_diagnostics(tmp_path, capsys, monkeypatch):
    root = write_tree(tmp_path / "p", {"ok.c": C_FILE, "locked.c": C_FILE})
    from pathlib import Path

    original = Path.read_bytes

    def flaky(self):
        if self.name == "locked.c":
            raise OSError("permission denied")
        return original(self)

    monkeypatch.setattr(Path, "read_bytes", flaky)
    code, out, _ = run(capsys, "analyze", str(root))
    assert code == 2
    report = json.loads(out)
    assert any(d["code"] == "unreadable-file" and d["file"] == "locked.c"
               for d in report["diagnostics"])
    assert report["projects"][0]["metrics"]["unit_count"] == 2  # ok.c still analyzed


def test_analyze_deterministic_bytes(corpus, capsys):
    _, first, _ = run(capsys, "analyze", str(corpus))
    _, second, _ = run(capsys, "analyze", str(corpus))
    assert strip_generated(first) == strip_generated(second)


@pytest.mark.parametrize("flags", [
    ("--format", "xml"), ("--bogus",), ("--workers", "4"),
], ids=["bad-choice", "unknown-flag", "removed-workers"])
def test_usage_error_exits_1(corpus, capsys, flags):
    # exit 2 means success with diagnostics, so a usage error must not use it
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(corpus), *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    # the usage and the error name the subcommand, whose flags are the valid ones
    assert captured.err.startswith("usage: xmaint analyze [-h]")
    assert captured.err.splitlines()[-1].startswith("xmaint analyze: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


def test_determinism_across_processes_and_hash_seeds(corpus, tmp_path):
    """Set/dict iteration order must never leak into reports: rerunning in
    fresh interpreters with different PYTHONHASHSEED values has to produce
    the same bytes (generated_at aside)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import xmaint

    # the child imports xmaint from the same tree as this test process
    src = str(Path(xmaint.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = set()
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        env.pop("XMAINT_CONFIG", None)
        result = subprocess.run(
            [sys.executable, "-m", "xmaint.cli", "analyze", str(corpus), "--min-tokens", "10"],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(strip_generated(result.stdout))
    assert len(outputs) == 1


def test_analyze_accepts_a_single_file(tmp_path, capsys):
    path = tmp_path / "solo.c"
    path.write_text(C_FILE, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["projects"][0]["file_count"] == 1
    assert report["projects"][0]["metrics"]["unit_count"] == 2


def test_flags_echoed_into_effective_config(corpus, capsys):
    _, out, _ = run(capsys, "analyze", str(corpus), "--min-tokens", "25",
                    "--cost-per-line", "20", "--dup-mode", "identifier-blind")
    report = json.loads(out)
    flags = report["effective_config"]["flags"]
    assert flags["min_tokens"] == 25
    assert flags["cost_per_line"] == 20.0
    assert flags["dup_mode"] == "identifier-blind"
    config = report["effective_config"]["config"]
    assert config["duplication"]["min_tokens"] == 25
    assert config["models"]["sqale"]["cost_per_line_minutes"] == 20.0
    project = report["projects"][0]
    assert project["models"]["tdr"]["production_minutes"] == project["metrics"]["total_loc"] * 20


def test_config_hash_changes_with_flags(corpus, capsys):
    _, base, _ = run(capsys, "analyze", str(corpus))
    _, tweaked, _ = run(capsys, "analyze", str(corpus), "--min-tokens", "25")
    assert json.loads(base)["config_hash"] != json.loads(tweaked)["config_hash"]


def test_env_var_config_fallback(corpus, capsys, tmp_path, monkeypatch):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"models": {"sqale": {"cost_per_line_minutes": 7}}}))
    monkeypatch.setenv("XMAINT_CONFIG", str(config))
    _, out, _ = run(capsys, "analyze", str(corpus))
    report = json.loads(out)
    assert report["effective_config"]["config"]["models"]["sqale"]["cost_per_line_minutes"] == 7


def test_forced_profile(tmp_path, capsys):
    root = write_tree(tmp_path / "p", {"legacy.py": C_FILE})  # c code in a .py file
    code, out, _ = run(capsys, "analyze", str(root), "--profile", "c-family",
                       "--include", "*.py")
    assert code == 0
    report = json.loads(out)
    assert report["projects"][0]["files_by_profile"] == {"c-family": 1}


def test_markdown_and_csv_formats(corpus, capsys):
    _, md, _ = run(capsys, "analyze", str(corpus), "--format", "md")
    assert md.startswith("# xmaint report")
    assert "| metric | value |" in md
    _, csv_text, _ = run(capsys, "analyze", str(corpus), "--format", "csv")
    first = csv_text.splitlines()[0]
    assert first == "project_id,key,value"
    assert any("metrics.total_loc" in line for line in csv_text.splitlines())


def test_out_file(corpus, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", str(corpus), "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["projects"]


def test_single_counting_config_rejected(corpus, capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"rules": {"duplication-block": {"enabled": True}}}))
    code, _, err = run(capsys, "analyze", str(corpus), "--config", str(config))
    assert code == 1
    assert "single-counting" in err
    assert "duplicationRatio" in err and "duplication-block" in err


@pytest.mark.parametrize("command, override, key", [
    ("analyze", {"report": {"format": "xml"}}, "report.format"),
    ("analyze", {"composite": {"duplication_source": "lines"}}, "composite.duplication_source"),
    ("compare", {"composite": {"sensitivity": {"delta_pp": 0}}}, "composite.sensitivity.delta_pp"),
    ("compare", {"composite": {"sensitivity": {"delta_pp": "5pp"}}}, "composite.sensitivity.delta_pp"),
    ("analyze", {"duplication": {"min_tokens": "fifty"}}, "duplication.min_tokens"),
    ("analyze", {"duplication": {"mode": "fuzzy"}}, "duplication.mode"),
    ("analyze", {"metrics": {"weighted_unit_means": "no"}}, "metrics.weighted_unit_means"),
    ("analyze", {"models": {"sig": {"cc_bands": [10, 20]}}}, "models.sig.cc_bands"),
    ("analyze", {"models": {"sig": {"unit_size_bands": [30, 30, 120]}}}, "models.sig.unit_size_bands"),
    ("analyze", {"models": {"sig": {"coverage": "high"}}}, "models.sig.coverage"),
    ("compare", {"models": {"sig": {"coverage": {"alpha": 0.5, "beta": 1.5}}}}, "models.sig.coverage"),
    ("analyze", {"models": {"sig": {"volume_ladder": [[20000, 5], [50000]]}}}, "models.sig.volume_ladder"),
    ("analyze", {"models": {"sig": {"profile_caps": {"five": [0.25, 0, 0]}}}}, "models.sig.profile_caps"),
    ("analyze", {"models": {"sig": {"profile_caps": {"5": [0.25, 0]}}}}, "models.sig.profile_caps"),
    ("analyze", {"models": {"sig": {"matrix": {"stability": "unitTesting"}}}}, "models.sig.matrix"),
    ("analyze", {"models": {"sig": {"cc_band": [1, 2, 3]}}}, "models.sig.cc_band"),
    ("analyze", {"duplication": {"min_token": 10}}, "duplication.min_token"),
    ("compare", {"composite": {"indicators": {"tdr": {"wieght": 0.9}}}}, "composite.indicators.tdr.wieght"),
    ("analyze", {"metrics": {"weighted_unit_mean": True}}, "metrics.weighted_unit_mean"),
    ("analyze", {"rules": {"complexity-threshold": {"effort_minutes": "abc"}}},
     "rules.complexity-threshold.effort_minutes"),
    ("compare", {"rules": {"complexity-threshold": {"enabled": "no"}}},
     "rules.complexity-threshold.enabled"),
    ("analyze", {"duplication": {"min_tokens": 2}}, "duplication.min_tokens"),
    ("analyze", {"models": {"sqale": {"cost_per_line_minutes": 0}}}, "models.sqale.cost_per_line_minutes"),
    ("analyze", {"models": {"mi": {"scope": "module"}}}, "models.mi.scope"),
    ("analyze", {"composite": {"indicators": {"tdr": {"weight": 1.2}}}}, "composite.indicators.tdr"),
    ("analyze", {"composite": {"indicators": {"tdr": {"low": 0.2, "high": 0.2}}}},
     "composite.indicators.tdr"),
    ("analyze", {"composite": {"indicators": {"tdr": {"shape": "bogus"}}}}, "composite.indicators.tdr"),
    ("analyze", {"composite": {"indicators": {"tdr": {"shape": "relative-min"}}}},
     "composite.indicators.tdr"),
    ("compare", {"composite": {"indicators": {"volumetry": {"shape": "rising-linear"}}}},
     "composite.indicators.volumetry"),
    ("compare", {"composite": {"sensitivity": {"delta_pp": 100}}}, "composite.sensitivity.delta_pp"),
    ("analyze", {"models": {"sig": "default"}}, "models.sig"),
    ("analyze", {"composite": {"indicators": {"tdr": {"weight": 0.5}}}},
     "composite.indicators: indicator weights must sum to 1"),
    ("analyze", [], "config root must be a JSON object"),
], ids=["report-format", "duplication-source", "delta-pp", "delta-pp-text", "min-tokens-text",
        "duplication-mode", "weighted-means-text", "sig-cc-bands-short", "sig-size-bands-flat",
        "sig-coverage-text", "sig-coverage-per-project", "sig-ladder-step", "sig-caps-key",
        "sig-caps-value", "sig-matrix-row", "sig-key-typo", "duplication-key-typo",
        "indicator-field-typo", "metrics-key-typo", "rule-effort-text", "rule-enabled-text",
        "min-tokens-below-3", "cost-per-line-zero", "mi-scope", "indicator-weight-above-1",
        "indicator-bounds-equal", "indicator-shape-unknown", "relative-min-off-volumetry",
        "volumetry-not-relative-min", "delta-pp-100", "section-not-object",
        "weights-sum-not-1", "root-not-object"])
def test_invalid_config_value_rejected(tmp_path, capsys, command, override, key):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(override))
    a = write_tree(tmp_path / "alpha", {"m.c": C_FILE})
    b = write_tree(tmp_path / "beta", {"m.py": PY_FILE})
    paths = [str(a)] if command == "analyze" else [str(a), str(b), "--sensitivity"]
    code, out, err = run(capsys, command, *paths, "--config", str(config))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_default_config_hash_is_pinned(corpus, capsys, monkeypatch):
    # a change here makes every stored snapshot incomparable: change it on purpose only
    monkeypatch.delenv("XMAINT_CONFIG", raising=False)
    _, out, _ = run(capsys, "analyze", str(corpus))
    assert json.loads(out)["config_hash"] == (
        "ac8b504d5cecb2251f3900b8c4820d371a16de49436c2b5935329127dd8efc77"
    )


@pytest.mark.parametrize("argv, digest", [
    (("analyze", "mixed", "--min-tokens", "10"),
     "5726b4d9dd7ed833fb0039be36289eba2ab70458be175bb392f3d2b022fa7e88"),
    (("analyze", "mixed", "--min-tokens", "10", "--dup-mode", "identifier-blind"),
     "a5c4b8e3e3619beef1e93e3ab9ca60fbbbff98bd6dcfd1d926280f41a0af6697"),
    (("compare", "parity/cfam", "parity/py", "--sensitivity"),
     "5ab7bb8ec8943381cc5f161059c6b7b3e4967301df8762a6f77161c08f58ab41"),
    (("analyze", "mixed", "--min-tokens", "10", "--config", "mi_file.json"),
     "a67bb27a405ee6e846acb83433202e85780aa721190d63e6a19ad3cdd560ca11"),
    (("analyze", "mixed", "--min-tokens", "10", "--dup-mode", "identifier-blind",
      "--config", "mi_file.json"),
     "e48dff0557186bd05ce1a6308f4ace26c713b5b946cf030785997b4a80f84f63"),
], ids=["mixed-exact", "mixed-identifier-blind", "parity-compare-sensitivity",
        "mixed-exact-mi-file", "mixed-identifier-blind-mi-file"])
def test_report_digest_is_pinned(tmp_path, capsys, monkeypatch, argv, digest):
    # SHA-256 of the canonical JSON report: a refactor must leave every value,
    # field and path in it unchanged; change a digest on purpose only
    monkeypatch.delenv("XMAINT_CONFIG", raising=False)
    _mixed_corpus(tmp_path / "mixed", lines_target=600)
    (tmp_path / "mi_file.json").write_text(json.dumps({"models": {"mi": {"scope": "file"}}}))
    shutil.copytree(FIXTURES / "parity", tmp_path / "parity")
    monkeypatch.chdir(tmp_path)  # roots and path flags stay relative
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(strip_generated(out).encode()).hexdigest() == digest


# --- discovery ---


@pytest.fixture
def layered(tmp_path):
    return write_tree(tmp_path / "proj", {
        rel: C_FILE for rel in (
            "src/a.c", "src/tests/v.c", "tests/t.c", "tests/deep/u.c", "build/g.c", "src/build/h.c",
        )
    })


@pytest.mark.parametrize("includes, excludes, expected", [
    # a bare name matches a file's basename only, so no directory is dropped
    ((), ("tests",), ["src/a.c", "src/tests/v.c", "tests/deep/u.c", "tests/t.c"]),
    # '*' crosses '/', so 'tests/*' drops the whole top-level tree
    ((), ("tests/*",), ["src/a.c", "src/tests/v.c"]),
    # '*/tests/*' needs a parent directory before 'tests'
    ((), ("*/tests/*",), ["src/a.c", "tests/deep/u.c", "tests/t.c"]),
    (("src/*",), (), ["src/a.c", "src/tests/v.c"]),
], ids=["bare-name", "top-level-dir", "nested-dir", "include-dir"])
def test_discovery_globs(layered, registry, includes, excludes, expected):
    # DEFAULT_EXCLUDES prune directory names ('build') at any depth, whatever the globs
    found = discover_files(layered, registry, includes=includes, excludes=excludes)
    assert [rel for _, rel, _ in found] == expected


def test_discovery_propagates_unexpected_errors(layered, registry, monkeypatch):
    def broken(path, registry):
        raise RuntimeError("bug")

    monkeypatch.setattr(analysis, "detect_profile", broken)
    with pytest.raises(RuntimeError):
        discover_files(layered, registry)


# --- compare ---


@pytest.fixture
def pair(tmp_path):
    a = write_tree(tmp_path / "alpha", {"m.c": C_FILE})
    b = write_tree(tmp_path / "beta", {"m.c": C_FILE, "n.py": PY_FILE})
    return a, b


def test_compare_identical_copies_tie(tmp_path, capsys):
    a = write_tree(tmp_path / "copy_a", {"m.c": C_FILE})
    b = write_tree(tmp_path / "copy_b", {"m.c": C_FILE})
    code, out, _ = run(capsys, "compare", str(a), str(b))
    assert code == 0
    report = json.loads(out)
    totals = [c["total"] for c in report["composite"]]
    assert totals[0] == totals[1]
    assert [c["project_id"] for c in report["composite"]] == ["copy_a", "copy_b"]
    assert [c["rank"] for c in report["composite"]] == [1, 2]


def test_compare_reports_shared_rules_and_both_ratios(pair, capsys):
    a, b = pair
    code, out, _ = run(capsys, "compare", str(a), str(b))
    assert code == 0
    report = json.loads(out)
    assert report["shared_rules"]  # default rules agree everywhere
    for block in report["projects"]:
        assert "token_ratio" in block["duplication"]
        assert "line_ratio" in block["duplication"]
    assert len(report["composite"]) == 2
    for c in report["composite"]:
        assert "volumetry" in c["per_indicator"]


def test_compare_evaluates_debt_once_per_project(capsys, monkeypatch):
    # rule enablement is config-wide, so each project's own evaluation is final
    billed = []
    evaluate = analysis.evaluate_debt

    def counting(files, *rest):
        billed.append(files[0].profile_id)
        return evaluate(files, *rest)

    monkeypatch.setattr(analysis, "evaluate_debt", counting)
    code, _, _ = run(capsys, "compare", str(FIXTURES / "parity" / "cfam"), str(FIXTURES / "parity" / "py"))
    assert code == 0 and billed == ["c-family", "python"]


def test_compare_volumetry_scores(tmp_path, capsys):
    def make(name, copies):
        files = {
            f"f{i}.c": f"int fn{i}(int a) {{ return a + {i}; }}\n" * copies
            for i in range(3)
        }
        return write_tree(tmp_path / name, files)

    small = make("small", 10)
    medium = make("medium", 13)
    large = make("large", 20)
    _, out, _ = run(capsys, "compare", str(small), str(medium), str(large))
    report = json.loads(out)
    vol = {c["project_id"]: c["per_indicator"]["volumetry"]["score"] for c in report["composite"]}
    locs = {c["project_id"]: c["per_indicator"]["volumetry"]["raw"] for c in report["composite"]}
    assert vol["small"] == 100.0
    assert vol["large"] == 0.0
    expected_medium = 100 * (1.5 - locs["medium"] / locs["small"]) / 0.5
    assert vol["medium"] == pytest.approx(expected_medium, abs=0.01)


def test_compare_requires_two_paths(corpus, capsys):
    code, _, err = run(capsys, "compare", str(corpus))
    assert code == 1 and "two" in err


@pytest.mark.parametrize("twice", [
    lambda p: [str(p), str(p)],
    lambda p: [str(p), str(p) + "/"],
    lambda p: [str(p), f"{p.parent}/./{p.name}"],
], ids=["same", "trailing-slash", "dot-segment"])
def test_compare_rejects_one_project_given_twice(corpus, capsys, monkeypatch, twice):
    def no_analysis(*args, **kwargs):
        raise AssertionError("a project was analyzed")

    monkeypatch.setattr("xmaint.cli.analyze_project", no_analysis)
    code, out, err = run(capsys, "compare", *twice(corpus))
    assert code == 1 and out == ""
    assert err == f"error: compare: project path given twice: {corpus}\n"


def test_compare_with_sensitivity(pair, capsys):
    a, b = pair
    _, out, _ = run(capsys, "compare", str(a), str(b), "--sensitivity")
    report = json.loads(out)
    sens = report["sensitivity"]
    assert {p["indicator"] for p in sens["perturbations"]} == {
        "commentRatio", "duplicationRatio", "tdr", "volumetry"}
    assert len(sens["perturbations"]) == 8
    assert isinstance(sens["top1_stable"], bool)


def test_compare_duplication_source_line(tmp_path, capsys):
    twin = "int twin(int a, int b) {\n    int t = a + b;\n    t = t * a - b;\n    return t + a * b;\n}\n"
    a = write_tree(tmp_path / "alpha", {"m.c": C_FILE + twin + twin.replace("twin", "twin2")})
    b = write_tree(tmp_path / "beta", {"n.py": PY_FILE})
    config = tmp_path / "line.json"
    config.write_text(json.dumps({"composite": {"duplication_source": "line"}}))
    code, out, _ = run(capsys, "compare", str(a), str(b), "--min-tokens", "10", "--config", str(config))
    assert code == 0
    report = json.loads(out)
    assert report["projects"][0]["duplication"]["token_ratio"] == 0.5962
    assert report["projects"][0]["duplication"]["line_ratio"] == 0.5882
    scores = {c["project_id"]: c["per_indicator"]["duplicationRatio"] for c in report["composite"]}
    assert scores == {"alpha": {"raw": 0.5882, "score": 0.0}, "beta": {"raw": 0.0, "score": 100.0}}


_NO_RULES = {"rules": {rule: {"enabled": False} for rule in (
    "complexity-threshold", "unit-size-threshold", "too-many-params", "nesting-depth",
    "naming-convention")}}


def test_compare_with_every_rule_disabled_warns_of_empty_intersection(pair, tmp_path, capsys):
    config = tmp_path / "off.json"
    config.write_text(json.dumps(_NO_RULES))
    code, out, _ = run(capsys, "compare", *map(str, pair), "--config", str(config))
    assert code == 2
    report = json.loads(out)
    assert report["shared_rules"] == []
    assert report["diagnostics"] == [{
        "code": "empty-intersection", "file": None, "line": None,
        "message": "no coding rule is enabled for every compared language; "
                   "debt ratios compare only rule-free attributes",
    }]


def test_compare_markdown_sensitivity_and_diagnostics(tmp_path, capsys):
    a = write_tree(tmp_path / "alpha", {"m.c": C_FILE})
    b = write_tree(tmp_path / "beta", {"n.py": PY_FILE, "open.c": "int f(int a) { return a; }\n/* open\n"})
    config = tmp_path / "off.json"
    config.write_text(json.dumps(_NO_RULES))
    code, out, _ = run(capsys, "compare", str(a), str(b), "--sensitivity", "--format", "md",
                       "--config", str(config))
    assert code == 2
    tail = out[out.index("## Sensitivity"):].splitlines()
    assert tail[:7] == [
        "## Sensitivity", "", "- delta: 5.0 pp", "- top-1 stable: True",
        "- full ranking stable: True", "", "| indicator | direction | top-1 | ranking |"]
    assert tail[8:10] == ["| commentRatio | + | beta | beta > alpha |",
                          "| commentRatio | - | beta | beta > alpha |"]
    assert len(tail) == 8 + 8 + 1 + 4
    assert tail[17:] == [
        "## Diagnostics", "",
        "- `empty-intersection` (project): no coding rule is enabled for every compared "
        "language; debt ratios compare only rule-free attributes",
        "- `unterminated-comment` open.c:2: unterminated comment starting here",
    ]


# --- snapshot + trend CLI ---


def test_snapshot_save_then_trend(corpus, capsys, tmp_path):
    store = tmp_path / "store"
    code, out, _ = run(capsys, "snapshot", "save", str(corpus), "--store", str(store),
                       "--label", "baseline")
    assert code == 0
    snapshot_id = out.strip()
    assert snapshot_id

    code, out, _ = run(capsys, "trend", "no-such-project", "--store", str(store), "--metric", "tdr")
    assert code == 1  # unknown project id

    code, out, _ = run(capsys, "trend", corpus.name, "--store", str(store), "--metric", "tdr")
    assert code == 0
    series = json.loads(out)["series"]
    assert len(series) == 1 and series[0]["comparable"] is True


def test_trend_unknown_metric_exit_1(corpus, capsys, tmp_path):
    store = tmp_path / "store"
    run(capsys, "snapshot", "save", str(corpus), "--store", str(store))
    code, _, err = run(capsys, "trend", corpus.name, "--store", str(store),
                       "--metric", "nonsense")
    assert code == 1 and "nonsense" in err


def test_trend_three_edits_match_hand_computed_tdrs(tmp_path, capsys):
    """Scripted fixture evolution with per-stage debt computed by hand.

    Stage 1: naming (10min) + too-many-params (20min) on 1 LOC -> 30/30 = 1.0
    Stage 2: params violation only                            -> 20/30 = 0.6667
    Stage 3: compliant                                        ->  0/30 = 0.0
    """
    store = tmp_path / "store"
    stages = [
        "int Messy_Name(int a, int b, int c, int d, int e, int f) { return a; }\n",
        "int messyName(int a, int b, int c, int d, int e, int f) { return a; }\n",
        "int messyName(int a, int b) { return a; }\n",
    ]
    root = tmp_path / "evolving"
    root.mkdir()
    for stage in stages:
        (root / "m.c").write_text(stage, encoding="utf-8")
        code, _, _ = run(capsys, "snapshot", "save", str(root), "--store", str(store),
                         "--project-id", "evo")
        assert code == 0
    code, out, _ = run(capsys, "trend", "evo", "--store", str(store), "--metric", "tdr")
    assert code == 0
    values = [p["value"] for p in json.loads(out)["series"]]
    assert values == [1.0, pytest.approx(0.6667, abs=1e-4), 0.0]


def test_snapshot_config_change_flags_incomparable(tmp_path, capsys):
    store = tmp_path / "store"
    root = write_tree(tmp_path / "stable", {"m.c": C_FILE})
    run(capsys, "snapshot", "save", str(root), "--store", str(store), "--project-id", "s")
    run(capsys, "snapshot", "save", str(root), "--store", str(store), "--project-id", "s",
        "--cost-per-line", "10")
    code, out, _ = run(capsys, "trend", "s", "--store", str(store), "--metric", "tdr")
    assert code == 0
    series = json.loads(out)["series"]
    assert [p["comparable"] for p in series] == [False, True]  # latest hash is the reference


def test_snapshot_list(corpus, capsys, tmp_path):
    store = tmp_path / "store"
    run(capsys, "snapshot", "save", str(corpus), "--store", str(store), "--label", "one")
    code, out, _ = run(capsys, "snapshot", "list", "--store", str(store))
    assert code == 0
    assert corpus.name in out and "one" in out


def test_trend_csv_format(corpus, capsys, tmp_path):
    store = tmp_path / "store"
    run(capsys, "snapshot", "save", str(corpus), "--store", str(store))
    code, out, _ = run(capsys, "trend", corpus.name, "--store", str(store),
                       "--metric", "mi", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "timestamp_utc,value,comparable,snapshot_id"


def test_trend_markdown_format(corpus, capsys, tmp_path):
    store = tmp_path / "store"
    run(capsys, "snapshot", "save", str(corpus), "--store", str(store))
    _, out, _ = run(capsys, "trend", corpus.name, "--store", str(store), "--metric", "tdr")
    (point,) = json.loads(out)["series"]
    code, out, _ = run(capsys, "trend", corpus.name, "--store", str(store),
                       "--metric", "tdr", "--format", "md")
    assert code == 0
    assert out.splitlines() == [
        f"# Trend: tdr for {corpus.name}", "",
        "| timestamp | value | comparable |", "| --- | --- | --- |",
        f"| {point['timestamp_utc']} | 0.037 | True |",
    ]
    assert point["value"] == 0.037


# --- inspection commands ---


def test_rules_list(capsys):
    code, out, _ = run(capsys, "rules", "list", "--profile", "cobol-like")
    assert code == 0
    assert "unit-size-threshold" in out and "120" in out  # verbosity-scaled


def test_profiles_list(capsys):
    code, out, _ = run(capsys, "profiles", "list")
    assert code == 0
    for name in ("c-family", "python", "cobol-like"):
        assert name in out


# --- unwritable --out ---


@pytest.mark.parametrize("command", ["analyze", "compare", "trend"])
def test_unwritable_out_is_an_error_line(corpus, pair, capsys, tmp_path, command):
    out_path = str(tmp_path / "missing" / "r.json")
    if command == "analyze":
        argv = ["analyze", str(corpus)]
    elif command == "compare":
        argv = ["compare", *map(str, pair)]
    else:
        store = str(tmp_path / "store")
        assert run(capsys, "snapshot", "save", str(corpus), "--store", store)[0] == 0
        argv = ["trend", corpus.name, "--store", store, "--metric", "tdr"]
    code, out, err = run(capsys, *argv, "--out", out_path)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write report: ") and out_path in err
    assert "Traceback" not in err



@pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_unwritable_out_is_refused_before_analysis(
    corpus, pair, capsys, tmp_path, monkeypatch, command, target
):
    def no_analysis(*args, **kwargs):
        raise AssertionError("a project was analyzed")

    monkeypatch.setattr("xmaint.cli.analyze_project", no_analysis)
    out_path = str(tmp_path / target)
    argv = ["analyze", str(corpus)] if command == "analyze" else ["compare", *map(str, pair)]
    code, out, err = run(capsys, *argv, "--out", out_path)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write report: ") and out_path in err


def test_out_is_left_alone_when_analysis_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    target = tmp_path / "report.json"
    target.write_text("previous report")
    code, _, err = run(capsys, "analyze", str(empty), "--out", str(target))
    assert code == 1 and "no analyzable files" in err
    assert target.read_text() == "previous report"


def test_relative_out_file(corpus, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "analyze", str(corpus), "--out", "report.json")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "report.json").read_text())["projects"]


@pytest.mark.parametrize("flag", [("--out", "r.json"), ("--format", "md")], ids=["out", "format"])
def test_snapshot_save_takes_no_report_flags(corpus, capsys, tmp_path, flag):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(["snapshot", "save", str(corpus), "--store", str(store), *flag])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and err.startswith("usage: xmaint snapshot save [-h]")
    assert err.splitlines()[-1] == f"xmaint snapshot save: error: unrecognized arguments: {' '.join(flag)}"
    assert not store.exists()


# --- every option a subcommand defines is read by its handler ---


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _leaf_parser(parser, argv):
    """The subparser that handles ``argv``: follow each subcommand word down."""
    for word in argv:
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers or word not in subparsers[0].choices:
            break
        parser = subparsers[0].choices[word]
    return parser


_PARITY = str(FIXTURES / "parity")


@pytest.mark.parametrize("argv", [
    ["analyze", _PARITY],
    ["compare", _PARITY + "/cfam", _PARITY + "/py"],
    ["snapshot", "save", _PARITY, "--store", "{store}"],
    ["snapshot", "list", "--store", "{store}"],
    ["trend", "parity", "--store", "{store}", "--metric", "tdr"],
    ["rules", "list"],
    ["profiles", "list"],
], ids=lambda argv: " ".join(w for w in argv[:2] if not w.startswith(("/", "{"))))
def test_every_option_is_read_by_its_handler(argv, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["snapshot", "save", _PARITY, "--store", store]) == 0
    capsys.readouterr()
    argv = [word.replace("{store}", store) for word in argv]
    parser = build_parser()
    args = parser.parse_args(argv, namespace=_ReadRecorder())
    args._reads.clear()  # argparse itself reads while parsing
    assert args.func(args) == 0
    dests = {a.dest for a in _leaf_parser(parser, argv)._actions if a.default != argparse.SUPPRESS}
    assert dests - args._reads == set()

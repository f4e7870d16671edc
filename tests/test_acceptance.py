"""Acceptance criteria, one test per criterion with a printed PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion also asserts, so a plain pytest run gates on them.
"""

import gc
import json
import random
import time
import tracemalloc

import pytest

from clone_oracle import oracle_blocks
from conftest import write_tree
from token_rows import stream
from xmaint.cli import main
from xmaint.composite import composite_score, sensitivity_analysis, ProjectIndicators
from xmaint.config import load_config
from xmaint.debt_models import maintainability_index, tdr_grade
from xmaint.duplication import EXACT, find_clone_blocks, normalize_tokens, split_blocks, token_ids
from xmaint.errors import SingleCountingViolation
from xmaint.lexing import TokenStream
from xmaint.profiles import ProfileRegistry
from xmaint import analysis
from xmaint.analysis import analyze_project


def report_line(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_mi_formula_exactness():
    near = maintainability_index(100, 5, 50).mi
    exact = maintainability_index(1, 0, 1).mi
    ok = abs(near - 48.26) <= 0.01 and exact == 100.0
    report_line(1, ok, f"MI(100,5,50)={near:.4f} (48.26 +- 0.01), MI(1,0,1)={exact} (== 100)")


def test_criterion_2_grade_scale_conformance():
    def expected(tdr):
        if tdr <= 0.05:
            return "A"
        if tdr <= 0.10:
            return "B"
        if tdr <= 0.20:
            return "C"
        if tdr <= 0.50:
            return "D"
        return "E"

    sweep_ok = all(tdr_grade(i / 1000.0) == expected(i / 1000.0) for i in range(0, 1201))
    boundaries = [
        (0.05, "A"), (0.050001, "B"), (0.10, "B"), (0.20, "C"), (0.50, "D"), (0.51, "E"),
    ]
    boundary_ok = all(tdr_grade(t) == g for t, g in boundaries)
    report_line(2, sweep_ok and boundary_ok,
                "tdr grades match A=[0,5%] B=]5,10%] C=]10,20%] D=]20,50%] E above, "
                "closed-upper/open-lower at every boundary")


def test_criterion_3_composite_reference_total():
    target = ProjectIndicators("t", comment_ratio=0.30, duplication_ratio=0.07,
                               tdr=0.10, total_loc=10000, cost_per_line=30.0, rule_ids=("r",))
    filler = ProjectIndicators("z", comment_ratio=0.15, duplication_ratio=0.15,
                               tdr=0.25, total_loc=20000, cost_per_line=30.0, rule_ids=("r",))
    scores = {s.project_id: s for s in composite_score([target, filler])}
    mapped = {k: v[1] for k, v in scores["t"].per_indicator.items()}
    mapped_ok = (
        abs(mapped["commentRatio"] - 60) < 1e-9
        and abs(mapped["duplicationRatio"] - 80) < 1e-9
        and abs(mapped["tdr"] - 50) < 1e-9
        and abs(mapped["volumetry"] - 100) < 1e-9
    )
    total_ok = abs(scores["t"].total - 68.5) <= 1e-6
    report_line(3, mapped_ok and total_ok,
                f"default weights .15/.15/.45/.25 on mapped (60,80,50,100) -> total "
                f"{scores['t'].total} (68.5 +- 1e-6)")


def test_criterion_4_clone_oracle_equivalence():
    rng = random.Random(1234)
    alphabets = [4, 16, 64]
    thresholds = [3, 5, 10, 20]
    started = time.time()
    checked = 0
    for trial in range(200):
        alphabet = alphabets[trial % 3]
        min_tokens = thresholds[trial % 4]
        n_files = 2 if trial % 5 == 0 else 1
        seqs = {}
        ids = token_ids()
        for k in range(n_files):
            n = rng.randrange(0, 501 // n_files)
            texts = [f"t{rng.randrange(alphabet)}" for _ in range(n)]
            if n > 80 and trial % 2 == 0:  # inject a guaranteed clone
                src = rng.randrange(0, n - 40)
                dst = rng.randrange(0, n - 40)
                length = rng.randrange(min_tokens, 40)
                texts[dst:dst + length] = texts[src:src + length]
            tokens = stream(("identifier", t, i + 1, 1) for i, t in enumerate(texts))
            seqs[f"f{k}"] = normalize_tokens(tokens, EXACT, True, ids)
        fast = {(b.file_a, b.norm_start_a, b.file_b, b.norm_start_b, b.length_tokens)
                for b in split_blocks(seqs, find_clone_blocks(seqs, min_tokens))}
        slow = oracle_blocks(seqs, min_tokens)
        assert fast == slow, f"trial {trial} diverged (alphabet={alphabet}, min={min_tokens})"
        checked += 1
    elapsed = time.time() - started
    report_line(4, checked == 200 and elapsed < 60,
                f"200/200 randomized streams equal the brute-force oracle in {elapsed:.1f}s (< 60s)")


def test_criterion_5_cross_language_parity(parity_roots):
    cfam_root, py_root = parity_roots
    config = load_config()
    config["duplication"]["min_tokens"] = 30
    registry = ProfileRegistry()
    cfam = analyze_project(cfam_root, config, registry)
    py = analyze_project(py_root, config, registry)

    cc_c = [m.cc for fa in cfam.files for m in fa.unit_metrics]
    cc_p = [m.cc for fa in py.files for m in fa.unit_metrics]
    cc_ok = cc_c == cc_p and len(cc_c) == 5

    token_delta = abs(cfam.duplication.duplicated_token_ratio - py.duplication.duplicated_token_ratio)
    line_delta = abs(cfam.duplication.duplicated_line_ratio - py.duplication.duplicated_line_ratio)
    report_line(5, cc_ok and token_delta <= 0.01 and line_delta >= 0.05,
                f"per-unit cc {cc_c} == {cc_p}; token-ratio delta {token_delta:.4f} <= 0.01; "
                f"line-ratio delta {line_delta:.4f} >= 0.05")


def test_criterion_6_single_counting_guard(tmp_path):
    config_path = tmp_path / "conflict.json"
    config_path.write_text(json.dumps({"rules": {"duplication-block": {"enabled": True}}}))
    try:
        load_config(config_path)
        ok, message = False, "conflicting config was accepted"
    except SingleCountingViolation as exc:
        ok = ("duplicationRatio", "duplication-block") in exc.pairs
        message = str(exc)
    report_line(6, ok, f"duplication indicator + duplication-block rule rejected: {message}")


def _mixed_corpus(root, lines_target=1200):
    """Deterministic mixed-language corpus with distinct function bodies and
    a controlled sprinkling of real duplicates (every 11th body repeats)."""
    files = {}
    c_chunks, py_chunks, cob_chunks = [], [], []
    # one loop round emits ~24 physical lines across the three languages
    for i in range(lines_target // 24 + 2):
        seed = i - (i % 11 == 0)  # every 11th block clones its predecessor
        c_chunks.append(
            f"/* block {i} */\n"
            f"int compute{seed}x(int a, int b) {{\n"
            f"    int total = {seed};\n"
            f"    for (int k = {seed % 7}; k < b; k = k + {seed % 5 + 1}) {{\n"
            f"        if (a > k && k > {seed + 2}) {{\n"
            f"            total = total + k * {seed % 9 + 1};\n"
            f"        }}\n"
            f"    }}\n"
            f"    return total + {seed}; // done\n"
            f"}}\n"
        )
        py_chunks.append(
            f"# block {i}\n"
            f"def compute{seed}x(a, b):\n"
            f"    total = {seed}\n"
            f"    for k in range({seed % 7}, b, {seed % 5 + 1}):\n"
            f"        if a > k and k > {seed + 2}:\n"
            f"            total = total + k * {seed % 9 + 1}\n"
            f"    return total + {seed}\n"
        )
        cob_chunks.append(
            f"*> block {i}\n"
            f"PARAGRAPH COMPUTE-{seed}-X.\n"
            f"    MOVE {seed} TO TOTAL.\n"
            f"    IF AMOUNT > {seed + 1}\n"
            f"        ADD AMOUNT TO TOTAL\n"
            f"    END-IF.\n"
            f"END-PARAGRAPH.\n"
        )
    for idx in range(0, len(c_chunks), 4):
        files[f"c/mod{idx}.c"] = "\n".join(c_chunks[idx:idx + 4])
        files[f"py/mod{idx}.py"] = "\n".join(py_chunks[idx:idx + 4])
        files[f"cob/mod{idx}.cob"] = "\n".join(cob_chunks[idx:idx + 4])
    return write_tree(root, files)


def test_criterion_7_determinism(tmp_path, capsys):
    corpus = _mixed_corpus(tmp_path / "corpus", lines_target=600)

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    def canonical(text):
        data = json.loads(text)
        data.pop("generated_at")
        return json.dumps(data, sort_keys=True)

    first = run("analyze", str(corpus))
    second = run("analyze", str(corpus))
    report_line(7, canonical(first) == canonical(second),
                "byte-identical JSON across repeated runs (generated_at removed)")


def test_criterion_8_sensitivity_soundness():
    def proj(pid, comment, dup, tdr, loc):
        return ProjectIndicators(pid, comment, dup, tdr, loc, 30.0, ("r",))

    dominant = [
        proj("a", 0.30, 0.06, 0.02, 10000),  # a beats b on every indicator
        proj("b", 0.25, 0.08, 0.05, 12000),
    ]
    dom = sensitivity_analysis(dominant, delta_pp=5.0)
    dominance_ok = dom.top1_stable and dom.base_ranking[0] == "a"

    crossover = [
        proj("a", 0.15, 0.15, 0.0, 15000),   # wins tdr only
        proj("b", 0.30, 0.09, 0.25, 10000),  # wins the rest
    ]
    cross = sensitivity_analysis(crossover, delta_pp=5.0)
    flips = {(p.indicator, p.direction) for p in cross.perturbations if p.top1 != "a"}
    hand_computed = {("commentRatio", "+"), ("duplicationRatio", "+"),
                     ("tdr", "-"), ("volumetry", "+")}
    crossover_ok = cross.base_ranking == ("a", "b") and flips == hand_computed
    report_line(8, dominance_ok and crossover_ok,
                f"dominant fixture top1-stable under all 8 perturbations; crossover flips "
                f"exactly {sorted(hand_computed)}")


def test_criterion_9_performance_10kloc(tmp_path):
    corpus = _mixed_corpus(tmp_path / "big", lines_target=10000)
    total_lines = sum(
        len(p.read_text().splitlines()) for p in corpus.rglob("*") if p.is_file()
    )
    assert total_lines >= 10000, f"fixture must be >= 10 kLOC, got {total_lines}"
    config = load_config()
    registry = ProfileRegistry()
    started = time.time()
    analysis = analyze_project(corpus, config, registry)
    elapsed = time.time() - started
    report_line(9, elapsed < 5.0 and analysis.metrics.physical_lines >= 10000,
                f"analyze of {analysis.metrics.physical_lines} physical lines "
                f"({len(analysis.files)} files) took {elapsed:.2f}s (< 5s)")


def test_analysis_retains_few_bytes_per_token(tmp_path):
    # a per-file result keeps its clone row, never its tokens, so what the
    # analysis holds once analyze_project returns is bounded per token
    corpus = _mixed_corpus(tmp_path / "mixed", 3000)
    config = load_config()
    registry = ProfileRegistry()
    analyze_project(corpus, config, registry)  # warm the lexer and profile caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        analysis = analyze_project(corpus, config, registry)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tokens = analysis.duplication.total_tokens
    assert tokens > 10_000
    assert retained <= 64 * tokens, f"{retained / tokens:.1f} B per token retained"
    for fa in analysis.files:
        assert fa.halstead_volume is None and fa.cyclomatic is None  # mi.scope "unit"
        for name, value in fa._asdict().items():
            held = value if isinstance(value, (tuple, list)) else (value,)
            assert not any(isinstance(item, TokenStream) for item in held), name


def test_per_file_stage_output_retains_few_bytes_per_token(tmp_path, monkeypatch):
    # what the per-file stage hands the project-level stages: the file
    # analyses and the clone rows, whose three columns are array('i'), 4
    # bytes a token each; 25.4 bytes per token in all on this corpus, and
    # 30.2 when a row's ids were a list of ints
    corpus = _mixed_corpus(tmp_path / "mixed", 3000)
    monkeypatch.setattr(analysis, "_MIN_SHARE_BYTES", 1 << 62)  # one share, in this process
    found = analysis.discover_files(corpus, ProfileRegistry())

    def stage():
        return analysis._analyze_files([found], EXACT, False, lambda project, files, rows: (files, rows))

    stage()  # warm the lexer and profile caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [(files, rows)], failure = stage()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert failure is None and len(files) == len(rows) == len(found)
    tokens = sum(map(len, rows.values()))
    assert tokens > 10_000
    assert retained <= 28 * tokens, f"{retained / tokens:.1f} B per token retained"

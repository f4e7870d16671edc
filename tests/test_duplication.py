import random
from math import comb

import pytest

from clone_oracle import oracle_blocks, oracle_coverage
from conftest import write_tree
from xmaint import duplication
from xmaint.duplication import (
    EXACT,
    IDENTIFIER_BLIND,
    CloneBlock,
    build_report,
    duplication_ratios,
    find_clone_blocks,
    normalize_tokens,
    token_ids,
)
from xmaint.analysis import analyze_project
from xmaint.config import load_config
from xmaint.lexing import Token, tokenize
from xmaint.profiles import C_FAMILY, COBOL_LIKE, PYTHON, ProfileRegistry


def ident_stream(texts, line_per_token=True):
    return [
        Token(kind="identifier", text=t, line=(i + 1) if line_per_token else 1, column=1)
        for i, t in enumerate(texts)
    ]


_IDS = token_ids()  # one id table for every row of this module, as for one project


def row(tokens):
    """The exact-mode clone row of tokens, its ids drawn from the module's table."""
    return normalize_tokens(tokens, EXACT, True, _IDS)


def as_keys(blocks):
    return {(b.file_a, b.norm_start_a, b.file_b, b.norm_start_b, b.length_tokens) for b in blocks}


# --- normalization ---


def test_normalize_drops_comments():
    tokens, _ = tokenize("// only a comment\n/* and another */", C_FAMILY)
    normalized = row(tokens)
    assert (normalized.ids, list(normalized.lines), list(normalized.end_lines)) == ([], [], [])


def test_identifier_blind_equates_renamed_code():
    a, _ = tokenize("a = b + c", C_FAMILY)
    x, _ = tokenize("x = y + z", C_FAMILY)
    ids = token_ids()
    assert normalize_tokens(a, IDENTIFIER_BLIND, True, ids).ids == normalize_tokens(
        x, IDENTIFIER_BLIND, True, ids).ids
    assert normalize_tokens(a, EXACT, True, ids).ids != normalize_tokens(x, EXACT, True, ids).ids


def test_normalize_keeps_backreferences():
    tokens, _ = tokenize("a = 1 // c\nb = 2", C_FAMILY)
    assert tokens[3].kind == "comment"
    code = tokens[:3] + tokens[4:]
    normalized = row(tokens)
    assert normalized.ids == [_IDS[(t.kind, t.text)] for t in code]
    assert list(normalized.lines) == [t.line for t in code]
    assert list(normalized.end_lines) == [t.end_line for t in code]


def test_exact_case_sensitive_row_keys_code_tokens_by_their_own_text():
    tokens, _ = tokenize("int a = b; /* note */\nreturn a;", C_FAMILY)
    ids = token_ids()
    normalized = normalize_tokens(tokens, EXACT, C_FAMILY.case_sensitive, ids)
    code = [t for t in tokens if t.kind != "comment"]
    assert len(normalized) == len(code) == len(tokens) - 1
    assert normalized.ids == [ids[(t.kind, t.text)] for t in code]


@pytest.mark.parametrize("profile, equal", [(COBOL_LIKE, True), (C_FAMILY, False)])
def test_case_insensitive_profile_compares_upper_cased(profile, equal):
    ids = token_ids()

    def stream(text):
        tokens, _ = tokenize(text, profile)
        return normalize_tokens(tokens, EXACT, profile.case_sensitive, ids).ids

    assert (stream("move a to b") == stream("MOVE A TO B")) is equal


@pytest.mark.parametrize("mode", [EXACT, IDENTIFIER_BLIND])
def test_analysis_compares_case_insensitive_profiles_upper_cased(tmp_path, mode):
    body = "PARAGRAPH P.\n    MOVE AMOUNT TO TOTAL.\n    ADD RATE TO TOTAL.\nEND-PARAGRAPH.\n"
    write_tree(tmp_path / "proj", {"upper.cob": body, "lower.cob": body.lower()})
    config = load_config()
    config["duplication"].update(min_tokens=10, mode=mode)
    report = analyze_project(tmp_path / "proj", config, ProfileRegistry()).duplication
    assert [(b.file_a, b.file_b, b.length_tokens) for b in report.blocks] == [
        ("lower.cob", "upper.cob", report.total_tokens // 2)]


def test_replaced_token_keeps_its_position():
    tokens, _ = tokenize('x = """two\nlines"""\ny = x', PYTHON)
    blind = duplication._ID_PLACEHOLDER
    for mode, case_sensitive, compared_texts in (
        (EXACT, False, ["X", "=", '"""TWO\nLINES"""', "Y", "=", "X"]),
        (IDENTIFIER_BLIND, True, [blind, "=", '"""two\nlines"""', blind, "=", blind]),
    ):
        ids = token_ids()
        normalized = normalize_tokens(tokens, mode, case_sensitive, ids)
        assert normalized.ids == [ids[(t.kind, text)] for t, text in zip(tokens, compared_texts)]
        assert list(normalized.lines) == [t.line for t in tokens]
        assert list(normalized.end_lines) == [t.end_line for t in tokens] == [1, 1, 2, 3, 3, 3]


# --- block finding: worked examples ---


def test_no_repeat_no_blocks():
    seq = row(ident_stream([f"t{i}" for i in range(40)]))
    assert find_clone_blocks({"f": seq}, 5) == []


def test_xyx_stream_single_block():
    xs = [f"X{i}" for i in range(1, 6)]
    ys = [f"Y{i}" for i in range(1, 6)]
    seq = row(ident_stream(xs + ys + xs))
    blocks = find_clone_blocks({"f": seq}, 5)
    assert len(blocks) == 1
    block = blocks[0]
    assert (block.norm_start_a, block.norm_start_b, block.length_tokens) == (0, 10, 5)


def test_xyx_token_ratio():
    xs = [f"X{i}" for i in range(1, 6)]
    ys = [f"Y{i}" for i in range(1, 6)]
    seq = row(ident_stream(xs + ys + xs))
    blocks = find_clone_blocks({"f": seq}, 5)
    token_ratio, _, dup, _, total = duplication_ratios(blocks, {"f": seq}, 15)
    assert dup == 10 and total == 15
    assert token_ratio == pytest.approx(2 / 3, abs=1e-9)


def test_cross_file_clone():
    shared = [f"s{i}" for i in range(8)]
    fa = row(ident_stream(["a1", "a2"] + shared))
    fb = row(ident_stream(shared + ["b1"]))
    blocks = find_clone_blocks({"a": fa, "b": fb}, 5)
    assert len(blocks) == 1
    block = blocks[0]
    assert (block.file_a, block.file_b) == ("a", "b")
    assert block.length_tokens == 8
    assert (block.norm_start_a, block.norm_start_b) == (2, 0)


def test_periodic_run_greedy_split():
    # 6 identical tokens, min 3: exactly one non-overlapping pair [0,3) vs [3,6)
    seq = row(ident_stream(["a"] * 6))
    blocks = find_clone_blocks({"f": seq}, 3)
    assert as_keys(blocks) == {("f", 0, "f", 3, 3)}


def test_overlapping_occurrences_rejected():
    # 5 identical tokens cannot host two non-overlapping 3-grams
    seq = row(ident_stream(["a"] * 5))
    assert find_clone_blocks({"f": seq}, 3) == []


# --- oracle equivalence and invariants ---


def random_stream(rng, n, alphabet):
    return row(ident_stream([f"t{rng.randrange(alphabet)}" for _ in range(n)]))


def test_oracle_equivalence_randomized():
    rng = random.Random(424242)
    for trial in range(60):
        n_files = rng.choice([1, 1, 2])
        alphabet = rng.choice([2, 4, 16, 64])
        min_tokens = rng.choice([3, 5, 10, 20])
        seqs = {
            f"f{k}": random_stream(rng, rng.randrange(0, 260), alphabet)
            for k in range(n_files)
        }
        fast = as_keys(find_clone_blocks(seqs, min_tokens))
        slow = oracle_blocks(seqs, min_tokens)
        assert fast == slow, f"trial {trial}: alphabet={alphabet} min={min_tokens}"


@pytest.mark.parametrize("width", [3, 9, 10, 11, 15, 20, 23, 50])
def test_window_keys_give_equal_windows_equal_keys(width):
    # a key combines sub-window hashes, the last one overlapping its
    # neighbour unless the width is a multiple of the sub-window
    rng = random.Random(width)
    copy = [rng.randrange(3) for _ in range(60)]
    row = copy + [5] + copy + [6] + copy  # equal windows, unequal neighbours
    keys = list(duplication._window_keys(row, width))
    assert len(keys) == len(row) - width + 1
    by_window = {}
    for pos, key in enumerate(keys):
        assert by_window.setdefault(tuple(row[pos : pos + width]), key) == key
    assert len(by_window) < len(keys)
    assert list(duplication._window_keys(row[: width - 1], width)) == []


def test_oracle_equivalence_when_every_window_collides(monkeypatch):
    """Every window gets the same hash key, so only the exact comparison of
    window contents can keep unequal windows apart."""
    monkeypatch.setattr(
        duplication, "_window_keys", lambda row, width: [0] * max(0, len(row) - width + 1)
    )
    rng = random.Random(99)
    for trial in range(30):
        alphabet = rng.choice([2, 3, 8, 32])
        min_tokens = rng.choice([3, 4, 8])
        seqs = {
            f"f{k}": random_stream(rng, rng.randrange(0, 120), alphabet)
            for k in range(rng.choice([1, 2, 3]))
        }
        fast = as_keys(find_clone_blocks(seqs, min_tokens))
        assert fast == oracle_blocks(seqs, min_tokens), f"trial {trial}"


def test_oracle_equivalence_multi_file_injected_clones():
    rng = random.Random(2024)
    for trial in range(40):
        min_tokens = rng.choice([3, 5, 8])
        alphabet = rng.choice([8, 32, 256])
        texts = {
            f"f{k}": [f"t{rng.randrange(alphabet)}" for _ in range(rng.randrange(30, 150))]
            for k in range(rng.choice([3, 4]))
        }
        names = sorted(texts)
        for _ in range(rng.randrange(1, 5)):
            src, dst = rng.choice(names), rng.choice(names)  # dst == src: same-file clone
            length = rng.randrange(min_tokens, 25)
            if min(len(texts[src]), len(texts[dst])) <= length:
                continue
            at = rng.randrange(0, len(texts[src]) - length)
            to = rng.randrange(0, len(texts[dst]) - length)
            texts[dst][to : to + length] = texts[src][at : at + length]
        seqs = {name: row(ident_stream(t)) for name, t in texts.items()}
        fast = as_keys(find_clone_blocks(seqs, min_tokens))
        assert fast == oracle_blocks(seqs, min_tokens), f"trial {trial}"


def test_k_identical_copies_pair_up_in_full():
    k = 12
    stream = [f"t{i}" for i in range(40)]
    seqs = {f"f{i:02d}": row(ident_stream(stream)) for i in range(k)}
    report = build_report(seqs, 10, EXACT, k * len(stream))
    assert len(report.blocks) == comb(k, 2)
    assert all(b.length_tokens == len(stream) for b in report.blocks)
    assert {(b.norm_start_a, b.norm_start_b) for b in report.blocks} == {(0, 0)}
    assert report.duplicated_token_ratio == report.duplicated_line_ratio == 1.0


def test_symmetry_under_file_relabeling():
    rng = random.Random(7)
    seq_a = random_stream(rng, 120, 4)
    seq_b = random_stream(rng, 120, 4)
    one = find_clone_blocks({"a": seq_a, "b": seq_b}, 4)
    # feed under swapped labels: occurrences must pair up identically
    two = find_clone_blocks({"b": seq_a, "a": seq_b}, 4)
    remap = {("a", "b"): ("b", "a"), ("b", "b"): ("a", "a"), ("a", "a"): ("b", "b"), ("b", "a"): ("a", "b")}
    relabeled = set()
    for fa, pa, fb, pb, ln in as_keys(two):
        na, nb = remap[(fa, fb)]
        occ = sorted([(na, pa), (nb, pb)])
        relabeled.add((occ[0][0], occ[0][1], occ[1][0], occ[1][1], ln))
    assert relabeled == as_keys(one)


def test_monotonicity_in_min_tokens():
    rng = random.Random(11)
    seq = random_stream(rng, 300, 4)
    previous = 1.0
    for min_tokens in (3, 5, 8, 12, 20):
        blocks = find_clone_blocks({"f": seq}, min_tokens)
        ratio, _, _, _, _ = duplication_ratios(blocks, {"f": seq}, 300)
        assert ratio <= previous + 1e-12
        previous = ratio


def test_deterministic_ordering():
    rng = random.Random(3)
    seqs = {"a": random_stream(rng, 150, 3), "b": random_stream(rng, 150, 3)}
    blocks = find_clone_blocks(seqs, 3)
    keys = [(b.file_a, b.norm_start_a, b.file_b, b.norm_start_b) for b in blocks]
    assert keys == sorted(keys)
    assert blocks == find_clone_blocks(seqs, 3)


def gapped_stream(rng, n, alphabet):
    """Tokens with comment-only lines between them (comments are dropped by
    normalization) and multi-line tokens that span several lines."""
    tokens = []
    line = 1
    for _ in range(n):
        line += rng.choice([0, 0, 1, 1, 2])
        if rng.random() < 0.15:
            tokens.append(Token(kind="comment", text="// c", line=line, column=1))
            line += rng.choice([1, 2])
        text = f"t{rng.randrange(alphabet)}" + "\n" * rng.choice([0, 0, 0, 0, 1, 2])
        tokens.append(Token(kind="identifier", text=text, line=line, column=1))
        line = tokens[-1].end_line
    return row(tokens)


def test_ratios_equal_coverage_oracle():
    rng = random.Random(8080)
    seen = {"overlap": 0, "periodic": 0, "multi_line": 0, "gap": 0}
    for trial in range(80):
        seqs = {
            f"f{k}": gapped_stream(rng, rng.randrange(0, 160), rng.choice([2, 3, 6]))
            for k in range(rng.choice([1, 2, 3]))
        }
        names = sorted(seqs)
        blocks = find_clone_blocks(seqs, rng.choice([3, 4, 6]))
        # plus arbitrary, freely overlapping spans: coverage must not depend
        # on the blocks being maximal
        for _ in range(rng.randrange(0, 6)):
            fa, fb = rng.choice(names), rng.choice(names)
            length = rng.randrange(1, 20)
            if min(len(seqs[fa]), len(seqs[fb])) <= length:
                continue
            pa = rng.randrange(0, len(seqs[fa]) - length)
            pb = rng.randrange(0, len(seqs[fb]) - length)
            blocks.append(CloneBlock(fa, 1, fb, 1, length, 1, 1, pa, pb))
        _, _, dup_tokens, dup_lines, _ = duplication_ratios(blocks, seqs, 1)
        assert (dup_tokens, dup_lines) == oracle_coverage(blocks, seqs), f"trial {trial}"

        spans = sorted(
            (name, start, start + b.length_tokens)
            for b in blocks
            for name, start in ((b.file_a, b.norm_start_a), (b.file_b, b.norm_start_b))
        )
        seen["overlap"] += any(
            x[0] == y[0] and y[1] < x[2] for x, y in zip(spans, spans[1:])
        )
        keys = as_keys(blocks)
        seen["periodic"] += any(  # a period split gives blocks at consecutive starts
            (fa, pa + 1, fb, pb + 1, ln) in keys for fa, pa, fb, pb, ln in keys if fa == fb
        )
        seen["multi_line"] += any(
            end > start for r in seqs.values() for start, end in zip(r.lines, r.end_lines)
        )
        seen["gap"] += any(
            start > end + 1 for r in seqs.values() for end, start in zip(r.end_lines, r.lines[1:])
        )
    assert all(seen.values()), seen


def test_ratios_in_unit_interval():
    rng = random.Random(5)
    for _ in range(20):
        seq = random_stream(rng, rng.randrange(0, 150), 2)
        report = build_report({"f": seq}, 3, EXACT, len(seq))
        assert 0.0 <= report.duplicated_token_ratio <= 1.0
        assert 0.0 <= report.duplicated_line_ratio <= 1.0


def test_verbose_layout_inflates_line_ratio_not_token_ratio():
    """Same token stream; the verbose variant spreads only the duplicated
    statements over one line each, mimicking a wordier language. Token
    ratios agree, line ratios diverge: the cross-language reporting bias."""
    body = ["r", "=", "r", "+", "v", ";", "w", "=", "w", "*", "r", ";"]
    filler_a = [f"fa{i}" for i in range(12)]
    filler_b = [f"fb{i}" for i in range(12)]

    def lay_out(sections):
        # sections: (texts, tokens_per_line)
        out = []
        line = 0
        for texts, per_line in sections:
            for i, t in enumerate(texts):
                if i % per_line == 0:
                    line += 1
                out.append(Token(kind="identifier", text=t, line=line, column=(i % per_line) + 1))
        return out

    dense_tokens = lay_out([(filler_a, 6), (body, 6), (filler_b, 6), (body, 6)])
    spread_tokens = lay_out([(filler_a, 6), (body, 1), (filler_b, 6), (body, 1)])
    dense, spread = row(dense_tokens), row(spread_tokens)
    dense_blocks = find_clone_blocks({"f": dense}, 10)
    spread_blocks = find_clone_blocks({"f": spread}, 10)
    dense_lines = len({l for t in dense_tokens for l in range(t.line, t.end_line + 1)})
    spread_lines = len({l for t in spread_tokens for l in range(t.line, t.end_line + 1)})
    tr_dense, lr_dense, *_ = duplication_ratios(dense_blocks, {"f": dense}, dense_lines)
    tr_spread, lr_spread, *_ = duplication_ratios(spread_blocks, {"f": spread}, spread_lines)
    assert tr_dense == pytest.approx(tr_spread)
    assert lr_spread > lr_dense + 0.05

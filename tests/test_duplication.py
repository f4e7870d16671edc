import random
import tracemalloc
from array import array
from collections import Counter, defaultdict
from math import comb

import pytest

from clone_oracle import oracle_blocks, oracle_coverage
from conftest import write_tree
from token_rows import Row, rows, stream
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
from xmaint.lexing import tokenize
from xmaint.profiles import C_FAMILY, COBOL_LIKE, PYTHON, ProfileRegistry

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the id relabeling test needs Hypothesis
    given = None


def ident_stream(texts, line_per_token=True):
    return stream(("identifier", t, (i + 1) if line_per_token else 1, 1) for i, t in enumerate(texts))


_IDS = token_ids()  # one id table for every row of this module, as for one project


def row(tokens):
    """The exact-mode clone row of a token stream, its ids drawn from the
    module's table."""
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
    listed = rows(tokens)
    assert listed[3].kind == "comment"
    code = listed[:3] + listed[4:]
    normalized = row(tokens)
    assert normalized.ids == [_IDS[(t.kind, t.text)] for t in code]
    assert list(normalized.lines) == [t.line for t in code]
    assert list(normalized.end_lines) == [t.end_line for t in code]


def test_exact_case_sensitive_row_keys_code_tokens_by_their_own_text():
    tokens, _ = tokenize("int a = b; /* note */\nreturn a;", C_FAMILY)
    ids = token_ids()
    normalized = normalize_tokens(tokens, EXACT, C_FAMILY.case_sensitive, ids)
    code = [t for t in rows(tokens) if t.kind != "comment"]
    assert len(normalized) == len(code) == len(tokens) - 1
    assert normalized.ids == [ids[(t.kind, t.text)] for t in code]


def test_clone_rows_equal_by_their_columns_and_never_equal_another_type():
    ids, lines = [1, 2, 3], array("i", [1, 1, 2])
    row = duplication.CloneRow(ids, lines, lines)
    assert row == duplication.CloneRow(list(ids), array("i", lines), array("i", lines))
    assert row != duplication.CloneRow(ids, lines, array("i", [1, 2, 2]))
    assert row.__eq__(object()) is NotImplemented
    assert (row == object()) is False
    assert (row == (ids, lines, lines)) is False


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
        listed = rows(tokens)
        assert normalized.ids == [ids[(t.kind, text)] for t, text in zip(listed, compared_texts)]
        assert list(normalized.lines) == [t.line for t in listed]
        assert list(normalized.end_lines) == [t.end_line for t in listed] == [1, 1, 2, 3, 3, 3]


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


def test_key_with_exactly_two_predecessors_split_across_files():
    # W = w1..w4 follows p in files a and b and r in file c: W's key has two
    # predecessors, p and r, each in a different file from the other. a and
    # b share p, so their block starts one token earlier, at p.
    shared = ["w1", "w2", "w3", "w4"]
    seqs = {
        "a": row(ident_stream(["s1", "p", *shared, "e1"])),
        "b": row(ident_stream(["s2", "p", *shared, "e2"])),
        "c": row(ident_stream(["r", *shared, "e3"])),
    }
    expected = {("a", 1, "b", 1, 5), ("a", 2, "c", 1, 4), ("b", 2, "c", 1, 4)}
    assert as_keys(find_clone_blocks(seqs, 4)) == expected == oracle_blocks(seqs, 4)


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


def test_each_window_is_hashed_once(monkeypatch):
    calls = []
    window_keys = duplication._window_keys

    def counted(row, width):
        calls.append(len(row) - width + 1)  # the windows of this call
        return window_keys(row, width)

    monkeypatch.setattr(duplication, "_window_keys", counted)
    seqs = {"a": row(ident_stream([f"a{i}" for i in range(30)])),
            "b": row(ident_stream([f"b{i}" for i in range(20)]))}
    assert find_clone_blocks(seqs, 5) == []
    assert calls == [26, 16]
    seqs["c"] = row(ident_stream([f"a{i}" for i in range(5)]))
    calls.clear()
    assert len(find_clone_blocks(seqs, 5)) == 1
    assert calls == [26, 16, 1]  # no second pass over the windows of any file
    # a long file is hashed a segment at a time, each window in one segment
    seqs = {"long": row(ident_stream([f"t{i % 9000}" for i in range(10_000)]))}
    calls.clear()
    assert len(find_clone_blocks(seqs, 5)) == 1
    assert calls == [4096, 4096, 1804]


def test_repeated_keys_are_exact():
    def keys(*values):
        return array("q", values)

    assert duplication._repeated_keys(keys()) == set()
    assert duplication._repeated_keys(keys(7)) == set()
    assert duplication._repeated_keys(keys(5, 6, 7, 6, 8, 5, 5)) == {5, 6}
    # distinct keys that all land in bucket 0, and a key that collides with
    # 0 in the bucket table only
    one_bucket = [i << 40 for i in range(1, 500)]
    assert duplication._repeated_keys(keys(*one_bucket)) == set()
    assert duplication._repeated_keys(keys(*one_bucket, 3 << 40, -(1 << 62))) == {3 << 40}
    assert duplication._repeated_keys(keys(-1, 2**63 - 1, -(2**63), -1)) == {-1}


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


def test_oracle_equivalence_when_every_key_shares_one_bucket(monkeypatch):
    """Unequal windows keep distinct keys, but every key lands in the bucket
    table's first slot, so the table rules out no window and only the exact
    count of the keys can tell repeats from singletons."""
    window_keys = duplication._window_keys
    monkeypatch.setattr(
        duplication, "_window_keys",
        lambda row, width: [(key & (2**22 - 1)) << 40 for key in window_keys(row, width)],
    )
    rng = random.Random(7)
    for trial in range(30):
        alphabet = rng.choice([2, 3, 8, 32])
        min_tokens = rng.choice([3, 4, 8])
        seqs = {
            f"f{k}": random_stream(rng, rng.randrange(0, 120), alphabet)
            for k in range(rng.choice([1, 2, 3]))
        }
        fast = as_keys(find_clone_blocks(seqs, min_tokens))
        assert fast == oracle_blocks(seqs, min_tokens), f"trial {trial}"


def test_clone_stage_memory_is_bounded_per_window():
    """find_clone_blocks holds 8 bytes per window key plus a bucket table of
    8 to 16 bytes per window, and per-key counts only for the few keys that
    table cannot rule out. A count per distinct key, as a Counter keeps, costs
    70 bytes or more per window. One long file and many short ones, with one
    clone among mostly unique windows."""
    rng = random.Random(5)

    def clone_row(ids):
        lines = array("i", range(1, len(ids) + 1))
        return duplication.CloneRow(ids, lines, lines)

    long_ids = [rng.randrange(10**6) for _ in range(30_000)]
    seqs = {"long": clone_row(long_ids)}
    for k in range(30):
        seqs[f"short{k:02d}"] = clone_row([rng.randrange(10**6) for _ in range(1_000)])
    seqs["short00"].ids[100:300] = long_ids[5_000:5_200]
    windows = sum(len(r) - 50 + 1 for r in seqs.values())
    assert windows >= 50_000
    tracemalloc.start()
    try:
        blocks = find_clone_blocks(seqs, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(b.file_a, b.norm_start_a, b.file_b, b.norm_start_b, b.length_tokens)
            for b in blocks] == [("long", 5_000, "short00", 100, 200)]
    assert peak / windows <= 32


def test_clone_stage_memory_is_bounded_per_window_when_every_window_repeats():
    """30 copies of one row: every window repeats, but only each file's first
    window follows two different tokens (none, in each file), so only its key
    gets a class. A class entry per repeated window, with a content tuple per
    class, costs over 100 bytes per window."""
    rng = random.Random(15)
    ids = [rng.randrange(10**6) for _ in range(800)]
    lines = array("i", range(1, len(ids) + 1))
    seqs = {f"copy{k:02d}": duplication.CloneRow(list(ids), lines, lines) for k in range(30)}
    windows = 30 * (len(ids) - 50 + 1)
    tracemalloc.start()
    try:
        blocks = find_clone_blocks(seqs, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == comb(30, 2)
    assert {(b.norm_start_a, b.norm_start_b, b.length_tokens) for b in blocks} == {(0, 0, 800)}
    assert peak / windows <= 32


def _repeats_and_left_diverse(seqs, width):
    """(windows whose content repeats, distinct repeated contents, contents
    whose windows follow two or more different tokens or file starts)."""
    counts, before = Counter(), defaultdict(set)
    for name in sorted(seqs):
        ids = seqs[name].ids
        for pos in range(len(ids) - width + 1):
            window = tuple(ids[pos : pos + width])
            counts[window] += 1
            before[window].add(ids[pos - 1] if pos else name)
    repeated = [w for w, n in counts.items() if n > 1]
    return (sum(counts[w] for w in repeated), len(repeated),
            sum(len(before[w]) > 1 for w in repeated))


def test_oracle_equivalence_over_mutated_copies():
    """k copies of one random row, some at their file's start and some after
    a short prefix, each with a few point mutations and some with a periodic
    run: most windows repeat, but few of the repeated contents are
    left-diverse, so the filter decides most keys."""
    rng = random.Random(3141)
    windows = repeated_windows = repeated_keys = diverse_keys = 0
    for trial in range(30):
        min_tokens = rng.choice([3, 5, 8])
        alphabet = rng.choice([8, 32, 256])
        base = [f"t{rng.randrange(alphabet)}" for _ in range(rng.randrange(20, 60))]
        texts = {}
        for k in range(rng.choice([2, 3, 4])):
            copy = [f"p{rng.randrange(alphabet)}" for _ in range(rng.choice([0, 0, 1, 3]))]
            copy += base
            for _ in range(rng.randrange(3)):
                copy[rng.randrange(len(copy))] = f"t{rng.randrange(alphabet)}"
            if rng.random() < 0.4:
                at = rng.randrange(len(copy))
                period = [f"t{rng.randrange(alphabet)}" for _ in range(rng.randrange(1, 4))]
                copy[at:at] = period * rng.randrange(2, 6)
            texts[f"f{k}"] = copy
        seqs = {name: row(ident_stream(t)) for name, t in texts.items()}
        fast = as_keys(find_clone_blocks(seqs, min_tokens))
        assert fast == oracle_blocks(seqs, min_tokens), f"trial {trial}"
        windows += sum(max(0, len(r) - min_tokens + 1) for r in seqs.values())
        stats = _repeats_and_left_diverse(seqs, min_tokens)
        repeated_windows += stats[0]
        repeated_keys += stats[1]
        diverse_keys += stats[2]
    assert repeated_windows > windows / 2
    assert diverse_keys < repeated_keys / 4


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


def _clone_row(tokens):
    """The clone row of (id, step, span) triples: each token starts ``step``
    lines after the one before it ends and ends ``span`` lines later."""
    ids, lines, end_lines, end = [], array("i"), array("i"), 1
    for token, step, span in tokens:
        ids.append(token)
        lines.append(end + step)
        end = lines[-1] + span
        end_lines.append(end)
    return duplication.CloneRow(ids, lines, end_lines)


if given is not None:
    _triples = st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 1))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(_triples, max_size=60), min_size=1, max_size=4),
           min_tokens=st.integers(3, 6), data=st.data())
    def test_reports_do_not_depend_on_which_ids_the_rows_hold(rows, min_tokens, data):
        # the per-file stage's workers give a project other ids than one
        # process does: any bijection of the ids onto non-negative ints must
        # leave blocks, ratios and counts as they are
        sequences = {f"f{i}": _clone_row(tokens) for i, tokens in enumerate(rows)}
        distinct = sorted({token for seq in sequences.values() for token in seq.ids})
        targets = data.draw(st.lists(st.integers(0, 2**62), min_size=len(distinct),
                                     max_size=len(distinct), unique=True))
        relabel = dict(zip(distinct, targets))
        relabeled = {
            name: duplication.CloneRow([relabel[token] for token in seq.ids], seq.lines, seq.end_lines)
            for name, seq in sequences.items()
        }
        code_lines = sum(seq.end_lines[-1] for seq in sequences.values() if seq)
        expected = build_report(sequences, min_tokens, EXACT, code_lines)
        assert build_report(relabeled, min_tokens, EXACT, code_lines) == expected


def gapped_stream(rng, n, alphabet):
    """Tokens with comment-only lines between them (comments are dropped by
    normalization) and multi-line tokens that span several lines."""
    tokens = []
    line = 1
    for _ in range(n):
        line += rng.choice([0, 0, 1, 1, 2])
        if rng.random() < 0.15:
            tokens.append(Row("comment", "// c", line, 1, line))
            line += rng.choice([1, 2])
        text = f"t{rng.randrange(alphabet)}" + "\n" * rng.choice([0, 0, 0, 0, 1, 2])
        tokens.append(Row("identifier", text, line, 1, line + text.count("\n")))
        line = tokens[-1].end_line
    return row(stream(tokens))


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
                out.append(Row("identifier", t, line, (i % per_line) + 1, line))
        return out

    dense_tokens = lay_out([(filler_a, 6), (body, 6), (filler_b, 6), (body, 6)])
    spread_tokens = lay_out([(filler_a, 6), (body, 1), (filler_b, 6), (body, 1)])
    dense, spread = row(stream(dense_tokens)), row(stream(spread_tokens))
    dense_blocks = find_clone_blocks({"f": dense}, 10)
    spread_blocks = find_clone_blocks({"f": spread}, 10)
    dense_lines = len({l for t in dense_tokens for l in range(t.line, t.end_line + 1)})
    spread_lines = len({l for t in spread_tokens for l in range(t.line, t.end_line + 1)})
    tr_dense, lr_dense, *_ = duplication_ratios(dense_blocks, {"f": dense}, dense_lines)
    tr_spread, lr_spread, *_ = duplication_ratios(spread_blocks, {"f": spread}, spread_lines)
    assert tr_dense == pytest.approx(tr_spread)
    assert lr_spread > lr_dense + 0.05

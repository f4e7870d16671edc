"""Token-based clone detection and dual duplication ratios.

A clone block pairs two occurrences of the same normalized token sequence.
Blocks are maximal: extending either end by one token would break the
element-wise equality or, for two occurrences inside one file, make them
overlap. Self-overlapping repeats are therefore capped at their period,
which splits a periodic run into non-overlapping blocks greedily from the
left.

The clone stage reads each file as a ``CloneRow``: one int id per
normalized token, equal ids for equal (kind, compared text) across the
project, and the tokens' start and end lines. Rows are built file by file
from the file's token columns: each local id gets its project id once, and
the code tokens' id column is mapped through that table, so no token
outlives its file's analysis.

Detection groups the windows of ``min_tokens`` tokens into classes of equal
content (after Kamiya, Kusumoto & Inoue's CCFinder): window hashes are
counted file by file, then recomputed per file to pick out the windows whose
hash repeats, and only those are compared exactly; when no hash repeats,
there is no clone and the second pass is skipped. So a hash collision never
joins two different windows, and no more than one file's hashes are held at
a time. Inside a class, two members start a maximal block only if the tokens
before them differ (or one of them starts its file); members are grouped by
that predecessor token, and only pairs drawn from different groups are
expanded. Each such left-maximal pair is extended to its full match length
by galloping over list-slice comparisons. The cost is linear in the number
of windows plus the number of pairs emitted; k copies of one file still emit
C(k, 2) pair blocks, so that is the only remaining term quadratic in k.

Both a token ratio and a line ratio are reported so the lines-vs-tokens
verbosity bias stays visible. Coverage is the union of the blocks' token
intervals per file: each token and each line a covered token spans counts
once however many blocks cover it, and comment-only lines between covered
tokens do not count.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from itertools import combinations, compress, count, islice, product
from typing import Iterator, NamedTuple

from .lexing import COMMENT, IDENTIFIER, TokenStream

EXACT = "exact"
IDENTIFIER_BLIND = "identifier-blind"
DUPLICATION_MODES = (EXACT, IDENTIFIER_BLIND)

_ID_PLACEHOLDER = "\x00id"


_SUB_WINDOW = 10  # tokens per sub-window hash in _window_keys

TokenIds = dict[tuple[str, str], int]


def token_ids() -> TokenIds:
    """A new id table: a (kind, compared text) key missing from it gets the
    next int id from 0 on. One table serves every row of a project."""
    return defaultdict(count().__next__)  # a new key costs no Python call


class CloneRow:
    """One file's normalized token stream as the clone stage reads it.

    ``ids`` holds one int per token (equal ids, equal (kind, compared text));
    ``lines`` and ``end_lines`` are array('i') columns of each token's start
    and end line. Its length is its token count.
    """

    __slots__ = ("ids", "lines", "end_lines")

    def __init__(self, ids: list[int], lines: array, end_lines: array):
        self.ids = ids
        self.lines = lines
        self.end_lines = end_lines

    def __eq__(self, other):
        if not isinstance(other, CloneRow):
            return NotImplemented
        return (self.ids, self.lines, self.end_lines) == (other.ids, other.lines, other.end_lines)

    def __len__(self) -> int:
        return len(self.ids)


class CloneBlock(NamedTuple):
    file_a: str
    start_line_a: int
    file_b: str
    start_line_b: int
    length_tokens: int
    length_lines_a: int
    length_lines_b: int
    norm_start_a: int  # positions in the normalized streams (internal bookkeeping)
    norm_start_b: int


class DuplicationReport(NamedTuple):
    blocks: tuple[CloneBlock, ...]
    duplicated_token_ratio: float
    duplicated_line_ratio: float
    min_tokens: int
    normalization_mode: str
    duplicated_tokens: int
    total_tokens: int
    duplicated_lines: int
    total_code_lines: int


def normalize_tokens(
    tokens: TokenStream, mode: str, case_sensitive: bool, ids: TokenIds
) -> CloneRow:
    """The clone row of one file's tokens: comments dropped, each code token
    keyed by its kind and compared text (upper-cased under a case-insensitive
    profile; in identifier-blind mode, one text for all identifiers), and
    each key given its id from ``ids``, a table made by ``token_ids``. Only
    rows whose ids come from one table can be compared. ``mode`` is one of
    DUPLICATION_MODES; ``validate_config`` holds it there.

    Each local id of the stream is keyed once; local ids number keys in
    order of first occurrence, so project ids are handed out in token order.
    """
    blind = mode == IDENTIFIER_BLIND
    id_of = ids.__getitem__
    is_code = [kind != COMMENT for kind, _ in tokens.keys]
    project = [
        id_of((kind, _ID_PLACEHOLDER if blind and kind == IDENTIFIER
               else text if case_sensitive else text.upper())) if code else -1
        for (kind, text), code in zip(tokens.keys, is_code)
    ]
    mask = list(map(is_code.__getitem__, tokens.ids))
    return CloneRow(
        list(map(project.__getitem__, compress(tokens.ids, mask))),
        array("i", compress(tokens.lines, mask)),
        array("i", compress(tokens.end_lines, mask)),
    )


def _window_keys(row: list[int], width: int) -> Iterator[int]:
    """A hash of every width-sized window of ``row``; equal windows get equal
    keys, unequal windows may collide. A window's key combines the hashes of
    sub-windows that tile it, the last one flush with its end, so each token
    goes through about _SUB_WINDOW + width / _SUB_WINDOW tuple slots, not
    width."""
    sub = min(width, _SUB_WINDOW)
    sub_keys = list(map(hash, zip(*(islice(row, i, None) for i in range(sub)))))
    offsets = [*range(0, width - sub, sub), width - sub]
    return map(hash, zip(*(islice(sub_keys, offset, None) for offset in offsets)))


def _common_length(row_a: list[int], pa: int, row_b: list[int], pb: int, known: int) -> int:
    """Length of the longest common run of row_a[pa:] and row_b[pb:], given
    that its first ``known`` tokens match: gallop, then bisect."""
    limit = min(len(row_a) - pa, len(row_b) - pb)
    length = step = known
    while length < limit:
        step = min(step, limit - length)
        if row_a[pa + length : pa + length + step] != row_b[pb + length : pb + length + step]:
            break
        length += step
        step *= 2
    else:
        return length
    low, high = length, length + step  # a mismatch lies in [low, high)
    while high - low > 1:
        mid = (low + high) // 2
        if row_a[pa + low : pa + mid] == row_b[pb + low : pb + mid]:
            low = mid
        else:
            high = mid
    return low


def find_clone_blocks(sequences: dict[str, CloneRow], min_tokens: int) -> list[CloneBlock]:
    """All maximal clone blocks of at least ``min_tokens`` normalized tokens.

    Output is sorted by (file_a, start_a, file_b, start_b); the pair of
    occurrences is oriented so the first one comes earlier in that order.
    ``validate_config`` holds ``min_tokens`` at 3 or more.
    """
    files = sorted(sequences)
    rows = [sequences[name].ids for name in files]

    counts: Counter[int] = Counter()
    for row in rows:
        counts.update(_window_keys(row, min_tokens))
    repeated = {key for key, n in counts.items() if n > 1}
    del counts
    if not repeated:
        return []  # no two windows are equal, so no pass over the windows again
    # keyed by window content, so windows whose keys merely collide land in
    # different classes
    classes: dict[tuple[int, ...], list[tuple[int, int]]] = defaultdict(list)
    for f_idx, row in enumerate(rows):
        for pos in compress(count(), map(repeated.__contains__, _window_keys(row, min_tokens))):
            classes[tuple(row[pos : pos + min_tokens])].append((f_idx, pos))
    del repeated

    blocks: list[CloneBlock] = []
    line_spans: dict[tuple[int, int, int], int] = {}

    def occurrence(f_idx: int, pos: int, length: int) -> tuple[str, int, int]:
        name = files[f_idx]
        row = sequences[name]
        key = (f_idx, pos, length)
        if key not in line_spans:  # an occurrence recurs in every pair of its class
            line_spans[key] = max(row.end_lines[pos : pos + length]) - row.lines[pos] + 1
        return name, row.lines[pos], line_spans[key]

    def add_block(fa: int, pa: int, fb: int, pb: int, length: int) -> None:
        name_a, line_a, span_a = occurrence(fa, pa, length)
        name_b, line_b, span_b = occurrence(fb, pb, length)
        blocks.append(CloneBlock(
            file_a=name_a,
            start_line_a=line_a,
            file_b=name_b,
            start_line_b=line_b,
            length_tokens=length,
            length_lines_a=span_a,
            length_lines_b=span_b,
            norm_start_a=pa,
            norm_start_b=pb,
        ))

    for members in classes.values():
        # A pair extends one token to the left exactly when both members
        # share their predecessor token, so only pairs across predecessor
        # groups start a block. A file's first window has no predecessor and
        # is a group of its own, under a negative key no token id takes.
        groups: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for f_idx, pos in members:
            groups[rows[f_idx][pos - 1] if pos else -1 - f_idx].append((f_idx, pos))
        for group_a, group_b in combinations(groups.values(), 2):
            for first, second in product(group_a, group_b):
                (fa, pa), (fb, pb) = sorted((first, second))
                delta = pb - pa
                if fa == fb and delta < min_tokens:
                    continue  # overlapping occurrences, no period to split at
                match_len = _common_length(rows[fa], pa, rows[fb], pb, min_tokens)
                if fa != fb or match_len <= delta:
                    add_block(fa, pa, fb, pb, match_len)
                else:
                    # self-overlapping repeat: greedy split at the period
                    for t in range(0, match_len - delta + 1):
                        add_block(fa, pa + t, fb, pb + t, delta)

    blocks.sort(key=lambda b: (b.file_a, b.norm_start_a, b.file_b, b.norm_start_b))
    return blocks


def duplication_ratios(
    blocks: list[CloneBlock],
    sequences: dict[str, CloneRow],
    total_code_lines: int,
) -> tuple[float, float, int, int, int]:
    """Coverage-based ratios: every token/line position counts once no matter
    how many blocks cover it. Returns (token_ratio, line_ratio, dup_tokens,
    dup_lines, total_tokens)."""
    spans: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for block in blocks:
        for name, start in ((block.file_a, block.norm_start_a), (block.file_b, block.norm_start_b)):
            spans[name].append((start, start + block.length_tokens))
    dup_tokens = dup_lines = 0
    for name, file_spans in spans.items():
        row = sequences[name]
        lines: set[int] = set()
        file_spans.sort()
        covered_to = 0
        for start, end in file_spans:
            start = max(start, covered_to)  # skip what an earlier span covered
            if start >= end:
                continue
            dup_tokens += end - start
            for line, end_line in zip(row.lines[start:end], row.end_lines[start:end]):
                lines.update(range(line, end_line + 1))
            covered_to = end
        dup_lines += len(lines)
    total_tokens = sum(map(len, sequences.values()))
    token_ratio = dup_tokens / total_tokens if total_tokens else 0.0
    line_ratio = dup_lines / total_code_lines if total_code_lines else 0.0
    return token_ratio, line_ratio, dup_tokens, dup_lines, total_tokens


def build_report(
    sequences: dict[str, CloneRow], min_tokens: int, mode: str, total_code_lines: int
) -> DuplicationReport:
    blocks = find_clone_blocks(sequences, min_tokens)
    token_ratio, line_ratio, dup_tokens, dup_lines, total_tokens = duplication_ratios(
        blocks, sequences, total_code_lines
    )
    return DuplicationReport(
        blocks=tuple(blocks),
        duplicated_token_ratio=token_ratio,
        duplicated_line_ratio=line_ratio,
        min_tokens=min_tokens,
        normalization_mode=mode,
        duplicated_tokens=dup_tokens,
        total_tokens=total_tokens,
        duplicated_lines=dup_lines,
        total_code_lines=total_code_lines,
    )

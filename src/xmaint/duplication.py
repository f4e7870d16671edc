"""Token-based clone detection and dual duplication ratios.

A clone block pairs two occurrences of the same normalized token sequence.
Blocks are maximal: extending either end by one token would break the
element-wise equality or, for two occurrences inside one file, make them
overlap. Self-overlapping repeats are therefore capped at their period,
which splits a periodic run into non-overlapping blocks greedily from the
left. The stage holds one match per left-maximal pair, at its full length;
``split_blocks`` splits a periodic one only where a reader lists blocks.

The clone stage reads each file as a ``CloneRow``: three array('i')
columns, 4 bytes a token each, of the normalized tokens' ids, equal ids for
equal (kind, compared text) across the project, and their start and end
lines. Rows are built file by file from the file's token columns: each
local id gets its project id once, and the code tokens' id column is mapped
through that table, so no token outlives its file's analysis.

Detection groups the windows of ``min_tokens`` tokens into classes of equal
content (after Kamiya, Kusumoto & Inoue's CCFinder). It first groups the
rows of equal ids into one content, however the copies were made: one
shared row, equal rows from different workers, files that differ only in
comments or layout, or renamed copies under identifier-blind. A row is
keyed by its length and the hash of its ids' bytes, and a key hit is
settled by comparing the ids, so a collision never merges two rows. Then
each token id is counted over the contents in a table of one byte per
bucket (0 unseen, 1 once, 2 more), as large as the power of two at or above
the contents' tokens, so that each project id has a bucket of its own; a
content that two or more files hold counts twice. A window that holds a
token occurring once equals no other window (the q = 1 case of Ukkonen's
q-gram filter), so only the windows lying wholly between once-only tokens
are hashed, each into an 8-byte key, the ``hash`` of its ids' bytes, with
its 4-byte position beside it, and counted and scanned once: 31.9% of the
77,646 windows of a seed-1 sample of the standard library, 47.2% of the
1.09M of the whole of it, and none of the bench's files of 1,200 small
functions, each with its own name and constants. A ``min_tokens`` longer
than every file leaves no window and so no block. Each file keeps only its
first window's entry and its class members, and occurrences read its own
line columns. A table of one byte per key bucket rules out every key that
lands alone in its bucket (Bloom's hash coding with allowable errors); only
the few keys it cannot rule out are counted exactly. Inside a class, two
members start a maximal block only if the tokens before them differ (or one
of them starts its file); members are grouped by that predecessor token,
and only pairs drawn from different groups are expanded. So a key whose
windows all follow one token starts no block, and classes are built only
for left-diverse keys, whose windows follow two or more different tokens
(Gusfield's left-diverse repeats): the pass that finds each content's
repeated windows keeps their positions and keys and the distinct (key,
preceding token) pairs, and only the windows of left-diverse keys are
compared exactly, keyed by their content, so a hash collision never joins
two different windows. The stage holds a byte or two per token for the
count table, and 12 bytes per kept window plus a table of 8 to 16 bytes per
kept window, not a count per distinct key or a class entry per repeated
window: its tracemalloc peak is 7.9 bytes per window on 30 copies of one
file, over half of it the C(30, 2) blocks it returns, 10.1 on the sample of
the standard library (25.1 when every window was hashed and counted) and
4.2 on the C file of small functions (25.0). Each left-maximal pair is
extended to its full match length by galloping over array-slice
comparisons. The cost is linear in the number of tokens plus the windows
free of once-only tokens plus each file's class members plus the number of
matches, so k copies of one file cost C(k, 2) pair matches. A periodic run
of n tokens in one file (n equal table entries, say) is about n**2 / 4
blocks but fewer than n matches, one per period shift: a report counts the
blocks and builds the MAX_BLOCKS it lists, or all of them for an enabled
duplication-block rule, whose run then costs its output.

Both a token ratio and a line ratio are reported so the lines-vs-tokens
verbosity bias stays visible. Coverage is the union of the blocks' token
intervals per file, equal to the union of the matches' own: each token and
each line a covered token spans counts once however many blocks cover it,
and comment-only lines between covered tokens do not count.
"""

import re
from array import array
from collections import Counter, defaultdict
from itertools import chain, combinations, compress, count, islice, product
from operator import attrgetter, itemgetter, ne
from typing import Iterable, NamedTuple

from .lexing import COMMENT, IDENTIFIER, TokenStream

EXACT = "exact"
IDENTIFIER_BLIND = "identifier-blind"
DUPLICATION_MODES = (EXACT, IDENTIFIER_BLIND)

_ID_PLACEHOLDER = "\x00id"


# _repeated_keys' bucket table: the power of two at or above this many
# one-byte slots per window, so at most about one window in 16 finds its
# bucket already taken
_FILTER_SLOTS_PER_WINDOW = 8
_KEY_SEGMENT = 4096  # windows hashed per _window_keys call, tokens per count lookup

MAX_BLOCKS = 50  # clone blocks a report lists per project; the ratios and block_count cover all
_ORDER = attrgetter("file_a", "norm_start_a", "file_b", "norm_start_b")

TokenIds = dict[tuple[str, str], int]


def token_ids() -> TokenIds:
    """A new id table: a (kind, compared text) key missing from it gets the
    next int id from 0 on. One table serves every row of a project."""
    return defaultdict(count().__next__)  # a new key costs no Python call


class CloneRow:
    """One file's normalized token stream as the clone stage reads it, as
    three array('i') columns that pickle as they are: ``ids`` (equal ids,
    equal (kind, compared text)), made from any iterable of ints, and each
    token's start and end line. Tokens do not overlap, so end lines never
    decrease along a row: a run of tokens ends on its last token's end line.
    Its length is its token count.
    """

    __slots__ = ("ids", "lines", "end_lines")

    def __init__(self, ids: Iterable[int], lines: array, end_lines: array):
        self.ids = array("i", ids)
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
    blocks: tuple[CloneBlock, ...]  # the first MAX_BLOCKS, or all for an enabled duplication-block rule
    block_count: int  # every block, a periodic run's splits included
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
        # an array fills faster from a list than from an iterator
        list(map(project.__getitem__, compress(tokens.ids, mask))),
        array("i", compress(tokens.lines, mask)),
        array("i", compress(tokens.end_lines, mask)),
    )


def _window_keys(row: array, width: int) -> list[int]:
    """A hash of the ids' bytes of every width-sized window of ``row``;
    equal windows get equal keys, unequal windows may collide."""
    data, step = row.tobytes(), row.itemsize
    size = step * width
    return [hash(data[start : start + size]) for start in range(0, len(data) - size + 1, step)]


def _repeated_keys(keys: array) -> set[int]:
    """The keys that occur more than once in ``keys``.

    A table of one byte per bucket (``key & mask``) records which buckets a
    key has landed in; a key that finds its bucket taken goes into
    ``again``. A key that repeats gets there by its second occurrence, while
    a key that occurs once gets there only if it shares its bucket with an
    earlier key, which the table's size makes rare. Counting the keys in
    ``again`` over every window then gives their exact counts, so only those
    few keys are ever counted.
    """
    mask = (1 << (_FILTER_SLOTS_PER_WINDOW * len(keys) - 1).bit_length()) - 1
    taken = bytearray(mask + 1)
    again = set()
    for key in keys:
        bucket = key & mask
        if taken[bucket]:
            again.add(key)
        else:
            taken[bucket] = 1
    del taken
    if not again:
        return again  # no two keys share a bucket, so none repeats
    counts = Counter(compress(keys, map(again.__contains__, keys)))
    return {key for key, n in counts.items() if n > 1}


def _token_counts(rows: list[array], copies: list[int]) -> tuple[bytearray, list[array]]:
    """How often each token occurs over ``copies[i]`` copies of each
    ``rows[i]``, as a table of one byte per bucket: 0 for a bucket no token
    lands in, 1 for a token that occurs once, 2 for more; and each row's
    buckets. The table has at least as many buckets as the rows have tokens.
    Project ids count up from 0, one per distinct token, so each is a
    bucket of its own; larger ids (relabeled rows, say) land in bucket
    ``id & (size - 1)``, where a bucket that two ids share can only read 2.
    """
    size = 1 << (sum(map(len, rows)) - 1).bit_length()

    def count(buckets: list[array]) -> tuple[bytearray, list[array]]:
        seen = bytearray(size)
        for row, n in zip(buckets, copies):
            for _ in range(n):
                for bucket in row:
                    seen[bucket] = 2 if seen[bucket] else 1
        return seen, buckets

    try:
        return count(rows)
    except IndexError:  # an id beyond the table
        return count([array("i", map((size - 1).__and__, row)) for row in rows])


def _common_length(row_a: array, pa: int, row_b: array, pb: int, known: int) -> int:
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
    """All maximal matches of at least ``min_tokens`` normalized tokens, at
    full length: each is one clone block or a periodic run (``split_blocks``).

    Output is sorted by (file_a, start_a, file_b, start_b); the pair of
    occurrences is oriented so the first one comes earlier in that order.
    ``validate_config`` holds ``min_tokens`` at 3 or more.
    """
    files = sorted(sequences)
    rows = [sequences[name].ids for name in files]
    if max(map(len, rows), default=0) < min_tokens:
        return []  # no file holds a window, and re cannot compile so long a repeat

    # rows of equal ids hold one content, numbered in the order of their
    # first files; a (length, hash) key hit is settled by comparing the ids
    contents: list[array] = []
    content_of: list[int] = []  # per row
    same_key: dict[tuple[int, int], list[int]] = defaultdict(list)
    for row in rows:
        candidates = same_key[len(row), hash(row.tobytes())]
        c_idx = next((c for c in candidates if contents[c] == row), len(contents))
        if c_idx == len(contents):
            candidates.append(c_idx)
            contents.append(row)
        content_of.append(c_idx)
    del same_key

    # How often each token occurs (see _token_counts); a content two or
    # more files hold counts twice, so each of its tokens, and windows,
    # repeats.
    held = Counter(content_of)
    seen, buckets = _token_counts(contents, [min(held[c_idx], 2) for c_idx in range(len(contents))])
    # A window that holds a once-only token equals no other window (the
    # q-gram filter with q = 1), so only the windows of runs of at least
    # ``min_tokens`` repeated tokens are hashed, each key beside its
    # window's position; starts[c] indexes content c's first key.
    repeated_run = re.compile(b"\x02{%d,}" % min_tokens)
    keys = array("q")
    where = array("i")
    starts = [0]
    for content, content_buckets in zip(contents, buckets):
        # each token's count, a segment at a time; a leading 0 makes
        # itemgetter return a tuple even for one bucket
        counts = bytearray()
        for start in range(0, len(content), _KEY_SEGMENT):
            counts.extend(itemgetter(0, *content_buckets[start : start + _KEY_SEGMENT])(seen)[1:])
        for run in repeated_run.finditer(counts):
            first, stop = run.start(), run.end() - min_tokens + 1  # its windows
            # a segment at a time, so a long run's keys are never all held
            # at once
            for start in range(first, stop, _KEY_SEGMENT):
                end = min(start + _KEY_SEGMENT, stop) + min_tokens - 1
                keys.fromlist(_window_keys(content[start:end], min_tokens))
            where.extend(range(first, stop))
        starts.append(len(keys))
    del seen, buckets
    # a content two or more files hold is counted twice, so each of its
    # windows repeats
    windows = len(keys)
    for c_idx, n in held.items():
        if n > 1:
            keys.extend(keys[starts[c_idx] : starts[c_idx + 1]])
    repeated = _repeated_keys(keys)
    del keys[windows:]
    if not repeated:
        return []  # no two windows are equal
    # Only pairs across predecessor groups start a block (see below), so a
    # key whose windows all follow one token holds no pair to expand: only
    # left-diverse keys, whose windows follow two or more different tokens
    # (Gusfield), get classes. The one pass over each content's keys records
    # where its repeated windows are, their keys, and each distinct (key,
    # token before). A first window follows no token but its file's start,
    # a group of its own under a negative key no token id takes, as in the
    # grouping below.
    found: list[tuple[array, array]] = []  # per content, its repeated windows' positions and keys
    heads: list[int | None] = []  # per content, its first window's key if that repeats
    pairs: set[tuple[int, int]] = set()
    for c_idx, content in enumerate(contents):
        lo, hi = starts[c_idx], starts[c_idx + 1]
        is_repeated = list(map(repeated.__contains__, keys[lo:hi]))
        positions = array("i", compress(where[lo:hi], is_repeated))
        content_keys = array("q", compress(keys[lo:hi], is_repeated))
        head = 1 if positions and positions[0] == 0 else 0
        heads.append(content_keys[0] if head else None)
        before = map(content.__getitem__, map((-1).__add__, positions))
        pairs.update(islice(zip(content_keys, before), head, None))
        found.append((positions, content_keys))
    del keys, where, repeated
    pairs.update((heads[c_idx], -1 - f_idx) for f_idx, c_idx in enumerate(content_of)
                 if heads[c_idx] is not None)
    del heads
    diverse = {key for key, n in Counter(map(itemgetter(0), pairs)).items() if n > 1}
    del pairs
    # Keyed by window content, its ids' bytes, so windows whose keys merely
    # collide land in different classes. Contents come in the order of
    # their first files, so classes do too; then each file joins its
    # content's classes, in file order.
    classes: dict[bytes, list[tuple[int, int]]] = defaultdict(list)
    joins = []  # per content, its left-diverse windows' positions and classes
    for content, (positions, content_keys) in zip(contents, found):
        kept = array("i", compress(positions, map(diverse.__contains__, content_keys)))
        joins.append((kept, [classes[content[pos : pos + min_tokens].tobytes()] for pos in kept]))
    del found, diverse, contents
    for f_idx, c_idx in enumerate(content_of):
        kept, members = joins[c_idx]
        for pos, class_members in zip(kept, members):
            class_members.append((f_idx, pos))
    del joins

    blocks: list[CloneBlock] = []
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
                if fa == fb and pb - pa < min_tokens:
                    continue  # overlapping occurrences, no period to split at
                match_len = _common_length(rows[fa], pa, rows[fb], pb, min_tokens)
                blocks.append(_clone_block(sequences, files[fa], pa, files[fb], pb, match_len))

    blocks.sort(key=_ORDER)
    return blocks


def _clone_block(sequences: dict[str, CloneRow], name_a: str, pa: int, name_b: str, pb: int, length: int):
    row_a, row_b = sequences[name_a], sequences[name_b]
    # end lines never decrease along a row: the last token ends last
    return CloneBlock(name_a, row_a.lines[pa], name_b, row_b.lines[pb], length,
                      row_a.end_lines[pa + length - 1] - row_a.lines[pa] + 1,
                      row_b.end_lines[pb + length - 1] - row_b.lines[pb] + 1, pa, pb)


def _period(match: CloneBlock) -> int:
    """The length of each block a match stands for, less than its own if it is periodic."""
    apart = match.norm_start_b - match.norm_start_a if match.file_a == match.file_b else match.length_tokens
    return min(match.length_tokens, apart)


def split_blocks(
    sequences: dict[str, CloneRow], matches: list[CloneBlock], limit: int | None = None
) -> list[CloneBlock]:
    """The clone blocks of ``matches``, ``find_clone_blocks``' output, in
    its order: a match of length L whose occurrences lie d < L tokens apart
    in one file is split greedily at its period into L - d + 1 blocks of d
    tokens. The first ``limit`` blocks lie among the first ``limit`` shifts
    of the first ``limit`` matches: a match's first split starts with it."""

    def splits(m: CloneBlock) -> Iterable[CloneBlock]:
        period = _period(m)
        return (_clone_block(sequences, m.file_a, m.norm_start_a + t, m.file_b, m.norm_start_b + t, period)
                for t in islice(range(m.length_tokens - period + 1), limit))

    return sorted(chain.from_iterable(map(splits, islice(matches, limit))), key=_ORDER)[:limit]


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
            first_lines = row.lines[start:end]
            last_lines = row.end_lines[start:end]
            lines.update(first_lines)
            multi_line = map(ne, first_lines, last_lines)
            for line, end_line in compress(zip(first_lines, last_lines), multi_line):
                lines.update(range(line + 1, end_line + 1))
            covered_to = end
        dup_lines += len(lines)
    total_tokens = sum(map(len, sequences.values()))
    token_ratio = dup_tokens / total_tokens if total_tokens else 0.0
    line_ratio = dup_lines / total_code_lines if total_code_lines else 0.0
    return token_ratio, line_ratio, dup_tokens, dup_lines, total_tokens


def build_report(
    sequences: dict[str, CloneRow], min_tokens: int, mode: str, total_code_lines: int,
    limit: int | None,
) -> DuplicationReport:
    """Counts and ratios over every clone block, and the first ``limit`` blocks (all if None)."""
    matches = find_clone_blocks(sequences, min_tokens)
    token_ratio, line_ratio, dup_tokens, dup_lines, total_tokens = duplication_ratios(
        matches, sequences, total_code_lines
    )
    return DuplicationReport(
        blocks=tuple(split_blocks(sequences, matches, limit)),
        block_count=sum(match.length_tokens - _period(match) + 1 for match in matches),
        duplicated_token_ratio=token_ratio,
        duplicated_line_ratio=line_ratio,
        min_tokens=min_tokens,
        normalization_mode=mode,
        duplicated_tokens=dup_tokens,
        total_tokens=total_tokens,
        duplicated_lines=dup_lines,
        total_code_lines=total_code_lines,
    )

"""Brute-force all-pairs clone oracle, kept independent of the fast detector.

Definition checked: a block pairs occurrences (fa, ia) < (fb, ib) of equal
normalized token runs of length L >= min_tokens, non-overlapping when both
occurrences share a file, and maximal: growing the block one token on
either side would break equality, run off a file end, or make same-file
occurrences overlap.

For every ordered start pair this scans the common extension directly and
emits the one candidate length that can be right-maximal, then applies the
left-maximality test. No hashing, no diagonal merging.

``oracle_coverage`` is the reference for the duplication ratios: it counts
covered tokens and lines with one set entry per position, no interval merging.

Both read clone rows: equal token ids mean equal (kind, compared text).
"""

from __future__ import annotations


def oracle_blocks(sequences: dict, min_tokens: int) -> set[tuple]:
    """Return {(file_a, norm_start_a, file_b, norm_start_b, length), ...}."""
    files = sorted(sequences)
    keyed = {name: list(sequences[name].ids) for name in files}
    found = set()
    for i, fa in enumerate(files):
        for fb in files[i:]:
            a, b = keyed[fa], keyed[fb]
            same = fa == fb
            for ia in range(len(a)):
                start_b = ia + 1 if same else 0
                for ib in range(start_b, len(b)):
                    if a[ia] != b[ib]:
                        continue
                    ext = 0
                    while ia + ext < len(a) and ib + ext < len(b) and a[ia + ext] == b[ib + ext]:
                        ext += 1
                    length = min(ext, ib - ia) if same else ext
                    if length < min_tokens:
                        continue
                    if same and length >= ib - ia:
                        left_blocked = True  # growing left would overlap the occurrences
                    else:
                        left_blocked = ia == 0 or ib == 0 or a[ia - 1] != b[ib - 1]
                    if left_blocked:
                        found.add((fa, ia, fb, ib, length))
    return found


def oracle_coverage(blocks, sequences: dict) -> tuple[int, int]:
    """Return (covered tokens, covered lines), each position counted once:
    a set of every token position and every line a covered token spans."""
    covered_tokens: set[tuple[str, int]] = set()
    covered_lines: set[tuple[str, int]] = set()
    for block in blocks:
        for name, start in ((block.file_a, block.norm_start_a), (block.file_b, block.norm_start_b)):
            row = sequences[name]
            for pos in range(start, start + block.length_tokens):
                covered_tokens.add((name, pos))
                for line in range(row.lines[pos], row.end_lines[pos] + 1):
                    covered_lines.add((name, line))
    return len(covered_tokens), len(covered_lines)

"""Profile-driven tokenizer and physical-line classification.

One master regex per profile, built from its comment/string/operator data.
A leading ``\\s*`` consumes the whitespace before each token, so tokens start
at non-whitespace characters and every match is a token. Alternation order
encodes lexical priority: comments and strings first (so comment markers
inside strings never spawn comments), then numbers, words, multi-char
symbols by falling length, and a single-character ``\\S`` catch-all that
guarantees every non-whitespace character lands in exactly one token.
Adjacent alternatives of one token class and diagnostic share one group.

``tokenize`` returns a file's tokens as a ``TokenStream`` of columns: one
per-file local id per token, the (kind, text) key of each local id, and the
tokens' start lines, end lines and start columns. No object is made per
token; every later stage classifies the file's distinct ids once and then
reads the columns.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .errors import Diagnostic
from .profiles import LanguageProfile, folded_tokens

IDENTIFIER = "identifier"
KEYWORD = "keyword"
OPERATOR = "operator"
PUNCTUATION = "punctuation"
NUMBER_LITERAL = "numberLiteral"
STRING_LITERAL = "stringLiteral"
COMMENT = "comment"

CODE_LINE = "code"
COMMENT_LINE = "comment"
BLANK_LINE = "blank"
MIXED_LINE = "mixed"


class TokenStream:
    """One file's tokens as columns, one entry per token in source order.

    ``ids[i]`` is token i's local id: tokens of equal (kind, text) in one file
    share an id, numbered from 0 in order of first occurrence, and
    ``keys[lid]`` is that (kind, text). ``lines`` and ``columns`` give each
    token's 1-based start line and column, ``end_lines`` its start line plus
    the line breaks in its text; lines never decrease from one token to the
    next. Later stages classify a file's few distinct ids once and then read
    the id column, never a per-token object.
    """

    __slots__ = ("ids", "keys", "lines", "end_lines", "columns")

    def __init__(self, ids=(), keys=(), lines=(), end_lines=(), columns=()):
        self.ids = array("i", ids)
        self.keys: list[tuple[str, str]] = list(keys)
        self.lines = array("i", lines)
        self.end_lines = array("i", end_lines)
        self.columns = array("i", columns)

    def __len__(self) -> int:
        return len(self.ids)


class LineClassification(NamedTuple):
    classes: tuple[str, ...]  # index 0 = line 1
    code: int
    comment: int
    blank: int
    mixed: int
    physical_lines: int


_BASE_PUNCTUATION = ("(", ")", "[", "]", "{", "}", ";", ",", ".", ":")

_NUMBER_PATTERN = r"0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"


def _string_patterns(opener: str, closer: str, escape: str) -> tuple[str, str]:
    """(terminated, unterminated) patterns for one string delimiter triple."""
    o, c = re.escape(opener), re.escape(closer)
    multiline = len(opener) >= 3
    if escape:
        e = re.escape(escape)
        if multiline:
            body = rf"(?:{e}[\s\S]|(?!{c})[^{e}])*"
            return rf"{o}{body}{c}", rf"{o}[\s\S]*\Z"
        body = rf"(?:{e}[\s\S]|[^{re.escape(closer[0])}{e}\n])*"
        return rf"{o}{body}{c}", rf"{o}{body}{e}?(?=\n|\Z)"
    if multiline:
        return rf"{o}(?:(?!{c})[\s\S])*{c}", rf"{o}[\s\S]*\Z"
    return rf"{o}[^{re.escape(closer[0])}\n]*{c}", rf"{o}[^\n]*(?=\n|\Z)"


_WORD = "word"  # kind from the folded text: keyword or identifier
_SYMBOL = "symbol"  # kind from the folded text: operator or punctuation


@lru_cache(maxsize=None)
def _compile(profile: LanguageProfile):
    """The master regex, and per group number (kind, diagnostic code)."""
    alternatives: list[tuple[str, str | None, str]] = []  # (kind, diagnostic, pattern)
    for opener, closer in profile.block_comment_delimiters:
        o, c = re.escape(opener), re.escape(closer)
        alternatives.append((COMMENT, None, rf"{o}(?:(?!{c})[\s\S])*{c}"))
        alternatives.append((COMMENT, "unterminated-comment", rf"{o}[\s\S]*\Z"))
    for marker in profile.line_comment_markers:
        alternatives.append((COMMENT, None, re.escape(marker) + r"[^\n]*"))
    for opener, closer, escape in sorted(
        profile.string_delimiters, key=lambda t: len(t[0]), reverse=True
    ):
        terminated, unterminated = _string_patterns(opener, closer, escape)
        alternatives.append((STRING_LITERAL, None, terminated))
        alternatives.append((STRING_LITERAL, "unterminated-string", unterminated))
    alternatives.append((NUMBER_LITERAL, None, _NUMBER_PATTERN))
    alternatives.append((_WORD, None, profile.identifier_pattern))

    symbols = set(_BASE_PUNCTUATION)
    for text in profile.operator_tokens | profile.decision_tokens:
        if not re.fullmatch(r"\w+", text):
            symbols.add(text)
    for sym in sorted(symbols, key=lambda s: (-len(s), s)):
        alternatives.append((_SYMBOL, None, re.escape(sym)))
    alternatives.append((_SYMBOL, None, r"\S"))  # catch-all: any other character is punctuation

    # adjacent alternatives of one kind and diagnostic share a group, in order
    groups: list[tuple[str, str | None, list[str]]] = []
    for kind, diagnostic, pattern in alternatives:
        if groups and groups[-1][:2] == (kind, diagnostic):
            groups[-1][2].append(pattern)
        else:
            groups.append((kind, diagnostic, [pattern]))
    # (?=\S): where only whitespace is left, each position \s* backtracks to
    # fails at once instead of trying every alternative
    master = re.compile(r"\s*(?=\S)(?:" + "|".join(
        f"(?P<g{i}>{'|'.join(patterns)})" for i, (_, _, patterns) in enumerate(groups)
    ) + ")")
    handlers: list[tuple[str, str | None] | None] = [None] * (master.groups + 1)
    for i, (kind, diagnostic, _) in enumerate(groups):
        handlers[master.groupindex[f"g{i}"]] = (kind, diagnostic)
    return master, handlers


def tokenize(
    text: str, profile: LanguageProfile, file: str | None = None
) -> tuple[TokenStream, list[Diagnostic]]:
    """Lex text into its token columns plus recovery diagnostics.

    Never raises for malformed input: unterminated strings consume the rest
    of the line (rest of file for multi-line literals), unterminated block
    comments the rest of the file, each with a diagnostic.
    """
    master, handlers = _compile(profile)
    folded_sets = folded_tokens(profile)
    fold = profile.fold
    keys: list[tuple[str, str]] = []
    diagnostics: list[Diagnostic] = []
    # One raw text -> local id table per kind class; a word's or a symbol's
    # kind follows from its text, so the text alone keys its id. A diagnostic
    # group looks up an always-empty table, so each of its tokens takes the
    # slow path below, which reports it.
    tables: dict[str, dict[str, int]] = {}
    lookups = [
        None if handler is None else ({} if handler[1] else tables.setdefault(handler[0], {})).get
        for handler in handlers
    ]

    def new_id(group: int, raw: str, line: int) -> int:
        kind, diagnostic = handlers[group]
        if diagnostic is not None:
            diagnostics.append(
                Diagnostic(code=diagnostic, message=f"{diagnostic.replace('-', ' ')} starting here",
                           file=file, line=line)
            )
        table = tables.setdefault(kind, {})
        lid = table.get(raw)
        if lid is None:
            if kind is _WORD:
                kind = KEYWORD if fold(raw) in folded_sets.keywords else IDENTIFIER
            elif kind is _SYMBOL:
                kind = OPERATOR if fold(raw) in folded_sets.operators else PUNCTUATION
            lid = table[raw] = len(keys)
            keys.append((kind, raw))
        return lid

    ids: list[int] = []
    lines: list[int] = []
    columns: list[int] = []
    multi_line: list[tuple[int, int]] = []  # (index, end line) of tokens spanning lines
    add_id, add_line, add_column = ids.append, lines.append, columns.append
    line, line_end, last = 1, -1, 0  # line_end: offset of the break before the current line

    # Each match is whitespace and then one token, starting where the last
    # one ended; only trailing whitespace fails to match, which ends the loop.
    # Plain lists grow faster than arrays; they become arrays once, below.
    for match in iter(master.scanner(text).match, None):
        group = match.lastindex
        pos = match.start(group)
        raw = match[group]
        if pos != last:
            breaks = text.count("\n", last, pos)
            if breaks:
                line += breaks
                line_end = text.rindex("\n", last, pos)
        lid = lookups[group](raw)
        add_id(new_id(group, raw, line) if lid is None else lid)
        add_line(line)
        add_column(pos - line_end)
        if "\n" in raw:
            line += raw.count("\n")
            line_end = pos + raw.rindex("\n")
            multi_line.append((len(lines) - 1, line))
        last = pos + len(raw)

    stream = TokenStream(ids, keys, lines, lines, columns)
    for index, end_line in multi_line:
        stream.end_lines[index] = end_line
    return stream, diagnostics


def physical_line_count(text: str) -> int:
    """Lines end at "\n" only, as token lines do; a last line without a
    break still counts."""
    return text.count("\n") + bool(text and not text.endswith("\n"))


# a line's class by its flags: 1 if a code token touches it, plus 2 if a comment does
_LINE_CLASSES = (BLANK_LINE, CODE_LINE, COMMENT_LINE, MIXED_LINE)
_COMMENT_FLAG = bytes.maketrans(b"\x01", b"\x02")


def classify_lines(tokens: TokenStream, physical_lines: int) -> LineClassification:
    """Tag each physical line as code / comment / blank / mixed.

    Multi-line tokens (block comments, triple-quoted strings) claim every
    line they span, so a 3-line block comment yields 3 comment lines.
    """
    # index = line; token lines only grow, so the last end line is the largest
    size = max(physical_lines, tokens.end_lines[-1] if len(tokens) else 0) + 1
    has_code = bytearray(size)
    has_comment = bytearray(size)
    # per local id: the flags its tokens set, or None for a text spanning lines
    flags_of = [None if "\n" in text else has_comment if kind == COMMENT else has_code
                for kind, text in tokens.keys]
    for lid, line in zip(tokens.ids, tokens.lines):
        flags = flags_of[lid]
        if flags is not None:
            flags[line] = 1
        else:
            kind, text = tokens.keys[lid]
            flags = has_comment if kind == COMMENT else has_code
            flags[line:line + text.count("\n") + 1] = b"\x01" * (text.count("\n") + 1)

    classes = tuple(map(_LINE_CLASSES.__getitem__, map(
        add, has_code[1:physical_lines + 1], has_comment[1:physical_lines + 1].translate(_COMMENT_FLAG))))
    return LineClassification(
        classes=classes,
        code=classes.count(CODE_LINE),
        comment=classes.count(COMMENT_LINE),
        blank=classes.count(BLANK_LINE),
        mixed=classes.count(MIXED_LINE),
        physical_lines=physical_lines,
    )

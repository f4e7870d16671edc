"""Profile-driven tokenizer and physical-line classification.

One master regex per profile, built from its comment/string/operator data.
A leading ``\\s*`` consumes the whitespace before each token, so tokens start
at non-whitespace characters and every match is a token. Alternation order
encodes lexical priority: comments and strings first (so comment markers
inside strings never spawn comments), then numbers, words, multi-char
symbols by falling length, and a single-character ``\\S`` catch-all that
guarantees every non-whitespace character lands in exactly one token.
Adjacent alternatives of one token class and diagnostic share one group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

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


class Token:
    """One lexeme at its 1-based start line and column.

    ``end_line`` is the start line plus the line breaks in the text, stored
    once because line classification, unit extraction and duplication read
    it for every token. Equality, hash and repr cover (kind, text, line,
    column), which determine it.
    """

    __slots__ = ("kind", "text", "line", "column", "end_line")

    def __init__(self, kind: str, text: str, line: int, column: int, end_line: int | None = None):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.end_line = line + text.count("\n") if end_line is None else end_line

    def _key(self) -> tuple[str, str, int, int]:
        return (self.kind, self.text, self.line, self.column)

    def __eq__(self, other):
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Token(kind={self.kind!r}, text={self.text!r}, line={self.line!r}, "
                f"column={self.column!r})")


@dataclass(frozen=True)
class LineClassification:
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
) -> tuple[list[Token], list[Diagnostic]]:
    """Lex text into ordered tokens plus recovery diagnostics.

    Never raises for malformed input: unterminated strings consume the rest
    of the line (rest of file for multi-line literals), unterminated block
    comments the rest of the file, each with a diagnostic.
    """
    master, handlers = _compile(profile)
    folded_sets = folded_tokens(profile)
    fold = profile.fold
    word_kinds: dict[str, str] = {}
    symbol_kinds: dict[str, str] = {}
    tokens: list[Token] = []
    append = tokens.append
    diagnostics: list[Diagnostic] = []
    line, line_start, last = 1, 0, 0  # line_start: offset where the current line starts

    # Each match is whitespace and then one token, starting where the last
    # one ended; only trailing whitespace fails to match, which ends the loop.
    for match in iter(master.scanner(text).match, None):
        group = match.lastindex
        pos = match.start(group)
        raw = match[group]
        if pos != last:
            breaks = text.count("\n", last, pos)
            if breaks:
                line += breaks
                line_start = text.rindex("\n", last, pos) + 1
        kind, diagnostic = handlers[group]
        if kind is _WORD:
            kind = word_kinds.get(raw)
            if kind is None:
                kind = KEYWORD if fold(raw) in folded_sets.keywords else IDENTIFIER
                word_kinds[raw] = kind
        elif kind is _SYMBOL:
            kind = symbol_kinds.get(raw)
            if kind is None:
                kind = OPERATOR if fold(raw) in folded_sets.operators else PUNCTUATION
                symbol_kinds[raw] = kind
        elif diagnostic is not None:
            diagnostics.append(
                Diagnostic(code=diagnostic, message=f"{diagnostic.replace('-', ' ')} starting here",
                           file=file, line=line)
            )
        column, end_line = pos - line_start + 1, line
        if "\n" in raw:
            end_line += raw.count("\n")
            line_start = pos + raw.rindex("\n") + 1
        append(Token(kind, raw, line, column, end_line))
        line = end_line
        last = pos + len(raw)

    return tokens, diagnostics


def physical_line_count(text: str) -> int:
    """Lines end at "\n" only, as token lines do; a last line without a
    break still counts."""
    return text.count("\n") + bool(text and not text.endswith("\n"))


def classify_lines(tokens: list[Token], physical_lines: int) -> LineClassification:
    """Tag each physical line as code / comment / blank / mixed.

    Multi-line tokens (block comments, triple-quoted strings) claim every
    line they span, so a 3-line block comment yields 3 comment lines.
    """
    has_code = [False] * physical_lines
    has_comment = [False] * physical_lines
    for token in tokens:
        flags = has_comment if token.kind == COMMENT else has_code
        line, end_line = token.line, token.end_line
        if line == end_line:
            if 1 <= line <= physical_lines:
                flags[line - 1] = True
        else:
            for line in range(line, end_line + 1):
                if 1 <= line <= physical_lines:
                    flags[line - 1] = True

    classes = []
    counts = {CODE_LINE: 0, COMMENT_LINE: 0, BLANK_LINE: 0, MIXED_LINE: 0}
    for code, comment in zip(has_code, has_comment):
        if code and comment:
            cls = MIXED_LINE
        elif code:
            cls = CODE_LINE
        elif comment:
            cls = COMMENT_LINE
        else:
            cls = BLANK_LINE
        classes.append(cls)
        counts[cls] += 1

    return LineClassification(
        classes=tuple(classes),
        code=counts[CODE_LINE],
        comment=counts[COMMENT_LINE],
        blank=counts[BLANK_LINE],
        mixed=counts[MIXED_LINE],
        physical_lines=physical_lines,
    )

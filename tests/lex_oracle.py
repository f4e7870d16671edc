"""The tokenizer as it was before the one-group-per-class master regex.

Kept verbatim as the reference for ``lexing.tokenize``: ``Token`` (with
``end_line`` recounted from the text on every read), ``_compile`` (one
named group per symbol and per comment marker, plus a ``\\s+`` skip
group) and ``tokenize`` (one ``bisect`` per token for its line, one fold
and set lookup per word and symbol). Only the module docstring is new;
only tests use it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from xmaint.errors import Diagnostic
from xmaint.profiles import LanguageProfile, folded_tokens

IDENTIFIER = "identifier"
KEYWORD = "keyword"
OPERATOR = "operator"
PUNCTUATION = "punctuation"
NUMBER_LITERAL = "numberLiteral"
STRING_LITERAL = "stringLiteral"
COMMENT = "comment"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int  # 1-based start line
    column: int  # 1-based start column

    @property
    def end_line(self) -> int:
        return self.line + self.text.count("\n")


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


@lru_cache(maxsize=None)
def _compile(profile: LanguageProfile):
    parts: list[tuple[str, str]] = []
    handlers: dict[str, tuple[str, str | None]] = {}  # group -> (action, detail)

    def add(action: str, pattern: str, detail: str | None = None):
        name = f"g{len(parts)}"
        parts.append((name, pattern))
        handlers[name] = (action, detail)

    for opener, closer in profile.block_comment_delimiters:
        o, c = re.escape(opener), re.escape(closer)
        add("comment", rf"{o}(?:(?!{c})[\s\S])*{c}")
        add("comment", rf"{o}[\s\S]*\Z", "unterminated-comment")
    for marker in profile.line_comment_markers:
        add("comment", re.escape(marker) + r"[^\n]*")
    for opener, closer, escape in sorted(
        profile.string_delimiters, key=lambda t: len(t[0]), reverse=True
    ):
        terminated, unterminated = _string_patterns(opener, closer, escape)
        add("string", terminated)
        add("string", unterminated, "unterminated-string")
    add("number", _NUMBER_PATTERN)
    add("word", profile.identifier_pattern)

    symbols = set(_BASE_PUNCTUATION)
    for text in profile.operator_tokens | profile.decision_tokens:
        if not re.fullmatch(r"\w+", text):
            symbols.add(text)
    for sym in sorted(symbols, key=lambda s: (-len(s), s)):
        add("symbol", re.escape(sym))
    add("skip", r"\s+")
    add("symbol", r".", None)  # catch-all: any other single char is punctuation

    master = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in parts))
    return master, handlers


def _line_starts(text: str) -> list[int]:
    starts = [0]
    pos = text.find("\n")
    while pos != -1:
        starts.append(pos + 1)
        pos = text.find("\n", pos + 1)
    return starts


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
    folded_keywords, folded_operators = folded_sets.keywords, folded_sets.operators
    starts = _line_starts(text)
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []

    for match in master.finditer(text):
        name = match.lastgroup
        action, detail = handlers[name]
        if action == "skip":
            continue
        raw = match.group(name)
        pos = match.start(name)
        line = bisect_right(starts, pos)
        column = pos - starts[line - 1] + 1
        if action == "comment":
            kind = COMMENT
        elif action == "string":
            kind = STRING_LITERAL
        elif action == "number":
            kind = NUMBER_LITERAL
        elif action == "word":
            folded = profile.fold(raw)
            kind = KEYWORD if folded in folded_keywords else IDENTIFIER
        else:  # symbol
            kind = OPERATOR if profile.fold(raw) in folded_operators else PUNCTUATION
        if detail in ("unterminated-string", "unterminated-comment"):
            diagnostics.append(
                Diagnostic(code=detail, message=f"{detail.replace('-', ' ')} starting here",
                           file=file, line=line)
            )
        tokens.append(Token(kind=kind, text=raw, line=line, column=column))

    return tokens, diagnostics

"""Token columns as rows, for tests.

``rows`` turns a ``TokenStream`` into one (kind, text, line, column,
end_line) tuple per token, which is how the lex and unit oracles and the
property tests read tokens; ``stream`` builds a ``TokenStream`` from such
rows, for tests that hand-make or filter a token sequence.
"""

from __future__ import annotations

from typing import NamedTuple

from xmaint.lexing import TokenStream


class Row(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    end_line: int


def rows(tokens: TokenStream) -> list[Row]:
    keys = tokens.keys
    return [
        Row(*keys[lid], line, column, end_line)
        for lid, line, column, end_line in zip(tokens.ids, tokens.lines, tokens.columns, tokens.end_lines)
    ]


def stream(tokens) -> TokenStream:
    """The stream of (kind, text, line, column[, end_line]) tuples; a missing
    end line is the start line plus the line breaks in the text."""
    full = [(kind, text, line, column, end_line[0] if end_line else line + text.count("\n"))
            for kind, text, line, column, *end_line in tokens]
    local: dict[tuple[str, str], int] = {}  # in order of first occurrence
    ids = [local.setdefault((kind, text), len(local)) for kind, text, *_ in full]
    return TokenStream(ids, local, [t[2] for t in full], [t[4] for t in full], [t[3] for t in full])
